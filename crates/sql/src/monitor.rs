//! Cooperative query monitoring: cancellation, progress and pacing.
//!
//! The public SkyServer had two defences against expensive ad-hoc SQL: the
//! interactive limits (1,000 rows / 30 seconds, §4) and — operationally —
//! a batch tier where long scans run *outside* the interactive pool
//! (CasJobs).  Both need a way to observe and stop a query that is already
//! running.  A [`QueryMonitor`] is that hook: the executor checks it at
//! row-batch granularity (every [`MONITOR_BATCH`] rows or probes), so a
//! running scan can
//!
//! * be **cancelled** mid-flight ([`QueryMonitor::cancel`] makes the
//!   executor return [`crate::SqlError::Cancelled`] at the next batch
//!   boundary),
//! * report **progress** ([`QueryMonitor::rows_processed`] counts rows
//!   scanned and join probes, the job tier's progress bar), and
//! * be **paced** ([`QueryMonitor::set_pace`] inserts a short sleep per
//!   batch, so a background batch scan yields CPU to interactive queries
//!   instead of competing with them at full speed).
//!
//! The monitor is all atomics: one instance is shared between the executing
//! thread(s) — including parallel-scan workers — and any number of
//! observers, with no locks on the hot path.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How many rows/probes the executor processes between monitor checks.
///
/// Small enough that cancellation lands within milliseconds on any
/// realistic scan, large enough that the per-row cost is one local counter
/// increment.
pub const MONITOR_BATCH: u64 = 256;

/// A shared cancellation/progress/pacing handle for one running query.
///
/// Create one per query, hand a reference to the executor (via
/// [`crate::SqlEngine::execute_read`]) and keep a clone of the
/// surrounding `Arc` to observe or cancel from other threads.
///
/// Beyond cancel/progress/pace, the monitor carries the two resource
/// signals the governor propagates into a running query:
///
/// * a **deadline** ([`QueryMonitor::set_deadline`]) checked at every
///   [`MONITOR_BATCH`] tick — the web tier derives one per request so
///   interactive, API and batch paths all share a single expiry mechanism;
/// * a **memory gauge** ([`QueryMonitor::bytes_in_use`] /
///   [`QueryMonitor::peak_bytes`]) fed by the executor's accumulation
///   points, so an observer can see how much a query is holding.
#[derive(Debug)]
pub struct QueryMonitor {
    cancelled: AtomicBool,
    rows_processed: AtomicU64,
    pace_micros: AtomicU64,
    bytes_in_use: AtomicU64,
    peak_bytes: AtomicU64,
    /// 0 = no deadline set; otherwise 1 + the micros from `created` to the
    /// deadline, so a deadline at the creation instant itself is still
    /// "set" and already due.
    deadline_at_micros: AtomicU64,
    created: Instant,
}

impl Default for QueryMonitor {
    fn default() -> QueryMonitor {
        QueryMonitor::new()
    }
}

impl QueryMonitor {
    /// A fresh monitor: not cancelled, zero progress, no pacing, no
    /// deadline, empty memory gauge.
    pub fn new() -> QueryMonitor {
        QueryMonitor {
            cancelled: AtomicBool::new(false),
            rows_processed: AtomicU64::new(0),
            pace_micros: AtomicU64::new(0),
            bytes_in_use: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
            deadline_at_micros: AtomicU64::new(0),
            created: Instant::now(),
        }
    }

    /// Ask the running query to stop.  The executor notices at the next
    /// row-batch boundary and returns [`crate::SqlError::Cancelled`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has [`QueryMonitor::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Rows scanned plus join probes processed so far — the progress
    /// number a job status page shows.
    pub fn rows_processed(&self) -> u64 {
        self.rows_processed.load(Ordering::Relaxed)
    }

    /// Record `n` more processed rows (called by the executor).
    pub fn add_rows(&self, n: u64) {
        self.rows_processed.fetch_add(n, Ordering::Relaxed);
    }

    /// Throttle the query: sleep this long after every [`MONITOR_BATCH`]
    /// rows.  Zero (the default) disables pacing.  The batch tier uses
    /// this so background scans cede CPU to interactive traffic.
    pub fn set_pace(&self, pace: Duration) {
        self.pace_micros
            .store(pace.as_micros() as u64, Ordering::Relaxed);
    }

    /// The current pacing sleep (zero = none).
    pub fn pace(&self) -> Duration {
        Duration::from_micros(self.pace_micros.load(Ordering::Relaxed))
    }

    /// Set an absolute deadline `budget` from now.  The executor checks it
    /// at every [`MONITOR_BATCH`] tick and raises the wall-clock limit
    /// error ([`crate::SqlError::LimitExceeded`]) once it passes.  A zero
    /// budget expires immediately; calling again moves the deadline.
    pub fn set_deadline(&self, budget: Duration) {
        let at = self
            .created
            .elapsed()
            .saturating_add(budget)
            .as_micros()
            .min((u64::MAX - 1) as u128) as u64;
        self.deadline_at_micros.store(at + 1, Ordering::Relaxed);
    }

    /// Micros from `created` to the deadline, if one is set.
    fn deadline_micros(&self) -> Option<u64> {
        self.deadline_at_micros
            .load(Ordering::Relaxed)
            .checked_sub(1)
    }

    fn elapsed_micros(&self) -> u64 {
        self.created.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Has a deadline been set and already passed?
    pub fn deadline_expired(&self) -> bool {
        self.deadline_micros()
            .is_some_and(|at| self.elapsed_micros() >= at)
    }

    /// Time remaining until the deadline (`None` when no deadline is set;
    /// zero once expired).
    pub fn deadline_remaining(&self) -> Option<Duration> {
        self.deadline_micros()
            .map(|at| Duration::from_micros(at.saturating_sub(self.elapsed_micros())))
    }

    /// Charge `n` bytes to the query's memory gauge (called by the
    /// executor's accumulation points) and track the high-water mark.
    pub fn charge_bytes(&self, n: u64) {
        let now = self.bytes_in_use.fetch_add(n, Ordering::Relaxed) + n;
        self.peak_bytes.fetch_max(now, Ordering::Relaxed);
    }

    /// Release `n` previously charged bytes (end of query, or a buffer
    /// handed off/dropped).
    pub fn release_bytes(&self, n: u64) {
        // Saturating: a release that races a reset must not wrap the gauge.
        let _ = self
            .bytes_in_use
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Bytes the query is holding right now across its accumulation
    /// points.
    pub fn bytes_in_use(&self) -> u64 {
        self.bytes_in_use.load(Ordering::Relaxed)
    }

    /// The high-water mark of [`QueryMonitor::bytes_in_use`] over the
    /// query's lifetime.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_starts_clean_and_accumulates() {
        let m = QueryMonitor::new();
        assert!(!m.is_cancelled());
        assert_eq!(m.rows_processed(), 0);
        assert_eq!(m.pace(), Duration::ZERO);
        m.add_rows(100);
        m.add_rows(56);
        assert_eq!(m.rows_processed(), 156);
        m.cancel();
        assert!(m.is_cancelled());
    }

    #[test]
    fn pace_round_trips() {
        let m = QueryMonitor::new();
        m.set_pace(Duration::from_micros(750));
        assert_eq!(m.pace(), Duration::from_micros(750));
        m.set_pace(Duration::ZERO);
        assert_eq!(m.pace(), Duration::ZERO);
    }

    #[test]
    fn monitor_is_shareable_across_threads() {
        let m = std::sync::Arc::new(QueryMonitor::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = std::sync::Arc::clone(&m);
                scope.spawn(move || m.add_rows(1000));
            }
        });
        assert_eq!(m.rows_processed(), 4000);
    }

    #[test]
    fn deadline_expires_and_clears() {
        let m = QueryMonitor::new();
        assert!(!m.deadline_expired());
        assert!(m.deadline_remaining().is_none());
        m.set_deadline(Duration::from_secs(3600));
        assert!(!m.deadline_expired());
        assert!(m.deadline_remaining().unwrap() > Duration::from_secs(3000));
        m.set_deadline(Duration::ZERO);
        assert!(m.deadline_expired());
        assert_eq!(m.deadline_remaining(), Some(Duration::ZERO));
        // A new deadline replaces the one that passed.
        m.set_deadline(Duration::from_secs(3600));
        assert!(!m.deadline_expired());
    }

    #[test]
    fn a_zero_deadline_is_due_the_moment_it_is_set() {
        // Fresh monitors: many of these land in the monitor's first
        // microsecond, where "unset" and "due now" used to collide.
        for _ in 0..2000 {
            let m = QueryMonitor::new();
            m.set_deadline(Duration::ZERO);
            assert!(m.deadline_expired());
            assert_eq!(m.deadline_remaining(), Some(Duration::ZERO));
        }
    }

    #[test]
    fn memory_gauge_tracks_peak_and_saturates() {
        let m = QueryMonitor::new();
        m.charge_bytes(1000);
        m.charge_bytes(500);
        assert_eq!(m.bytes_in_use(), 1500);
        assert_eq!(m.peak_bytes(), 1500);
        m.release_bytes(1200);
        assert_eq!(m.bytes_in_use(), 300);
        assert_eq!(m.peak_bytes(), 1500, "peak survives releases");
        m.release_bytes(10_000);
        assert_eq!(m.bytes_in_use(), 0, "release saturates at zero");
    }
}
