//! The asynchronous batch-query job tier (the CasJobs shape).
//!
//! The public SkyServer served two very different query populations from
//! one pool: interactive page queries that must answer in milliseconds,
//! and ad-hoc analytic SQL that scans large tables for minutes.  §4's
//! interactive limits (1,000 rows / 30 seconds) cap the damage, but the
//! operational answer in the real system was a **batch tier**: submit the
//! expensive query as a *job*, poll its progress, fetch the stored result
//! later — so long scans never occupy an interactive worker.
//!
//! [`JobQueue`] is that tier:
//!
//! * a **bounded worker pool** separate from the HTTP workers drains a
//!   FIFO queue of submitted jobs,
//! * each job runs on the engine's shared read path with a
//!   [`QueryMonitor`] attached, so its **progress** (rows processed) is
//!   observable, it can be **cancelled** mid-scan, and it is **paced**
//!   ([`JobQueueConfig::pace`]) to cede CPU to interactive traffic,
//! * finished jobs keep their result set in memory (row-capped by
//!   [`JobQueueConfig::max_result_rows`]) until a **TTL** expires,
//! * per-submitter **quotas** bound both the number of queued/running
//!   jobs and the bytes of stored results.
//!
//! The job lifecycle:
//!
//! ```text
//!            submit            worker picks up           query ends
//!   (new) ─────────▶ Queued ──────────────────▶ Running ───────────▶ Done
//!                      │                           │                   │
//!                      │ cancel                    │ cancel /          │ TTL
//!                      ▼                           ▼ error             ▼
//!                  Cancelled ◀───────────── Cancelled / Failed     (removed)
//! ```

use skyserver::{QueryLimits, QueryMonitor, ResultSet, SkyServerError, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a job is executed: the site supplies a closure that runs a
/// read-only script against the current catalog snapshot under the given
/// limits, reporting to (and honouring) the monitor.
pub type JobRunner =
    dyn Fn(&str, QueryLimits, &QueryMonitor) -> Result<ResultSet, SkyServerError> + Send + Sync;

/// Tuning knobs of the batch tier.
#[derive(Debug, Clone)]
pub struct JobQueueConfig {
    /// Batch worker threads (separate from the HTTP worker pool).  Keeping
    /// this small is the point: at most `workers` heavy scans compete with
    /// interactive traffic, no matter how many jobs are queued.
    pub workers: usize,
    /// Maximum jobs one submitter may have queued or running.
    pub max_active_per_submitter: usize,
    /// Maximum bytes of stored (finished) results per submitter; further
    /// submissions are refused until results expire.
    pub max_stored_bytes_per_submitter: u64,
    /// Row cap applied to every job's result set (batch jobs escape the
    /// interactive 1,000-row limit but not *all* limits).
    pub max_result_rows: usize,
    /// Wall-clock budget per job, propagated as a deadline on the job's
    /// [`QueryMonitor`] (the same mechanism the interactive tier uses).
    /// Batch jobs escape the interactive 30-second limit, but an unbounded
    /// query would occupy one of the few batch workers forever — and a
    /// running job's catalog snapshot keeps the segments of a superseded
    /// release alive.  `None` disables the bound.
    pub max_seconds: Option<f64>,
    /// Memory budget per job (the executor's `max_bytes`): batch jobs get
    /// a larger budget than the interactive 64 MiB, but still bounded so
    /// one job cannot OOM the batch tier.  `None` disables the bound.
    pub max_bytes: Option<u64>,
    /// How long a finished job (and its stored result) is kept.
    pub ttl: Duration,
    /// Pacing sleep applied per executor row batch: the duty-cycle brake
    /// that keeps batch scans from starving interactive queries.  Zero
    /// disables pacing.
    pub pace: Duration,
}

impl Default for JobQueueConfig {
    fn default() -> Self {
        JobQueueConfig {
            workers: 2,
            max_active_per_submitter: 4,
            max_stored_bytes_per_submitter: 4 << 20,
            max_result_rows: 100_000,
            max_seconds: Some(600.0),
            max_bytes: Some(256 << 20),
            ttl: Duration::from_secs(600),
            pace: Duration::from_micros(500),
        }
    }
}

/// The lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a batch worker.
    Queued,
    /// A batch worker is executing the query.
    Running,
    /// Finished successfully; the result is stored until the TTL expires.
    Done,
    /// The query errored; the message is kept until the TTL expires.
    Failed,
    /// Cancelled while queued or running.
    Cancelled,
}

impl JobState {
    /// Lower-case name used in JSON payloads and the My Jobs page.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Has the job reached a terminal state?
    pub fn is_finished(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A point-in-time snapshot of one job, safe to hand to a status page.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job identifier (monotonically increasing per queue).
    pub id: u64,
    /// Who submitted the job.
    pub submitter: String,
    /// The submitted SQL.
    pub sql: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Position in the queue (0 = next to run) while `Queued`.
    pub queue_position: Option<usize>,
    /// Rows scanned / probed so far (live while `Running`).
    pub rows_processed: u64,
    /// Rows in the stored result (only when `Done`).
    pub result_rows: Option<usize>,
    /// Approximate bytes of the stored result (only when `Done`).
    pub result_bytes: u64,
    /// Whether the result hit the batch row cap.
    pub truncated: bool,
    /// The error message (only when `Failed`).
    pub error: Option<String>,
    /// Seconds spent queued before a worker picked the job up.
    pub waited_seconds: f64,
    /// Seconds of execution (live while `Running`, final afterwards).
    pub run_seconds: Option<f64>,
}

struct JobRecord {
    id: u64,
    submitter: String,
    sql: String,
    state: JobState,
    monitor: Arc<QueryMonitor>,
    /// `Arc` so fetches hand out a refcount bump instead of deep-cloning a
    /// potentially 100k-row result while the jobs mutex is held.
    result: Option<Arc<ResultSet>>,
    result_bytes: u64,
    truncated: bool,
    error: Option<String>,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
}

impl JobRecord {
    fn status(&self, queue_position: Option<usize>) -> JobStatus {
        JobStatus {
            id: self.id,
            submitter: self.submitter.clone(),
            sql: self.sql.clone(),
            state: self.state,
            queue_position,
            rows_processed: self.monitor.rows_processed(),
            result_rows: self.result.as_ref().map(|r| r.len()),
            result_bytes: self.result_bytes,
            truncated: self.truncated,
            error: self.error.clone(),
            waited_seconds: match (self.started, self.finished) {
                (Some(started), _) => started.duration_since(self.submitted).as_secs_f64(),
                // Cancelled while still queued: the wait ended at the
                // cancel, not "now" (it must not keep growing).
                (None, Some(finished)) => finished.duration_since(self.submitted).as_secs_f64(),
                (None, None) => self.submitted.elapsed().as_secs_f64(),
            },
            run_seconds: self.started.map(|started| {
                self.finished
                    .map(|finished| finished.duration_since(started))
                    .unwrap_or_else(|| started.elapsed())
                    .as_secs_f64()
            }),
        }
    }
}

#[derive(Default)]
struct Inner {
    jobs: HashMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    shutdown: bool,
}

/// The batch-query job service: a FIFO queue drained by a bounded worker
/// pool, with per-submitter quotas and TTL garbage collection.
pub struct JobQueue {
    inner: Mutex<Inner>,
    work_ready: Condvar,
    config: JobQueueConfig,
    next_id: AtomicU64,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl JobQueue {
    /// Start the job service: spawns [`JobQueueConfig::workers`] batch
    /// worker threads that execute submitted jobs through `runner`.
    pub fn start(config: JobQueueConfig, runner: Arc<JobRunner>) -> Arc<JobQueue> {
        let queue = Arc::new(JobQueue {
            inner: Mutex::new(Inner::default()),
            work_ready: Condvar::new(),
            config: config.clone(),
            next_id: AtomicU64::new(1),
            workers: Mutex::new(Vec::new()),
        });
        let mut workers = queue
            .workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for _ in 0..config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let runner = Arc::clone(&runner);
            workers.push(std::thread::spawn(move || {
                JobQueue::worker_loop(&queue, runner.as_ref())
            }));
        }
        drop(workers);
        queue
    }

    /// The configuration the queue runs with.
    pub fn config(&self) -> &JobQueueConfig {
        &self.config
    }

    /// Stop the worker pool: cancels every running job, wakes idle
    /// workers, and joins them.  Queued jobs stay `Queued` but will never
    /// run.  Called by the site on drop; idempotent.
    pub fn shutdown(&self) {
        {
            let mut inner = self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner.shutdown = true;
            for job in inner.jobs.values() {
                if job.state == JobState::Running {
                    job.monitor.cancel();
                }
            }
        }
        self.work_ready.notify_all();
        for handle in self
            .workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
        {
            let _ = handle.join();
        }
    }

    /// Submit a read-only SQL script as a batch job.  Returns the job id,
    /// or a quota error explaining which per-submitter limit was hit.
    pub fn submit(&self, submitter: &str, sql: &str) -> Result<u64, String> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Self::collect_expired(&mut inner, &self.config);
        let active = inner
            .jobs
            .values()
            .filter(|j| j.submitter == submitter && !j.state.is_finished())
            .count();
        if active >= self.config.max_active_per_submitter {
            return Err(format!(
                "quota exceeded: {submitter} already has {active} queued or running jobs \
                 (limit {}); wait for one to finish or cancel it",
                self.config.max_active_per_submitter
            ));
        }
        let stored: u64 = inner
            .jobs
            .values()
            .filter(|j| j.submitter == submitter)
            .map(|j| j.result_bytes)
            .sum();
        if stored >= self.config.max_stored_bytes_per_submitter {
            return Err(format!(
                "quota exceeded: {submitter} has {stored} bytes of stored results \
                 (limit {}); fetch them or wait for them to expire",
                self.config.max_stored_bytes_per_submitter
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        inner.jobs.insert(
            id,
            JobRecord {
                id,
                submitter: submitter.to_string(),
                sql: sql.to_string(),
                state: JobState::Queued,
                monitor: Arc::new(QueryMonitor::new()),
                result: None,
                result_bytes: 0,
                truncated: false,
                error: None,
                submitted: Instant::now(),
                started: None,
                finished: None,
            },
        );
        inner.queue.push_back(id);
        drop(inner);
        self.work_ready.notify_one();
        Ok(id)
    }

    /// A snapshot of one job (`None` if unknown or already expired).
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Self::collect_expired(&mut inner, &self.config);
        let position = inner.queue.iter().position(|&q| q == id);
        inner.jobs.get(&id).map(|j| j.status(position))
    }

    /// The stored result of a `Done` job (shared, not copied).  Errors
    /// explain every other state (unknown/expired, still pending, failed,
    /// cancelled).
    pub fn result(&self, id: u64) -> Result<Arc<ResultSet>, String> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Self::collect_expired(&mut inner, &self.config);
        let Some(job) = inner.jobs.get(&id) else {
            return Err(format!("no job {id} (unknown id, or its result expired)"));
        };
        match job.state {
            JobState::Done => match job.result.as_ref() {
                Some(result) => Ok(Arc::clone(result)),
                None => Err(format!("job {id} finished without a stored result")),
            },
            JobState::Queued | JobState::Running => Err(format!(
                "job {id} is still {}; poll its status until it is done",
                job.state
            )),
            JobState::Failed => Err(format!(
                "job {id} failed: {}",
                job.error.as_deref().unwrap_or("unknown error")
            )),
            JobState::Cancelled => Err(format!("job {id} was cancelled")),
        }
    }

    /// Cancel a job.  A queued job is cancelled immediately; a running job
    /// has its monitor cancelled and transitions once the executor stops
    /// (poll the status to observe `Cancelled`).  Returns the state after
    /// the cancel request, `None` for unknown ids.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Self::collect_expired(&mut inner, &self.config);
        let job = inner.jobs.get_mut(&id)?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.finished = Some(Instant::now());
                let state = job.state;
                inner.queue.retain(|&q| q != id);
                Some(state)
            }
            JobState::Running => {
                job.monitor.cancel();
                Some(JobState::Running)
            }
            finished => Some(finished),
        }
    }

    /// Snapshots of every job, newest first, optionally filtered to one
    /// submitter (the My Jobs page).
    pub fn jobs(&self, submitter: Option<&str>) -> Vec<JobStatus> {
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Self::collect_expired(&mut inner, &self.config);
        let mut out: Vec<JobStatus> = inner
            .jobs
            .values()
            .filter(|j| submitter.is_none_or(|s| j.submitter == s))
            .map(|j| j.status(inner.queue.iter().position(|&q| q == j.id)))
            .collect();
        out.sort_by_key(|s| std::cmp::Reverse(s.id));
        out
    }

    /// Drop finished jobs whose TTL has expired (called opportunistically
    /// from every public operation, so no dedicated GC thread is needed).
    fn collect_expired(inner: &mut Inner, config: &JobQueueConfig) {
        inner.jobs.retain(|_, job| {
            !job.state.is_finished()
                || job
                    .finished
                    .map(|finished| finished.elapsed() < config.ttl)
                    .unwrap_or(true)
        });
    }

    fn worker_loop(queue: &JobQueue, runner: &JobRunner) {
        loop {
            // Wait for a runnable job (or shutdown).
            let (id, sql, monitor) = {
                let mut inner = queue
                    .inner
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                loop {
                    if inner.shutdown {
                        return;
                    }
                    // Cancelled-while-queued jobs are removed from the
                    // queue eagerly, but tolerate any stale id.
                    let runnable = inner.queue.pop_front().and_then(|id| {
                        let job = inner.jobs.get_mut(&id)?;
                        (job.state == JobState::Queued).then(|| {
                            job.state = JobState::Running;
                            job.started = Some(Instant::now());
                            (id, job.sql.clone(), Arc::clone(&job.monitor))
                        })
                    });
                    if let Some(found) = runnable {
                        break found;
                    }
                    if inner.queue.is_empty() {
                        inner = queue
                            .work_ready
                            .wait(inner)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                }
            };
            monitor.set_pace(queue.config.pace);
            // The wall budget rides on the monitor as a deadline — the
            // same propagation path the interactive and API tiers use —
            // so the executor enforces it at every row-batch tick.
            if let Some(budget) = queue.config.max_seconds {
                monitor.set_deadline(Duration::from_secs_f64(budget.max(0.0)));
            }
            let limits = QueryLimits {
                max_rows: Some(queue.config.max_result_rows),
                max_seconds: None,
                max_bytes: queue.config.max_bytes,
            };
            // A panicking runner (or an armed `jobs.runner` failpoint) must
            // fail the *job*, not the worker: the pool would silently
            // shrink otherwise and the queue would eventually stall.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                skyserver::storage::failpoints::check("jobs.runner")
                    .map_err(|m| SkyServerError::Sql(skyserver::SqlError::Execution(m)))?;
                runner(&sql, limits, &monitor)
            }))
            .unwrap_or_else(|_| {
                Err(SkyServerError::Sql(skyserver::SqlError::Execution(
                    "the batch worker caught a panic while running this job".into(),
                )))
            });
            let mut inner = queue
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // The job can only disappear via TTL GC, which never collects
            // non-finished jobs — but a lost record must not kill a worker.
            if let Some(job) = inner.jobs.get_mut(&id) {
                job.finished = Some(Instant::now());
                match outcome {
                    // A cancel can race with the query's final batch: the
                    // executor may complete before ever seeing the flag.
                    // The contract is that a 200 from cancel() ends in
                    // `Cancelled`, so the flag wins over the result.
                    Ok(_) if monitor.is_cancelled() => {
                        job.state = JobState::Cancelled;
                    }
                    Ok(result) => {
                        job.result_bytes = approx_result_bytes(&result);
                        job.truncated = result.truncated;
                        job.result = Some(Arc::new(result));
                        job.state = JobState::Done;
                    }
                    Err(_) if monitor.is_cancelled() => {
                        job.state = JobState::Cancelled;
                    }
                    Err(e) => {
                        job.error = Some(e.to_string());
                        job.state = JobState::Failed;
                    }
                }
            }
        }
    }
}

/// Approximate in-memory size of a stored result (for the per-submitter
/// stored-bytes quota; an estimate is enough to bound memory).
pub fn approx_result_bytes(result: &ResultSet) -> u64 {
    let header: u64 = result.columns.iter().map(|c| c.len() as u64).sum();
    let cells: u64 = result
        .rows
        .iter()
        .flat_map(|row| row.iter())
        .map(|v| match v {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() as u64,
            Value::Bytes(b) => b.len() as u64,
        })
        .sum();
    header + cells + (result.rows.len() as u64) * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyserver_storage::Value;
    use std::sync::atomic::AtomicUsize;

    /// A runner that needs no SkyServer: interprets the "sql" as a row
    /// count and fabricates that many rows, ticking the monitor per row
    /// so cancellation and progress behave like the real executor.
    fn fake_runner() -> Arc<JobRunner> {
        Arc::new(|sql, limits, monitor| {
            if let Some(msg) = sql.strip_prefix("fail:") {
                return Err(SkyServerError::NotFound(msg.to_string()));
            }
            let rows: usize = sql.parse().unwrap_or(0);
            let mut out = ResultSet {
                columns: vec!["n".to_string()],
                rows: Vec::new(),
                truncated: false,
            };
            for i in 0..rows {
                if monitor.is_cancelled() {
                    return Err(SkyServerError::Sql(skyserver::SqlError::Cancelled));
                }
                // The wall budget arrives as a monitor deadline, exactly
                // as the real executor's checkpoint sees it.
                if monitor.deadline_expired() {
                    return Err(SkyServerError::Sql(skyserver::SqlError::LimitExceeded(
                        "query exceeded its wall-clock budget deadline".into(),
                    )));
                }
                monitor.add_rows(1);
                let pace = monitor.pace();
                if !pace.is_zero() {
                    std::thread::sleep(pace);
                }
                if limits.max_rows.is_none_or(|max| out.rows.len() < max) {
                    out.rows.push(vec![Value::Int(i as i64)]);
                } else {
                    out.truncated = true;
                }
            }
            Ok(out)
        })
    }

    fn wait_for<F: Fn() -> bool>(what: &str, cond: F) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn quick_config() -> JobQueueConfig {
        JobQueueConfig {
            workers: 1,
            // The fake runner paces per *row*, so the 2M-row "long" jobs
            // the cancellation tests rely on cannot finish before the
            // cancel lands, while few-row jobs stay instantaneous.
            pace: Duration::from_micros(50),
            ttl: Duration::from_secs(60),
            ..JobQueueConfig::default()
        }
    }

    #[test]
    fn lifecycle_submit_run_fetch() {
        let queue = JobQueue::start(quick_config(), fake_runner());
        let id = queue.submit("alice", "5").unwrap();
        wait_for("job done", || {
            queue.status(id).unwrap().state == JobState::Done
        });
        let status = queue.status(id).unwrap();
        assert_eq!(status.result_rows, Some(5));
        assert_eq!(status.rows_processed, 5);
        assert!(status.result_bytes > 0);
        assert!(!status.truncated);
        assert!(status.run_seconds.is_some());
        let result = queue.result(id).unwrap();
        assert_eq!(result.len(), 5);
        queue.shutdown();
    }

    #[test]
    fn batch_jobs_run_one_at_a_time_under_the_configured_pace() {
        // What keeps batched scans from competing with interactive
        // traffic: the queue's workers bound how many jobs run at once,
        // and every job's monitor carries the queue's duty-cycle brake.
        let running = Arc::new(AtomicUsize::new(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let runner: Arc<JobRunner> = {
            let (running, seen) = (Arc::clone(&running), Arc::clone(&seen));
            Arc::new(move |_: &str, _: QueryLimits, monitor: &QueryMonitor| {
                let concurrent = running.fetch_add(1, Ordering::SeqCst) + 1;
                seen.lock().unwrap().push((concurrent, monitor.pace()));
                std::thread::sleep(Duration::from_millis(5));
                running.fetch_sub(1, Ordering::SeqCst);
                Ok(ResultSet::default())
            })
        };
        let queue = JobQueue::start(quick_config(), runner);
        let ids: Vec<u64> = ["alice", "bob", "carol"]
            .iter()
            .map(|who| queue.submit(who, "1").unwrap())
            .collect();
        wait_for("every job done", || {
            ids.iter()
                .all(|&id| queue.status(id).unwrap().state == JobState::Done)
        });
        let paced_solo = (1, quick_config().pace);
        assert_eq!(*seen.lock().unwrap(), vec![paced_solo; 3]);
        queue.shutdown();
    }

    #[test]
    fn failed_jobs_keep_their_error() {
        let queue = JobQueue::start(quick_config(), fake_runner());
        let id = queue.submit("alice", "fail:boom").unwrap();
        wait_for("job failed", || {
            queue.status(id).unwrap().state == JobState::Failed
        });
        let err = queue.result(id).unwrap_err();
        assert!(err.contains("boom"), "{err}");
        queue.shutdown();
    }

    #[test]
    fn row_cap_truncates_results() {
        let config = JobQueueConfig {
            max_result_rows: 3,
            ..quick_config()
        };
        let queue = JobQueue::start(config, fake_runner());
        let id = queue.submit("alice", "10").unwrap();
        wait_for("job done", || {
            queue.status(id).unwrap().state == JobState::Done
        });
        let status = queue.status(id).unwrap();
        assert_eq!(status.result_rows, Some(3));
        assert!(status.truncated);
        queue.shutdown();
    }

    #[test]
    fn cancel_queued_and_running_jobs() {
        let queue = JobQueue::start(quick_config(), fake_runner());
        // A slow job (paced per row through the queue's pace? use many rows)
        // occupies the single worker; the second job stays queued.
        let running = queue.submit("alice", "2000000").unwrap();
        let queued = queue.submit("alice", "5").unwrap();
        wait_for("first job running", || {
            queue.status(running).unwrap().state == JobState::Running
        });
        // Cancel the queued job: immediate.
        assert_eq!(queue.cancel(queued), Some(JobState::Cancelled));
        assert_eq!(queue.status(queued).unwrap().state, JobState::Cancelled);
        // Its reported wait time froze at the cancel instead of growing.
        let waited = queue.status(queued).unwrap().waited_seconds;
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(queue.status(queued).unwrap().waited_seconds, waited);
        // Cancel the running job: lands at the next monitor check.
        wait_for("progress", || {
            queue.status(running).unwrap().rows_processed > 0
        });
        queue.cancel(running);
        wait_for("running job cancelled", || {
            queue.status(running).unwrap().state == JobState::Cancelled
        });
        // Progress halted after cancellation.
        let frozen = queue.status(running).unwrap().rows_processed;
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(queue.status(running).unwrap().rows_processed, frozen);
        assert!(queue.result(running).unwrap_err().contains("cancelled"));
        queue.shutdown();
    }

    #[test]
    fn queue_positions_are_reported_fifo() {
        let queue = JobQueue::start(quick_config(), fake_runner());
        let a = queue.submit("alice", "2000000").unwrap();
        wait_for("first job running", || {
            queue.status(a).unwrap().state == JobState::Running
        });
        let b = queue.submit("bob", "1").unwrap();
        let c = queue.submit("carol", "1").unwrap();
        assert_eq!(queue.status(b).unwrap().queue_position, Some(0));
        assert_eq!(queue.status(c).unwrap().queue_position, Some(1));
        assert_eq!(queue.status(a).unwrap().queue_position, None);
        let all = queue.jobs(None);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].id, c, "newest first");
        assert_eq!(queue.jobs(Some("bob")).len(), 1);
        queue.cancel(a);
        queue.shutdown();
    }

    #[test]
    fn per_submitter_active_quota_is_enforced() {
        let config = JobQueueConfig {
            max_active_per_submitter: 2,
            ..quick_config()
        };
        let queue = JobQueue::start(config, fake_runner());
        let blocker = queue.submit("alice", "2000000").unwrap();
        let _second = queue.submit("alice", "1").unwrap();
        let err = queue.submit("alice", "1").unwrap_err();
        assert!(err.contains("quota"), "{err}");
        // Another submitter is unaffected.
        assert!(queue.submit("bob", "1").is_ok());
        // Cancelling frees the slot.
        queue.cancel(blocker);
        wait_for("blocker cancelled", || {
            queue.status(blocker).unwrap().state == JobState::Cancelled
        });
        assert!(queue.submit("alice", "1").is_ok());
        queue.shutdown();
    }

    #[test]
    fn stored_bytes_quota_is_enforced() {
        let config = JobQueueConfig {
            max_stored_bytes_per_submitter: 64,
            ..quick_config()
        };
        let queue = JobQueue::start(config, fake_runner());
        let id = queue.submit("alice", "20").unwrap();
        wait_for("job done", || {
            queue.status(id).unwrap().state == JobState::Done
        });
        assert!(queue.status(id).unwrap().result_bytes >= 64);
        let err = queue.submit("alice", "1").unwrap_err();
        assert!(err.contains("stored results"), "{err}");
        assert!(queue.submit("bob", "1").is_ok());
        queue.shutdown();
    }

    #[test]
    fn runtime_budget_fails_runaway_jobs() {
        let config = JobQueueConfig {
            max_seconds: Some(0.02),
            ..quick_config()
        };
        let queue = JobQueue::start(config, fake_runner());
        let id = queue.submit("alice", "2000000").unwrap();
        wait_for("job failed on its time budget", || {
            queue.status(id).unwrap().state == JobState::Failed
        });
        let err = queue.status(id).unwrap().error.unwrap();
        assert!(err.contains("budget"), "{err}");
        queue.shutdown();
    }

    #[test]
    fn ttl_collects_finished_jobs() {
        let config = JobQueueConfig {
            ttl: Duration::from_millis(30),
            ..quick_config()
        };
        let queue = JobQueue::start(config, fake_runner());
        let id = queue.submit("alice", "3").unwrap();
        wait_for("job done", || {
            queue.status(id).is_some_and(|s| s.state == JobState::Done)
        });
        std::thread::sleep(Duration::from_millis(60));
        assert!(queue.status(id).is_none(), "expired job still visible");
        assert!(queue.result(id).unwrap_err().contains("expired"));
        // Expiry also releases the stored-bytes quota.
        assert!(queue.submit("alice", "1").is_ok());
        queue.shutdown();
    }

    #[test]
    fn shutdown_cancels_running_work() {
        let queue = JobQueue::start(quick_config(), fake_runner());
        let id = queue.submit("alice", "2000000").unwrap();
        wait_for("running", || {
            queue.status(id).unwrap().state == JobState::Running
        });
        // Must return promptly (the running scan is cancelled, not awaited
        // to completion — 2M paced rows would take far longer than CI).
        queue.shutdown();
        assert!(queue.status(id).unwrap().state.is_finished());
    }
}
