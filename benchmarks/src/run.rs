//! Playing a deck: the closed-loop clients of the timed run.
//!
//! Each client sends its next operation only after the previous reply is
//! in — SkyServer's callers (browsers, scripts) each wait for their answer,
//! so what they see is service latency, not queueing at saturation.

use crate::deck::{Check, Kind, Op, Template};
use skyserver::htm::{lookup_id, Vec3};
use skyserver::storage::ScanStats;
use skyserver::{QueryLimits, QueryMonitor, SkyServer, Value};
use skyserver_web::{HttpClient, SkyServerSite};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Rows per generated insert batch.
pub const BATCH_ROWS: usize = 500;

/// Every how-many-th write also publishes a release.
pub const PUBLISH_EVERY: usize = 8;

/// The three operator writes, in the order a client cycles through them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteStep {
    InsertBatch,
    UpdateRow,
    UndoDelete,
}

impl WriteStep {
    pub fn of(write_index: usize) -> WriteStep {
        [
            WriteStep::InsertBatch,
            WriteStep::UpdateRow,
            WriteStep::UndoDelete,
        ][write_index % 3]
    }
}

/// Timings of one operator write, for the traced run.
#[derive(Debug, Clone, Copy)]
pub struct WriteTiming {
    pub step: WriteStep,
    /// The write itself, inside the admin section.
    pub body: Duration,
    /// `PUBLISH RELEASE`, when this write carried one.
    pub publish: Option<Duration>,
}

/// The operator side of `mixed_publish`: generated rows that no deck read
/// can see (type 0, magnitude 30, declination +60, ids far above the
/// catalog's), written in-process through `SkyServerSite::with_admin`.
pub struct Writer<'a> {
    site: &'a SkyServerSite,
    template: Vec<Value>,
    columns: Vec<String>,
    /// Release numbers are shared by every client: names must be unique.
    next_release: AtomicU64,
}

/// One client's place in its write cycle.
#[derive(Debug, Default)]
pub struct WriteCursor {
    writes: usize,
    /// Insert timestamps of the batch and of its updated row (`UPDATE` is
    /// delete + insert, so that row carries a later stamp): the two load
    /// events the UNDO removes.
    stamps: [u64; 2],
}

impl<'a> Writer<'a> {
    pub fn new(site: &'a SkyServerSite, pristine: &SkyServer) -> Writer<'a> {
        let row = pristine
            .query("select top 1 * from PhotoObj order by objID")
            .expect("a template row");
        Writer {
            site,
            template: row.rows[0].clone(),
            columns: row.columns,
            next_release: AtomicU64::new(2),
        }
    }

    fn batch(&self, client: usize, batch: usize) -> Vec<Vec<Value>> {
        let first_id = Self::first_id(client, batch);
        (0..BATCH_ROWS)
            .map(|k| {
                let (ra, dec) = (10.0 + client as f64 + k as f64 * 1e-3, 60.0);
                let unit = Vec3::from_radec(ra, dec);
                let mut row = self.template.clone();
                for (column, cell) in self.columns.iter().zip(&mut row) {
                    *cell = match column.as_str() {
                        "objID" => Value::Int(first_id + k as i64),
                        "parentID" | "nChild" | "type" | "flags" => Value::Int(0),
                        "ra" => Value::Float(ra),
                        "dec" => Value::Float(dec),
                        "cx" => Value::Float(unit.x),
                        "cy" => Value::Float(unit.y),
                        "cz" => Value::Float(unit.z),
                        "htmID" => Value::Int(lookup_id(ra, dec, 20) as i64),
                        "rowv" | "colv" => Value::Float(0.0),
                        name if name.contains("Mag_") => Value::Float(30.0),
                        _ => continue,
                    };
                }
                row
            })
            .collect()
    }

    fn first_id(client: usize, batch: usize) -> i64 {
        9_000_000_000 + client as i64 * 100_000_000 + (batch * BATCH_ROWS) as i64
    }

    /// Run the client's next write; `Err` says what went wrong.
    pub fn write(&self, client: usize, cursor: &mut WriteCursor) -> Result<WriteTiming, String> {
        let step = WriteStep::of(cursor.writes);
        let batch = cursor.writes / 3;
        let publish = (cursor.writes + 1).is_multiple_of(PUBLISH_EVERY);
        cursor.writes += 1;
        let rows = (step == WriteStep::InsertBatch).then(|| self.batch(client, batch));
        let stamps = cursor.stamps;
        let (outcome, body, published) = self.site.with_admin(|sky| {
            let started = Instant::now();
            let outcome: Result<[u64; 2], String> = match step {
                WriteStep::InsertBatch => {
                    let db = sky.engine_mut().db_mut();
                    let ts = db.next_timestamp();
                    db.insert_many("PhotoObj", rows.expect("a batch"), ts)
                        .map_err(|e| e.to_string())
                        .and_then(|n| {
                            (n == BATCH_ROWS)
                                .then_some([ts, ts])
                                .ok_or(format!("inserted {n} rows"))
                        })
                }
                WriteStep::UpdateRow => sky
                    .execute(&format!(
                        "update PhotoObj set modelMag_r = 29.5 where objID = {}",
                        Self::first_id(client, batch)
                    ))
                    .map_err(|e| e.to_string())
                    .and_then(|o| {
                        let stamp = sky.engine().db().current_timestamp();
                        (o.rows_affected == 1)
                            .then_some([stamps[0], stamp])
                            .ok_or(format!("updated {} rows", o.rows_affected))
                    }),
                WriteStep::UndoDelete => {
                    let db = sky.engine_mut().db_mut();
                    stamps
                        .iter()
                        .map(|ts| db.delete_by_timestamp_range("PhotoObj", *ts, *ts))
                        .sum::<Result<usize, _>>()
                        .map_err(|e| e.to_string())
                        .and_then(|n| {
                            (n == BATCH_ROWS)
                                .then_some(stamps)
                                .ok_or(format!("undo removed {n} rows"))
                        })
                }
            };
            let body = started.elapsed();
            let published = publish.then(|| {
                let n = self.next_release.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                let result = sky.publish_release(&format!("dr{n}"));
                (started.elapsed(), result.map_err(|e| e.to_string()))
            });
            (outcome, body, published)
        });
        cursor.stamps = outcome.map_err(|e| format!("{step:?}: {e}"))?;
        let publish = match published {
            Some((elapsed, result)) => {
                result.map_err(|e| format!("publish: {e}"))?;
                Some(elapsed)
            }
            None => None,
        };
        Ok(WriteTiming {
            step,
            body,
            publish,
        })
    }
}

/// What playing one operation produced.
#[derive(Debug, Default)]
pub struct Played {
    pub latency: Duration,
    /// `None` when the operation passed its checks, else what failed.
    pub failure: Option<String>,
    /// Response body bytes (rows for in-process SQL are not bytes: 0).
    pub bytes: usize,
    /// Executor counters and the memory gauge's peak, for in-process SQL.
    pub sql: Option<(ScanStats, u64)>,
    pub write: Option<WriteTiming>,
}

/// One closed-loop client: a keep-alive connection, or the trusted
/// in-process interface for the analytic deck, plus the state operations
/// hand to their successors (cursor, write cycle, first-pass results).
pub struct Player<'a> {
    index: usize,
    http: Option<(HttpClient, SocketAddr)>,
    sky: Option<&'a SkyServer>,
    templates: &'a [Template],
    writer: Option<&'a Writer<'a>>,
    write_cursor: WriteCursor,
    next_cursor: Option<String>,
    /// Rows and boundary digest of each analytic statement's first run.
    first_pass: Vec<Option<(usize, u64)>>,
    pub reconnects: u64,
}

impl<'a> Player<'a> {
    /// A client of the HTTP server at `addr`.
    pub fn http(index: usize, addr: SocketAddr, writer: Option<&'a Writer<'a>>) -> Player<'a> {
        let client = HttpClient::connect(addr).expect("connecting to the benchmark's own server");
        Player {
            index,
            http: Some((client, addr)),
            sky: None,
            templates: &[],
            writer,
            write_cursor: WriteCursor::default(),
            next_cursor: None,
            first_pass: Vec::new(),
            reconnects: 0,
        }
    }

    /// The in-process analytic client.
    pub fn analytic(sky: &'a SkyServer, templates: &'a [Template], deck_len: usize) -> Player<'a> {
        Player {
            index: 0,
            http: None,
            sky: Some(sky),
            templates,
            writer: None,
            write_cursor: WriteCursor::default(),
            next_cursor: None,
            first_pass: vec![None; deck_len],
            reconnects: 0,
        }
    }

    /// Play `deck[at]` and check its answer.
    pub fn play(&mut self, deck: &[Op], at: usize) -> Played {
        let op = &deck[at];
        match &op.kind {
            Kind::Write => self.play_write(),
            Kind::Sql { template } => self.play_sql(op, at, *template),
            _ => self.play_get(op),
        }
    }

    fn play_write(&mut self) -> Played {
        let writer = self.writer.expect("a deck with writes has a writer");
        let started = Instant::now();
        let outcome = writer.write(self.index, &mut self.write_cursor);
        let latency = started.elapsed();
        match outcome {
            Ok(timing) => Played {
                latency,
                write: Some(timing),
                ..Played::default()
            },
            Err(e) => Played {
                latency,
                failure: Some(format!("write failed: {e}")),
                ..Played::default()
            },
        }
    }

    fn play_sql(&mut self, op: &Op, at: usize, template: usize) -> Played {
        let sky = self.sky.expect("the analytic client runs in-process");
        let monitor = QueryMonitor::new();
        let started = Instant::now();
        let outcome = sky.execute_batch(&op.target, QueryLimits::UNLIMITED, &monitor);
        let latency = started.elapsed();
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                return Played {
                    latency,
                    failure: Some(format!("{}: {e}", self.templates[template].id)),
                    ..Played::default()
                }
            }
        };
        let t = &self.templates[template];
        let rows = &outcome.result.rows;
        let seen = (
            rows.len(),
            crate::deck::fnv1a(format!("{:?}{:?}", rows.first(), rows.last()).as_bytes()),
        );
        let failure = t
            .invariants
            .iter()
            .find_map(|i| i.check(&outcome.result).err())
            .or_else(|| match self.first_pass[at].replace(seen) {
                Some(first) if first != seen => Some(format!(
                    "rows changed between passes: {first:?} then {seen:?}"
                )),
                _ => None,
            })
            .map(|e| format!("{}: {e}", t.id));
        Played {
            latency,
            failure,
            bytes: 0,
            sql: Some((outcome.stats.stats, monitor.peak_bytes())),
            write: None,
        }
    }

    fn play_get(&mut self, op: &Op) -> Played {
        let (client, addr) = self.http.as_mut().expect("an HTTP client");
        let follows_cursor = matches!(op.kind, Kind::Query { page, .. } if page > 1);
        let path = match (&self.next_cursor, follows_cursor) {
            (Some(cursor), true) => format!("{}&cursor={cursor}", op.target),
            (None, true) => {
                return Played {
                    failure: Some(format!("no cursor to follow for {}", op.target)),
                    ..Played::default()
                }
            }
            _ => op.target.clone(),
        };
        let started = Instant::now();
        let outcome = client.get(&path);
        let latency = started.elapsed();
        let (status, body) = match outcome {
            Ok(reply) => reply,
            Err(e) => {
                // The connection is in an unknown state: start a new one.
                *client = HttpClient::connect(*addr).expect("reconnecting");
                self.reconnects += 1;
                return Played {
                    latency,
                    failure: Some(format!("{path}: {e}")),
                    ..Played::default()
                };
            }
        };
        if matches!(op.kind, Kind::Query { .. }) {
            self.next_cursor = cursor_in(&body).map(str::to_string);
        }
        let failure = if status != op.status {
            Some(format!("{path}: status {status}, expected {}", op.status))
        } else if !op.check.passes(&body) {
            Some(format!("{path}: body fails {}", describe(&op.check)))
        } else {
            None
        };
        Played {
            latency,
            failure,
            bytes: body.len(),
            sql: None,
            write: None,
        }
    }
}

fn describe(check: &Check) -> String {
    let text = format!("{check:?}");
    text.chars().take(120).collect()
}

/// The `next_cursor` token of an API JSON page, if it has one.
fn cursor_in(body: &str) -> Option<&str> {
    let rest = body.split_once("\"next_cursor\":\"")?.1;
    rest.split_once('"').map(|(token, _)| token)
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time since the timed run began.
    pub done: Duration,
    pub latency: Duration,
}

/// What the timed run of one workload measured.
#[derive(Debug, Default)]
pub struct RunReport {
    pub samples: Vec<Sample>,
    /// Operations played, warm-up included (all are checked).
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Max `VmRSS` over the timed run, MiB.
    pub rss_peak_mb: f64,
    pub reconnects: u64,
    /// The timed window.
    pub window: Duration,
}

/// Resident set size of this process in MiB (server and clients both live
/// here), from `/proc/self/status`.
pub fn vm_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How often the first client samples `VmRSS`.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Play the decks, one client thread each: the first `warm_up` operations
/// untimed, then `window` of timed operations, cycling through the deck.
/// Every operation is checked.
pub fn timed_run(
    players: &mut [Player<'_>],
    decks: &[Vec<Op>],
    warm_up: usize,
    window: Duration,
) -> RunReport {
    let barrier = Barrier::new(players.len());
    let epoch = std::sync::OnceLock::new();
    let mut report = RunReport {
        window,
        ..RunReport::default()
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = players
            .iter_mut()
            .zip(decks)
            .enumerate()
            .map(|(c, (player, deck))| {
                let (barrier, epoch) = (&barrier, &epoch);
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    let mut at = 0;
                    while at < warm_up {
                        failures.extend(player.play(deck, at).failure);
                        at += 1;
                    }
                    barrier.wait();
                    let started = *epoch.get_or_init(Instant::now);
                    let mut samples = Vec::new();
                    let mut rss_peak = vm_rss_mb();
                    let mut rss_sampled = started;
                    while started.elapsed() < window {
                        let played = player.play(deck, at % deck.len());
                        let now = Instant::now();
                        samples.push(Sample {
                            done: now - started,
                            latency: played.latency,
                        });
                        failures.extend(played.failure);
                        at += 1;
                        if c == 0 && now - rss_sampled >= RSS_SAMPLE_EVERY {
                            rss_peak = rss_peak.max(vm_rss_mb());
                            rss_sampled = now;
                        }
                    }
                    (samples, at as u64, failures, rss_peak)
                })
            })
            .collect();
        for handle in handles {
            let (samples, attempted, failures, rss) = handle.join().expect("client thread");
            report.samples.extend(samples);
            report.attempted += attempted;
            report.failures.extend(failures);
            report.rss_peak_mb = report.rss_peak_mb.max(rss);
        }
    });
    report.reconnects = players.iter().map(|p| p.reconnects).sum();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_cycle_and_cursor_extraction() {
        let steps: Vec<WriteStep> = (0..6).map(WriteStep::of).collect();
        assert_eq!(
            steps,
            [
                WriteStep::InsertBatch,
                WriteStep::UpdateRow,
                WriteStep::UndoDelete,
                WriteStep::InsertBatch,
                WriteStep::UpdateRow,
                WriteStep::UndoDelete
            ]
        );
        assert_eq!(
            cursor_in("{\"meta\":{\"next_cursor\":\"76313a\",\"offset\":0}}"),
            Some("76313a")
        );
        assert_eq!(cursor_in("{\"meta\":{\"next_cursor\":null}}"), None);
    }
}
