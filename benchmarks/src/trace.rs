//! The traced run: one client replays the deck and every operation leaves
//! a span tree
//!
//! ```text
//! op → { http.parse,
//!        site.handle → { sql.parse, sql.plan, sql.exec → htm.cover, formats.render },
//!        http.serialize, http.wire }
//! ```
//!
//! Spans are recorded from this file, around calls into each layer's public
//! functions — no product code changes.  `op` and `site.handle` are timed
//! where they happen (the client's round trip; a closure around
//! `SkyServerSite::handle` in the traced server).  The layers inside them
//! cannot be observed from outside, so right after each operation the
//! tracer replays the calls the handler made (`parse_request`,
//! `parse_script`, `plan_summary`, `execute_public_with`, `htm::cover`,
//! `OutputFormat::render`, `Response::to_bytes`) on the same inputs and
//! lays the measured durations out back to back inside their parent.  What
//! a parent has left after its children is its self time: `http.wire` for
//! `op`, `site.self` for `site.handle`.  Spans stay in memory and are
//! written out when the run ends.

use crate::deck::{Kind, Op, Template};
use crate::run::{Played, Player, WriteStep};
use skyserver::htm::{cover, Convex};
use skyserver::sql::parse_script;
use skyserver::storage::ScanStats;
use skyserver::{QueryMonitor, SkyServer};
use skyserver_web::{parse_request, OutputFormat, Request, Response, SkyServerSite};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One span: a named interval of one operation, nanoseconds since the
/// traced run began, and the index of the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index into the same operation's span list; `None` for the root.
    pub parent: Option<usize>,
    /// What the operation asked for (the root span only).
    pub target: Option<String>,
}

/// Self time of every span of one operation: its duration minus the part
/// of that interval its children cover (overlapping children count once,
/// and a child reaching outside its parent is clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start.max(span.start), c.end.min(span.end)))
                .filter(|(s, e)| e > s)
                .collect();
            children.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for (start, end) in children {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end - span.start) - covered
        })
        .collect()
}

/// What the closure around `SkyServerSite::handle` saw for the last request.
#[derive(Debug, Default, Clone, Copy)]
pub struct Handled {
    pub handle: Duration,
    pub serialize: Duration,
}

/// The handler of the traced server: `site.handle` and `Response::to_bytes`
/// with a clock around each.  (The server serialises the response again
/// itself; that second copy is part of the tracing overhead.)
pub fn traced_handler(
    site: Arc<SkyServerSite>,
    last: Arc<Mutex<Handled>>,
) -> impl Fn(&Request) -> Response + Send + Sync + 'static {
    move |req| {
        let started = Instant::now();
        let response = site.handle(req);
        let handle = started.elapsed();
        let started = Instant::now();
        let bytes = response.to_bytes(true);
        let serialize = started.elapsed();
        std::hint::black_box(bytes);
        *last.lock().expect("the handler never panics holding this") =
            Handled { handle, serialize };
        response
    }
}

/// Durations the tracer replayed for the layers inside a handler.
#[derive(Debug, Default)]
struct Inside {
    parse: Duration,
    plan: Duration,
    /// Execution, with `cover` nested inside it.
    exec: Duration,
    cover: Duration,
    render: Duration,
    cover_ranges: Option<usize>,
    rendered_bytes: usize,
    stats: Option<(ScanStats, u64)>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed())
}

/// Parse and plan time of one statement, by replay.
fn parse_and_plan(sky: &SkyServer, sql: &str) -> (Duration, Duration) {
    let (_, parse) = timed(|| std::hint::black_box(parse_script(sql)).is_ok());
    let (_, both) = timed(|| std::hint::black_box(sky.plan_summary(sql)).is_ok());
    (parse, both.saturating_sub(parse))
}

/// Replay what the handler of `op` did inside, on `sky`.  `cached` says the
/// handler answered from a cache and never reached the engine.  One replay,
/// not the best of several: a second pass runs on warm caches the handler
/// did not have, and the extra work between operations made the traced
/// round trip 20-30% slower than the untraced one.
fn replay_inside(sky: &SkyServer, op: &Op, cached: bool) -> Inside {
    let mut inside = Inside::default();
    let release = op.release;
    match &op.kind {
        Kind::XSql { sql, format } if !cached => {
            replay_statement(sky, sql, release, &mut inside);
            replay_render(sky, sql, release, *format, 1000, &mut inside);
        }
        Kind::Query { sql, .. } => {
            if !cached {
                replay_statement(sky, sql, release, &mut inside);
            }
            replay_render(
                sky,
                sql,
                release,
                OutputFormat::Json,
                limit_of(&op.target),
                &mut inside,
            );
        }
        Kind::Places => {
            let sql = "select top 12 objID, ra, dec, modelMag_r from Galaxy order by modelMag_r";
            replay_statement(sky, sql, None, &mut inside);
        }
        Kind::Cone { ra, dec, radius } => {
            let sql =
                format!("select objID, type, distance from fGetNearbyObjEq({ra}, {dec}, {radius})");
            (inside.parse, inside.plan) = parse_and_plan(sky, &sql);
            let (ranges, cover_time) = timed(|| {
                cover(&Convex::circle_arcmin(*ra, *dec, *radius))
                    .ranges()
                    .len()
            });
            inside.cover = cover_time;
            inside.cover_ranges = Some(ranges);
            let (result, total) = timed(|| sky.nearby_objects_on(*ra, *dec, *radius, release));
            inside.exec = total.saturating_sub(inside.parse + inside.plan);
            if op.target.starts_with("/api/") {
                if let Ok(mut result) = result {
                    result.rows.truncate(25);
                    let (text, render) = timed(|| OutputFormat::Json.render(&result));
                    inside.render = render;
                    inside.rendered_bytes = text.len();
                }
            }
        }
        Kind::Object { id } => {
            // The drill-down runs seven statements; their parse and plan
            // time stays inside `sql.exec` here.
            let (summary, exec) = timed(|| sky.explore_on(*id, release));
            inside.exec = exec;
            if let Ok(summary) = summary {
                let (bytes, render) = timed(|| serde_json::to_vec(&summary));
                inside.render = render;
                inside.rendered_bytes = bytes.map_or(0, |b| b.len());
            }
        }
        _ => {}
    }
    inside
}

/// The `limit=` of an API request (the API's default page is 100 rows).
fn limit_of(target: &str) -> usize {
    target
        .split_once("limit=")
        .map(|(_, rest)| rest.split('&').next().unwrap_or(rest))
        .and_then(|n| n.parse().ok())
        .unwrap_or(100)
}

fn replay_statement(sky: &SkyServer, sql: &str, release: Option<&str>, inside: &mut Inside) {
    (inside.parse, inside.plan) = parse_and_plan(sky, sql);
    let monitor = QueryMonitor::new();
    let (outcome, total) = timed(|| sky.execute_public_on(sql, &monitor, release));
    inside.exec = total.saturating_sub(inside.parse + inside.plan);
    if let Ok(outcome) = outcome {
        inside.stats = Some((outcome.stats.stats, monitor.peak_bytes()));
    }
}

fn replay_render(
    sky: &SkyServer,
    sql: &str,
    release: Option<&str>,
    format: OutputFormat,
    limit: usize,
    inside: &mut Inside,
) {
    if let Ok(mut result) = sky.query_on(sql, release) {
        result.rows.truncate(limit);
        let (text, render) = timed(|| format.render(&result));
        inside.render = render;
        inside.rendered_bytes = text.len();
    }
}

/// Everything the traced run gathered.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    /// Per span name: self time of every instance, microseconds.
    pub self_us: BTreeMap<&'static str, Vec<f64>>,
    /// `site.handle` minus the replayed durations inside it, which a slow
    /// replay can push below zero; one value per handled operation.
    pub site_self_raw_us: Vec<f64>,
    /// Client-side latency of every traced operation, nanoseconds.
    pub latencies: Vec<u64>,
    /// Per analytic template: execution milliseconds of every instance.
    pub exec_ms: BTreeMap<&'static str, Vec<f64>>,
    pub scan: ScanStats,
    pub sql_ops: u64,
    pub peak_bytes_max: u64,
    pub cover_ranges: Vec<f64>,
    pub rendered_bytes: Vec<f64>,
    pub body_bytes: Vec<f64>,
    /// Execution time of the operations whose parse, plan and execution
    /// were timed apart (the object drill-down's seven statements are
    /// not), microseconds: the base of `sql.plan_share`.
    pub split_exec_us: f64,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub reconnects: u64,
}

impl Trace {
    fn record(&mut self, op_spans: Vec<Span>) {
        for (span, own) in op_spans.iter().zip(self_times(&op_spans)) {
            self.self_us
                .entry(span.name)
                .or_default()
                .push(own as f64 / 1e3);
        }
        self.spans.extend(op_spans);
    }

    /// Mean self time of a span name, microseconds (0 if never entered).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.self_us
            .get(name)
            .map_or(0.0, |v| crate::stats::mean(v))
    }

    /// Total self time of a span name, microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.self_us.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut first_of_op = 0;
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent.is_none() {
                first_of_op = i;
            }
            let parent = match span.parent {
                Some(p) => format!("\"{}\"", self.spans[first_of_op + p].name),
                None => "null".to_string(),
            };
            let target = match &span.target {
                Some(t) => format!(",\"target\":{}", serde_json::json!(t)),
                None => String::new(),
            };
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}{}}}",
                span.op, span.name, span.start, span.end, parent, target
            )?;
        }
        out.flush()
    }
}

/// Lays spans out inside one operation.
struct Layout {
    op: u64,
    spans: Vec<Span>,
}

impl Layout {
    fn new(op: u64, start: u64, end: u64, target: String) -> Layout {
        Layout {
            op,
            spans: vec![Span {
                op,
                name: "op",
                start,
                end,
                parent: None,
                target: Some(target),
            }],
        }
    }

    /// Add a child of `parent` starting at `at`; returns its index and end.
    fn child(
        &mut self,
        parent: usize,
        name: &'static str,
        at: u64,
        length: Duration,
    ) -> (usize, u64) {
        let end = at + length.as_nanos() as u64;
        self.spans.push(Span {
            op: self.op,
            name,
            start: at,
            end,
            parent: Some(parent),
            target: None,
        });
        (self.spans.len() - 1, end)
    }

    /// The engine-side spans, back to back from `at` under `parent`.
    fn inside(&mut self, parent: usize, at: u64, inside: &Inside) {
        let mut at = at;
        for (name, length) in [
            ("sql.parse", inside.parse),
            ("sql.plan", inside.plan),
            ("sql.exec", inside.exec),
            ("formats.render", inside.render),
        ] {
            if length.is_zero() {
                continue;
            }
            let (index, end) = self.child(parent, name, at, length);
            if name == "sql.exec" && !inside.cover.is_zero() {
                self.child(index, "htm.cover", at, inside.cover.min(length));
            }
            at = end;
        }
    }
}

/// The pieces a traced replay needs beside the player.
pub struct Tracer<'a> {
    /// A catalog of the tracer's own, for replaying engine calls.
    pub probe: &'a SkyServer,
    /// The site behind the traced server (`None` for the analytic deck).
    pub site: Option<&'a SkyServerSite>,
    pub handled: &'a Mutex<Handled>,
    pub templates: &'a [Template],
}

impl Tracer<'_> {
    /// Replay `deck` from `from` for `window`, one operation at a time,
    /// recording a span tree for each.
    pub fn run(
        &self,
        player: &mut Player<'_>,
        deck: &[Op],
        from: usize,
        window: Duration,
    ) -> Trace {
        let mut trace = Trace::default();
        let epoch = Instant::now();
        // A fresh client has no cursor: start past any walk in progress.
        let mut at = (from..deck.len())
            .find(|i| !matches!(deck[*i].kind, Kind::Query { page, .. } if page > 1))
            .unwrap_or(0);
        while epoch.elapsed() < window {
            let op = &deck[at % deck.len()];
            let hits_before = self.site.map(|s| s.cache_stats().hits);
            let start = epoch.elapsed().as_nanos() as u64;
            let played = player.play(deck, at % deck.len());
            let end = start + played.latency.as_nanos() as u64;
            at += 1;
            trace.attempted += 1;
            trace.latencies.push(played.latency.as_nanos() as u64);
            let target = match &op.kind {
                Kind::Write => "admin write".to_string(),
                _ => op.target.chars().take(160).collect(),
            };
            let mut layout = Layout::new(trace.attempted, start, end, target);
            match &op.kind {
                Kind::Write => self.write_spans(&mut layout, &played),
                Kind::Sql { template } => {
                    self.sql_spans(&mut layout, op, *template, &played, &mut trace)
                }
                _ => {
                    let cached = match &op.kind {
                        Kind::XSql { .. } => self.site.map(|s| s.cache_stats().hits) > hits_before,
                        // Later pages of a walk read the rows cache.  (Beside
                        // writes only pinned walks run, and a publish
                        // leaves pinned entries alone.)
                        Kind::Query { page, .. } => *page > 1,
                        _ => false,
                    };
                    self.http_spans(&mut layout, op, cached, &played, &mut trace);
                }
            }
            trace.record(layout.spans);
            trace.failures.extend(played.failure);
        }
        trace.reconnects = player.reconnects;
        trace
    }

    fn http_spans(
        &self,
        layout: &mut Layout,
        op: &Op,
        cached: bool,
        played: &Played,
        trace: &mut Trace,
    ) {
        let handled = *self.handled.lock().expect("handler lock");
        let head = format!(
            "GET {} HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n",
            op.target
        );
        let (_, parse) = timed(|| std::hint::black_box(parse_request(&head)).is_some());
        let inside = replay_inside(self.probe, op, cached);
        let start = layout.spans[0].start;
        let (_, at) = layout.child(0, "http.parse", start, parse);
        let (handle, handle_end) = layout.child(0, "site.handle", at, handled.handle);
        layout.inside(handle, at, &inside);
        layout.child(0, "http.serialize", handle_end, handled.serialize);
        // What the round trip has left is the wire: sockets, the kernel,
        // thread wake-ups and the client's own reading.  It is the root's
        // self time; the record below makes it a named span too.
        let spent = parse + handled.handle + handled.serialize;
        let wire = played.latency.saturating_sub(spent);
        let wire_start = layout.spans[0].end - wire.as_nanos() as u64;
        layout.child(0, "http.wire", wire_start, wire);
        let children = inside.parse + inside.plan + inside.exec + inside.render;
        if !inside.plan.is_zero() {
            trace.split_exec_us += inside.exec.as_secs_f64() * 1e6;
        }
        trace
            .site_self_raw_us
            .push((handled.handle.as_nanos() as f64 - children.as_nanos() as f64) / 1e3);
        trace.body_bytes.push(played.bytes as f64);
        if inside.rendered_bytes > 0 {
            trace.rendered_bytes.push(inside.rendered_bytes as f64);
        }
        trace
            .cover_ranges
            .extend(inside.cover_ranges.map(|n| n as f64));
        if let Some((stats, peak)) = inside.stats {
            trace.scan.merge(&stats);
            trace.sql_ops += 1;
            trace.peak_bytes_max = trace.peak_bytes_max.max(peak);
        }
    }

    fn sql_spans(
        &self,
        layout: &mut Layout,
        op: &Op,
        template: usize,
        played: &Played,
        trace: &mut Trace,
    ) {
        // The operation is the real `execute_batch`; parsing and planning
        // inside it are replayed, and execution is what remains.
        let (parse, plan) = parse_and_plan(self.probe, &op.target);
        let exec = played.latency.saturating_sub(parse + plan);
        let inside = Inside {
            parse,
            plan,
            exec,
            ..Inside::default()
        };
        let start = layout.spans[0].start;
        layout.inside(0, start, &inside);
        trace.split_exec_us += exec.as_secs_f64() * 1e6;
        trace
            .exec_ms
            .entry(self.templates[template].id)
            .or_default()
            .push(exec.as_secs_f64() * 1e3);
        if let Some((stats, peak)) = played.sql {
            trace.scan.merge(&stats);
            trace.sql_ops += 1;
            trace.peak_bytes_max = trace.peak_bytes_max.max(peak);
        }
    }

    fn write_spans(&self, layout: &mut Layout, played: &Played) {
        let Some(timing) = played.write else { return };
        // Before the body: the admin lock and the copy-on-write fork.
        // After it: the slot swap and the cache invalidation.
        let start = layout.spans[0].start;
        let name = match timing.step {
            WriteStep::InsertBatch => "storage.insert_batch",
            WriteStep::UpdateRow => "storage.update_row",
            WriteStep::UndoDelete => "storage.undo_delete",
        };
        let rest = played
            .latency
            .saturating_sub(timing.body + timing.publish.unwrap_or_default());
        let (_, at) = layout.child(0, "storage.fork_and_swap", start, rest);
        let (_, at) = layout.child(0, name, at, timing.body);
        if let Some(publish) = timing.publish {
            layout.child(0, "storage.publish", at, publish);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            op: 1,
            name,
            start,
            end,
            parent,
            target: None,
        }
    }

    #[test]
    fn self_time_is_a_span_minus_what_its_children_cover() {
        let spans = vec![
            span("op", 0, 100, None),
            span("http.parse", 0, 5, Some(0)),
            span("site.handle", 5, 80, Some(0)),
            span("sql.parse", 5, 10, Some(2)),
            span("sql.exec", 10, 60, Some(2)),
            span("htm.cover", 10, 25, Some(4)),
            span("http.serialize", 80, 85, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![15, 5, 20, 5, 35, 15, 5]);
        // The self times of a tree add up to its root's duration.
        assert_eq!(own.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_clipped() {
        let spans = vec![
            span("op", 10, 50, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 45, 70, Some(0)),
            span("d", 0, 5, Some(0)),
        ];
        // a ∪ b covers 10..40, c is clipped to 45..50, d lies outside.
        assert_eq!(self_times(&spans)[0], 40 - 30 - 5);
    }

    #[test]
    fn layout_places_children_back_to_back() {
        let mut layout = Layout::new(1, 1000, 2000, String::new());
        let inside = Inside {
            parse: Duration::from_nanos(10),
            plan: Duration::from_nanos(20),
            exec: Duration::from_nanos(100),
            cover: Duration::from_nanos(40),
            ..Inside::default()
        };
        let (handle, _) = layout.child(0, "site.handle", 1000, Duration::from_nanos(500));
        layout.inside(handle, 1000, &inside);
        let names: Vec<&str> = layout.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "op",
                "site.handle",
                "sql.parse",
                "sql.plan",
                "sql.exec",
                "htm.cover"
            ]
        );
        let own = self_times(&layout.spans);
        assert_eq!(own, vec![500, 370, 10, 20, 60, 40]);
    }
}
