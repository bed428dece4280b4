//! `skybench` — the repo's benchmark: four workloads on the Personal
//! SkyServer catalog, end-to-end metrics with tracing off, per-layer
//! metrics from a separate traced run.  See `benchmarks/README.md`.
//!
//! ```text
//! skybench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Progress goes to standard error; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.

mod deck;
mod layers;
mod names;
mod run;
mod stats;
mod trace;

use deck::{analytic_deck, analytic_templates, deck_digest, DeckBuilder, Facts, Op};
use run::{timed_run, Player, RunReport, Writer};
use skyserver::{SkyServer, SkyServerBuilder, SurveyConfig};
use skyserver_web::{parse_request, HttpServer, ServerConfig, SkyServerSite};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The default deck seed: SIGMOD 2002, June 3rd.
const DEFAULT_SEED: u64 = 20020603;

/// Closed-loop clients (generator thread + keep-alive connection) of a
/// workload.  The read-only HTTP workloads have one: a client and the
/// worker serving it take turns on one core, which leaves the second of
/// this machine's two cores to the engine's parallel scans and the
/// server's other threads, and a run repeats within a few percent.  Two
/// clients saturate both cores and the same seed then gives throughput 9%
/// and p95 18% apart from run to run, depending on which threads share a
/// core.  `mixed_publish` needs two: one client reads while the other
/// holds the admin section, which is the situation it exists to measure.
fn clients(workload: &str) -> u64 {
    if workload == "mixed_publish" {
        2
    } else {
        1
    }
}

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Operations per client deck at full size.  A deck is played cyclically
/// for `--seconds`; `adhoc_api`'s is many times the 128 cache slots, so a
/// key is long evicted before its turn comes again.
const HOT_DECK: usize = 4000;
const ADHOC_DECK: usize = 1500;
const MIXED_DECK: usize = 600;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: skybench --workload {} [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
        names::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    if !names::WORKLOADS.contains(&args.workload.as_str()) || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// One set-up, as a user of the system pays for it: generate, load, index,
/// analyze, publish `dr1`, fork, start the site and its server.
struct SetUp {
    pristine: SkyServer,
    total_s: f64,
    site_start_s: f64,
}

fn set_up(config: &SurveyConfig) -> SetUp {
    let started = Instant::now();
    let pristine = SkyServerBuilder::new()
        .with_config(config.clone())
        .build()
        .expect("building the catalog from a preset configuration");
    let built = started.elapsed();
    let site = SkyServerSite::new(pristine.fork());
    let server = site.serve(0).expect("starting the HTTP server");
    let total = started.elapsed();
    server.stop();
    SetUp {
        pristine,
        total_s: total.as_secs_f64(),
        site_start_s: (total - built).as_secs_f64(),
    }
}

/// Metrics by name; emitted in the declared order, and the run fails if a
/// declared one was not measured or an undeclared one was.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    fn to_json(&self, declared: &[(String, &str)]) -> String {
        assert_eq!(
            self.0.keys().collect::<Vec<_>>(),
            {
                let mut names: Vec<&String> = declared.iter().map(|d| &d.0).collect();
                names.sort();
                names
            },
            "measured and declared metric names differ"
        );
        let fields: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.0[name]
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The decks of one workload, one per client.
fn build_decks(
    workload: &str,
    sky: &SkyServer,
    facts: &Facts,
    seed: u64,
    scale: usize,
) -> Vec<Vec<Op>> {
    let builder = DeckBuilder::new(sky, facts);
    let clients = 0..clients(workload);
    match workload {
        "interactive_hot" => {
            let hot = builder.hot_pages(seed);
            clients
                .map(|c| hot.deck(seed, c, HOT_DECK / scale))
                .collect()
        }
        "adhoc_api" => clients
            .map(|c| builder.adhoc_deck(seed.wrapping_add(c << 32), ADHOC_DECK / scale))
            .collect(),
        "mixed_publish" => {
            let hot = builder.hot_pages(seed);
            clients
                .map(|c| builder.mixed_deck(&hot, seed, c, MIXED_DECK / scale))
                .collect()
        }
        _ => vec![analytic_deck(seed)],
    }
}

/// The untimed prefix: the first tenth of an HTTP deck; one whole pass of
/// the analytic deck, so every template has run once before the clock does.
fn warm_up_len(workload: &str, deck_len: usize) -> usize {
    if workload == "analytic_sql" {
        analytic_templates().len()
    } else {
        deck_len / 10
    }
}

/// Milliseconds of a nearest-rank percentile over latency samples.
fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    stats::percentile(sorted_ns, p) as f64 / 1e6
}

/// Operations completed inside the timed window, per second.
fn ops_per_s(report: &RunReport) -> f64 {
    let inside = report
        .samples
        .iter()
        .filter(|s| s.done <= report.window)
        .count();
    inside as f64 / report.window.as_secs_f64()
}

/// The run's latencies in nanoseconds, ascending.
fn sorted_latencies(report: &RunReport) -> Vec<u64> {
    let mut latencies: Vec<u64> = report
        .samples
        .iter()
        .map(|s| s.latency.as_nanos() as u64)
        .collect();
    latencies.sort_unstable();
    latencies
}

fn end_to_end(report: &RunReport, setup_s: f64) -> Metrics {
    let latencies = sorted_latencies(report);
    eprintln!(
        "  {} timed operations; p95 has {} samples beyond it{}",
        latencies.len(),
        stats::samples_beyond(latencies.len(), 0.95),
        if stats::supports(latencies.len(), 0.95) {
            ""
        } else {
            " (fewer than 10: read it as a maximum, not a percentile)"
        }
    );
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("ops_per_s", ops_per_s(report));
    m.set("p50_ms", percentile_ms(&latencies, 0.50));
    m.set("p95_ms", percentile_ms(&latencies, 0.95));
    m.set("rss_peak_mb", report.rss_peak_mb);
    m
}

/// The serving-tier counters of the schema-browser page: both caches and
/// the governor, read the way an operator would.
fn qa_counters(site: &SkyServerSite) -> serde_json::Value {
    let request = parse_request("GET /skyserverqa/metadata HTTP/1.1\r\n").expect("a request");
    serde_json::from_slice(&site.handle(&request).body).expect("the QA page is JSON")
}

fn counter(doc: &serde_json::Value, section: &str, name: &str) -> f64 {
    doc[section][name].as_f64().unwrap_or(0.0)
}

/// The traced run of one workload and everything measured beside it.
fn traced(
    args: &Args,
    setup: &SetUp,
    facts: &Facts,
    decks: &[Vec<Op>],
    failures: &mut Vec<String>,
) -> (Metrics, u64) {
    let workload = args.workload.as_str();
    let deck = &decks[..1];
    let warm_up = warm_up_len(workload, deck[0].len());
    let window = Duration::from_secs_f64(args.seconds);
    let (plain_window, traced_window) = (window / 4, window - window / 4);
    let templates = analytic_templates();
    let probe = setup.pristine.fork();
    let handled = Arc::new(Mutex::new(trace::Handled::default()));
    let mut m = Metrics::default();

    let (plain, trace) = if workload == "analytic_sql" {
        let sky = setup.pristine.fork();
        let mut players = [Player::analytic(&sky, &templates, deck[0].len())];
        let plain = timed_run(&mut players, deck, warm_up, plain_window);
        let tracer = trace::Tracer {
            probe: &probe,
            site: None,
            handled: &handled,
            templates: &templates,
        };
        let trace = tracer.run(&mut players[0], &deck[0], warm_up, traced_window);
        for name in [
            "site.log_records",
            "cache.hit_ratio",
            "cache.entries",
            "cache.bytes",
            "governor.shed",
        ] {
            m.set(name, 0.0);
        }
        m.set("storage.releases_live", sky.release_names().len() as f64);
        (plain, trace)
    } else {
        let site = SkyServerSite::new(setup.pristine.fork());
        let plain_server = site.serve(0).expect("starting the HTTP server");
        let traced_server = HttpServer::start_with(
            0,
            ServerConfig::default(),
            trace::traced_handler(Arc::clone(&site), Arc::clone(&handled)),
        )
        .expect("starting the traced server");
        let writer = Writer::new(&site, &setup.pristine);
        let mut players = [Player::http(0, plain_server.addr(), Some(&writer))];
        let plain = timed_run(&mut players, deck, warm_up, plain_window);
        let before = qa_counters(&site);
        // A client of its own on the traced server; its write cycle starts
        // afresh, on ids the first client never used.
        let mut player = Player::http(1, traced_server.addr(), Some(&writer));
        let tracer = trace::Tracer {
            probe: &probe,
            site: Some(&site),
            handled: &handled,
            templates: &templates,
        };
        let trace = tracer.run(&mut player, &deck[0], warm_up, traced_window);
        let after = qa_counters(&site);
        let delta = |name: &str| {
            ["result_cache", "row_cache"]
                .iter()
                .map(|cache| counter(&after, cache, name) - counter(&before, cache, name))
                .sum::<f64>()
        };
        let lookups = delta("hits") + delta("misses");
        m.set(
            "cache.hit_ratio",
            if lookups > 0.0 {
                delta("hits") / lookups
            } else {
                0.0
            },
        );
        let both =
            |name: &str| counter(&after, "result_cache", name) + counter(&after, "row_cache", name);
        m.set("cache.entries", both("entries"));
        m.set("cache.bytes", both("bytes"));
        m.set("governor.shed", site.governor().stats().shed as f64);
        m.set("site.log_records", site.request_log().len() as f64);
        m.set(
            "storage.releases_live",
            site.with_admin(|sky| sky.release_names().len()) as f64,
        );
        check_nothing_shed(&site, failures);
        drop((players, player));
        traced_server.stop();
        plain_server.stop();
        (plain, trace)
    };
    failures.extend(plain.failures.iter().cloned());
    failures.extend(trace.failures.iter().cloned());

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("out/trace-{workload}.jsonl"));
    match trace.write_jsonl(&path) {
        Ok(()) => eprintln!("  wrote {} spans to {}", trace.spans.len(), path.display()),
        Err(e) => failures.push(format!("writing {}: {e}", path.display())),
    }

    // Layer times: mean self time per operation that entered the layer.
    m.set("http.parse_us", trace.mean_us("http.parse"));
    m.set("http.serialize_us", trace.mean_us("http.serialize"));
    m.set("http.wire_us", trace.mean_us("http.wire"));
    m.set("http.reconnects", trace.reconnects as f64);
    m.set("http.bytes_out_per_op", stats::mean(&trace.body_bytes));
    let http = workload != "analytic_sql";
    let mut sorted = trace.latencies.clone();
    sorted.sort_unstable();
    m.set(
        "http.p99_ms",
        if http {
            percentile_ms(&sorted, 0.99)
        } else {
            0.0
        },
    );
    let handle_us: Vec<f64> = trace
        .spans
        .iter()
        .filter(|s| s.name == "site.handle")
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect();
    m.set("site.handle_us", stats::mean(&handle_us));
    m.set("site.self_us", stats::mean(&trace.site_self_raw_us));
    let nonneg = trace.site_self_raw_us.iter().filter(|s| **s >= 0.0).count();
    m.set(
        "site.self_nonneg_share",
        nonneg as f64 / trace.site_self_raw_us.len().max(1) as f64,
    );
    m.set("sql.parse_us", trace.mean_us("sql.parse"));
    m.set("sql.plan_us", trace.mean_us("sql.plan"));
    m.set("sql.exec_us", trace.mean_us("sql.exec"));
    let front = trace.total_us("sql.parse") + trace.total_us("sql.plan");
    m.set(
        "sql.plan_share",
        if front > 0.0 {
            front / (front + trace.split_exec_us)
        } else {
            0.0
        },
    );
    let per_sql_op = |n: u64| n as f64 / trace.sql_ops.max(1) as f64;
    m.set("sql.rows_scanned", per_sql_op(trace.scan.rows_scanned));
    m.set(
        "sql.rows_from_index",
        per_sql_op(trace.scan.rows_from_index),
    );
    m.set(
        "sql.predicates_evaluated",
        per_sql_op(trace.scan.predicates_evaluated),
    );
    m.set("sql.bytes_scanned", per_sql_op(trace.scan.bytes_scanned));
    m.set("sql.join_probes", per_sql_op(trace.scan.join_probes));
    m.set(
        "sql.segments_pruned",
        per_sql_op(trace.scan.segments_pruned),
    );
    m.set("sql.rows_returned", per_sql_op(trace.scan.rows_returned));
    m.set(
        "sql.rows_examined_per_returned",
        (trace.scan.rows_scanned + trace.scan.rows_from_index) as f64
            / trace.scan.rows_returned.max(1) as f64,
    );
    m.set("sql.peak_bytes_max", trace.peak_bytes_max as f64);
    for t in &templates {
        let samples = trace.exec_ms.get(t.id).map(Vec::as_slice).unwrap_or(&[]);
        let value = if samples.is_empty() {
            0.0
        } else {
            stats::median(samples)
        };
        m.set(&format!("sql.exec_ms.{}", t.id), value);
    }
    m.set("formats.render_us", trace.mean_us("formats.render"));
    m.set("formats.bytes_out", stats::mean(&trace.rendered_bytes));
    m.set("htm.cover_us", trace.mean_us("htm.cover"));
    m.set("htm.cover_ranges", stats::mean(&trace.cover_ranges));
    for step in ["insert_batch", "update_row", "undo_delete"] {
        m.set(
            &format!("storage.admin_write_ms.{step}"),
            trace.mean_us(&format!("storage.{step}")) / 1e3,
        );
    }
    m.set("storage.publish_us", trace.mean_us("storage.publish"));

    // Shares of all traced operation time, by layer.
    let total_us: f64 = trace.latencies.iter().map(|l| *l as f64 / 1e3).sum();
    let share =
        |names: &[&str]| names.iter().map(|n| trace.total_us(n)).sum::<f64>() / total_us.max(1.0);
    m.set(
        "share.http",
        share(&["http.parse", "http.serialize", "http.wire"]),
    );
    m.set("share.site", share(&["site.handle"]));
    m.set("share.sql_parse", share(&["sql.parse"]));
    m.set("share.sql_plan", share(&["sql.plan"]));
    m.set("share.sql_exec", share(&["sql.exec"]));
    m.set("share.formats", share(&["formats.render"]));
    m.set("share.htm", share(&["htm.cover"]));
    m.set(
        "share.storage",
        share(&[
            "storage.fork_and_swap",
            "storage.insert_batch",
            "storage.update_row",
            "storage.undo_delete",
            "storage.publish",
        ]),
    );

    // Tracing overhead: the same single client with and without spans.
    m.set(
        "trace.overhead_ratio",
        stats::percentile(&sorted, 0.5) as f64
            / stats::percentile(&sorted_latencies(&plain), 0.5).max(1) as f64,
    );
    m.set("trace.ops", trace.attempted as f64);
    m.set("trace.spans", trace.spans.len() as f64);

    // Stand-alone probes and the budget probe deck.
    m.set("cache.lookup_us", layers::cache_lookup_us());
    m.set("governor.admit_us", layers::governor_admit_us());
    let storage = layers::storage_probe(&setup.pristine, facts);
    m.set("storage.index_seek_us", storage.index_seek_us);
    m.set("storage.column_sweep_ms", storage.column_sweep_ms);
    m.set("storage.fork_us", storage.fork_us);
    m.set("storage.analyze_ms", storage.analyze_ms);
    m.set("storage.data_bytes", storage.data_bytes);
    m.set("storage.index_bytes", storage.index_bytes);
    m.set("storage.bytes_per_csv_byte", storage.bytes_per_csv_byte);
    let budget = layers::budget_probe(&setup.pristine);
    eprintln!(
        "  budget probe deck: under the public limits {:?} fail, under the job tier's {:?}",
        budget.failed_public, budget.failed_batch
    );
    m.set("sql.deck_failed_public", budget.failed_public.len() as f64);
    m.set("sql.deck_failed_batch", budget.failed_batch.len() as f64);
    let load = setup.pristine.load_report();
    m.set("loader.load_s", load.wall_seconds);
    m.set("loader.mb_per_hour", load.mb_per_hour());
    m.set(
        "skygen.generate_s",
        setup.total_s - setup.site_start_s - load.wall_seconds,
    );
    m.set("setup.site_start_s", setup.site_start_s);
    (m, plain.attempted + trace.attempted)
}

/// Production defaults must carry every workload without shedding load.
fn check_nothing_shed(site: &SkyServerSite, failures: &mut Vec<String>) {
    let shed = site.governor().stats().shed;
    if shed > 0 {
        failures.push(format!("the governor shed {shed} requests"));
    }
}

/// The timed run of one workload, tracing off.
fn timed(args: &Args, setup: &SetUp, decks: &[Vec<Op>], failures: &mut Vec<String>) -> RunReport {
    let workload = args.workload.as_str();
    let warm_up = warm_up_len(workload, decks[0].len());
    let window = Duration::from_secs_f64(args.seconds);
    if workload == "analytic_sql" {
        let sky = setup.pristine.fork();
        let templates = analytic_templates();
        let mut players = [Player::analytic(&sky, &templates, decks[0].len())];
        timed_run(&mut players, decks, warm_up, window)
    } else {
        let site = SkyServerSite::new(setup.pristine.fork());
        let server = site.serve(0).expect("starting the HTTP server");
        let writer = Writer::new(&site, &setup.pristine);
        let mut players: Vec<Player> = (0..decks.len())
            .map(|c| Player::http(c, server.addr(), Some(&writer)))
            .collect();
        let report = timed_run(&mut players, decks, warm_up, window);
        check_nothing_shed(&site, failures);
        // Close the connections first: a worker holds an open keep-alive
        // connection until its read times out, and `stop` joins workers.
        drop(players);
        server.stop();
        report
    }
}

fn main() {
    let args = parse_args();
    let (config, setups, scale) = if args.smoke {
        (SurveyConfig::tiny(), 1, 20)
    } else {
        (SurveyConfig::personal_skyserver(), SETUPS, 1)
    };
    eprintln!(
        "skybench {} seed {} ({} s, trace {}, {} cores)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    // Set-up is paid several times and reported as the median; only the
    // last catalog is kept, so peak memory is one catalog's.
    let mut setup = set_up(&config);
    let mut totals = vec![setup.total_s];
    for _ in 1..if args.trace { 1 } else { setups } {
        drop(setup);
        setup = set_up(&config);
        totals.push(setup.total_s);
    }
    let setup_s = stats::median(&totals);
    eprintln!(
        "  set-up {setup_s:.3} s (median of {totals:.3?}), {} photo objects",
        setup.pristine.counts().photo_obj
    );

    let started = Instant::now();
    let facts = Facts::gather(&setup.pristine);
    let decks = build_decks(&args.workload, &setup.pristine, &facts, args.seed, scale);
    eprintln!(
        "  deck_digest {:016x} ({} clients x {} operations, dealt and referenced in {:.1} s)",
        deck_digest(&decks),
        decks.len(),
        decks[0].len(),
        started.elapsed().as_secs_f64()
    );

    let mut failures = Vec::new();
    let (metrics, attempted) = if args.trace {
        let (m, attempted) = traced(&args, &setup, &facts, &decks, &mut failures);
        (m.to_json(&names::per_layer()), attempted)
    } else {
        let report = timed(&args, &setup, &decks, &mut failures);
        let declared: Vec<(String, &str)> = names::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        let json = end_to_end(&report, setup_s).to_json(&declared);
        failures.extend(report.failures);
        (json, report.attempted)
    };
    for failure in failures.iter().take(10) {
        eprintln!("  FAILED: {failure}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failures.is_empty(),
        attempted.max(1),
        failures.len(),
        metrics
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
