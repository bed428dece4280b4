//! The tracked SQL-executor performance suite.
//!
//! Three phases, one artifact:
//!
//! 1. **Microbenches** on a synthetic 100k+ row catalog: the scan / filter /
//!    join / aggregate hot paths, each recording its median wall time and
//!    the scan counters of the run (`segments_pruned`, `batches_processed`,
//!    `bytes_scanned`).
//! 2. **The documented query suite**: every data-mining query from
//!    `docs/QUERIES.md` runs end to end on a tiny SkyServer; per-query wall
//!    time, row count, estimated cardinality, plan class and raw scan
//!    counters go into the report, and any error or invariant violation
//!    fails the run.
//! 3. **Join ordering**: the pathological `Neighbors`/`PhotoObj` self-join
//!    queries (Q14/Q17/Q18) run with the cost-based join-ordering pass on
//!    and off (`set_cost_based_ordering`), recording wall time,
//!    `predicates_evaluated` and the estimate's q-error.  Validation fails
//!    if a cost-based plan evaluates more predicates than the syntactic
//!    order, or if Q14/Q18 lose their >= 2x predicate reduction.
//!
//! Output is written to `BENCH_SQL.json` (override with `--out`), then
//! re-read and validated: missing keys, a short query list or any query
//! violation exits non-zero — which is exactly what the CI quick-mode smoke
//! step relies on.
//!
//! ```text
//! cargo run --release -p skyserver-bench --bin sql_bench -- \
//!     [--quick] [--rows N] [--out BENCH_SQL.json]
//! ```

use skyserver_bench::{build_server, Scale};
use skyserver_queries::{run_all, twenty_queries, QueryReport};
use skyserver_sql::{FunctionRegistry, QueryLimits, SqlEngine, StatementOutcome};
use skyserver_storage::{ColumnDef, DataType, Database, TableSchema, Value};
use std::time::Instant;

/// One microbench: a name and the SQL.
struct Micro {
    name: &'static str,
    sql: String,
}

/// Median wall-clock milliseconds over `runs` executions, plus the outcome
/// (rows and scan counters) of the warm-up run.
fn measure(engine: &mut SqlEngine, sql: &str, runs: usize) -> (f64, StatementOutcome) {
    // One warm-up execution so allocator and cache effects settle.
    let warm = engine
        .execute(sql, QueryLimits::UNLIMITED)
        .unwrap_or_else(|e| panic!("bench query failed: {e}\n  sql: {sql}"));
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let started = Instant::now();
        let out = engine
            .execute(sql, QueryLimits::UNLIMITED)
            .expect("bench query failed on a timed run");
        assert_eq!(out.result.len(), warm.result.len(), "non-deterministic");
        samples.push(started.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    (samples[samples.len() / 2], warm)
}

/// A deterministic unindexed catalog for the scan/join microbenches, using
/// the reproduction's real ~54-column `PhotoObj` schema (the paper's table
/// has ~400 attributes, and what a scan saves by touching only the columns a
/// query names grows with width).  Every value is a formula of the row
/// number, so runs are exactly reproducible.
fn micro_engine(rows: usize) -> SqlEngine {
    let mut db = Database::new("sql_bench");
    let schema = skyserver_schema::photo_obj_schema();
    let width = schema.column_names().len();
    let type_idx = schema.column_index("type").unwrap();
    let flags_idx = schema.column_index("flags").unwrap();
    let mag_idx = schema.column_index("modelMag_r").unwrap();
    let rowv_idx = schema.column_index("rowv").unwrap();
    let colv_idx = schema.column_index("colv").unwrap();
    let htm_idx = schema.column_index("htmID").unwrap();
    db.create_table("photo", schema).unwrap();
    for i in 0..rows as i64 {
        let moving = i % 997 == 0;
        // Mostly-float filler for the remaining attributes, then overwrite
        // the columns the benchmark queries actually touch.
        let mut row: Vec<Value> = (0..width as i64)
            .map(|c| {
                if c == 0 {
                    Value::Int(i)
                } else if c < 9 {
                    Value::Int((i + c) % 1000)
                } else {
                    Value::Float(((i % 977) as f64) * 0.013 + c as f64)
                }
            })
            .collect();
        row[type_idx] = Value::Int(if i % 3 == 0 { 3 } else { 6 });
        row[flags_idx] = Value::Int(if i % 10 == 0 { 64 } else { 0 });
        row[mag_idx] = Value::Float(13.0 + (i % 900) as f64 * 0.01);
        row[rowv_idx] = Value::Float(if moving { 11.0 } else { (i % 7) as f64 * 0.1 });
        row[colv_idx] = Value::Float(if moving { 9.0 } else { (i % 5) as f64 * 0.1 });
        row[htm_idx] = Value::Int(6_000_000 + i / 16);
        db.insert("photo", row).unwrap();
    }
    // A narrow named table for the LIKE scan (PhotoObj has no string
    // column).
    let names = TableSchema::new(vec![
        ColumnDef::new("objID", DataType::Int),
        ColumnDef::new("name", DataType::Str),
    ]);
    db.create_table("obj_name", names).unwrap();
    for i in 0..rows as i64 {
        db.insert(
            "obj_name",
            vec![Value::Int(i), Value::str(format!("obj-{i:07}"))],
        )
        .unwrap();
    }
    // A small dimension table for the hash join (no index on the key, so
    // the join-strategy rule picks the hash path).
    let dim = TableSchema::new(vec![
        ColumnDef::new("htmID", DataType::Int),
        ColumnDef::new("zone", DataType::Int),
    ]);
    db.create_table("htm_zone", dim).unwrap();
    for i in 0..(rows as i64 / 16).max(1) {
        db.insert(
            "htm_zone",
            vec![Value::Int(6_000_000 + i), Value::Int(i % 128)],
        )
        .unwrap();
    }
    SqlEngine::new(db, FunctionRegistry::new())
}

fn microbenches() -> Vec<Micro> {
    vec![
        Micro {
            // A full-table three-conjunct filter over 100k+ rows.
            name: "scan_filter",
            sql: "select objID, modelMag_r from photo \
                  where modelMag_r between 16 and 18 and type = 3 and (flags & 64) = 0"
                .into(),
        },
        Micro {
            name: "velocity_scan_q15",
            sql: "select objID, sqrt(rowv*rowv + colv*colv) as velocity from photo \
                  where (rowv*rowv + colv*colv) between 50 and 1000"
                .into(),
        },
        Micro {
            name: "like_scan",
            sql: "select count(*) from obj_name where name like '%obj-0001%'".into(),
        },
        Micro {
            // htmID is monotonic in the row number, so every 1,024-row
            // segment covers a disjoint range and this range predicate lets
            // zone maps skip almost the whole table.
            name: "zone_pruned_range",
            sql: "select count(*) from photo where htmID between 6000000 and 6000400".into(),
        },
        Micro {
            name: "hash_join",
            sql: "select count(*) from photo p join htm_zone z on p.htmID = z.htmID \
                  where z.zone < 64"
                .into(),
        },
        Micro {
            name: "group_aggregate",
            sql: "select type, avg(modelMag_r) as m, count(*) as n from photo \
                  where flags = 0 group by type"
                .into(),
        },
        Micro {
            // Counting the 54-column table moves zero-width rows: the
            // aggregator is fed straight from the selection vectors.
            name: "count_star_wide",
            sql: "select count(*) from photo".into(),
        },
        Micro {
            // Nearly every row qualifies; a 1,000-entry heap keeps the
            // result instead of sorting 100k+ keyed rows.
            name: "order_by_top_n",
            sql: "select top 1000 objID, modelMag_r from photo where modelMag_r > 14 \
                  order by modelMag_r"
                .into(),
        },
        Micro {
            name: "distinct_pairs",
            sql: "select distinct type, flags from photo".into(),
        },
        Micro {
            name: "top_n_early_stop",
            sql: "select top 100 objID from photo where type = 3".into(),
        },
    ]
}

fn run_query_suite() -> (f64, Vec<QueryReport>) {
    let mut server = build_server(Scale::Tiny);
    let queries = twenty_queries();
    let started = Instant::now();
    let reports = run_all(&mut server, &queries).unwrap_or_else(|e| {
        eprintln!("query suite failed outright: {e}");
        std::process::exit(1);
    });
    (started.elapsed().as_secs_f64(), reports)
}

fn query_json(r: &QueryReport) -> String {
    format!(
        "{{\"id\": \"{}\", \"rows\": {}, \"est_rows\": {}, \"wall_ms\": {:.3}, \
         \"plan_class\": \"{}\", \
         \"rules_fired\": {}, \"rows_scanned\": {}, \"rows_from_index\": {}, \
         \"predicates_evaluated\": {}, \"bytes_scanned\": {}, \"segments_pruned\": {}, \
         \"batches_processed\": {}, \"violations\": {}}}",
        r.id,
        r.rows,
        r.est_rows
            .map(|n| n.to_string())
            .unwrap_or_else(|| "null".into()),
        r.wall_seconds * 1e3,
        r.plan_class,
        r.rules_fired.len(),
        r.rows_scanned,
        r.rows_from_index,
        r.predicates_evaluated,
        r.bytes_scanned,
        r.segments_pruned,
        r.batches_processed,
        r.violations.len()
    )
}

/// The queries whose plans the cost-based join-ordering pass rewrites most
/// aggressively (the `Neighbors`/`PhotoObj` self-join family): the phase
/// runs each with the pass on and off and records the plan-cost delta.
const JOIN_ORDERING_QUERIES: [&str; 3] = ["Q14", "Q17", "Q18"];

/// Symmetric q-error between an estimate and an actual row count, with +1
/// smoothing so empty results stay finite.
fn q_error(est: u64, actual: u64) -> f64 {
    let e = est as f64 + 1.0;
    let a = actual as f64 + 1.0;
    (e / a).max(a / e)
}

/// Phase: measure the cost-based join-ordering pass against the syntactic
/// baseline (`set_cost_based_ordering(false)`) on the pathological
/// self-join queries.  Returns the `join_ordering` JSON object.
fn join_ordering_phase(runs: usize) -> String {
    let mut on = build_server(Scale::Tiny);
    let mut off = build_server(Scale::Tiny);
    off.engine_mut().set_cost_based_ordering(false);
    let queries = twenty_queries();
    let mut entries = Vec::new();
    let mut max_q = 0.0f64;
    for id in JOIN_ORDERING_QUERIES {
        let q = queries
            .iter()
            .find(|q| q.id == id)
            .unwrap_or_else(|| panic!("join-ordering query {id} missing from the suite"));
        let sql = q.sql.trim();
        let summary = on.plan_summary(sql).expect("plan the cost-based query");
        let counters = |o: &StatementOutcome| (o.stats.stats.predicates_evaluated, o.result.len());
        let (on_ms, on_outcome) = measure(on.engine_mut(), sql, runs);
        let (off_ms, off_outcome) = measure(off.engine_mut(), sql, runs);
        let (on_stats, off_stats) = (counters(&on_outcome), counters(&off_outcome));
        let est = summary.est_rows.unwrap_or(0);
        let qe = q_error(est, on_stats.1 as u64);
        max_q = max_q.max(qe);
        let ratio = off_stats.0 as f64 / (on_stats.0 as f64).max(1.0);
        eprintln!(
            "  {id}: cost-on {on_ms:>9.2} ms / {} preds, cost-off {off_ms:>9.2} ms / {} preds \
             ({ratio:.0}x fewer predicates), q-error {qe:.2}",
            on_stats.0, off_stats.0
        );
        entries.push(format!(
            "      {{\"id\": \"{id}\", \"est_rows\": {est}, \"rows\": {}, \"q_error\": {qe:.3}, \
             \"cost_on\": {{\"wall_ms\": {on_ms:.3}, \"predicates_evaluated\": {}}}, \
             \"cost_off\": {{\"wall_ms\": {off_ms:.3}, \"predicates_evaluated\": {}}}, \
             \"predicate_ratio\": {ratio:.2}}}",
            on_stats.1, on_stats.0, off_stats.0
        ));
    }
    format!(
        "{{\n    \"queries\": [\n{}\n    ],\n    \"max_q_error\": {max_q:.3}\n  }}",
        entries.join(",\n")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut rows: Option<usize> = None;
    let mut out = "BENCH_SQL.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--rows" => {
                i += 1;
                rows = args.get(i).and_then(|s| s.parse().ok());
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or(out);
            }
            other => {
                eprintln!(
                    "unknown argument {other}\nusage: sql_bench [--quick] [--rows N] [--out FILE]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let rows = rows.unwrap_or(if quick { 24_000 } else { 120_000 });
    let runs = if quick { 3 } else { 5 };

    // ----------------------------------------------------------------------
    // Phase 1: microbenches.
    // ----------------------------------------------------------------------
    eprintln!("building {rows}-row microbench catalog...");
    let mut engine = micro_engine(rows);
    let mut micro_json = Vec::new();
    for m in microbenches() {
        let (wall_ms, outcome) = measure(&mut engine, &m.sql, runs);
        let (result_rows, stats) = (outcome.result.len(), outcome.stats.stats);
        eprintln!(
            "  {:<20} {:>9.2} ms  ({} rows, {} pruned)",
            m.name, wall_ms, result_rows, stats.segments_pruned
        );
        micro_json.push(format!(
            "    \"{}\": {{\"wall_ms\": {:.3}, \
             \"rows\": {}, \"segments_pruned\": {}, \"batches_processed\": {}, \
             \"bytes_scanned\": {}}}",
            m.name,
            wall_ms,
            result_rows,
            stats.segments_pruned,
            stats.batches_processed,
            stats.bytes_scanned
        ));
    }
    // Release the microbench catalog before timing the query suite: the
    // 120k-row engine holds tens of MB of column arrays and dictionaries,
    // and keeping it resident distorts the suite walls on small machines.
    drop(engine);

    // ----------------------------------------------------------------------
    // Phase 2: the documented query suite.
    // ----------------------------------------------------------------------
    eprintln!("running the documented query suite...");
    let (suite_wall, reports) = run_query_suite();
    let mut failed = false;
    for r in &reports {
        if !r.violations.is_empty() {
            eprintln!("query {} violated its spec: {:?}", r.id, r.violations);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    let queries_json: Vec<String> = reports
        .iter()
        .map(|r| format!("      {}", query_json(r)))
        .collect();

    // ----------------------------------------------------------------------
    // Phase 3: cost-based join ordering vs the syntactic baseline.
    // ----------------------------------------------------------------------
    eprintln!("measuring the cost-based join-ordering pass (on vs off)...");
    let join_ordering_json = join_ordering_phase(runs);

    let report = format!(
        "{{\n  \"bench\": \"sql_exec\",\n  \"mode\": \"{}\",\n  \"microbench_rows\": {},\n  \
         \"runs_per_measurement\": {},\n  \"microbenches\": {{\n{}\n  }},\n  \
         \"query_suite\": {{\n    \"scale\": \"tiny\",\n    \"count\": {},\n    \
         \"wall_s\": {:.3},\n    \"queries\": [\n{}\n    ]\n  }},\n  \
         \"join_ordering\": {}\n}}",
        if quick { "quick" } else { "full" },
        rows,
        runs,
        micro_json.join(",\n"),
        reports.len(),
        suite_wall,
        queries_json.join(",\n"),
        join_ordering_json,
    );
    std::fs::write(&out, format!("{report}\n")).expect("write BENCH_SQL.json");
    eprintln!("wrote {out}");

    // ----------------------------------------------------------------------
    // Phase 4: validate the artifact (the CI smoke contract).
    // ----------------------------------------------------------------------
    let raw = std::fs::read_to_string(&out).expect("re-read the report");
    let parsed: serde_json::Value = serde_json::from_str(&raw).unwrap_or_else(|e| {
        eprintln!("BENCH_SQL.json is not valid JSON: {e:?}");
        std::process::exit(1);
    });
    let mut problems = Vec::new();
    for key in ["bench", "microbenches", "query_suite", "join_ordering"] {
        if parsed.get(key).is_none() {
            problems.push(format!("missing top-level key {key:?}"));
        }
    }
    for bench in microbenches().iter().map(|m| m.name) {
        let wall = parsed
            .get("microbenches")
            .and_then(|m| m.get(bench))
            .and_then(|b| b.get("wall_ms"))
            .and_then(|s| s.as_f64());
        if wall.is_none() {
            problems.push(format!("microbench {bench:?} has no wall_ms"));
        }
    }
    // Zone maps must actually fire somewhere: at the microbench scale the
    // range scan over the monotonic htmID column prunes whole segments.
    let pruned_somewhere = parsed
        .get("microbenches")
        .and_then(|m| m.as_object())
        .is_some_and(|benches| {
            benches.values().any(|b| {
                b.get("segments_pruned")
                    .and_then(|p| p.as_u64())
                    .unwrap_or(0)
                    > 0
            })
        });
    if !pruned_somewhere {
        problems.push("no microbench recorded a nonzero segments_pruned".into());
    }
    let queries = parsed
        .get("query_suite")
        .and_then(|q| q.get("queries"))
        .and_then(|q| q.as_array());
    match queries {
        None => problems.push("query_suite.queries missing".into()),
        Some(list) if list.len() < 20 => {
            problems.push(format!("only {} queries recorded", list.len()))
        }
        Some(list) => {
            for q in list {
                let violations = q.get("violations").and_then(|v| v.as_u64()).unwrap_or(99);
                if violations != 0 {
                    problems.push(format!(
                        "query {:?} recorded {violations} violations",
                        q.get("id")
                    ));
                }
                for key in ["segments_pruned", "batches_processed"] {
                    if q.get(key).and_then(|v| v.as_u64()).is_none() {
                        problems.push(format!("query {:?} has no {key}", q.get("id")));
                    }
                }
                if q.get("est_rows").is_none() {
                    problems.push(format!("query {:?} has no est_rows", q.get("id")));
                }
            }
        }
    }
    // The join-ordering phase must show the cost-based pass paying off: an
    // optimized plan evaluating MORE predicates than the syntactic order is
    // a cost-model regression, and Q14/Q18 specifically must keep their
    // >= 2x predicate reduction (the pathological self-join cross products).
    match parsed
        .get("join_ordering")
        .and_then(|j| j.get("queries"))
        .and_then(|q| q.as_array())
    {
        None => problems.push("join_ordering.queries missing".into()),
        Some(list) => {
            for id in JOIN_ORDERING_QUERIES {
                let Some(entry) = list
                    .iter()
                    .find(|e| e.get("id").and_then(|v| v.as_str()) == Some(id))
                else {
                    problems.push(format!("join_ordering has no entry for {id}"));
                    continue;
                };
                let preds = |side: &str| {
                    entry
                        .get(side)
                        .and_then(|s| s.get("predicates_evaluated"))
                        .and_then(|v| v.as_u64())
                };
                match (preds("cost_on"), preds("cost_off")) {
                    (Some(on), Some(off)) => {
                        if on > off {
                            problems.push(format!(
                                "{id}: cost-based plan evaluates more predicates \
                                 ({on}) than the syntactic order ({off})"
                            ));
                        }
                        if (id == "Q14" || id == "Q18") && on.saturating_mul(2) > off {
                            problems.push(format!(
                                "{id}: predicate reduction below 2x ({off} -> {on})"
                            ));
                        }
                    }
                    _ => problems.push(format!(
                        "{id}: join_ordering entry missing predicates_evaluated"
                    )),
                }
                if entry.get("q_error").and_then(|v| v.as_f64()).is_none() {
                    problems.push(format!("{id}: join_ordering entry has no q_error"));
                }
            }
        }
    }
    if !problems.is_empty() {
        eprintln!("BENCH_SQL.json failed validation:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(1);
    }
    eprintln!("BENCH_SQL.json validated: all keys present, every query clean");
}
