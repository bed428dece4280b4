//! Accounting regression: `ScanStats` counters and EXPLAIN output for a
//! fixed, deterministic catalog must not drift when the executor changes.
//!
//! Every expected string below pins the columnar accounting: heap
//! `bytes_scanned` charges only the columns a plan touches, index seeks and
//! covering scans charge real entry bytes plus the heap cells gathered for
//! the columns the index does not cover (a survivor's `ra` after a `pk` or
//! `htmID` seek; nothing when the index covers the statement), index-lookup
//! probes the whole gathered layout, and heap scans report `pruned`
//! segments and `batches` processed.  The rows of the same
//! statements are checked against the brute-force reference in `common/`.

mod common;

use skyserver_sql::{FunctionRegistry, QueryLimits, SqlEngine};
use skyserver_storage::{ColumnDef, DataType, Database, IndexDef, TableSchema, Value};

/// A deterministic 1,000-row catalog (no RNG: every value is a formula of
/// the row number), with the index/view shapes the planner rules target.
fn fixed_engine() -> SqlEngine {
    let mut db = Database::new("fixed");
    let schema = TableSchema::new(vec![
        ColumnDef::new("objID", DataType::Int),
        ColumnDef::new("htmID", DataType::Int),
        ColumnDef::new("ra", DataType::Float),
        ColumnDef::new("dec", DataType::Float),
        ColumnDef::new("type", DataType::Int),
        ColumnDef::new("flags", DataType::Int),
        ColumnDef::new("magr", DataType::Float),
        ColumnDef::new("name", DataType::Str),
    ])
    .with_primary_key(&["objID"]);
    db.create_table("photo", schema).unwrap();
    db.create_index(IndexDef::new("pk_photo", "photo", &["objID"]).unique())
        .unwrap();
    db.create_index(IndexDef::new("ix_htm", "photo", &["htmID"]))
        .unwrap();
    db.create_index(IndexDef::new("ix_type_mag", "photo", &["type", "magr"]).include(&["objID"]))
        .unwrap();
    db.create_view("Galaxy", "select * from photo where type = 3", "galaxies")
        .unwrap();
    for i in 0..1000i64 {
        db.insert(
            "photo",
            vec![
                Value::Int(i),
                Value::Int(7_000 + i / 4),
                Value::Float(180.0 + (i as f64) * 0.01),
                Value::Float(-1.0 + (i as f64) * 0.001),
                Value::Int(if i % 2 == 0 { 3 } else { 6 }),
                Value::Int(if i % 10 == 0 { 64 } else { 0 }),
                Value::Float(14.0 + (i % 80) as f64 * 0.1),
                Value::str(format!("obj-{i:04}")),
            ],
        )
        .unwrap();
    }
    SqlEngine::new(db, FunctionRegistry::new())
}

/// Compact, order-stable rendering of every counter in `ScanStats`.
fn stats_line(engine: &mut SqlEngine, sql: &str) -> String {
    let outcome = engine.execute(sql, QueryLimits::UNLIMITED).unwrap();
    let s = outcome.stats.stats;
    format!(
        "scanned={} bytes={} idx_rows={} idx_bytes={} seeks={} probes={} preds={} returned={} pruned={} batches={}",
        s.rows_scanned,
        s.bytes_scanned,
        s.rows_from_index,
        s.bytes_from_index,
        s.index_seeks,
        s.join_probes,
        s.predicates_evaluated,
        s.rows_returned,
        s.segments_pruned,
        s.batches_processed
    )
}

struct Case {
    what: &'static str,
    sql: &'static str,
    expected: &'static str,
}

const CASES: &[Case] = &[
    Case {
        what: "full heap scan with a non-sargable pushed predicate",
        sql: "select ra from photo where ra + dec > 186",
        expected: "scanned=1000 bytes=16000 idx_rows=0 idx_bytes=0 seeks=0 probes=0 preds=1000 returned=363 pruned=0 batches=1",
    },
    Case {
        what: "point index seek on the primary key",
        sql: "select ra from photo where objID = 5",
        expected: "scanned=0 bytes=8 idx_rows=1 idx_bytes=24 seeks=1 probes=0 preds=1 returned=1 pruned=0 batches=0",
    },
    Case {
        what: "range index seek on htmID",
        sql: "select ra from photo where htmID between 7010 and 7019",
        expected: "scanned=0 bytes=320 idx_rows=40 idx_bytes=960 seeks=1 probes=0 preds=40 returned=40 pruned=0 batches=0",
    },
    Case {
        what: "covering index scan with a residual-style pushed predicate",
        sql: "select objID, magr from photo where magr * 2 > 30",
        expected: "scanned=0 bytes=0 idx_rows=1000 idx_bytes=40000 seeks=0 probes=0 preds=1000 returned=857 pruned=0 batches=0",
    },
    Case {
        what: "hash self-join on an unindexed float column",
        sql: "select count(*) from photo a join photo b on a.ra = b.ra",
        expected: "scanned=2000 bytes=16000 idx_rows=0 idx_bytes=0 seeks=0 probes=1000 preds=1000 returned=1 pruned=0 batches=2",
    },
    Case {
        // The probed entries go through the inner side's batch program:
        // `b.objID` comes from the pk run, so no heap byte is read.
        what: "index-lookup join probing the primary key",
        sql: "select count(*) from photo a join photo b on a.objID = b.objID",
        expected: "scanned=0 bytes=0 idx_rows=2000 idx_bytes=48000 seeks=1000 probes=0 preds=1000 returned=1 pruned=0 batches=0",
    },
    Case {
        what: "merged view scan (Galaxy qualifiers pushed into the scan)",
        sql: "select count(*) from Galaxy where magr < 17",
        expected: "scanned=0 bytes=0 idx_rows=500 idx_bytes=20000 seeks=1 probes=0 preds=500 returned=1 pruned=0 batches=0",
    },
    Case {
        what: "group by with aggregate over a heap scan",
        sql: "select type, count(*) from photo where flags = 0 group by type",
        expected: "scanned=1000 bytes=16000 idx_rows=0 idx_bytes=0 seeks=0 probes=0 preds=1000 returned=2 pruned=0 batches=1",
    },
    Case {
        what: "distinct over a covering scan",
        sql: "select distinct type from photo",
        expected: "scanned=0 bytes=0 idx_rows=1000 idx_bytes=40000 seeks=0 probes=0 preds=0 returned=2 pruned=0 batches=0",
    },
    Case {
        what: "TOP with a pushed limit hint stops the covering scan early",
        sql: "select top 7 objID from photo",
        expected: "scanned=0 bytes=0 idx_rows=7 idx_bytes=168 seeks=0 probes=0 preds=0 returned=7 pruned=0 batches=0",
    },
    Case {
        what: "LIKE scan over the string column",
        sql: "select count(*) from photo where name like 'obj-00%'",
        expected: "scanned=1000 bytes=10000 idx_rows=0 idx_bytes=0 seeks=0 probes=0 preds=1000 returned=1 pruned=0 batches=1",
    },
    Case {
        // Without an ANALYZE pass `type = 3` is estimated at 10 of the
        // 1000 rows, so a hash join building 10 rows is costed below 1000
        // pk probes: one seek of ix_type_mag feeds the build table.
        what: "left join keeps NULL-extended rows, residual after the join",
        sql: "select count(*) from photo a left join Galaxy g on a.objID = g.objID where g.objID is null",
        expected: "scanned=0 bytes=0 idx_rows=1500 idx_bytes=44000 seeks=1 probes=500 preds=2000 returned=1 pruned=0 batches=0",
    },
    Case {
        what: "order by an arithmetic expression over a filtered scan",
        sql: "select objID from photo where flags = 64 order by magr * -1",
        expected: "scanned=1000 bytes=24000 idx_rows=0 idx_bytes=0 seeks=0 probes=0 preds=1000 returned=100 pruned=0 batches=1",
    },
];

#[test]
fn scan_stats_accounting_is_stable_on_the_fixed_catalog() {
    let mut engine = fixed_engine();
    let mut failures = Vec::new();
    for case in CASES {
        let actual = stats_line(&mut engine, case.sql);
        if actual != case.expected {
            failures.push(format!(
                "{}\n  sql:      {}\n  expected: {}\n  actual:   {}",
                case.what, case.sql, case.expected, actual
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "stats drifted:\n{}",
        failures.join("\n")
    );
}

#[test]
fn engine_rows_agree_with_the_reference_evaluator() {
    let mut engine = fixed_engine();
    let extra = [
        "select name, magr from photo where name like '%1_' order by magr desc, objID",
        "select type, avg(magr) as m, count(*) as n from photo group by type having count(*) > 1",
        "select distinct flags from photo where type = 3 order by flags",
        "select a.objID, g.magr from photo a left join Galaxy g on a.objID = g.objID \
         where a.objID < 20 order by a.objID",
        "select count(*) from photo a join photo b on a.htmID = b.htmID where a.objID < b.objID",
        "select top 9 objID, magr * 2 + 1 as m2 from photo where flags = 0",
        "select case when type = 3 then 'galaxy' else 'star' end as kind, count(*) \
         from photo group by case when type = 3 then 'galaxy' else 'star' end order by kind",
    ];
    for sql in CASES.iter().map(|c| c.sql).chain(extra) {
        common::check(&mut engine, sql).unwrap();
    }
}

/// A 10,000-row table spans ten 1,024-row segments.  `objID` and `name`
/// are inserted in order, so each segment's zone maps cover a disjoint
/// range and a range predicate lets the scan skip whole segments without
/// touching a row; `opt` is NULL from row 5,120 on, so segments 5-9 have no
/// zone for it at all.
fn sweep_engine() -> SqlEngine {
    let mut db = Database::new("zones");
    let schema = TableSchema::new(vec![
        ColumnDef::new("objID", DataType::Int),
        ColumnDef::new("val", DataType::Float),
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("opt", DataType::Int).nullable(),
    ]);
    db.create_table("sweep", schema).unwrap();
    for i in 0..10_000i64 {
        let opt = if i < 5_120 {
            Value::Int(i)
        } else {
            Value::Null
        };
        let row = vec![
            Value::Int(i),
            Value::Float((i % 100) as f64),
            Value::str(format!("n{i:05}")),
            opt,
        ];
        db.insert("sweep", row).unwrap();
    }
    SqlEngine::new(db, FunctionRegistry::new())
}

#[test]
fn zone_map_pruning_skips_cold_segments() {
    let mut engine = sweep_engine();
    // Only segment 0 (objID 0..=1023) can contain matches; segments 1-9
    // are pruned by their zone maps, so the scan visits 1,024 rows in one
    // batch and charges bytes for the objID column alone.
    let line = stats_line(&mut engine, "select count(*) from sweep where objID < 1000");
    assert_eq!(
        line,
        "scanned=1024 bytes=8192 idx_rows=0 idx_bytes=0 seeks=0 probes=0 \
         preds=1024 returned=1 pruned=9 batches=1"
    );
    // A predicate outside every zone prunes all ten segments.
    let none = stats_line(
        &mut engine,
        "select count(*) from sweep where objID > 50000",
    );
    assert_eq!(
        none,
        "scanned=0 bytes=0 idx_rows=0 idx_bytes=0 seeks=0 probes=0 \
         preds=0 returned=1 pruned=10 batches=0"
    );
}

/// `count(*)` of `sweep` under `where`, and the segments its scan pruned.
fn count_and_pruned(engine: &mut SqlEngine, filter: &str) -> (i64, u64) {
    let sql = format!("select count(*) from sweep where {filter}");
    let outcome = engine.execute(&sql, QueryLimits::UNLIMITED).unwrap();
    let count = outcome.result.rows[0][0].as_i64().unwrap();
    (count, outcome.stats.stats.segments_pruned)
}

/// Which segments the filter's kernels refute, one shape at a time: bound
/// shapes prune by their interval, the others neither prune nor stop a
/// bound beside them from pruning, and a conjunct that may fail stops all
/// pruning.
#[test]
fn kernel_bounds_prune_segments_outside_their_interval() {
    let mut engine = sweep_engine();
    let cases: &[(&str, i64, u64)] = &[
        // Two bounds on one column prune like their intersection.
        ("objID >= 2000 and objID < 3000", 1000, 8),
        // An inclusive bound keeps the segment its value opens.
        ("objID <= 1024", 1025, 8),
        ("objID >= 1023", 8977, 0),
        ("objID = 5000", 1, 9),
        ("objID between 1024 and 2047", 1024, 9),
        // An IN list prunes by its hull, [10, 5000] here.
        ("objID in (10, 5000, 20)", 3, 5),
        ("name < 'n01024'", 1024, 9),
        // A constant the compiler folds is a bound like a literal.
        ("objID < 1000 + 0", 1000, 9),
        // A segment whose column is all NULL holds no row inside a bound.
        ("opt >= 0", 5120, 5),
        ("opt < 0", 0, 10),
        // Neither prune nor block.
        ("objID <> 5", 9999, 0),
        ("objID not between 0 and 8999", 1000, 0),
        ("objID not in (1, 2)", 9998, 0),
        ("name like 'n0%'", 10000, 0),
        ("opt is null", 4880, 0),
        (
            "objID < 1000 and objID <> 5 and objID not between 20 and 29 \
             and objID not in (1, 2) and name like 'n%' and opt is not null",
            987,
            9,
        ),
        // A comparison that cannot fail does not block.
        ("name = name and objID < 1000", 1000, 9),
        // Arithmetic may fail, so a bound beside it prunes nothing.
        ("objID % 7 = 0 and objID < 1000", 143, 0),
    ];
    let mut failures = Vec::new();
    for &(filter, count, pruned) in cases {
        let actual = count_and_pruned(&mut engine, filter);
        if actual != (count, pruned) {
            failures.push(format!(
                "{filter}: expected count={count} pruned={pruned}, got {actual:?}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Pruning never skips the rows whose evaluation would fail: the modulo
/// conjunct is not total, so no segment is pruned and the error surfaces.
#[test]
fn a_failing_conjunct_is_not_pruned_away() {
    let mut engine = sweep_engine();
    let err = engine
        .execute(
            "select count(*) from sweep where objID % (objID - objID) = 0 and objID > 50000",
            QueryLimits::UNLIMITED,
        )
        .unwrap_err();
    assert!(err.to_string().contains("modulo by zero"), "{err}");
}

/// A bound of another type than its column plans and runs in every build
/// profile, ordered by type rank (bool < number < string < bytes) as the
/// kernels compare: an Int never equals a string and is below every one.
#[test]
fn type_mismatched_bounds_plan_and_count_by_type_rank() {
    let mut engine = sweep_engine();
    assert_eq!(count_and_pruned(&mut engine, "objID = 'x'"), (0, 10));
    assert_eq!(count_and_pruned(&mut engine, "name = 5"), (0, 10));
    assert_eq!(count_and_pruned(&mut engine, "objID < 'x'"), (10000, 0));
}

#[test]
fn parallel_scan_accounting_matches_the_serial_scan() {
    let mut serial = fixed_engine();
    let serial_line = stats_line(&mut serial, "select ra from photo where ra + dec > 186");
    let mut parallel = fixed_engine();
    parallel.set_parallel_scan_threshold(1);
    let parallel_line = stats_line(&mut parallel, "select ra from photo where ra + dec > 186");
    assert_eq!(serial_line, parallel_line);
}

#[test]
fn explain_output_is_stable_on_the_fixed_catalog() {
    let engine = fixed_engine();
    let fig_scan = engine
        .explain("select ra from photo where ra + dec > 186")
        .unwrap();
    // Without an ANALYZE pass the estimates come from the default
    // selectivities (1/3 for an opaque comparison), so the numbers below pin
    // the fallback model as much as the plan shape.
    assert_eq!(
        fig_scan,
        "Project(ra) est_rows=333\n  \
         TableScan(photo) AS photo where ((ra + dec) > 186) est_rows=333\n\
         -- optimizer rules fired: predicate_pushdown\n"
    );
    let fig_join = engine
        .explain("select count(*) from photo a join photo b on a.objID = b.objID")
        .unwrap();
    // The join estimate is NDV-containment: 1000 x 1000 / max(ndv, ndv)
    // with ndv = 1000 from the unique pk fallback, i.e. key-preserving.
    assert_eq!(
        fig_join,
        "Aggregate(group by: [])\n  Project(count) est_rows=1\n    \
         NestedLoopJoin[index lookup pk_photo on a.objID = objID] est_rows=1000\n      \
         CoveringIndexScan(photo.pk_photo) AS a est_rows=1000\n      \
         IndexSeek(photo.pk_photo: objID = a.objID) AS b est_rows=1000\n\
         -- optimizer rules fired: covering_index, join_strategy\n"
    );
}
