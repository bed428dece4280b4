//! Index-lookup joins at their edges, against the brute-force reference in
//! `common/`: an outer side of more than two probe chunks (`BATCH_ROWS`
//! rows each) with duplicate, NULL and missing keys; one inner key whose
//! entries span several index runs; `Int` keys probing a `Float` column and
//! the reverse; a deleted inner row; LEFT joins; a step residual; and
//! pushed filters on covered and uncovered inner columns.  Results are
//! compared as ordered lists: a lookup emits outer rows in scan order and,
//! within one, its matches in index (key, `RowId`) order — for these
//! one-column keys, the reference's nested-loop order.
//!
//! The same tables then drive the keyed index's other users at their edges:
//! hash joins on columns no index leads with (duplicate and NULL keys,
//! `Int` against `Float`, a two-column key, LEFT, a step residual), which
//! emit outer rows in scan order and, within one, matches in build order;
//! GROUP BY (NULL keys as one group, `Int(2)` and `Float(2.0)` as one key,
//! HAVING over two aggregates, a grand aggregate over no rows), whose
//! groups come out in ascending key order, serial and forced-parallel; and
//! DISTINCT, which keeps first occurrences in arrival order.

#[allow(dead_code)]
mod common;

use skyserver_sql::{parse_select, FunctionRegistry, QueryLimits, SqlEngine};
use skyserver_storage::{ColumnDef, DataType, Database, IndexDef, TableSchema, Value, RUN_ENTRIES};
use std::cmp::Ordering;

/// The heavy inner key: this many `i` rows have `g = HEAVY`.
const HEAVY: i64 = 5;
const HEAVY_ROWS: i64 = 1100;

/// `o` (2,100 rows, no index) probes `i` (2,300 rows): `pk_i` on `id`
/// including `c`, `ix_g` on `g` including `c`, `ix_x` on the `Float` `x`.
fn engine() -> SqlEngine {
    let mut db = Database::new("lookup_edges");
    let int = |n: &str| ColumnDef::new(n, DataType::Int);
    let float = |n: &str| ColumnDef::new(n, DataType::Float);
    let inner = TableSchema::new(vec![int("id"), int("g"), float("x"), int("c"), float("u")])
        .with_primary_key(&["id"]);
    db.create_table("i", inner).unwrap();
    db.create_index(IndexDef::new("pk_i", "i", &["id"]).unique().include(&["c"]))
        .unwrap();
    db.create_index(IndexDef::new("ix_g", "i", &["g"]).include(&["c"]))
        .unwrap();
    db.create_index(IndexDef::new("ix_x", "i", &["x"])).unwrap();
    for id in 0..2300i64 {
        let g = if id < HEAVY_ROWS { HEAVY } else { id };
        let row = vec![
            Value::Int(id),
            Value::Int(g),
            Value::Float((id % 1000) as f64),
            Value::Int(id % 90),
            Value::Float(id as f64 / 100.0),
        ];
        db.insert("i", row).unwrap();
    }
    let outer = TableSchema::new(vec![
        int("id"),
        int("k").nullable(),
        float("f").nullable(),
        int("w"),
    ]);
    db.create_table("o", outer).unwrap();
    for id in 0..2100i64 {
        let k = match id {
            _ if id % 13 == 0 => None,
            // The heavy key in both of the first two chunks and the third.
            100 | 700 | 1500 | 2090 => Some(HEAVY),
            // Misses: no `i` row has these ids or `g`s.
            _ if id % 11 == 0 => Some(2300 + id),
            _ => Some((id * 37) % 700),
        };
        let f = k.map(|k| k as f64 + if id % 3 == 0 { 0.5 } else { 0.0 });
        let row = vec![
            Value::Int(id),
            k.map_or(Value::Null, Value::Int),
            f.map_or(Value::Null, Value::Float),
            Value::Int(id % 60),
        ];
        db.insert("o", row).unwrap();
    }
    db.analyze_all();
    let mut engine = SqlEngine::new(db, FunctionRegistry::new());
    // A deleted inner row under a probed key of every index.
    engine
        .execute("delete from i where id = 42", QueryLimits::UNLIMITED)
        .unwrap();
    engine
}

/// Run `sql` (a lookup join onto `i` through `index`, which EXPLAIN must
/// show) through the engine and the reference and compare in order.
fn agree(engine: &SqlEngine, sql: &str, index: &str) {
    agree_shown(engine, sql, &format!("index lookup {index} "), false);
}

/// Run `sql`, whose EXPLAIN must contain `shown`, through the engine and the
/// reference and compare in order — after sorting the reference's rows by
/// their first cell when the engine orders them by group key.
fn agree_shown(engine: &SqlEngine, sql: &str, shown: &str, by_group_key: bool) {
    let plan = engine.explain(sql).unwrap();
    assert!(
        plan.contains(shown),
        "test premise: the plan shows {shown}\n{sql}\n{plan}"
    );
    let got = engine.query(sql).unwrap().rows;
    let stmt = parse_select(sql).unwrap();
    let mut want = common::reference(engine.db(), &stmt).unwrap();
    if by_group_key {
        want.sort_by(|a, b| {
            a.first()
                .zip(b.first())
                .map_or(Ordering::Equal, |(a, b)| a.total_cmp(b))
        });
    }
    assert!(!want.is_empty(), "test premise: rows to compare: {sql}");
    if got != want {
        let at = got.iter().zip(&want).position(|(a, b)| a != b);
        panic!(
            "{sql}\n engine {} rows, reference {} rows, first difference at {at:?}: {:?} vs {:?}",
            got.len(),
            want.len(),
            at.and_then(|i| got.get(i)),
            at.and_then(|i| want.get(i)),
        );
    }
}

#[test]
fn a_primary_key_lookup_with_duplicate_null_and_missing_keys_keeps_outer_order() {
    let engine = engine();
    agree(
        &engine,
        "select o.id, o.k, i.id, i.c from o join i on o.k = i.id",
        "pk_i",
    );
}

#[test]
fn a_key_whose_entries_span_runs_is_found_in_every_chunk() {
    let engine = engine();
    let heavy = engine
        .query(&format!("select count(*) from i where g = {HEAVY}"))
        .unwrap();
    assert!(
        heavy.rows[0][0].as_i64().unwrap() > RUN_ENTRIES as i64,
        "test premise: the heavy key spans runs"
    );
    agree(
        &engine,
        "select o.id, i.id, i.u from o join i on o.k = i.g",
        "ix_g",
    );
}

#[test]
fn an_int_key_probes_a_float_column_and_a_float_key_an_int_column() {
    let engine = engine();
    agree(
        &engine,
        "select o.id, i.id from o join i on o.k = i.x",
        "ix_x",
    );
    agree(
        &engine,
        "select o.id, o.f, i.id, i.c from o join i on o.f = i.id",
        "pk_i",
    );
}

#[test]
fn left_lookups_null_extend_unmatched_and_filtered_rows() {
    let engine = engine();
    agree(
        &engine,
        "select o.id, o.k, i.id, i.c from o left join i on o.k = i.id",
        "pk_i",
    );
    agree(
        &engine,
        "select o.id, i.id, i.u from o left join i on o.k = i.g and i.u > 20",
        "ix_g",
    );
}

#[test]
fn a_step_residual_and_pushed_filters_on_covered_and_uncovered_columns() {
    let engine = engine();
    agree(
        &engine,
        "select o.id, i.id, i.c from o join i on o.k = i.g and o.w < i.c",
        "ix_g",
    );
    agree(
        &engine,
        "select o.id, i.id, i.c from o join i on o.k = i.g where i.c <> 7",
        "ix_g",
    );
    agree(
        &engine,
        "select o.id, i.id, i.u from o join i on o.k = i.g where i.u <> 3.5 and o.w <> 3",
        "ix_g",
    );
}

#[test]
fn hash_joins_with_duplicate_null_and_mixed_type_keys_keep_outer_then_build_order() {
    let engine = engine();
    for sql in [
        // Duplicate keys on both sides, NULL and missing probe keys.
        "select o.id, o.k, i.id, i.c from o join i on o.k = i.c",
        // Float keys, and Int keys probing a Float column: Int(2) matches
        // Float(2.0).
        "select o.id, o.f, i.id, i.u from o join i on o.f = i.u",
        "select o.id, o.k, i.id, i.u from o join i on o.k = i.u",
        // A two-column key.
        "select o.id, i.id from o join i on o.k = i.c and o.f = i.u",
        // A step residual; under LEFT, unmatched, NULL-keyed and
        // residual-rejected outer rows are NULL-extended.
        "select o.id, i.id, i.u from o join i on o.k = i.c and o.w < i.u",
        "select o.id, o.k, i.id, i.u from o left join i on o.k = i.c and o.w < i.u",
    ] {
        agree_shown(&engine, sql, "HashJoin", false);
    }
}

#[test]
fn group_by_and_distinct_at_their_edges_serial_and_parallel() {
    // `o.id % 2 = 0` picks the Int `k`, otherwise the Float `f` (`k` or
    // `k + 0.5`): Int(2) and Float(2.0) are one group and one DISTINCT row.
    let mixed = "case when o.id % 2 = 0 then o.k else o.f end";
    let grouped = [
        // NULL keys form one group.
        "select o.k, count(*), min(o.id), max(o.w), sum(o.w) from o group by o.k".to_string(),
        format!("select {mixed}, count(*), min(o.id), max(o.id) from o group by {mixed}"),
        "select o.w, count(o.k), max(o.k) from o group by o.w \
         having count(o.k) > 32 and max(o.k) < 4000"
            .to_string(),
        "select i.c, count(*), min(o.id) from o join i on o.k = i.c group by i.c".to_string(),
    ];
    let distinct = [
        "select distinct o.k from o".to_string(),
        format!("select distinct {mixed} from o"),
        "select distinct o.f from o where o.w < 30 order by o.f desc".to_string(),
    ];
    for parallel in [false, true] {
        let mut engine = engine();
        if parallel {
            engine.set_parallel_scan_threshold(1);
        }
        let scan = if parallel {
            "ParallelTableScan(o"
        } else {
            "TableScan(o"
        };
        for sql in &grouped {
            agree_shown(&engine, sql, scan, true);
        }
        for sql in &distinct {
            agree_shown(&engine, sql, scan, false);
        }
        // A grand aggregate over no rows still returns its one row.
        let none = "select count(*), max(o.k), sum(o.w) from o where o.id < 0";
        let got = engine.query(none).unwrap().rows;
        assert_eq!(got, vec![vec![Value::Int(0), Value::Null, Value::Null]]);
        let want = common::reference(engine.db(), &parse_select(none).unwrap()).unwrap();
        assert_eq!(got, want, "{none}");
    }
}
