//! The narrow runtime row layout and the streaming operators above it:
//! engine rows against the brute-force reference in `common/` (which reads
//! whole rows through the `Table` row API and sorts/aggregates materialized
//! vectors), plus named regressions for what the layout must not break.

mod common;

use skyserver_sql::{
    parse_select, FunctionRegistry, QueryLimits, QueryMonitor, SqlEngine, SqlError,
};
use skyserver_storage::{ColumnDef, DataType, Database, IndexDef, TableSchema, Value};

/// `obj` (pk + a covering index on `grp` including `v`), `pair` (no index;
/// some `b` dangle) and `tag` (no index; a NULL and a non-matching key).
fn engine() -> SqlEngine {
    let mut db = Database::new("narrow");
    let int = |n: &str| ColumnDef::new(n, DataType::Int);
    let obj = TableSchema::new(vec![
        int("id"),
        int("grp").nullable(),
        ColumnDef::new("v", DataType::Float).nullable(),
        ColumnDef::new("s", DataType::Str).nullable(),
        int("w"),
        ColumnDef::new("x", DataType::Float),
    ])
    .with_primary_key(&["id"]);
    db.create_table("obj", obj).unwrap();
    db.create_index(IndexDef::new("pk_obj", "obj", &["id"]).unique())
        .unwrap();
    db.create_index(IndexDef::new("ix_grp", "obj", &["grp"]).include(&["v"]))
        .unwrap();
    for i in 0..300i64 {
        let nullable = |cond: bool, v: Value| if cond { Value::Null } else { v };
        db.insert(
            "obj",
            vec![
                Value::Int(i),
                nullable(i % 17 == 0, Value::Int(i % 7)),
                nullable(i % 11 == 0, Value::Float((i % 13) as f64 / 2.0)),
                nullable(i % 5 == 0, Value::str(format!("s{}", i % 4))),
                Value::Int(i % 3),
                Value::Float(i as f64),
            ],
        )
        .unwrap();
    }
    let pair = TableSchema::new(vec![
        int("a"),
        int("b"),
        ColumnDef::new("d", DataType::Float),
    ]);
    db.create_table("pair", pair).unwrap();
    for i in 0..200i64 {
        // b runs past obj's ids, so some probes miss.
        let row = vec![
            Value::Int(i),
            Value::Int((i * 7) % 340),
            Value::Float(i as f64 / 10.0),
        ];
        db.insert("pair", row).unwrap();
    }
    let tag = TableSchema::new(vec![
        int("k").nullable(),
        ColumnDef::new("label", DataType::Str),
        int("w"),
    ]);
    db.create_table("tag", tag).unwrap();
    for (k, label) in [
        (Some(0), "zero"),
        (Some(2), "two"),
        (Some(2), "deux"),
        (Some(5), "five"),
        (Some(40), "none"),
        (None, "null"),
    ] {
        let k = k.map_or(Value::Null, Value::Int);
        db.insert("tag", vec![k, Value::str(label), Value::Int(1)])
            .unwrap();
    }
    SqlEngine::new(db, FunctionRegistry::new())
}

/// Engine ≡ reference on every statement, or report the first divergence.
fn agree(engine: &mut SqlEngine, statements: &[&str]) {
    for sql in statements {
        common::check(engine, sql).unwrap_or_else(|e| panic!("{e}"));
    }
}

fn explain(engine: &SqlEngine, sql: &str) -> String {
    engine.explain(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

#[test]
fn distinct_drops_duplicates_as_they_arrive_and_keeps_what_sorting_first_would() {
    let mut e = engine();
    // Under ORDER BY a key that is not an output column, each distinct row
    // is the one a stable sort puts first.
    agree(
        &mut e,
        &[
            "select distinct w from obj order by x desc",
            "select distinct grp from obj order by v, id",
            "select distinct top 3 w, grp from obj order by x",
            "select distinct o.w, p.a % 3 from pair p join obj o on p.b = o.id order by p.d desc",
        ],
    );
    // Without ORDER BY, first occurrences in arrival order: the scan's row
    // order, which is the reference's.
    for sql in [
        "select distinct w from obj",
        "select distinct grp, s from obj",
        "select distinct s from obj where id > 20",
    ] {
        let got = e.query(sql).unwrap().rows;
        let want = common::reference(e.db(), &parse_select(sql).unwrap()).unwrap();
        assert_eq!(got, want, "{sql}");
    }
}

#[test]
fn wildcards_expand_over_the_whole_table_not_the_narrow_layout() {
    let mut e = engine();
    agree(
        &mut e,
        &[
            "select * from obj where grp = 3",
            "select * from pair p join obj o on p.b = o.id",
            "select p.*, o.* from pair p join obj o on p.b = o.id where o.v > 2",
            "select o.*, p.d from pair p join obj o on p.b = o.id",
            "select t.*, o.id from obj o join tag t on o.grp = t.k",
            "select o.* from obj o left join tag t on o.grp = t.k where t.k is null",
        ],
    );
    let all = e.query("select * from pair p join obj o on p.b = o.id");
    assert_eq!(all.unwrap().columns.len(), 3 + 6);
}

#[test]
fn a_name_on_both_join_sides_resolves_or_is_ambiguous_as_before() {
    let mut e = engine();
    agree(
        &mut e,
        &[
            // `w` lives in obj and tag: qualified it resolves per side ...
            "select o.w, t.w, label from obj o join tag t on o.grp = t.k",
            "select o.id from obj o join tag t on o.grp = t.k where o.w = t.w",
            // ... an unqualified name only one side has is fine ...
            "select label, v from obj o join tag t on o.grp = t.k where x > 100",
            // ... and unqualified on both sides is ambiguous (both fail).
            "select w from obj o join tag t on o.grp = t.k",
            "select o.id from obj o join tag t on o.grp = t.k where w = 1",
            "select a.id from obj a join obj b on a.id = b.id order by id",
        ],
    );
    let err = e.query("select w from obj o join tag t on o.grp = t.k");
    assert!(matches!(err, Err(SqlError::Plan(m)) if m.contains("ambiguous")));
}

#[test]
fn left_joins_null_pad_the_narrow_inner_side_on_every_strategy() {
    let mut e = engine();
    let lookup = "select p.a, o.v, o.s from pair p left join obj o on p.b = o.id";
    let hash = "select o.id, t.label from obj o left join tag t on o.grp = t.k";
    let nested = "select o.id, t.label, t.k from obj o left join tag t on o.grp > t.k + 3";
    assert!(explain(&e, lookup).contains("index lookup pk_obj"));
    assert!(explain(&e, hash).contains("HashJoin"));
    assert!(explain(&e, nested).contains("NestedLoopJoin (left outer)"));
    agree(
        &mut e,
        &[
            lookup,
            hash,
            nested,
            // Filters over the padded side, and an inner side that
            // contributes no column at all (a zero-width layout).
            "select p.a from pair p left join obj o on p.b = o.id where o.id is null",
            "select count(*) from pair p left join obj o on p.b = o.id",
            "select o.id from obj o left join tag t on o.grp = t.k where t.label is null",
            "select p.a, o.v from pair p left join obj o on p.b = o.id and o.v > 3",
            "select count(*), count(o.v), count(t.label) from pair p \
             left join obj o on p.b = o.id left join tag t on o.grp = t.k",
        ],
    );
}

#[test]
fn a_covering_scan_drives_and_is_probed_in_one_statement() {
    let mut e = engine();
    // Both sides read only (grp, v): the driver is a covering scan of
    // ix_grp, and the inner side is probed through that same index by
    // row id — which its printed path says.
    let sql = "select a.grp, a.v, b.v from obj a join obj b on a.grp = b.grp \
               where a.v > 5 and b.v < 1";
    let plan = explain(&e, sql);
    assert_eq!(
        plan.matches("CoveringIndexScan(obj.ix_grp)").count(),
        1,
        "{plan}"
    );
    assert!(
        plan.contains("IndexSeek(obj.ix_grp: grp = a.grp) AS b"),
        "{plan}"
    );
    assert!(plan.contains("index lookup ix_grp"), "{plan}");
    agree(
        &mut e,
        &[
            sql,
            "select grp, count(*), min(v), max(v) from obj group by grp",
            "select top 5 grp, v from obj where v > 1 order by v desc, grp",
        ],
    );
}

#[test]
fn aggregates_stream_with_the_buffered_semantics() {
    let mut e = engine();
    agree(
        &mut e,
        &[
            // Empty input: one group for a grand aggregate, none per key.
            "select count(*), count(v), sum(v), avg(v), min(s), max(s), stdev(v) from obj where id < 0",
            "select grp, count(*) from obj where id < 0 group by grp",
            "select count(*) from obj where id < 0 having count(*) = 0",
            // All-NULL arguments.
            "select count(v), sum(v), min(v), max(v), var(v) from obj where id % 11 = 0",
            "select grp, sum(v), avg(v) from obj where id % 11 = 0 group by grp",
            // Every aggregate, grouped, including NULL keys and strings.
            "select grp, count(*), count(s), sum(v), avg(v), min(v), max(v), stdev(v), var(v), \
             min(s), max(s) from obj group by grp",
            "select w, s, count(*) from obj group by w, s",
            // HAVING and projections over non-grouped columns read the
            // group's first row.
            "select w, id, x, count(*) from obj group by w having x < 2",
            "select w, count(*) from obj group by w having id >= 1 order by w desc",
            "select grp + 1 as g, max(x) - min(x) from obj group by grp + 1 order by g",
            // Over joins, with a residual.
            "select t.label, count(*), sum(o.x) from obj o join tag t on o.grp = t.k \
             where o.w <> t.w group by t.label",
            // sum() over strings is an error on both sides.
            "select sum(s) from obj",
            "select grp, avg(s) from obj group by grp",
        ],
    );
    let err = e.query("select sum(s) from obj");
    assert!(matches!(err, Err(SqlError::Execution(m)) if m == "sum() over non-numeric values"));
}

#[test]
fn top_n_keeps_what_a_stable_sort_and_truncate_keeps() {
    let mut e = engine();
    // `w` has three values over 300 rows: every boundary falls inside a tie.
    agree(
        &mut e,
        &[
            "select top 1 id, w from obj order by w",
            "select top 1 id, w from obj order by w desc",
            "select top 100 id, w from obj order by w",
            "select top 101 id, w from obj order by w",
            "select top 99 id, w from obj order by w desc",
            "select top 1000 id, w from obj order by w desc",
            "select top 0 id from obj order by w",
            "select top 7 id, grp, v from obj order by grp desc, v",
            "select top 7 id from obj order by v desc, s, w",
            "select top 10 id, x * -1 as neg from obj order by neg",
            "select top 5 p.a, o.w from pair p join obj o on p.b = o.id order by o.w, p.d desc",
            "select top 3 w, count(*) as n from obj group by w order by n desc",
            "select distinct top 2 w from obj order by w desc",
            "select distinct top 4 w, grp from obj order by grp, w",
            "select distinct w from obj order by w",
        ],
    );
    // The row budget bounds the sort the same way and still flags truncation.
    let limits = QueryLimits {
        max_rows: Some(10),
        ..QueryLimits::UNLIMITED
    };
    let got = e.execute("select id, w from obj order by w, id desc", limits);
    let got = got.unwrap().result;
    let all = e
        .query("select id, w from obj order by w, id desc")
        .unwrap();
    assert!(got.truncated);
    assert_eq!(got.rows[..], all.rows[..10]);
}

#[test]
fn parallel_partial_aggregates_merge_to_the_serial_result() {
    let mut db = Database::new("parallel");
    let schema = TableSchema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("g", DataType::Int).nullable(),
        ColumnDef::new("v", DataType::Float).nullable(),
        ColumnDef::new("s", DataType::Str),
    ]);
    db.create_table("t", schema).unwrap();
    // Three segments; integer-valued floats, so partial sums add exactly.
    for i in 0..10_000i64 {
        let g = if i % 19 == 0 {
            Value::Null
        } else {
            Value::Int(i % 5)
        };
        let v = if i % 7 == 0 {
            Value::Null
        } else {
            Value::Float(((i * 37) % 101) as f64)
        };
        let row = vec![Value::Int(i), g, v, Value::str(format!("s{}", i % 9))];
        db.insert("t", row).unwrap();
    }
    let mut engine = SqlEngine::new(db, FunctionRegistry::new());
    let statements = [
        "select count(*), count(v), sum(v), avg(v), min(v), max(v), stdev(v), var(v) from t where id % 3 > 0",
        "select g, count(*), sum(v), min(s), max(s), stdev(v) from t where v + id > 50 group by g",
        "select g, s, count(*), min(id), max(id) from t where id % 2 = 1 group by g, s having min(id) > 10",
        "select count(*) from t where id % 3 > 5",
    ];
    let serial: Vec<_> = statements
        .iter()
        .map(|s| engine.query(s).unwrap())
        .collect();
    engine.set_parallel_scan_threshold(100);
    for (sql, serial) in statements.iter().zip(serial) {
        assert!(engine.explain(sql).unwrap().contains("ParallelTableScan"));
        assert_eq!(engine.query(sql).unwrap(), serial, "{sql}");
        common::check(&mut engine, sql).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// A 54-column, 52k-row table: wide and long enough that a full-width copy
/// of its rows is ~66 MiB, past the public 64 MiB budget.
fn wide_catalog() -> SqlEngine {
    let mut db = Database::new("wide");
    let mut columns = vec![
        ColumnDef::new("objID", DataType::Int),
        ColumnDef::new("ra", DataType::Float),
    ];
    columns.extend((2..54).map(|c| ColumnDef::new(format!("c{c}"), DataType::Float)));
    let schema = TableSchema::new(columns).with_primary_key(&["objID"]);
    db.create_table("PhotoObj", schema).unwrap();
    for i in 0..52_000i64 {
        let mut row = vec![Value::Int(i), Value::Float(i as f64 / 150.0)];
        row.extend((2..54).map(|c| Value::Float((i % (c + 5)) as f64)));
        db.insert("PhotoObj", row).unwrap();
    }
    db.create_index(IndexDef::new("pk_PhotoObj", "PhotoObj", &["objID"]).unique())
        .unwrap();
    SqlEngine::new(db, FunctionRegistry::new())
}

#[test]
fn the_public_budget_is_charged_for_what_a_statement_keeps() {
    let engine = wide_catalog();
    let public = |sql: &str| {
        let monitor = QueryMonitor::new();
        let outcome = engine.execute_read(sql, QueryLimits::PUBLIC, Some(&monitor), None);
        (outcome, monitor.peak_bytes())
    };
    // Counting rows keeps one counter, not 52k 54-cell rows.
    let (outcome, peak) = public("select count(*) from PhotoObj");
    assert_eq!(outcome.unwrap().result.scalar(), Some(&Value::Int(52_000)));
    assert!(peak < 1 << 20, "count(*) peaked at {peak} bytes");
    // An open pk range under ORDER BY + TOP keeps 60 rows (the README's
    // "open pk ranges scan+sort and blow the public budget").
    let (outcome, peak) =
        public("select top 60 objID, ra from PhotoObj where objID >= 100 order by objID");
    let rows = outcome.unwrap().result.rows;
    assert_eq!(rows.len(), 60);
    assert_eq!(rows[0][0], Value::Int(100));
    assert_eq!(rows[59][0], Value::Int(159));
    assert!(peak < 1 << 20, "top 60 peaked at {peak} bytes");
    // What really is kept still dies on the budget, not on the allocator.
    let (outcome, peak) = public("select a.*, b.* from PhotoObj a, PhotoObj b");
    assert!(matches!(outcome, Err(SqlError::ResourceExhausted(_))));
    assert!(peak > 64 << 20);
}

/// Three 40-row tables `a`, `b`, `c` of `(id, k)`, every `k` 0: whichever
/// two the plan joins first, their 1,600-row, 4-cell intermediate result
/// is buffered as the outer input of the second join.
fn three_way() -> SqlEngine {
    let mut db = Database::new("three_way");
    for name in ["a", "b", "c"] {
        let columns = vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("k", DataType::Int),
        ];
        db.create_table(name, TableSchema::new(columns)).unwrap();
        for i in 0..40i64 {
            db.insert(name, vec![Value::Int(i), Value::Int(0)]).unwrap();
        }
    }
    SqlEngine::new(db, FunctionRegistry::new())
}

#[test]
fn the_budget_is_charged_for_a_buffered_intermediate_join_input() {
    let engine = three_way();
    // The residual reads all three sources, so it runs above the last join
    // and lets one row through.
    let sql = "select a.id, b.id, c.id from a join b on a.k = b.k join c on b.k = c.k \
               where a.id + b.id + c.id = 0";
    let run = |max_bytes: Option<u64>| {
        let monitor = QueryMonitor::new();
        let limits = QueryLimits {
            max_bytes,
            ..QueryLimits::UNLIMITED
        };
        let outcome = engine.execute_read(sql, limits, Some(&monitor), None);
        assert_eq!(monitor.bytes_in_use(), 0, "{max_bytes:?}");
        (outcome, monitor.peak_bytes())
    };
    // Each buffered Int cell is charged its 8 payload bytes and its 16-byte
    // slot; the intermediate holds 1,600 rows of (id, k) from two tables.
    let intermediate = 1_600 * 4 * (8 + 16);
    let (outcome, peak) = run(None);
    let rows = outcome.unwrap().result.rows;
    assert_eq!(rows, vec![vec![Value::Int(0); 3]]);
    // The intermediate is nearly all the statement keeps at its peak: the
    // rest is two 40-row inputs and a hash table.
    assert!(
        peak >= intermediate && peak < intermediate + intermediate / 10,
        "{peak}"
    );
    // Just below it, the statement fails while buffering, before the last
    // join has produced any row; at the measured peak it runs.
    let (outcome, _) = run(Some(intermediate - 1));
    assert!(
        matches!(outcome, Err(SqlError::ResourceExhausted(_))),
        "{outcome:?}"
    );
    let (outcome, _) = run(Some(peak));
    assert_eq!(outcome.unwrap().result.rows, rows);
}

#[test]
fn dml_finds_its_victims_through_the_planned_access_path() {
    let mut e = engine();
    let run = |e: &mut SqlEngine, sql: &str| e.execute(sql, QueryLimits::UNLIMITED).unwrap();
    // A pk UPDATE is one index seek; no row is scanned.
    let outcome = run(&mut e, "update obj set v = 99.5 where id = 42");
    assert_eq!(outcome.rows_affected, 1);
    let stats = outcome.stats.stats;
    assert_eq!((stats.index_seeks, stats.rows_scanned), (1, 0));
    assert_eq!(stats.rows_from_index, 1);
    let row = e.query("select v, w, x from obj where id = 42").unwrap();
    assert_eq!(
        row.rows,
        vec![vec![Value::Float(99.5), Value::Int(0), Value::Float(42.0)]]
    );
    // A non-sargable WHERE is a filter-only kernel scan: every row is
    // visited, only the victims are fetched.
    let outcome = run(&mut e, "update obj set w = w + 10 where x * 2 >= 590");
    assert_eq!(outcome.rows_affected, 5);
    let stats = outcome.stats.stats;
    assert_eq!((stats.index_seeks, stats.rows_scanned), (0, 300));
    let moved = e.query("select id, w from obj where w >= 10 order by id");
    let moved: Vec<i64> = moved
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_i64().unwrap())
        .collect();
    assert_eq!(moved, vec![295, 296, 297, 298, 299]);
    // DELETE takes the same path; indexes follow.
    let outcome = run(&mut e, "delete from obj where id between 10 and 19");
    assert_eq!(outcome.rows_affected, 10);
    assert_eq!(outcome.stats.stats.rows_scanned, 0);
    let outcome = run(&mut e, "delete from obj where s = 's1' and grp is null");
    assert_eq!(outcome.stats.stats.rows_scanned, 290);
    agree(
        &mut e,
        &[
            "select count(*), sum(w), sum(v) from obj",
            "select * from obj where id between 5 and 25",
            "select grp, count(*) from obj group by grp",
        ],
    );
    // No WHERE at all, and a predicate that names the table.
    assert_eq!(
        run(&mut e, "update tag set w = 2 where tag.k = 2").rows_affected,
        2
    );
    assert_eq!(run(&mut e, "delete from tag").rows_affected, 6);
    assert!(e
        .execute("delete from obj where nope = 1", QueryLimits::UNLIMITED)
        .is_err());
}

/// 3,000 rows — three heap segments, three runs per index — with a pk, an
/// index on `k` covering `v`, and `s`, `u` left in the heap.  `k` and `u`
/// take few values (every TOP boundary falls inside a tie), `v` and `u`
/// are sometimes NULL.
fn chunked() -> SqlEngine {
    let mut db = Database::new("chunked");
    let schema = TableSchema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("v", DataType::Float).nullable(),
        ColumnDef::new("s", DataType::Str),
        ColumnDef::new("u", DataType::Int).nullable(),
    ])
    .with_primary_key(&["id"]);
    db.create_table("big", schema).unwrap();
    db.create_index(IndexDef::new("pk_big", "big", &["id"]).unique())
        .unwrap();
    db.create_index(IndexDef::new("ix_k", "big", &["k"]).include(&["v"]))
        .unwrap();
    for i in 0..3000i64 {
        let v = if i % 13 == 0 {
            Value::Null
        } else {
            Value::Float(((i * 7) % 50) as f64 / 4.0)
        };
        let u = if i % 29 == 0 {
            Value::Null
        } else {
            Value::Int((i * 11) % 6)
        };
        let row = vec![
            Value::Int(i),
            Value::Int(i % 4),
            v,
            Value::str(format!("x{}", i % 3)),
            u,
        ];
        db.insert("big", row).unwrap();
    }
    SqlEngine::new(db, FunctionRegistry::new())
}

#[test]
fn a_full_top_n_rejects_on_the_chunk_with_the_sort_semantics() {
    let mut e = chunked();
    let heap = "select top 5 id, u from big order by u";
    let seek = "select top 7 id, s, v from big where k = 3 order by v";
    let covering = "select top 9 v from big order by v desc";
    assert!(explain(&e, heap).contains("TableScan(big)"));
    assert!(explain(&e, seek).contains("IndexSeek(big.ix_k"));
    assert!(explain(&e, covering).contains("CoveringIndexScan(big.ix_k)"));
    agree(
        &mut e,
        &[
            heap,
            seek,
            covering,
            // Heap chunks: ASC / DESC, NULL keys first, ties at the bound,
            // the key as an output column and as an input-only column, a
            // second key deciding the ties, TOP past a segment boundary.
            "select top 5 id, u from big order by u desc",
            "select top 200 id from big order by u",
            "select top 7 id, u from big order by u, id desc",
            "select top 1500 id, u, s from big order by u desc, s",
            // Index seek: the key covered by the run, or in the heap, and
            // a filter over an uncovered column beside the seek.
            "select top 7 id, s, v from big where k = 3 order by v desc",
            "select top 11 id, v from big where k = 1 order by u, id",
            "select top 3 id from big where k = 2 and s = 'x1' order by v, u desc",
            "select top 800 id, v from big where k >= 2 order by v desc, id",
            // Covering scan, across run boundaries, with a pushed filter.
            "select top 1100 k, v from big order by v, k",
            "select top 9 k, v from big where v > 3 order by k desc, v",
            // Keys the chunk test leaves alone: an expression first, or a
            // later key that is not a plain column.
            "select top 6 id, v * 2 as w from big order by w",
            "select top 6 id, v from big where k = 0 order by v, u * -1",
        ],
    );
}

#[test]
fn dml_victims_found_through_an_index_seek_are_the_reference_rows() {
    let mut e = chunked();
    let run = |e: &mut SqlEngine, sql: &str| e.execute(sql, QueryLimits::UNLIMITED).unwrap();
    let count = |e: &mut SqlEngine, sql: &str| e.query(sql).unwrap().rows[0][0].as_i64().unwrap();
    // The seek's run holds k and v; `s` is read from the heap by row id.
    let victims = "select id, u from big where k = 1 and s = 'x2' and v > 2";
    assert!(explain(&e, victims).contains("IndexSeek(big.ix_k"));
    agree(&mut e, &[victims]);
    let expected = count(
        &mut e,
        "select count(*) from big where k = 1 and s = 'x2' and v > 2",
    );
    let outcome = run(
        &mut e,
        "update big set u = -7 where k = 1 and s = 'x2' and v > 2",
    );
    assert_eq!(outcome.rows_affected as i64, expected);
    let stats = outcome.stats.stats;
    assert_eq!((stats.index_seeks, stats.rows_scanned), (1, 0));
    assert_eq!(
        count(&mut e, "select count(*) from big where u = -7"),
        expected
    );
    let outcome = run(&mut e, "delete from big where k = 2 and u is null");
    assert_eq!(outcome.stats.stats.index_seeks, 1);
    assert!(outcome.rows_affected > 0);
    agree(
        &mut e,
        &[
            "select id, k, v, s, u from big where u = -7 or k = 2",
            "select top 20 id, u from big where k = 2 order by v desc, id",
            "select count(*), count(u), min(v), max(v) from big",
        ],
    );
}
