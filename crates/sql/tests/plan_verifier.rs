//! The static plan verifier ([`skyserver_sql::verify_plan`]): clean plans
//! stay clean (property-tested over generated queries), and seeded plan
//! mutations are rejected with the right structured [`ViolationKind`].

use proptest::prelude::*;
use skyserver_sql::exec::compile::CompiledExpr;
use skyserver_sql::plan::{AccessPath, IndexBounds, SourceKind};
use skyserver_sql::{
    parse_select, verify_plan, FunctionRegistry, Planner, SeekCover, SeekForm, SelectPlan,
    SqlEngine, ViolationKind,
};
use skyserver_storage::{ColumnDef, DataType, Database, IndexDef, TableSchema, Value};
use std::sync::Arc;

/// A small catalog: `t(id int indexed, v float, name str)` with `rows`
/// rows.
fn test_db(rows: usize) -> Database {
    let mut db = Database::new("verify");
    db.create_table(
        "t",
        TableSchema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("v", DataType::Float),
            ColumnDef::new("name", DataType::Str),
        ]),
    )
    .unwrap();
    db.create_index(IndexDef::new("ix_id", "t", &["id"]))
        .unwrap();
    for i in 0..rows {
        db.insert(
            "t",
            vec![
                Value::Int(i as i64),
                Value::Float(i as f64 / 3.0),
                Value::str(format!("row{i}")),
            ],
        )
        .unwrap();
    }
    db
}

/// Plan `sql` against a fresh catalog and hand back plan + db for mutation.
fn planned(sql: &str) -> (SelectPlan, Database) {
    let db = test_db(64);
    let functions = FunctionRegistry::new();
    let stmt = parse_select(sql).expect("test SQL parses");
    let plan = Planner::new(&db, &functions)
        .plan_select(&stmt)
        .expect("test SQL plans");
    (plan, db)
}

fn kinds(plan: &SelectPlan, db: &Database) -> Vec<ViolationKind> {
    verify_plan(plan, db)
        .violations
        .iter()
        .map(|v| v.kind)
        .collect()
}

#[test]
fn well_formed_plans_verify_clean() {
    for sql in [
        "select count(*) from t",
        "select id, v from t where id = 7",
        "select top 5 v from t where v < 10.0 order by v desc",
        "select name, count(*) as n from t group by name having count(*) > 0",
        "select a.id, b.v from t as a join t as b on a.id = b.id where a.v < 3.0",
        "select a.*, b.name from t as a left join t as b on a.id = b.id and b.v > 1.0",
        "select a.name, count(*) from t as a, t as b where a.v < b.v group by a.name",
    ] {
        let (plan, db) = planned(sql);
        let report = verify_plan(&plan, &db);
        assert!(
            report.is_clean(),
            "{sql}: unexpected violations: {}",
            report.render_violations()
        );
        assert!(report.checks_run > 0, "{sql}: verifier ran no checks");
    }
}

#[test]
fn out_of_range_scan_column_is_rejected() {
    let (mut plan, db) = planned("select count(*) from t where v < 10.0");
    plan.sources[0].scan_columns = Some(vec![999]);
    let found = kinds(&plan, &db);
    assert!(
        found.contains(&ViolationKind::OrdinalOutOfRange),
        "expected ordinal_out_of_range, got {found:?}"
    );
}

#[test]
fn ordinal_past_the_narrow_row_layout_is_rejected() {
    // The row carries (id, v) — t's scan columns here — so ordinal 2, a
    // fine storage ordinal (name), is past the end of the runtime row.
    let (mut plan, db) = planned("select id, v from t where v < 10.0 order by v");
    assert_eq!(plan.sources[0].scan_columns, Some(vec![0, 1]));
    assert!(kinds(&plan, &db).is_empty());
    plan.programs.projections[0] = CompiledExpr::Col(2);
    let found = kinds(&plan, &db);
    assert!(
        found.contains(&ViolationKind::OrdinalOutOfRange),
        "expected ordinal_out_of_range, got {found:?}"
    );
    // The pushed predicate runs in the scan kernels, over storage ordinals:
    // there 2 is in range, and caught as a column the layout does not carry.
    let (mut plan, db) = planned("select id, v from t where v < 10.0 order by v");
    plan.programs.source_predicates[0] = Some(CompiledExpr::Col(2));
    let found = kinds(&plan, &db);
    assert_eq!(found, vec![ViolationKind::ScanColumnNotCovered]);
}

#[test]
fn a_run_map_that_misplaces_a_column_is_rejected() {
    // An index seek on ix_id: its runs hold `id` (run column 0) and
    // nothing else, so `v` is read from the heap.
    let (plan, db) = planned("select id, v from t where id = 7");
    assert_eq!(
        plan.programs.source_runs,
        vec![Some(vec![Some(0), None, None])]
    );
    assert!(kinds(&plan, &db).is_empty());
    // Claiming the run holds `v` would feed the kernels `id` cells as `v`.
    let mut wrong = plan.clone();
    wrong.programs.source_runs[0] = Some(vec![Some(0), Some(0), None]);
    assert_eq!(kinds(&wrong, &db), vec![ViolationKind::OrdinalOutOfRange]);
    // A seek without its map cannot run; a heap scan with one is confused.
    let mut missing = plan.clone();
    missing.programs.source_runs[0] = None;
    assert_eq!(
        kinds(&missing, &db),
        vec![ViolationKind::ProgramArityMismatch]
    );
    let (mut heap, db) = planned("select id, v from t where v < 10.0");
    heap.programs.source_runs[0] = Some(vec![None, None, None]);
    assert_eq!(kinds(&heap, &db), vec![ViolationKind::ProgramArityMismatch]);
}

#[test]
fn scan_columns_missing_a_referenced_column_are_rejected() {
    // Without v the row is (id): the kernel predicate reads a column the
    // scan no longer accounts for, and the projection reads past the row.
    let (mut plan, db) = planned("select id, v from t where v < 10.0");
    plan.sources[0].scan_columns = Some(vec![0]);
    let found = kinds(&plan, &db);
    assert!(
        found.contains(&ViolationKind::ScanColumnNotCovered)
            && found.contains(&ViolationKind::OrdinalOutOfRange),
        "expected scan_column_not_covered and ordinal_out_of_range, got {found:?}"
    );
    // A base table without a layout at all cannot be executed.
    plan.sources[0].scan_columns = None;
    let found = kinds(&plan, &db);
    assert!(
        found.contains(&ViolationKind::PlanShapeInconsistent),
        "expected plan_shape_inconsistent, got {found:?}"
    );
}

#[test]
fn wrong_input_schema_width_is_rejected() {
    let (mut plan, db) = planned("select id, v from t where id = 3");
    plan.input_schema = Default::default();
    let found = kinds(&plan, &db);
    assert!(
        found.contains(&ViolationKind::SchemaWidthMismatch),
        "expected schema_width_mismatch, got {found:?}"
    );
}

#[test]
fn overgrown_input_schema_is_rejected() {
    let (mut plan, db) = planned("select id, v from t where id = 3");
    plan.input_schema = plan.input_schema.join(&plan.input_schema);
    let found = kinds(&plan, &db);
    assert!(
        found.contains(&ViolationKind::SchemaWidthMismatch),
        "expected schema_width_mismatch, got {found:?}"
    );
}

#[test]
fn program_arity_mismatch_is_rejected() {
    let (mut plan, db) = planned("select id, v from t where v < 10.0");
    plan.programs.source_predicates.push(None);
    let found = kinds(&plan, &db);
    assert!(
        found.contains(&ViolationKind::ProgramArityMismatch),
        "expected program_arity_mismatch, got {found:?}"
    );
}

#[test]
fn an_aggregate_slot_past_the_aggregate_list_is_rejected() {
    let sql = "select name, count(*) as n from t group by name having max(v) > 0.0";
    let (mut plan, db) = planned(sql);
    assert!(kinds(&plan, &db).is_empty());
    assert_eq!(plan.programs.aggregates.len(), 2);
    let past = CompiledExpr::Agg {
        slot: 2,
        name: "count".into(),
    };
    plan.programs.projections[1] = past.clone();
    assert_eq!(kinds(&plan, &db), vec![ViolationKind::OrdinalOutOfRange]);
    let (mut plan, db) = planned(sql);
    plan.programs.having = Some(past);
    assert_eq!(kinds(&plan, &db), vec![ViolationKind::OrdinalOutOfRange]);
}

#[test]
fn limit_hint_without_its_rule_is_rejected() {
    let (mut plan, db) = planned("select id from t where v < 10.0");
    assert!(
        !plan.rules_fired.contains(&"limit_pushdown"),
        "test premise: no TOP means limit_pushdown must not fire"
    );
    plan.sources[0].limit_hint = Some(5);
    let found = kinds(&plan, &db);
    assert!(
        found.contains(&ViolationKind::PlanShapeInconsistent),
        "expected plan_shape_inconsistent, got {found:?}"
    );
}

#[test]
fn a_lookup_inner_path_other_than_the_probed_seek_is_rejected() {
    // The inner side of an index lookup is read through the probed index
    // by row id, whatever path the plan prints for it.
    let (plan, mut db) = planned("select a.id, b.v from t as a join t as b on a.id = b.id");
    let SourceKind::Table { path, .. } = &plan.sources[1].kind else {
        panic!("the inner side is a table");
    };
    assert!(
        matches!(path, AccessPath::IndexSeek { index, bounds } if index == "ix_id" && bounds.column == "id"),
        "test premise: the inner path is the probed seek, got {path:?}"
    );
    assert!(kinds(&plan, &db).is_empty());
    db.create_index(IndexDef::new("ix_v", "t", &["v"])).unwrap();
    let bounds = IndexBounds {
        column: "v".into(),
        ..IndexBounds::default()
    };
    for wrong in [
        AccessPath::CoveringIndexScan {
            index: "ix_id".into(),
        },
        AccessPath::HeapScan,
        AccessPath::IndexSeek {
            index: "ix_v".into(),
            bounds,
        },
    ] {
        let mut mutated = plan.clone();
        if let SourceKind::Table { path, .. } = &mut mutated.sources[1].kind {
            *path = wrong.clone();
        }
        assert_eq!(
            kinds(&mutated, &db),
            vec![ViolationKind::PlanShapeInconsistent],
            "{wrong:?}"
        );
    }
}

/// `fBand(lo, hi)`: the rows of `t` with `lo <= id <= hi`, as a seek form
/// over `ix_id`, ordered by `v`.
fn band_functions() -> FunctionRegistry {
    let mut functions = FunctionRegistry::new();
    let form = SeekForm {
        table: "t".into(),
        index: "ix_id".into(),
        key: "id".into(),
        tested: vec!["v".into()],
        cover: Arc::new(|args| {
            Ok(SeekCover {
                ranges: vec![(args[0].clone(), args[1].clone())],
                test: Arc::new(|cells| Some(cells[0])),
            })
        }),
        measure: Some("gap".into()),
        ordered: true,
        limit: None,
    };
    functions.register_seek("fBand", &["id", "name", "gap"], form);
    functions
}

/// A planned range-set seek, with its mutation applied to the cover's
/// ranges, verified against a catalog that also has `ix_v`.
fn seek_violations(mutate: impl Fn(&mut skyserver_sql::plan::SeekSource)) -> Vec<ViolationKind> {
    let mut db = test_db(64);
    db.create_index(IndexDef::new("ix_v", "t", &["v"])).unwrap();
    let functions = band_functions();
    let stmt = parse_select("select id, gap from fBand(3, 40)").unwrap();
    let mut plan = Planner::new(&db, &functions).plan_select(&stmt).unwrap();
    let SourceKind::Seek(seek) = &mut plan.sources[0].kind else {
        panic!("fBand binds as a seek source");
    };
    mutate(seek);
    kinds(&plan, &db)
}

fn with_ranges(seek: &mut skyserver_sql::plan::SeekSource, ranges: &[(i64, i64)]) {
    let cover = seek
        .cover
        .as_deref()
        .expect("constant arguments cover at plan time");
    seek.cover = Some(Arc::new(SeekCover {
        ranges: ranges
            .iter()
            .map(|&(lo, hi)| (Value::Int(lo), Value::Int(hi)))
            .collect(),
        test: cover.test.clone(),
    }));
}

#[test]
fn a_planned_range_set_seek_verifies_clean_and_runs() {
    assert!(seek_violations(|_| {}).is_empty());
    assert!(seek_violations(|seek| with_ranges(seek, &[(3, 9), (12, 12), (20, 40)])).is_empty());
    let engine = SqlEngine::new(test_db(64), band_functions());
    let rs = engine.query("select id, gap from fBand(3, 40)").unwrap();
    assert_eq!(rs.len(), 38);
    assert_eq!(rs.rows[0], vec![Value::Int(3), Value::Float(1.0)]);
}

#[test]
fn unsorted_seek_ranges_are_rejected() {
    let found = seek_violations(|seek| with_ranges(seek, &[(20, 40), (3, 9)]));
    assert_eq!(found, vec![ViolationKind::RangeSetUnsound]);
}

#[test]
fn overlapping_seek_ranges_are_rejected() {
    let found = seek_violations(|seek| with_ranges(seek, &[(3, 20), (20, 40)]));
    assert_eq!(found, vec![ViolationKind::RangeSetUnsound]);
}

#[test]
fn a_seek_over_an_index_not_leading_on_its_key_is_rejected() {
    let found = seek_violations(|seek| seek.index = Some("ix_v".into()));
    assert!(
        found.contains(&ViolationKind::RangeSetUnsound),
        "expected range_set_unsound, got {found:?}"
    );
}

#[test]
fn explain_verify_reports_the_summary_row() {
    let db = test_db(16);
    let engine = SqlEngine::new(db, FunctionRegistry::new());
    let result = engine
        .query("explain verify select top 3 id, v from t where id = 5 order by v")
        .unwrap();
    assert_eq!(result.columns, vec!["plan_verify".to_string()]);
    assert_eq!(result.rows.len(), 1);
    let cell = result.rows[0][0].to_string();
    assert!(
        cell.starts_with("plan verified:"),
        "unexpected EXPLAIN VERIFY output: {cell}"
    );
}

#[test]
fn engine_verify_returns_a_structured_report() {
    let db = test_db(16);
    let engine = SqlEngine::new(db, FunctionRegistry::new());
    let report = engine
        .verify("select name, count(*) from t group by name")
        .unwrap();
    assert!(report.is_clean(), "{}", report.render_violations());
    assert!(report.programs_checked > 0);
    assert!(
        engine.verify("set nocount on").is_err(),
        "no SELECT to verify"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every plan the optimizer produces for a generated query passes the
    /// verifier with zero findings — the pass never false-positives on
    /// plans the planner actually emits.
    #[test]
    fn generated_queries_verify_clean(
        rows in 0usize..80,
        projection in 0usize..4,
        predicate in 0usize..5,
        needle in 0i64..80,
        bound in -10.0..30.0f64,
        top in 0u64..10,
        order in 0usize..2,
    ) {
        let projection = ["count(*)", "id", "id, v", "name, v"][projection];
        let predicate = match predicate {
            0 => String::new(),
            1 => format!(" where id = {needle}"),
            2 => format!(" where id between {} and {}", needle / 2, needle),
            3 => format!(" where v < {bound:.3}"),
            _ => format!(" where v >= {bound:.3} and name like 'row%'"),
        };
        let top = if top == 0 { String::new() } else { format!("top {top} ") };
        let aggregated = projection == "count(*)";
        let order = if order == 1 && !aggregated { " order by id desc" } else { "" };
        let sql = format!("select {top}{projection} from t{predicate}{order}");

        let db = test_db(rows);
        let functions = FunctionRegistry::new();
        let stmt = parse_select(&sql).expect("generated SQL parses");
        let plan = Planner::new(&db, &functions)
            .with_verification(false)
            .plan_select(&stmt)
            .expect("generated SQL plans");
        let report = verify_plan(&plan, &db);
        prop_assert!(
            report.is_clean(),
            "{sql}: {}",
            report.render_violations()
        );
    }
}
