//! The query planner / optimizer.
//!
//! Planning is a three-stage pipeline:
//!
//! 1. **Bind** ([`binder`]): resolve FROM names against the database and
//!    function registry, plan nested selects, and classify every WHERE / ON
//!    conjunct by the aliases it references.  The bound plan is naive — all
//!    tables are heap scans, views are materialised derived tables, no
//!    predicate has moved.
//! 2. **Rewrite** ([`rules`]): run the ordered rule pipeline.  Each named
//!    rule performs one of the rewrites the paper attributes to SQL Server's
//!    optimizer — view merging (§9.1.3), predicate pushdown, index-seek and
//!    covering-index selection, the Figure 10 table-function join rewrite,
//!    join-strategy choice, the Figure 11 parallel-scan fallback and TOP-n
//!    limit pushdown — and records whether it fired.
//! 3. **Finalize** (this module): expand projections against the final
//!    source order, assemble residual filters, compile every expression
//!    into the programs the executor runs (an unknown column or function
//!    anywhere in the statement is an error here, not at the first row) and
//!    emit the physical [`SelectPlan`] with the list of fired rules, which
//!    `EXPLAIN` reports.

pub mod annotate;
pub mod binder;
pub(crate) mod catalog;
pub mod rules;
pub mod stats;

use crate::ast::{Expr, JoinKind, SelectItem, SelectStatement};
use crate::error::SqlError;
use crate::exec::compile::{
    collect_aggregates, compile, AggregateKind, CompiledAggregate, CompiledExpr, CompiledPrograms,
    Compiler, SortKey,
};
use crate::expr::RowSchema;
use crate::functions::FunctionRegistry;
use crate::plan::{AccessPath, JoinStep, JoinStrategy, SelectPlan, SourceKind, SourcePlan};
use binder::{LogicalPlan, PlanContext};
use skyserver_storage::{Database, ReleaseCatalog};

/// Minimum table size before the parallel-scan rule fans a heap scan out
/// over worker threads.
pub const PARALLEL_SCAN_THRESHOLD: usize = 65_536;

/// Plans SELECT statements against a database + function registry.
pub struct Planner<'a> {
    /// The database planned against (tables, views, indexes, stats).
    pub db: &'a Database,
    /// Registered scalar and table-valued functions.
    pub functions: &'a FunctionRegistry,
    parallel_scan_threshold: usize,
    verify: bool,
    cost_based_ordering: bool,
    release: Option<String>,
    known_releases: Option<&'a ReleaseCatalog>,
}

impl<'a> Planner<'a> {
    /// Create a planner with the default rule pipeline.
    pub fn new(db: &'a Database, functions: &'a FunctionRegistry) -> Self {
        Planner {
            db,
            functions,
            parallel_scan_threshold: PARALLEL_SCAN_THRESHOLD,
            verify: cfg!(debug_assertions),
            cost_based_ordering: true,
            release: None,
            known_releases: None,
        }
    }

    /// Override the parallel-scan threshold (tests and benchmarks).
    pub fn with_parallel_scan_threshold(mut self, threshold: usize) -> Self {
        self.parallel_scan_threshold = threshold;
        self
    }

    /// Enable or disable the post-finalization plan verifier
    /// ([`crate::verify::verify_plan`]).  On in debug builds (every
    /// test-planned statement is verified), off in release builds;
    /// `EXPLAIN VERIFY` plans with it off to report a broken plan instead
    /// of failing on it.
    pub fn with_verification(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Enable or disable the statistics-driven join-ordering rule.  Off,
    /// joins keep their syntactic order — the baseline the join-ordering
    /// tests in `cardinality_accuracy` measure the optimizer against.
    pub fn with_cost_based_ordering(mut self, enabled: bool) -> Self {
        self.cost_based_ordering = enabled;
        self
    }

    /// Pin plans to a published release snapshot.  The caller (the engine)
    /// has already resolved `db` to that release's database; the planner
    /// stamps the name into the plan so EXPLAIN and the verifier see it.
    pub fn with_release(mut self, release: Option<String>) -> Self {
        self.release = release;
        self
    }

    /// Provide the catalog's published releases so the plan verifier can
    /// check that a pinned release actually exists.  Without it (the
    /// default) the check is skipped — standalone planner tests have no
    /// catalog.
    pub fn with_known_releases(mut self, releases: &'a ReleaseCatalog) -> Self {
        self.known_releases = Some(releases);
        self
    }

    fn context(&self) -> PlanContext<'a> {
        PlanContext {
            db: self.db,
            functions: self.functions,
            parallel_scan_threshold: self.parallel_scan_threshold,
            cost_based_ordering: self.cost_based_ordering,
        }
    }

    /// Plan a SELECT statement: bind, run the rule pipeline, finalize.
    pub fn plan_select(&self, stmt: &SelectStatement) -> Result<SelectPlan, SqlError> {
        // A statement-level `AS OF` must agree with the release the planner
        // (and therefore `self.db`) is already pinned to; a nested select
        // cannot hop to a different snapshot mid-plan.
        let release = match (&stmt.as_of, &self.release) {
            (Some(a), Some(r)) if !a.eq_ignore_ascii_case(r) => {
                return Err(SqlError::Plan(format!(
                    "conflicting AS OF releases in one statement: {a} vs {r}"
                )))
            }
            (Some(a), _) => Some(a.clone()),
            (None, r) => r.clone(),
        };
        let ctx = self.context();
        let mut logical = binder::bind(stmt, &ctx, &|nested| self.plan_select(nested))?;
        let pipeline = rules::default_pipeline();
        rules::run_pipeline(&mut logical, &ctx, &pipeline)?;
        let mut plan = finalize(logical, &ctx)?;
        plan.release = release;
        // Estimated cardinalities are annotated unconditionally: EXPLAIN
        // shows est_rows even when cost-based ordering is off.
        stats::annotate_estimates(&mut plan, self.db);
        if self.verify {
            let names = self.known_releases.map(ReleaseCatalog::names);
            let report = crate::verify::verify_plan_with_releases(&plan, self.db, names.as_deref());
            if !report.is_clean() {
                return Err(SqlError::Plan(format!(
                    "plan verification failed: {}",
                    report.render_violations()
                )));
            }
        }
        Ok(plan)
    }
}

/// Turn the rewritten logical plan into the physical [`SelectPlan`].
fn finalize(logical: LogicalPlan, ctx: &PlanContext<'_>) -> Result<SelectPlan, SqlError> {
    let LogicalPlan {
        sources,
        conjuncts,
        joins,
        fromless,
        selection,
        select_items,
        group_by,
        having,
        has_aggregates,
        order_by,
        top,
        distinct,
        into,
        rules_fired,
        ..
    } = logical;

    // When the join-strategy rule did not run (unit tests exercising rule
    // prefixes), fall back to nested loops with everything in the residual.
    let joins: Vec<JoinStep> = if joins.len() == sources.len().saturating_sub(1) {
        joins
    } else {
        sources
            .iter()
            .skip(1)
            .map(|s| JoinStep {
                kind: s.join_kind.unwrap_or(JoinKind::Inner),
                strategy: JoinStrategy::NestedLoop,
                residual: Expr::from_conjuncts(s.outer_on.clone()),
                est_rows: None,
            })
            .collect()
    };

    let mut residual_conjuncts: Vec<Expr> = conjuncts
        .into_iter()
        .filter(|c| !c.consumed)
        .map(|c| c.expr)
        .collect();
    if fromless {
        if let Some(w) = selection {
            residual_conjuncts.push(w);
        }
    }

    let input_schema: RowSchema = sources
        .iter()
        .map(|s| s.schema.clone())
        .reduce(|a, b| a.join(&b))
        .unwrap_or_default();
    let projections = expand_projections(&select_items, &input_schema)?;

    let physical_sources: Vec<SourcePlan> = sources
        .into_iter()
        .map(|s| SourcePlan {
            alias: s.alias,
            kind: s.kind,
            pushed_predicate: Expr::from_conjuncts(s.pushed),
            schema: s.schema,
            limit_hint: s.limit_hint,
            scan_columns: None,
            est_rows: None,
        })
        .collect();

    let mut plan = SelectPlan {
        sources: physical_sources,
        joins,
        residual: Expr::from_conjuncts(residual_conjuncts),
        projections,
        select_items,
        group_by,
        having,
        has_aggregates,
        order_by,
        top,
        distinct,
        into,
        input_schema,
        rules_fired,
        programs: CompiledPrograms::default(),
        est_rows: None,
        release: None,
    };
    // The scan columns are the row layouts the programs compile against.
    annotate::annotate(&mut plan, ctx.db);
    plan.programs = build_programs(&plan, ctx)?;
    Ok(plan)
}

/// THE runtime row layout of a source, as an alias-qualified schema: a base
/// table materializes exactly its [`SourcePlan::scan_columns`] — on heap
/// scans, index seeks, covering scans and index-lookup probes alike — and a
/// table function or derived table its bound schema.  Every program that
/// runs on a materialized row resolves its ordinals against (joins of) these
/// schemas, and the executor gathers the same `scan_columns`, so the two
/// sides cannot drift apart; the verifier re-derives both from here.
pub fn source_layout(source: &SourcePlan, db: &Database) -> Result<RowSchema, SqlError> {
    let columns = || {
        source.scan_columns.as_deref().ok_or_else(|| {
            SqlError::Plan(format!("source {} carries no scan columns", source.alias))
        })
    };
    let table = match &source.kind {
        SourceKind::Table { table, .. } => table,
        // A seek source materializes the output columns it is read for.
        SourceKind::Seek(_) => {
            let names: Vec<&str> = source.schema.columns().map(|(_, n)| n).collect();
            let picked = columns()?
                .iter()
                .map(|&c| names.get(c).copied())
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| {
                    SqlError::Plan(format!("scan column out of range for {}", source.alias))
                })?;
            return Ok(RowSchema::for_table(Some(&source.alias), &picked));
        }
        _ => return Ok(source.schema.clone()),
    };
    let columns = columns()?;
    let names = db.table(table)?.schema().names();
    if columns.iter().any(|&c| c >= names.len()) {
        return Err(SqlError::Plan(format!(
            "scan column out of range for {table}"
        )));
    }
    Ok(RowSchema::shared(Some(&source.alias), names, Some(columns)))
}

/// Compile `source`'s pushed predicate into the space it runs in: against
/// the row `layout`, then — on a base table, whose predicate the scan
/// kernels run over heap segments or index runs — moved through the scan
/// columns onto storage ordinals.  A table function's or derived table's
/// predicate runs on the materialized row.
fn pushed_program(
    source: &SourcePlan,
    layout: &RowSchema,
    functions: &FunctionRegistry,
) -> Result<Option<CompiledExpr>, SqlError> {
    let Some(predicate) = &source.pushed_predicate else {
        return Ok(None);
    };
    let mut program = compile(predicate, layout, functions)?;
    if let (SourceKind::Table { .. }, Some(columns)) = (&source.kind, &source.scan_columns) {
        program.map_columns(&|i| columns[i]);
    }
    Ok(Some(program))
}

/// The run ordinal space of a source the executor reads through an index
/// — the one it seeks, scans or walks the ranges of, or, on an
/// index-lookup join's inner side (`joined_by`), the probed one: for each
/// storage ordinal of the table, the run column holding it, when the index
/// covers it.  Read off the index's own covered-column positions, so it
/// costs no name matching; `None` for every other source.
pub(crate) fn run_columns(
    source: &SourcePlan,
    joined_by: Option<&JoinStrategy>,
    db: &Database,
) -> Result<Option<Vec<Option<usize>>>, SqlError> {
    let (table, index) = match (&source.kind, joined_by) {
        (SourceKind::Table { table, .. }, Some(JoinStrategy::IndexLookup { index, .. })) => {
            (table, index)
        }
        (
            SourceKind::Table {
                table,
                path: AccessPath::IndexSeek { index, .. } | AccessPath::CoveringIndexScan { index },
            },
            _,
        ) => (table, index),
        (SourceKind::Seek(seek), _) => match &seek.index {
            Some(index) => (&seek.table, index),
            None => return Ok(None),
        },
        _ => return Ok(None),
    };
    let idx = db
        .index(table, index)
        .ok_or_else(|| SqlError::Plan(format!("unknown index {index} on {table}")))?;
    let mut runs = vec![None; db.table(table)?.schema().columns().len()];
    for (r, c) in idx.covered_ordinals().enumerate() {
        if let Some(slot) = runs.get_mut(c) {
            slot.get_or_insert(r);
        }
    }
    Ok(Some(runs))
}

/// Compile every expression of a finalized plan into the ordinal-resolved
/// programs the executor runs.  Compilation is total: an unknown column or
/// function in the select list, GROUP BY, HAVING, ORDER BY or an aggregate
/// argument fails the plan here.
pub(crate) fn build_programs(
    plan: &SelectPlan,
    ctx: &PlanContext<'_>,
) -> Result<CompiledPrograms, SqlError> {
    let db = ctx.db;
    let funcs = ctx.functions;
    let compile_opt =
        |e: Option<&Expr>, schema: &RowSchema| e.map(|e| compile(e, schema, funcs)).transpose();
    let compile_all = |exprs: &[Expr], schema: &RowSchema| {
        exprs
            .iter()
            .map(|e| compile(e, schema, funcs))
            .collect::<Result<Vec<CompiledExpr>, SqlError>>()
    };
    let mut programs = CompiledPrograms::default();

    // The executor's runtime layouts: the accumulated (combined) row before
    // and after each join, and the schema each pushed predicate runs in.
    let mut combined = RowSchema::default();
    if let Some(first) = plan.sources.first() {
        combined = source_layout(first, db)?;
        programs
            .source_predicates
            .push(pushed_program(first, &combined, funcs)?);
        programs.source_runs.push(run_columns(first, None, db)?);
    }
    for (i, step) in plan.joins.iter().enumerate() {
        let inner = &plan.sources[i + 1];
        let outer_schema = combined;
        let inner_schema = source_layout(inner, db)?;
        combined = outer_schema.join(&inner_schema);
        let (outer_key, hash_keys) = match &step.strategy {
            JoinStrategy::IndexLookup { outer_key, .. } => {
                (Some(compile(outer_key, &outer_schema, funcs)?), None)
            }
            JoinStrategy::Hash {
                outer_keys,
                inner_keys,
            } => (
                None,
                Some((
                    compile_all(outer_keys, &outer_schema)?,
                    compile_all(inner_keys, &inner_schema)?,
                )),
            ),
            JoinStrategy::NestedLoop => (None, None),
        };
        programs.join_outer_keys.push(outer_key);
        programs.join_hash_keys.push(hash_keys);
        programs
            .join_residuals
            .push(compile_opt(step.residual.as_ref(), &combined)?);
        programs
            .source_predicates
            .push(pushed_program(inner, &inner_schema, funcs)?);
        programs
            .source_runs
            .push(run_columns(inner, Some(&step.strategy), db)?);
    }
    programs.residual = compile_opt(plan.residual.as_ref(), &combined)?;
    // Projections, HAVING and ORDER BY read each aggregate call by its
    // position in this list (empty unless the statement aggregates).
    let aggregating = plan.has_aggregates || !plan.group_by.is_empty();
    let sorts = plan
        .order_by
        .iter()
        .filter(|_| aggregating)
        .map(|item| &item.expr);
    let calls = plan.projections.iter().map(|(e, _)| e).chain(&plan.having);
    let mut agg_exprs: Vec<Expr> = Vec::new();
    for expr in calls.chain(sorts) {
        collect_aggregates(expr, &mut agg_exprs);
    }
    let grouped = Compiler {
        schema: &combined,
        functions: funcs,
        aggregates: &agg_exprs,
    };
    for (expr, _) in &plan.projections {
        programs.projections.push(grouped.compile(expr)?);
    }
    programs.group_by = compile_all(&plan.group_by, &combined)?;
    let having = plan.having.as_ref().map(|h| grouped.compile(h));
    programs.having = having.transpose()?;

    if aggregating {
        for agg in &agg_exprs {
            let Expr::Function { name, args } = agg else {
                continue;
            };
            let kind = AggregateKind::parse(name)
                .ok_or_else(|| SqlError::Execution(format!("unknown aggregate {name}")))?;
            let count_star =
                kind == AggregateKind::Count && matches!(args.first(), Some(Expr::Star) | None);
            let arg = if count_star {
                None
            } else {
                let arg = args
                    .first()
                    .ok_or_else(|| SqlError::Execution(format!("{name}() needs an argument")))?;
                Some(compile(arg, &combined, funcs)?)
            };
            programs.aggregates.push(CompiledAggregate {
                name: name.clone(),
                kind,
                count_star,
                arg,
            });
        }
    }

    for item in &plan.order_by {
        // ORDER BY can name an output alias or any input column.
        let output = match &item.expr {
            Expr::Column {
                qualifier: None,
                name,
            } => plan
                .projections
                .iter()
                .position(|(_, n)| n.eq_ignore_ascii_case(name)),
            _ => None,
        };
        programs.order_by.push(match output {
            Some(idx) => SortKey::Output(idx),
            None => SortKey::Input(grouped.compile(&item.expr)?),
        });
    }

    Ok(programs)
}

/// Expand the select list against the combined input schema.
pub(crate) fn expand_projections(
    items: &[SelectItem],
    schema: &RowSchema,
) -> Result<Vec<(Expr, String)>, SqlError> {
    let mut out = Vec::new();
    for (i, item) in items.iter().enumerate() {
        match item {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                let of = match item {
                    SelectItem::QualifiedWildcard(q) => Some(q),
                    _ => None,
                };
                let before = out.len();
                for (cq, name) in schema.columns() {
                    if of.is_none_or(|q| cq.is_some_and(|c| c.eq_ignore_ascii_case(q))) {
                        let qualifier = cq.map(str::to_string);
                        let column = Expr::Column {
                            qualifier,
                            name: name.to_string(),
                        };
                        out.push((column, name.to_string()));
                    }
                }
                if let (Some(q), true) = (of, out.len() == before) {
                    return Err(SqlError::Plan(format!("unknown alias {q} in {q}.*")));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| default_name(expr, i));
                out.push((expr.clone(), name));
            }
        }
    }
    Ok(out)
}

fn default_name(expr: &Expr, index: usize) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.split('.').next_back().unwrap_or(name).to_string(),
        _ => format!("col{}", index + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::rules::testkit::{registry, test_db};
    use super::*;
    use crate::parser::parse_select;
    use crate::plan::{AccessPath, PlanClass, SourceKind};

    fn plan(db: &Database, sql: &str) -> SelectPlan {
        let funcs = registry();
        let planner = Planner::new(db, &funcs);
        planner.plan_select(&parse_select(sql).unwrap()).unwrap()
    }

    #[test]
    fn equality_on_pk_becomes_index_seek() {
        let db = test_db();
        let p = plan(&db, "select ra from photoObj where objID = 5");
        match &p.sources[0].kind {
            SourceKind::Table { path, .. } => match path {
                AccessPath::IndexSeek { index, bounds } => {
                    assert_eq!(index, "pk_photoObj");
                    assert!(bounds.equals.is_some());
                }
                other => panic!("expected index seek, got {other:?}"),
            },
            other => panic!("{other:?}"),
        }
        assert_eq!(p.plan_class(), PlanClass::IndexSeek);
        assert_eq!(p.rules_fired, vec!["predicate_pushdown", "index_seek"]);
    }

    #[test]
    fn range_on_htm_becomes_index_seek() {
        let db = test_db();
        let p = plan(
            &db,
            "select ra, dec from photoObj where htmID between 1000 and 1005",
        );
        match &p.sources[0].kind {
            SourceKind::Table { path, .. } => match path {
                AccessPath::IndexSeek { index, bounds } => {
                    assert_eq!(index, "ix_htm");
                    assert!(bounds.lower.is_some() && bounds.upper.is_some());
                }
                other => panic!("expected index seek, got {other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn covering_index_used_when_no_sarg() {
        let db = test_db();
        // type is not sargable here (expression), but the query touches only
        // type/modelMag_r/objID which ix_type_mag covers.
        let p = plan(
            &db,
            "select objID, modelMag_r from photoObj where type * 2 = 6",
        );
        match &p.sources[0].kind {
            SourceKind::Table { path, .. } => {
                assert_eq!(
                    path,
                    &AccessPath::CoveringIndexScan {
                        index: "ix_type_mag".into()
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(p.rules_fired.contains(&"covering_index"));
    }

    #[test]
    fn full_scan_when_nothing_helps() {
        let db = test_db();
        let p = plan(&db, "select * from photoObj where ra + dec > 100");
        match &p.sources[0].kind {
            SourceKind::Table { path, .. } => assert_eq!(path, &AccessPath::HeapScan),
            other => panic!("{other:?}"),
        }
        assert_eq!(p.plan_class(), PlanClass::Scan);
    }

    #[test]
    fn view_merges_to_base_table_with_extra_predicates() {
        let db = test_db();
        let p = plan(&db, "select objID from Galaxy where modelMag_r < 19");
        assert_eq!(p.sources.len(), 1);
        match &p.sources[0].kind {
            SourceKind::Table { table, .. } => assert_eq!(table, "photoObj"),
            other => panic!("expected merged view, got {other:?}"),
        }
        // Both the view predicate and the user predicate are pushed.
        let pushed = p.sources[0].pushed_predicate.as_ref().unwrap();
        let n = pushed.conjuncts().len();
        assert_eq!(n, 3, "type=3, flags check, modelMag_r<19");
        assert!(p.rules_fired.contains(&"view_merge"));
    }

    #[test]
    fn tvf_drives_index_lookup_join() {
        let db = test_db();
        let p = plan(
            &db,
            "select G.objID, GN.distance from Galaxy as G \
             join fGetNearbyObjEq(185, -0.5, 1) as GN on G.objID = GN.objID \
             where (G.flags & 64) = 0 order by distance",
        );
        // The TVF should be the driving source.
        assert!(matches!(
            p.sources[0].kind,
            SourceKind::TableFunction { .. }
        ));
        assert_eq!(p.joins.len(), 1);
        match &p.joins[0].strategy {
            JoinStrategy::IndexLookup { index, .. } => assert_eq!(index, "pk_photoObj"),
            other => panic!("expected index lookup join, got {other:?}"),
        }
        let rendered = p.render();
        assert!(rendered.contains("TableFunction(fGetNearbyObjEq"));
        assert!(rendered.contains("index lookup pk_photoObj"));
        // The Figure 10 shape comes from these rules in this order (the
        // Galaxy view's `type = 3` qualifier is sargable on ix_type_mag, so
        // the seek rule fires for the photo side too).
        assert_eq!(
            p.rules_fired,
            vec![
                "view_merge",
                "predicate_pushdown",
                "index_seek",
                "spatial_join_rewrite",
                "join_strategy",
            ]
        );
    }

    #[test]
    fn self_join_uses_hash_strategy_without_index() {
        let db = test_db();
        let p = plan(
            &db,
            "select r.objID, g.objID from photoObj r, photoObj g \
             where r.ra = g.ra and r.objID <> g.objID",
        );
        assert_eq!(p.sources.len(), 2);
        assert_eq!(p.joins.len(), 1);
        assert!(matches!(p.joins[0].strategy, JoinStrategy::Hash { .. }));
    }

    #[test]
    fn projections_expand_wildcards() {
        let db = test_db();
        let p = plan(&db, "select * from photoObj");
        assert_eq!(p.projections.len(), 7);
        let p2 = plan(&db, "select p.* from photoObj p");
        assert_eq!(p2.projections.len(), 7);
    }

    #[test]
    fn aggregates_detected() {
        let db = test_db();
        let p = plan(&db, "select count(*) from photoObj where type = 3");
        assert!(p.has_aggregates);
        let p2 = plan(
            &db,
            "select type, avg(modelMag_r) from photoObj group by type",
        );
        assert!(p2.has_aggregates);
        assert_eq!(p2.group_by.len(), 1);
    }

    #[test]
    fn errors_for_unknown_names() {
        let db = test_db();
        let funcs = registry();
        let planner = Planner::new(&db, &funcs);
        assert!(planner
            .plan_select(&parse_select("select * from noSuchTable").unwrap())
            .is_err());
        assert!(
            planner
                .plan_select(&parse_select("select noSuchColumn from photoObj").unwrap())
                .is_err(),
            "projections bind at plan time"
        );
        assert!(planner
            .plan_select(&parse_select("select * from photoObj where noSuchColumn = 1").unwrap())
            .is_err());
        assert!(planner
            .plan_select(&parse_select("select * from fNoSuchTvf(1)").unwrap())
            .is_err());
    }

    #[test]
    fn parallel_scan_threshold_is_honoured() {
        let db = test_db();
        let funcs = registry();
        let planner = Planner::new(&db, &funcs).with_parallel_scan_threshold(5);
        let p = planner
            .plan_select(&parse_select("select * from photoObj where ra + dec > 100").unwrap())
            .unwrap();
        match &p.sources[0].kind {
            SourceKind::Table { path, .. } => {
                assert!(matches!(path, AccessPath::ParallelHeapScan { .. }));
            }
            other => panic!("{other:?}"),
        }
        assert!(p.rules_fired.contains(&"parallel_scan_fallback"));
        assert_eq!(
            p.plan_class(),
            PlanClass::Scan,
            "parallel scans are still scans"
        );
    }

    #[test]
    fn top_without_sort_gets_a_limit_hint() {
        let db = test_db();
        let p = plan(&db, "select top 2 objID from photoObj");
        assert_eq!(p.sources[0].limit_hint, Some(2));
        assert!(p.rules_fired.contains(&"limit_pushdown"));
        let p2 = plan(&db, "select top 2 objID from photoObj order by objID");
        assert_eq!(p2.sources[0].limit_hint, None);
    }
}
