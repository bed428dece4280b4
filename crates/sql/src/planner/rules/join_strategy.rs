//! Join-strategy selection: build the [`JoinStep`] chain that connects the
//! (already ordered) sources.  For each step the rule pulls in the conjuncts
//! that become evaluable once that source joins, detects equi-join pairs,
//! and picks the cheapest algorithm:
//!
//! * **index-lookup nested loop** when the inner side is a base table with a
//!   B-tree leading on an equi-join column (the Figure 10 probe) and the
//!   probes cost less than a hash join would (`lookup_beats_hash`);
//!   the inner's access path then names that index, since the executor
//!   reads the inner through it and nothing else,
//! * **hash join** for the other equi-joins (self-joins, and lookups that
//!   would visit most of the inner table one entry at a time),
//! * **plain nested loop** otherwise.
//!
//! Outer-join ON conjuncts (which the binder kept with their source, since
//! they must not filter globally) are folded into that step's residual here.

use super::cost_join_order::MIN_COSTED_ROWS;
use super::RewriteRule;
use crate::ast::{BinaryOp, Expr, JoinKind, SelectItem};
use crate::error::SqlError;
use crate::expr::RowSchema;
use crate::plan::{AccessPath, IndexBounds, JoinStep, JoinStrategy, SourceKind};
use crate::planner::binder::{LogicalPlan, LogicalSource, PlanContext};
use crate::planner::stats;
use std::collections::HashSet;

/// What the two ways of reading an equi-join's inner table cost, in
/// microseconds, measured on the executor's paths over the Personal catalog
/// (2-core x86-64 host).  An index-lookup probe — one outer row's share of
/// a chunk's key evaluation, sort and sorted walk of the index:
const PROBE_US: f64 = 0.4;
/// Each index entry a probe matches, filtered in its run's sparse
/// selection and re-sequenced to outer order ...
const ENTRY_US: f64 = 0.07;
/// ... plus each cell that entry gathers.
const CELL_US: f64 = 0.06;
/// A hash join's batch-kernel scan of the inner table, per row.
const SCAN_ROW_US: f64 = 0.09;
/// Each row the hash join hashes into its build table.
const BUILD_ROW_US: f64 = 1.5;

/// The `join_strategy` rule: picks index-lookup, hash or nested-loop for
/// every join step from the available indexes, the key shapes and the
/// estimated costs.
pub struct JoinStrategySelection;

impl RewriteRule for JoinStrategySelection {
    fn name(&self) -> &'static str {
        "join_strategy"
    }

    fn apply(&self, plan: &mut LogicalPlan, ctx: &PlanContext<'_>) -> Result<bool, SqlError> {
        if plan.sources.len() < 2 {
            return Ok(false);
        }
        let mut joins = Vec::with_capacity(plan.sources.len() - 1);
        // WHERE conjuncts touching a NULL-extended alias must filter after
        // *all* joins (global residual), not inside a step, or NULL-extended
        // rows would be produced/eliminated incorrectly.
        let nullable = plan.nullable_aliases();
        let aliases = stats::alias_tables(&plan.sources);
        let mut available: HashSet<String> = HashSet::new();
        available.insert(plan.sources[0].alias.to_ascii_lowercase());
        // Estimated rows of the accumulated outer side, step by step.
        let mut outer_rows = stats::estimate_logical_source(ctx.db, &plan.sources[0]).max(1.0);
        for i in 1..plan.sources.len() {
            available.insert(plan.sources[i].alias.to_ascii_lowercase());
            // Conjuncts that become evaluable once this source is joined.
            let mut step_conjuncts: Vec<Expr> = Vec::new();
            for c in &mut plan.conjuncts {
                if c.consumed || c.aliases.len() == 1 {
                    continue;
                }
                if c.aliases
                    .iter()
                    .any(|a| nullable.contains(&a.to_ascii_lowercase()))
                {
                    continue;
                }
                let ready = c
                    .aliases
                    .iter()
                    .all(|a| available.contains(&a.to_ascii_lowercase()));
                if ready {
                    step_conjuncts.push(c.expr.clone());
                    c.consumed = true;
                }
            }
            // Outer-join ON conjuncts always belong to their own step.
            step_conjuncts.extend(plan.sources[i].outer_on.iter().cloned());
            let outer_schema: RowSchema = plan.sources[..i]
                .iter()
                .map(|s| s.schema.clone())
                .reduce(|a, b| a.join(&b))
                .unwrap_or_default();
            let inner_rows = stats::estimate_logical_source(ctx.db, &plan.sources[i]);
            let selectivity: f64 = step_conjuncts
                .iter()
                .map(|c| stats::join_conjunct_selectivity(ctx.db, &aliases, c))
                .product();
            let step = choose_strategy(
                ctx,
                (plan, i),
                &outer_schema,
                step_conjuncts,
                (outer_rows, inner_rows),
            );
            if let (
                JoinStrategy::IndexLookup {
                    index,
                    outer_key,
                    inner_column,
                },
                SourceKind::Table { path, .. },
            ) = (&step.strategy, &mut plan.sources[i].kind)
            {
                *path = AccessPath::IndexSeek {
                    index: index.clone(),
                    bounds: IndexBounds {
                        column: inner_column.clone(),
                        equals: Some(outer_key.clone()),
                        ..IndexBounds::default()
                    },
                };
            }
            joins.push(step);
            outer_rows = (outer_rows * inner_rows * selectivity).max(1.0);
        }
        plan.joins = joins;
        Ok(true)
    }
}

/// Columns of `inner` the statement references — the row an index-lookup
/// probe gathers for every entry it visits (a `*` reads them all).
fn gathered_cells(plan: &LogicalPlan, inner: &LogicalSource) -> usize {
    let mut refs = Vec::new();
    for item in &plan.select_items {
        match item {
            SelectItem::Wildcard => return inner.schema.len(),
            SelectItem::QualifiedWildcard(q) if q.eq_ignore_ascii_case(&inner.alias) => {
                return inner.schema.len()
            }
            SelectItem::Expr { expr, .. } => expr.collect_columns(&mut refs),
            SelectItem::QualifiedWildcard(_) => {}
        }
    }
    let exprs = plan.conjuncts.iter().map(|c| &c.expr);
    let exprs = exprs.chain(&plan.group_by).chain(&plan.having);
    let exprs = exprs.chain(plan.order_by.iter().map(|o| &o.expr));
    for e in exprs.chain(plan.sources.iter().flat_map(|s| &s.outer_on)) {
        e.collect_columns(&mut refs);
    }
    let mut names: Vec<String> = refs
        .into_iter()
        .filter(|(q, n)| inner.schema.can_resolve(q.as_deref(), n))
        .map(|(_, n)| n.to_ascii_lowercase())
        .collect();
    names.sort_unstable();
    names.dedup();
    names.len()
}

/// Does probing an index on `column` once per outer row cost less than
/// scanning the inner table into a hash table?  A probe finds its key in
/// a batched walk of the index and matches rows ÷ NDV entries, each
/// filtered by the kernels and gathered; the hash join scans every row through the batch kernels and
/// hashes the rows its pushed predicate keeps.  `rows` are the estimated
/// outer and inner (after its pushed predicate) rows.
fn lookup_beats_hash(
    ctx: &PlanContext<'_>,
    (plan, inner): (&LogicalPlan, &LogicalSource),
    table: &str,
    column: &str,
    (outer_rows, inner_rows): (f64, f64),
) -> bool {
    let rows = ctx.db.table(table).map_or(0.0, |t| t.row_count() as f64);
    if rows < MIN_COSTED_ROWS {
        return true;
    }
    let entries = rows / stats::column_ndv(ctx.db, table, column);
    let lookup =
        |cells: usize| outer_rows * (PROBE_US + entries * (ENTRY_US + CELL_US * cells as f64));
    let hash = rows * SCAN_ROW_US + inner_rows * BUILD_ROW_US;
    // Every column gathered is the bound; count the statement's columns
    // only when the bound does not already decide.
    lookup(inner.schema.len()) <= hash || lookup(gathered_cells(plan, inner)) <= hash
}

fn choose_strategy(
    ctx: &PlanContext<'_>,
    (plan, i): (&LogicalPlan, usize),
    outer_schema: &RowSchema,
    step_conjuncts: Vec<Expr>,
    rows: (f64, f64),
) -> JoinStep {
    let inner = &plan.sources[i];
    // Find equi-join conjuncts: inner.column = outer-only expression.
    let mut equi: Vec<(String, Expr)> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for c in &step_conjuncts {
        if let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = c
        {
            if let Some((col, outer)) =
                equi_join_sides(left, right, &inner.alias, &inner.schema, outer_schema)
            {
                equi.push((col, outer));
                // The conjunct stays in the residual as well: a harmless
                // re-check that keeps outer-join semantics simple.
            }
        }
        residual.push(c.clone());
    }
    let strategy = if let SourceKind::Table { table, .. } = &inner.kind {
        // An index lookup on an equi-join column, when it is the cheaper.
        let mut lookup = None;
        'outer: for (col, outer) in &equi {
            for idx in ctx.db.indexes_for(table) {
                if idx.def().leading_column().eq_ignore_ascii_case(col) {
                    lookup = lookup_beats_hash(ctx, (plan, inner), table, col, rows).then(|| {
                        JoinStrategy::IndexLookup {
                            index: idx.def().name.clone(),
                            outer_key: outer.clone(),
                            inner_column: col.clone(),
                        }
                    });
                    break 'outer;
                }
            }
        }
        lookup.unwrap_or_else(|| hash_or_nested(&equi, &inner.alias))
    } else {
        hash_or_nested(&equi, &inner.alias)
    };
    JoinStep {
        kind: inner.join_kind.unwrap_or(JoinKind::Inner),
        strategy,
        residual: Expr::from_conjuncts(residual),
        est_rows: None,
    }
}

fn hash_or_nested(equi: &[(String, Expr)], inner_alias: &str) -> JoinStrategy {
    if equi.is_empty() {
        JoinStrategy::NestedLoop
    } else {
        JoinStrategy::Hash {
            outer_keys: equi.iter().map(|(_, o)| o.clone()).collect(),
            inner_keys: equi
                .iter()
                .map(|(c, _)| Expr::Column {
                    qualifier: Some(inner_alias.to_string()),
                    name: c.clone(),
                })
                .collect(),
        }
    }
}

/// If `left = right` is an equi-join between the inner source and the outer
/// side, return `(inner column name, outer expression)`.
fn equi_join_sides(
    left: &Expr,
    right: &Expr,
    inner_alias: &str,
    inner_schema: &RowSchema,
    outer_schema: &RowSchema,
) -> Option<(String, Expr)> {
    let is_inner_col = |e: &Expr| -> Option<String> {
        if let Expr::Column { qualifier, name } = e {
            let matches_alias = qualifier
                .as_deref()
                .map(|q| q.eq_ignore_ascii_case(inner_alias))
                .unwrap_or_else(|| inner_schema.can_resolve(None, name));
            if matches_alias && inner_schema.can_resolve(qualifier.as_deref(), name) {
                return Some(name.clone());
            }
        }
        None
    };
    let is_outer_expr = |e: &Expr| -> bool {
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        !cols.is_empty()
            && cols
                .iter()
                .all(|(q, n)| outer_schema.can_resolve(q.as_deref(), n))
    };
    if let Some(col) = is_inner_col(left) {
        if is_outer_expr(right) {
            return Some((col, right.clone()));
        }
    }
    if let Some(col) = is_inner_col(right) {
        if is_outer_expr(left) {
            return Some((col, left.clone()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::rules::predicate_pushdown::PredicatePushdown;
    use crate::planner::rules::spatial_join::SpatialJoinRewrite;
    use crate::planner::rules::testkit::{bind_only, ctx, registry, test_db};

    #[test]
    fn equi_join_onto_indexed_table_uses_index_lookup() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select G.objID, GN.distance from photoObj as G \
             join fGetNearbyObjEq(185, -0.5, 1) as GN on G.objID = GN.objID",
        );
        PredicatePushdown
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        SpatialJoinRewrite
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        assert!(plan.joins.is_empty(), "before: no join steps yet");

        assert!(JoinStrategySelection
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap());
        assert_eq!(plan.joins.len(), 1);
        match &plan.joins[0].strategy {
            JoinStrategy::IndexLookup {
                index,
                inner_column,
                ..
            } => {
                assert_eq!(index, "pk_photoObj");
                assert_eq!(inner_column, "objID");
            }
            other => panic!("expected index-lookup join, got {other:?}"),
        }
    }

    /// A 4,096-row photo table, analyzed: a unique `objID`, six runs of six
    /// camera columns each, and an index leading on `run`.
    fn runs_db() -> skyserver_storage::Database {
        use skyserver_storage::{ColumnDef, DataType, Database, IndexDef, TableSchema, Value};
        let mut db = Database::new("runs");
        let columns = ["objID", "run", "camcol", "field"].map(|c| ColumnDef::new(c, DataType::Int));
        let mut columns = columns.to_vec();
        columns.push(ColumnDef::new("mag", DataType::Float));
        db.create_table("photo", TableSchema::new(columns)).unwrap();
        db.create_index(IndexDef::new("pk_photo", "photo", &["objID"]).unique())
            .unwrap();
        db.create_index(IndexDef::new(
            "ix_run",
            "photo",
            &["run", "camcol", "field"],
        ))
        .unwrap();
        for i in 0..4096i64 {
            let row = [i, i % 6, (i / 6) % 6 + 1, i / 36].map(Value::Int);
            let mut row = row.to_vec();
            row.push(Value::Float(15.0 + (i % 100) as f64 * 0.1));
            db.insert("photo", row).unwrap();
        }
        db.analyze_all();
        db
    }

    fn planned(db: &skyserver_storage::Database, sql: &str) -> crate::plan::SelectPlan {
        let functions = registry();
        crate::planner::Planner::new(db, &functions)
            .plan_select(&crate::parser::parse_select(sql).unwrap())
            .unwrap()
    }

    #[test]
    fn a_lookup_visiting_a_whole_run_per_probe_becomes_a_hash_join() {
        // Q15B's shape: a few bright objects on each side, paired by run and
        // camera column.  `run` has 6 values, so each probe of ix_run would
        // visit a sixth of the table one entry at a time.
        let plan = planned(
            &runs_db(),
            "select r.objID, g.objID from photo r, photo g \
             where r.run = g.run and r.camcol = g.camcol \
               and abs(g.field - r.field) <= 1 and r.objID <> g.objID \
               and r.mag < 15.05 and g.mag < 15.05",
        );
        match &plan.joins[0].strategy {
            JoinStrategy::Hash {
                outer_keys,
                inner_keys,
            } => {
                let names = |keys: &[Expr]| {
                    keys.iter()
                        .map(crate::plan::render_expr)
                        .collect::<Vec<_>>()
                };
                assert_eq!(names(outer_keys), ["r.run", "r.camcol"]);
                assert_eq!(names(inner_keys), ["g.run", "g.camcol"]);
            }
            other => panic!("expected a hash join, got {other:?}"),
        }
    }

    #[test]
    fn a_pk_lookup_for_a_64_row_outer_side_stays_a_lookup() {
        let plan = planned(
            &runs_db(),
            "select p.objID, p.mag from fGetNearbyObjEq(1, 2, 3) n \
             join photo p on p.objID = n.objID",
        );
        assert!(
            matches!(&plan.joins[0].strategy, JoinStrategy::IndexLookup { index, .. } if index == "pk_photo"),
            "{:?}",
            plan.joins[0].strategy
        );
        // The inner side's path names the index the probes read.
        let SourceKind::Table { path, .. } = &plan.sources[1].kind else {
            panic!("the inner side is a table");
        };
        assert!(
            matches!(path, AccessPath::IndexSeek { index, bounds } if index == "pk_photo" && bounds.equals.is_some()),
            "{path:?}"
        );
    }

    #[test]
    fn self_join_without_index_hashes() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select r.objID, g.objID from photoObj r, photoObj g \
             where r.ra = g.ra and r.objID <> g.objID",
        );
        PredicatePushdown
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        JoinStrategySelection
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        assert_eq!(plan.joins.len(), 1);
        assert!(matches!(plan.joins[0].strategy, JoinStrategy::Hash { .. }));
        // Both join conjuncts were folded into the step.
        assert!(plan
            .conjuncts
            .iter()
            .all(|c| c.consumed || c.aliases.len() == 1));
    }

    #[test]
    fn cross_join_without_conjuncts_nested_loops() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select r.objID from photoObj r, fGetNearbyObjEq(1, 2, 3) n",
        );
        JoinStrategySelection
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        assert!(matches!(plan.joins[0].strategy, JoinStrategy::NestedLoop));
        assert!(plan.joins[0].residual.is_none());
    }

    #[test]
    fn outer_join_on_conjuncts_stay_with_their_step() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select G.objID from photoObj as G \
             left join fGetNearbyObjEq(185, -0.5, 1) as GN on G.objID = GN.objID",
        );
        JoinStrategySelection
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        assert_eq!(plan.joins.len(), 1);
        assert_eq!(plan.joins[0].kind, JoinKind::Left);
        assert!(
            plan.joins[0].residual.is_some(),
            "the ON predicate must filter the step, not the whole result"
        );
    }
}
