//! Access-path selection, part 2: the tag-table replacement.  When no seek
//! applies but some index *covers* every column the query needs from a
//! table, scanning that index reads a 10-100x smaller column subset than the
//! heap (§9.1.2's tag tables, realised as covering indices).  The narrowest
//! covering index wins, and the source's schema shrinks to the covered
//! columns.

use super::RewriteRule;
use crate::ast::SelectItem;
use crate::error::SqlError;
use crate::expr::RowSchema;
use crate::plan::{AccessPath, SourceKind};
use crate::planner::binder::{LogicalPlan, PlanContext};

/// The `covering_index` rule: answers a query from an index that covers
/// every referenced column — the paper's 10-100x smaller "tag tables".
pub struct CoveringIndexSelection;

impl RewriteRule for CoveringIndexSelection {
    fn name(&self) -> &'static str {
        "covering_index"
    }

    fn apply(&self, plan: &mut LogicalPlan, ctx: &PlanContext<'_>) -> Result<bool, SqlError> {
        // Only a heap scan can become a covering scan.
        let heap_scan = |kind: &SourceKind| {
            matches!(
                kind,
                SourceKind::Table {
                    path: AccessPath::HeapScan,
                    ..
                }
            )
        };
        if !plan.sources.iter().any(|s| heap_scan(&s.kind)) {
            return Ok(false);
        }
        let needed = needed_columns(plan);
        let mut fired = false;
        for source in &mut plan.sources {
            let SourceKind::Table { table, path } = &mut source.kind else {
                continue;
            };
            if *path != AccessPath::HeapScan {
                continue;
            }
            let needed_for_alias: Vec<&str> = needed
                .iter()
                .filter(|(a, _)| a.eq_ignore_ascii_case(&source.alias))
                .map(|(_, c)| c.as_str())
                .collect();
            if needed_for_alias.is_empty() {
                continue;
            }
            let mut best: Option<(usize, _)> = None;
            for idx in ctx.db.indexes_for(table) {
                let width = idx.def().covered_columns().len();
                if idx.def().covers(&needed_for_alias) && best.is_none_or(|(w, _)| width < w) {
                    best = Some((width, idx));
                }
            }
            if let Some((_, idx)) = best {
                let covered: Vec<usize> = idx.covered_ordinals().collect();
                let names = ctx.db.table(table)?.schema().names();
                source.schema = RowSchema::shared(Some(&source.alias), names, Some(&covered));
                let index = idx.def().name.clone();
                *path = AccessPath::CoveringIndexScan { index };
                fired = true;
            }
        }
        Ok(fired)
    }
}

/// Every `(alias, column)` pair the query references anywhere: projections,
/// all conjuncts (consumed or not), ORDER BY, GROUP BY and HAVING.  A bare
/// `*` claims every column of every source, which correctly defeats
/// covering-index selection.
pub fn needed_columns(plan: &LogicalPlan) -> Vec<(String, String)> {
    let alias_schemas = crate::planner::binder::alias_schemas(&plan.sources);
    let mut refs: Vec<(Option<String>, String)> = Vec::new();
    for p in &plan.select_items {
        match p {
            SelectItem::Expr { expr, .. } => expr.collect_columns(&mut refs),
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                for (alias, schema) in &alias_schemas {
                    if matches!(p, SelectItem::QualifiedWildcard(q) if !alias.eq_ignore_ascii_case(q))
                    {
                        continue;
                    }
                    for (_, name) in schema.columns() {
                        refs.push((Some(alias.to_string()), name.to_string()));
                    }
                }
            }
        }
    }
    for c in &plan.conjuncts {
        c.expr.collect_columns(&mut refs);
    }
    for s in &plan.sources {
        for e in s.pushed.iter().chain(&s.outer_on) {
            e.collect_columns(&mut refs);
        }
    }
    for o in &plan.order_by {
        o.expr.collect_columns(&mut refs);
    }
    for g in &plan.group_by {
        g.collect_columns(&mut refs);
    }
    if let Some(h) = &plan.having {
        h.collect_columns(&mut refs);
    }
    // Resolve unqualified references to their alias.
    let mut out = Vec::new();
    for (q, name) in refs {
        match q {
            Some(q) => out.push((q, name)),
            None => {
                for (alias, schema) in &alias_schemas {
                    if schema.can_resolve(None, &name) {
                        out.push((alias.to_string(), name.clone()));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::rules::predicate_pushdown::PredicatePushdown;
    use crate::planner::rules::testkit::{bind_only, ctx, registry, test_db};

    #[test]
    fn covered_query_scans_the_index_and_narrows_the_schema() {
        let db = test_db();
        let funcs = registry();
        // `type * 2 = 6` is not sargable, but type/modelMag_r/objID are all
        // covered by ix_type_mag.
        let mut plan = bind_only(
            &db,
            &funcs,
            "select objID, modelMag_r from photoObj where type * 2 = 6",
        );
        PredicatePushdown
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        let before_width = plan.sources[0].schema.len();

        assert!(CoveringIndexSelection
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap());
        match &plan.sources[0].kind {
            SourceKind::Table { path, .. } => assert_eq!(
                path,
                &AccessPath::CoveringIndexScan {
                    index: "ix_type_mag".into()
                }
            ),
            other => panic!("{other:?}"),
        }
        assert!(
            plan.sources[0].schema.len() < before_width,
            "schema must shrink to the covered column subset"
        );
    }

    #[test]
    fn select_star_defeats_covering() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(&db, &funcs, "select * from photoObj where type * 2 = 6");
        PredicatePushdown
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        assert!(!CoveringIndexSelection
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap());
        match &plan.sources[0].kind {
            SourceKind::Table { path, .. } => assert_eq!(path, &AccessPath::HeapScan),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn existing_index_seek_is_left_alone() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(&db, &funcs, "select objID from photoObj where objID = 1");
        PredicatePushdown
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        crate::planner::rules::index_seek::IndexSeekSelection
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        assert!(!CoveringIndexSelection
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap());
    }
}
