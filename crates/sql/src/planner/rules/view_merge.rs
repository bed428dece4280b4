//! View merging — the paper's "views as sub-classing" (§9.1.3).
//!
//! `Galaxy` / `Star` / `PhotoPrimary` are defined as `SELECT * FROM photoObj
//! WHERE <qualifiers>`; a query against such a view should "map down to the
//! base photoObj table with the additional qualifiers", not materialise the
//! view.  Every view definition is analysed once per catalog
//! (`merge_chain`, via `planner::catalog`) and the binder stores the
//! collapsed `base WHERE qualifiers` result on the source; this rule
//! applies it — rewriting the materialised derived table into a
//! direct base-table access with the requalified view qualifiers attached
//! to the scan itself.
//!
//! The qualifiers go straight into `source.pushed`, **not** the WHERE
//! conjunct pool: they are part of the source's definition, so they must
//! filter the scan even when the view sits on the NULL-extended side of an
//! outer join (where WHERE-pool predicates must wait until after the join).

use super::RewriteRule;
use crate::ast::{Expr, SelectItem, SelectStatement, TableSource};
use crate::error::SqlError;
use crate::expr::RowSchema;
use crate::plan::{AccessPath, SourceKind};
use crate::planner::binder::{LogicalPlan, MergedView, PlanContext, SourceOrigin};
use skyserver_storage::Database;
use std::collections::HashMap;

/// The `view_merge` rule: collapses simple view chains onto their base
/// table, folding the views' qualifiers into the scan (§9.1.3).
pub struct ViewMerge;

impl RewriteRule for ViewMerge {
    fn name(&self) -> &'static str {
        "view_merge"
    }

    fn apply(&self, plan: &mut LogicalPlan, ctx: &PlanContext<'_>) -> Result<bool, SqlError> {
        let mut fired = false;
        for source in &mut plan.sources {
            let SourceOrigin::View {
                merged: Some(merged),
                ..
            } = &source.origin
            else {
                continue;
            };
            let mut predicates = merged.predicates.clone();
            for p in &mut predicates {
                requalify(p, &source.alias);
            }
            let names = ctx.db.table(&merged.base)?.schema().names();
            source.schema = RowSchema::shared(Some(&source.alias), names, None);
            source.kind = SourceKind::Table {
                table: merged.base.clone(),
                path: AccessPath::HeapScan,
            };
            source.pushed.extend(predicates);
            fired = true;
        }
        Ok(fired)
    }
}

/// Follow a view definition of the shape `SELECT * FROM base [WHERE pred]`
/// (possibly via further such views) down to a base table, accumulating the
/// predicates innermost-first.  Returns `None` when the definition is too
/// complex to merge (the source then stays a materialised derived table).
/// `parsed` holds every view definition of the catalog.  Called once per
/// view per catalog state ([`crate::planner::catalog`]); the binder puts the
/// result on [`SourceOrigin::View`].
pub(crate) fn merge_chain(
    view: &SelectStatement,
    db: &Database,
    parsed: &HashMap<String, Result<SelectStatement, SqlError>>,
) -> Result<Option<MergedView>, SqlError> {
    let simple = view.from.len() == 1
        && view.projections.len() == 1
        && matches!(view.projections[0], SelectItem::Wildcard)
        && view.group_by.is_empty()
        && view.order_by.is_empty()
        && view.top.is_none()
        && !view.distinct
        && view.into.is_none();
    if !simple {
        return Ok(None);
    }
    let TableSource::Named(base) = &view.from[0].source else {
        return Ok(None);
    };
    let predicates: Vec<Expr> = view
        .selection
        .as_ref()
        .map(|p| p.conjuncts().into_iter().cloned().collect())
        .unwrap_or_default();
    if db.has_table(base) {
        return Ok(Some(MergedView {
            base: base.clone(),
            predicates,
        }));
    }
    if let Some(inner_select) = parsed.get(&base.to_ascii_lowercase()) {
        let inner_select = inner_select.as_ref().map_err(Clone::clone)?;
        if let Some(mut inner) = merge_chain(inner_select, db, parsed)? {
            inner.predicates.extend(predicates);
            return Ok(Some(inner));
        }
    }
    Ok(None)
}

/// Qualify every column reference of a merged view predicate with the outer
/// alias (the view body referenced its own base table or nothing).
fn requalify(expr: &mut Expr, alias: &str) {
    match expr {
        Expr::Column { qualifier, .. } => {
            *qualifier = Some(alias.to_string());
        }
        Expr::Unary { expr, .. } => requalify(expr, alias),
        Expr::Binary { left, right, .. } => {
            requalify(left, alias);
            requalify(right, alias);
        }
        Expr::Function { args, .. } => {
            for a in args {
                requalify(a, alias);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            requalify(expr, alias);
            requalify(low, alias);
            requalify(high, alias);
        }
        Expr::InList { expr, list, .. } => {
            requalify(expr, alias);
            for e in list {
                requalify(e, alias);
            }
        }
        Expr::IsNull { expr, .. } => requalify(expr, alias),
        Expr::Like { expr, pattern, .. } => {
            requalify(expr, alias);
            requalify(pattern, alias);
        }
        Expr::Case {
            branches,
            else_value,
        } => {
            for (c, v) in branches {
                requalify(c, alias);
                requalify(v, alias);
            }
            if let Some(e) = else_value {
                requalify(e, alias);
            }
        }
        Expr::Cast { expr, .. } => requalify(expr, alias),
        Expr::Literal(_) | Expr::Variable(_) | Expr::Star => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::rules::testkit::{bind_only, ctx, registry, test_db};

    #[test]
    fn simple_view_collapses_to_base_table() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select objID from Galaxy where modelMag_r < 19",
        );
        // Before: the binder bound the view as a (correct but naive)
        // derived table over the base; the rule collapses it.
        assert!(matches!(plan.sources[0].kind, SourceKind::Derived { .. }));
        assert!(plan.sources[0].pushed.is_empty());

        let fired = ViewMerge.apply(&mut plan, &ctx(&db, &funcs)).unwrap();
        assert!(fired);
        // After: direct base-table access with the view's two qualifiers
        // attached to the scan itself (not the WHERE pool, so outer joins
        // over views keep their semantics).
        match &plan.sources[0].kind {
            SourceKind::Table { table, path } => {
                assert_eq!(table, "photoObj");
                assert_eq!(path, &AccessPath::HeapScan);
            }
            other => panic!("expected merged base table, got {other:?}"),
        }
        assert_eq!(plan.sources[0].pushed.len(), 2);
        // The qualifiers are requalified with the outer alias.
        for p in &plan.sources[0].pushed {
            let mut cols = Vec::new();
            p.collect_columns(&mut cols);
            assert!(cols.iter().all(|(q, _)| q.as_deref() == Some("Galaxy")));
        }
    }

    #[test]
    fn stacked_views_merge_through_both_layers() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(&db, &funcs, "select objID from BrightGalaxy");
        let fired = ViewMerge.apply(&mut plan, &ctx(&db, &funcs)).unwrap();
        assert!(fired);
        match &plan.sources[0].kind {
            SourceKind::Table { table, .. } => assert_eq!(table, "photoObj"),
            other => panic!("expected merged base table, got {other:?}"),
        }
        // Galaxy contributes two qualifiers, BrightGalaxy one more.
        assert_eq!(plan.sources[0].pushed.len(), 3);
    }

    #[test]
    fn view_on_nullable_side_of_left_join_keeps_qualifiers_in_the_scan() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select p.objID from photoObj p left join Galaxy g on p.objID = g.objID",
        );
        let fired = ViewMerge.apply(&mut plan, &ctx(&db, &funcs)).unwrap();
        assert!(fired);
        // The qualifiers filter the Galaxy scan before the outer join; they
        // must not surface as WHERE-pool conjuncts, which would run after
        // NULL-extension and wrongly drop the preserved rows.
        assert_eq!(plan.sources[1].pushed.len(), 2);
        assert!(plan.conjuncts.is_empty());
    }

    #[test]
    fn complex_views_stay_materialised() {
        let mut db = test_db();
        let funcs = registry();
        db.create_view("Brightest", "select top 5 * from photoObj", "top-n view")
            .unwrap();
        let mut plan = bind_only(&db, &funcs, "select objID from Brightest");
        assert!(
            matches!(plan.sources[0].kind, SourceKind::Derived { .. }),
            "a TOP view cannot be merged, so it must bind as a derived table"
        );
        let fired = ViewMerge.apply(&mut plan, &ctx(&db, &funcs)).unwrap();
        assert!(!fired);
        assert!(matches!(plan.sources[0].kind, SourceKind::Derived { .. }));
    }

    #[test]
    fn does_not_fire_without_views() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(&db, &funcs, "select objID from photoObj where objID = 1");
        let before = plan.clone();
        let fired = ViewMerge.apply(&mut plan, &ctx(&db, &funcs)).unwrap();
        assert!(!fired);
        assert_eq!(plan, before, "a non-firing rule must not change the plan");
    }
}
