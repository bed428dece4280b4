//! Predicate pushdown: conjuncts that reference exactly one source move out
//! of the global filter and into that source's scan, where the storage layer
//! evaluates them row-by-row during the sequential read or index probe.
//! Runs after [`super::view_merge`] so merged view qualifiers get pushed
//! like any user predicate.  A seek source takes none: its rows are built
//! from the index runs, so its conjuncts filter them in the residual.

use super::RewriteRule;
use crate::error::SqlError;
use crate::plan::SourceKind;
use crate::planner::binder::{LogicalPlan, PlanContext};

/// The `predicate_pushdown` rule: moves single-table conjuncts into the
/// scan that produces their rows.
pub struct PredicatePushdown;

impl RewriteRule for PredicatePushdown {
    fn name(&self) -> &'static str {
        "predicate_pushdown"
    }

    fn apply(&self, plan: &mut LogicalPlan, _ctx: &PlanContext<'_>) -> Result<bool, SqlError> {
        let mut fired = false;
        // WHERE predicates on the NULL-extended side of an outer join must
        // filter *after* the join (they see the NULL rows), so they stay in
        // the global residual.
        let nullable = plan.nullable_aliases();
        // Split borrows: collect placements first, then mutate sources.
        let mut placements: Vec<(usize, crate::ast::Expr)> = Vec::new();
        for conjunct in &mut plan.conjuncts {
            if conjunct.consumed || conjunct.aliases.len() != 1 {
                continue;
            }
            let alias = conjunct.aliases.iter().next().expect("len checked");
            if nullable.contains(&alias.to_ascii_lowercase()) {
                continue;
            }
            if let Some(idx) = plan.sources.iter().position(|s| {
                s.alias.eq_ignore_ascii_case(alias) && !matches!(s.kind, SourceKind::Seek(_))
            }) {
                placements.push((idx, conjunct.expr.clone()));
                conjunct.consumed = true;
                fired = true;
            }
        }
        for (idx, expr) in placements {
            plan.sources[idx].pushed.push(expr);
        }
        Ok(fired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::rules::testkit::{bind_only, ctx, registry, test_db};

    #[test]
    fn single_alias_conjuncts_move_into_the_scan() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select r.objID from photoObj r, photoObj g \
             where r.type = 3 and g.type = 6 and r.ra = g.ra",
        );
        assert!(plan.sources.iter().all(|s| s.pushed.is_empty()));

        let fired = PredicatePushdown
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        assert!(fired);
        // One conjunct pushed into each source; the join conjunct stays.
        assert_eq!(plan.sources[0].pushed.len(), 1);
        assert_eq!(plan.sources[1].pushed.len(), 1);
        let unconsumed: Vec<_> = plan.conjuncts.iter().filter(|c| !c.consumed).collect();
        assert_eq!(unconsumed.len(), 1, "the r.ra = g.ra join conjunct");
        assert_eq!(unconsumed[0].aliases.len(), 2);
    }

    #[test]
    fn constant_conjuncts_are_not_pushed() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(&db, &funcs, "select objID from photoObj where 1 = 1");
        let fired = PredicatePushdown
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        assert!(!fired);
        assert!(plan.sources[0].pushed.is_empty());
        assert!(!plan.conjuncts[0].consumed);
    }

    #[test]
    fn merged_view_qualifiers_get_pushed_too() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select objID from Galaxy where modelMag_r < 19",
        );
        super::super::view_merge::ViewMerge
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        let fired = PredicatePushdown
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        assert!(fired);
        // User predicate + the view's two qualifiers, all on the one source.
        assert_eq!(plan.sources[0].pushed.len(), 3);
        assert!(plan.conjuncts.iter().all(|c| c.consumed));
    }
}
