//! Limit pushdown: `SELECT TOP n` with no stage that could need more than
//! `n` rows (no sort, no aggregation, no DISTINCT, no joins, no residual
//! filter left) grants the single scan a row budget so it stops reading the
//! heap or index early.  The public SkyServer's 1,000-row cap (§4) makes
//! this shape common: browsing queries touch a few pages instead of the
//! whole table.

use super::RewriteRule;
use crate::error::SqlError;
use crate::planner::binder::{LogicalPlan, PlanContext};

/// The `limit_pushdown` rule: a `TOP n` without sort/aggregate/distinct
/// grants the driving base-table scan a limit hint so it stops early.
pub struct LimitPushdown;

impl RewriteRule for LimitPushdown {
    fn name(&self) -> &'static str {
        "limit_pushdown"
    }

    fn apply(&self, plan: &mut LogicalPlan, _ctx: &PlanContext<'_>) -> Result<bool, SqlError> {
        let Some(top) = plan.top else {
            return Ok(false);
        };
        let single_source = plan.sources.len() == 1;
        let reorders_or_reduces = !plan.order_by.is_empty()
            || plan.has_aggregates
            || !plan.group_by.is_empty()
            || plan.having.is_some()
            || plan.distinct;
        let residual_left = plan.conjuncts.iter().any(|c| !c.consumed);
        if !single_source || reorders_or_reduces || residual_left {
            return Ok(false);
        }
        // Only base-table scans and seek sources honour the hint in the
        // executor; granting it to table functions or derived tables would
        // make EXPLAIN advertise an early-stop that never happens.
        use crate::plan::SourceKind;
        if !matches!(
            plan.sources[0].kind,
            SourceKind::Table { .. } | SourceKind::Seek(_)
        ) {
            return Ok(false);
        }
        plan.sources[0].limit_hint = Some(top);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::rules::predicate_pushdown::PredicatePushdown;
    use crate::planner::rules::testkit::{bind_only, ctx, registry, test_db};

    #[test]
    fn bare_top_pushes_a_row_budget_into_the_scan() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(&db, &funcs, "select top 3 objID from photoObj");
        assert_eq!(plan.sources[0].limit_hint, None);
        assert!(LimitPushdown.apply(&mut plan, &ctx(&db, &funcs)).unwrap());
        assert_eq!(plan.sources[0].limit_hint, Some(3));
    }

    #[test]
    fn top_with_pushed_predicate_still_qualifies() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select top 3 objID from photoObj where type = 3",
        );
        PredicatePushdown
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap();
        assert!(LimitPushdown.apply(&mut plan, &ctx(&db, &funcs)).unwrap());
        assert_eq!(plan.sources[0].limit_hint, Some(3));
    }

    #[test]
    fn order_by_blocks_the_pushdown() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select top 3 objID from photoObj order by objID",
        );
        assert!(!LimitPushdown.apply(&mut plan, &ctx(&db, &funcs)).unwrap());
        assert_eq!(plan.sources[0].limit_hint, None);
    }

    #[test]
    fn unplaced_residual_blocks_the_pushdown() {
        let db = test_db();
        let funcs = registry();
        // Without running pushdown first, the predicate is still a global
        // residual, so an early stop would be wrong.
        let mut plan = bind_only(
            &db,
            &funcs,
            "select top 3 objID from photoObj where type = 3",
        );
        assert!(!LimitPushdown.apply(&mut plan, &ctx(&db, &funcs)).unwrap());
    }

    #[test]
    fn aggregates_block_the_pushdown() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(&db, &funcs, "select top 3 count(*) from photoObj");
        assert!(!LimitPushdown.apply(&mut plan, &ctx(&db, &funcs)).unwrap());
    }

    #[test]
    fn non_table_sources_are_not_granted_a_hint() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select top 3 objID from (select objID from photoObj) d",
        );
        assert!(!LimitPushdown.apply(&mut plan, &ctx(&db, &funcs)).unwrap());
        assert_eq!(plan.sources[0].limit_hint, None);
        let mut plan = bind_only(
            &db,
            &funcs,
            "select top 3 objID from fGetNearbyObjEq(1, 2, 3)",
        );
        assert!(!LimitPushdown.apply(&mut plan, &ctx(&db, &funcs)).unwrap());
    }
}
