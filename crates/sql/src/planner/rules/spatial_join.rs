//! Join-order rewrite for the Figure 10 plan shape: a spatial table-valued
//! function (`fGetNearbyObjEq`, `spHTM_Cover` wrappers) or a small derived
//! table produces few rows, so it should *drive* a nested-loop join that
//! probes the big photo table's B-tree — not sit on the inner side of a
//! scan.  The rule reorders inner-join sources: table functions first, then
//! derived tables, then indexed tables, heap scans last.  Reordering is only
//! legal when every join is inner/comma.

use super::RewriteRule;
use crate::error::SqlError;
use crate::plan::{AccessPath, SourceKind};
use crate::planner::binder::{LogicalPlan, PlanContext};

/// The `spatial_join_rewrite` rule: reorders a table-valued function (or
/// the smaller side) to drive the join — the Figure 10 plan shape.
pub struct SpatialJoinRewrite;

impl RewriteRule for SpatialJoinRewrite {
    fn name(&self) -> &'static str {
        "spatial_join_rewrite"
    }

    fn apply(&self, plan: &mut LogicalPlan, _ctx: &PlanContext<'_>) -> Result<bool, SqlError> {
        if !plan.only_inner || plan.sources.len() < 2 {
            return Ok(false);
        }
        let before: Vec<String> = plan.sources.iter().map(|s| s.alias.clone()).collect();
        plan.sources.sort_by_key(|s| source_priority(&s.kind));
        let after: Vec<String> = plan.sources.iter().map(|s| s.alias.clone()).collect();
        Ok(before != after)
    }
}

/// Priority used to order inner-join sources: drive with TVFs and derived
/// tables, then selective index access, finish with (parallel) heap scans.
pub fn source_priority(kind: &SourceKind) -> u8 {
    match kind {
        SourceKind::Seek(_) | SourceKind::TableFunction { .. } => 0,
        SourceKind::Derived { .. } => 1,
        SourceKind::Table { path, .. } => match path {
            AccessPath::IndexSeek { bounds, .. } if bounds.equals.is_some() => 2,
            AccessPath::IndexSeek { .. } => 3,
            AccessPath::CoveringIndexScan { .. } => 4,
            AccessPath::HeapScan | AccessPath::ParallelHeapScan { .. } => 5,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::rules::testkit::{bind_only, ctx, registry, test_db};

    #[test]
    fn table_function_moves_to_the_driving_position() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select G.objID, GN.distance from photoObj as G \
             join fGetNearbyObjEq(185, -0.5, 1) as GN on G.objID = GN.objID",
        );
        assert_eq!(plan.sources[0].alias, "G", "before: syntactic order");

        assert!(SpatialJoinRewrite
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap());
        assert_eq!(plan.sources[0].alias, "GN", "after: the TVF drives");
        assert!(matches!(
            plan.sources[0].kind,
            SourceKind::TableFunction { .. }
        ));
    }

    #[test]
    fn already_ordered_plans_do_not_fire() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select G.objID from fGetNearbyObjEq(185, -0.5, 1) as GN \
             join photoObj as G on G.objID = GN.objID",
        );
        assert!(!SpatialJoinRewrite
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap());
        assert_eq!(plan.sources[0].alias, "GN");
    }

    #[test]
    fn outer_joins_are_never_reordered() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(
            &db,
            &funcs,
            "select G.objID from photoObj as G \
             left join fGetNearbyObjEq(185, -0.5, 1) as GN on G.objID = GN.objID",
        );
        assert!(!SpatialJoinRewrite
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap());
        assert_eq!(plan.sources[0].alias, "G", "outer join order is semantic");
    }

    #[test]
    fn single_source_plans_do_not_fire() {
        let db = test_db();
        let funcs = registry();
        let mut plan = bind_only(&db, &funcs, "select objID from photoObj");
        assert!(!SpatialJoinRewrite
            .apply(&mut plan, &ctx(&db, &funcs))
            .unwrap());
    }
}
