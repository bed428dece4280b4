//! Cost-based join ordering and access-path costing.
//!
//! Runs after the syntactic rewrites (pushdown, index selection, the
//! Figure-10 spatial sort) and before join-strategy selection.  Two passes:
//!
//! 1. **Join ordering** — a greedy search over the inner-join sources
//!    (≤ 6 relations): the driver is the source with the smallest estimated
//!    output, then the search repeatedly appends the relation that
//!    minimizes the estimated intermediate result, using NDV-containment
//!    selectivity for the join conjuncts that become evaluable.  Relations
//!    with no connecting conjunct pay a cross-product penalty, so connected
//!    subgraphs are exhausted first.  Because the driver side is the probe
//!    side of every index-lookup and the accumulated side of every hash
//!    build, this ordering *is* the build-vs-probe decision.
//! 2. **Access-path costing** — an `IndexSeek` whose estimated matching
//!    fraction exceeds `SEEK_DEMOTION_FRACTION` (35 %) is demoted back to a heap
//!    scan: beyond that point the per-row B-tree fetch costs more than the
//!    zone-pruned vectorized scan.  Equality seeks on unique indexes are
//!    never demoted.
//!
//! Plans containing table-valued functions keep the order the spatial rule
//! chose: TVFs have no statistics, and the Figure-10 shape (TVF drives
//! index lookups) is the paper's intended plan.
//!
//! The whole rule is gated on `PlanContext::cost_based_ordering`
//! ([`crate::SqlEngine::set_cost_based_ordering`] is the escape hatch and
//! the bench baseline).

use super::RewriteRule;
use crate::ast::Expr;
use crate::error::SqlError;
use crate::plan::{AccessPath, SourceKind};
use crate::planner::binder::{LogicalPlan, PlanContext};
use crate::planner::stats;
use std::collections::HashSet;

/// Join-order search is bounded to this many relations (greedy stays
/// linear-ish; the documented queries join at most 3).
const MAX_RELATIONS: usize = 6;

/// Estimated matching fraction above which an index seek is costed worse
/// than a zone-pruned heap scan and demoted.
const SEEK_DEMOTION_FRACTION: f64 = 0.35;

/// Tables smaller than this are never re-costed, here or by
/// `join_strategy` (either path is trivially cheap, and stable plans beat
/// micro-costing).
pub(crate) const MIN_COSTED_ROWS: f64 = 512.0;

/// Multiplier applied to candidate orders that would form a cross product.
const CROSS_PRODUCT_PENALTY: f64 = 1e6;

/// The `cost_join_order` rule; see the module docs.
pub struct CostBasedJoinOrder;

impl RewriteRule for CostBasedJoinOrder {
    fn name(&self) -> &'static str {
        "cost_join_order"
    }

    fn apply(&self, plan: &mut LogicalPlan, ctx: &PlanContext<'_>) -> Result<bool, SqlError> {
        if !ctx.cost_based_ordering {
            return Ok(false);
        }
        let mut changed = reorder_sources(plan, ctx);
        changed |= demote_expensive_seeks(plan, ctx);
        Ok(changed)
    }
}

/// Greedy join-order search.  Returns true iff the source order changed.
fn reorder_sources(plan: &mut LogicalPlan, ctx: &PlanContext<'_>) -> bool {
    let n = plan.sources.len();
    if !plan.only_inner || !plan.joins.is_empty() || !(2..=MAX_RELATIONS).contains(&n) {
        return false;
    }
    if plan.sources.iter().any(|s| {
        matches!(
            s.kind,
            SourceKind::Seek(_) | SourceKind::TableFunction { .. }
        )
    }) {
        return false;
    }

    let ests: Vec<f64> = plan
        .sources
        .iter()
        .map(|s| stats::estimate_logical_source(ctx.db, s).max(1.0))
        .collect();
    let aliases = stats::alias_tables(&plan.sources);
    // The join graph: unconsumed multi-alias conjuncts with their
    // (lowercased) alias footprints.
    let edges: Vec<(HashSet<String>, &Expr)> = plan
        .conjuncts
        .iter()
        .filter(|c| !c.consumed && c.aliases.len() >= 2)
        .map(|c| {
            (
                c.aliases.iter().map(|a| a.to_ascii_lowercase()).collect(),
                &c.expr,
            )
        })
        .collect();

    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut chosen: HashSet<String> = HashSet::new();

    // Driver: smallest estimated output (first wins ties, so equal-size
    // sides keep their syntactic order).
    let mut best = 0;
    for (ri, &si) in remaining.iter().enumerate() {
        if ests[si] < ests[remaining[best]] {
            best = ri;
        }
    }
    let driver = remaining.remove(best);
    chosen.insert(plan.sources[driver].alias.to_ascii_lowercase());
    order.push(driver);
    let mut running = ests[driver];

    while !remaining.is_empty() {
        let mut best_ri = 0;
        let mut best_cost = f64::INFINITY;
        let mut best_result = f64::INFINITY;
        for (ri, &si) in remaining.iter().enumerate() {
            let cand = plan.sources[si].alias.to_ascii_lowercase();
            let mut sel = 1.0;
            let mut connected = false;
            for (footprint, expr) in &edges {
                if !footprint.contains(&cand) {
                    continue;
                }
                let ready = footprint.iter().all(|a| a == &cand || chosen.contains(a));
                if ready {
                    connected = true;
                    sel *= stats::join_conjunct_selectivity(ctx.db, &aliases, expr);
                }
            }
            let result = running * ests[si] * sel;
            let cost = if connected {
                result
            } else {
                result * CROSS_PRODUCT_PENALTY
            };
            if cost < best_cost {
                best_cost = cost;
                best_result = result;
                best_ri = ri;
            }
        }
        let next = remaining.remove(best_ri);
        chosen.insert(plan.sources[next].alias.to_ascii_lowercase());
        order.push(next);
        running = best_result.max(1.0);
    }

    if order.iter().enumerate().all(|(i, &si)| i == si) {
        return false;
    }
    let mut slots: Vec<Option<crate::planner::binder::LogicalSource>> =
        plan.sources.drain(..).map(Some).collect();
    plan.sources = order.iter().filter_map(|&si| slots[si].take()).collect();
    // The new driver owns no join step; inner positions default to INNER
    // in finalization (the gate above proved every join is inner/comma).
    plan.sources[0].join_kind = None;
    true
}

/// Demote index seeks whose estimated matching fraction makes them worse
/// than a heap scan.  The pushed predicate stays on the source, so the scan
/// still filters (and regains zone-map pruning from the annotation pass).
fn demote_expensive_seeks(plan: &mut LogicalPlan, ctx: &PlanContext<'_>) -> bool {
    let mut changed = false;
    for i in 0..plan.sources.len() {
        let (table, index, has_eq) = match &plan.sources[i].kind {
            SourceKind::Table {
                table,
                path: AccessPath::IndexSeek { index, bounds },
            } => (table.clone(), index.clone(), bounds.equals.is_some()),
            _ => continue,
        };
        if has_eq {
            let unique = ctx
                .db
                .index(&table, &index)
                .is_some_and(|idx| idx.def().unique);
            if unique {
                continue;
            }
        }
        let base = ctx
            .db
            .table(&table)
            .map(|t| t.row_count() as f64)
            .unwrap_or(0.0);
        if base < MIN_COSTED_ROWS {
            continue;
        }
        let est = stats::estimate_logical_source(ctx.db, &plan.sources[i]);
        if est / base <= SEEK_DEMOTION_FRACTION {
            continue;
        }
        if let SourceKind::Table { path, .. } = &mut plan.sources[i].kind {
            *path = AccessPath::HeapScan;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::rules::testkit::{bind_only, ctx, registry, test_db};
    use crate::planner::rules::{
        covering_index, index_seek, predicate_pushdown, spatial_join, view_merge,
    };

    fn run_through_cost(db: &skyserver_storage::Database, sql: &str) -> (LogicalPlan, bool) {
        let functions = registry();
        let mut plan = bind_only(db, &functions, sql);
        let context = ctx(db, &functions);
        for rule in [
            Box::new(view_merge::ViewMerge) as Box<dyn RewriteRule>,
            Box::new(predicate_pushdown::PredicatePushdown),
            Box::new(index_seek::IndexSeekSelection),
            Box::new(covering_index::CoveringIndexSelection),
            Box::new(spatial_join::SpatialJoinRewrite),
        ] {
            rule.apply(&mut plan, &context).unwrap();
        }
        let fired = CostBasedJoinOrder.apply(&mut plan, &context).unwrap();
        (plan, fired)
    }

    #[test]
    fn filtered_side_becomes_the_driver() {
        let mut db = test_db();
        db.analyze_all();
        // Both sides are heap scans (ra is not an index leading column), so
        // the syntactic spatial sort cannot rank them — but the histogram
        // says the ra filter keeps ~1 of a's 10 rows.  The rule must flip
        // the order so the filtered side drives.
        let (plan, fired) = run_through_cost(
            &db,
            "select a.objID from photoObj b, photoObj a \
             where a.ra < 180.5 and a.htmID = b.htmID",
        );
        assert!(fired, "rule should fire on a beneficial reorder");
        assert_eq!(plan.sources[0].alias, "a");
        assert_eq!(plan.sources[1].alias, "b");
        assert!(plan.sources[0].join_kind.is_none());
    }

    #[test]
    fn already_optimal_order_leaves_the_plan_alone() {
        let mut db = test_db();
        db.analyze_all();
        let (plan, fired) = run_through_cost(
            &db,
            "select a.objID from photoObj a, photoObj b \
             where a.objID = 3 and a.htmID = b.htmID",
        );
        assert!(!fired, "no change: the filtered side already drives");
        assert_eq!(plan.sources[0].alias, "a");
    }

    #[test]
    fn escape_hatch_disables_the_rule() {
        let mut db = test_db();
        db.analyze_all();
        let functions = registry();
        let mut plan = bind_only(
            &db,
            &functions,
            "select a.objID from photoObj b, photoObj a \
             where a.objID = 3 and a.htmID = b.htmID",
        );
        let mut context = ctx(&db, &functions);
        context.cost_based_ordering = false;
        let fired = CostBasedJoinOrder.apply(&mut plan, &context).unwrap();
        assert!(!fired);
        assert_eq!(plan.sources[0].alias, "b", "syntactic order preserved");
    }

    #[test]
    fn outer_joins_are_never_reordered() {
        let mut db = test_db();
        db.analyze_all();
        let (plan, _) = run_through_cost(
            &db,
            "select a.objID from photoObj b left join photoObj a on a.htmID = b.htmID \
             where a.objID = 3",
        );
        assert_eq!(plan.sources[0].alias, "b", "left join pins the order");
    }
}
