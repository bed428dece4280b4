//! The query timing harness behind Figure 13.
//!
//! For every query it records what was measured: rows returned,
//! wall-clock time on the synthetic data, the plan class and cost class
//! the optimizer reported, and the access counters the statement
//! recorded.  Projecting those counters onto the paper's hardware at the
//! paper's 14 M-object scale (the axis Figure 13 actually plots) is the
//! reproduction crate's job, not this one's.

use crate::spec::QuerySpec;
use skyserver::storage::ScanStats;
use skyserver::{SkyServer, SkyServerError};
use skyserver_sql::PlanClass;

/// Timing/result report for one query.
#[derive(Debug, Clone, serde::Serialize)]
pub struct QueryReport {
    pub id: String,
    pub title: String,
    pub rows: usize,
    /// Measured wall-clock seconds on the synthetic database.
    pub wall_seconds: f64,
    /// The plan class the optimizer chose.
    pub plan_class: PlanClass,
    /// Whether the planned predicates do arithmetic (the paper's ~19
    /// clocks-per-byte cost class) rather than plain comparisons (~10).
    pub predicate_heavy: bool,
    /// The optimizer rules that produced the plan, in pipeline order.
    pub rules_fired: Vec<String>,
    /// The optimizer's estimated result cardinality (the statistics
    /// model's `est_rows` for the whole plan; compare with `rows` for the
    /// query's q-error).
    pub est_rows: Option<u64>,
    /// Violated invariants (empty = the query behaved as documented).
    pub violations: Vec<String>,
    /// The access counters the query recorded: what the paper-scale
    /// projection is computed from.
    pub stats: ScanStats,
}

/// Run one query and build its report.
pub fn run_query(server: &mut SkyServer, query: &QuerySpec) -> Result<QueryReport, SkyServerError> {
    let summary = server.plan_summary(&query.sql)?;
    let plan_class = summary.class;
    let outcome = server.execute(&query.sql)?;
    let mut violations = Vec::new();
    for invariant in &query.invariants {
        if let Err(v) = invariant.check(&outcome.result) {
            violations.push(v);
        }
    }
    if plan_class != query.expected_class {
        violations.push(format!(
            "expected plan class {}, optimizer chose {}",
            query.expected_class, plan_class
        ));
    }
    Ok(QueryReport {
        id: query.id.to_string(),
        title: query.title.to_string(),
        rows: outcome.result.len(),
        wall_seconds: outcome.stats.wall_seconds,
        plan_class,
        predicate_heavy: summary.predicate_heavy,
        rules_fired: summary.rules_fired.iter().map(|r| r.to_string()).collect(),
        est_rows: summary.est_rows,
        violations,
        stats: outcome.stats.stats,
    })
}

/// Run a whole query family and return the reports in order.
pub fn run_all(
    server: &mut SkyServer,
    queries: &[QuerySpec],
) -> Result<Vec<QueryReport>, SkyServerError> {
    queries.iter().map(|q| run_query(server, q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twenty::twenty_queries;
    use skyserver::SkyServerBuilder;

    #[test]
    fn run_a_single_query_produces_a_report() {
        let mut server = SkyServerBuilder::new().tiny().build().unwrap();
        let queries = twenty_queries();
        let q15 = queries.iter().find(|q| q.id == "Q15A").unwrap();
        let report = run_query(&mut server, q15).unwrap();
        assert!(report.rows > 0);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.plan_class, PlanClass::Scan);
        assert!(report.predicate_heavy);
        assert!(
            report.rules_fired.iter().any(|r| r == "predicate_pushdown"),
            "rules: {:?}",
            report.rules_fired
        );
    }

    #[test]
    fn the_velocity_scan_is_in_the_predicate_heavy_cost_class() {
        let server = SkyServerBuilder::new().tiny().build().unwrap();
        let queries = twenty_queries();
        let q15 = queries.iter().find(|q| q.id == "Q15A").unwrap();
        assert!(server.plan_summary(&q15.sql).unwrap().predicate_heavy);
        let count = server
            .plan_summary("select count(*) from PhotoObj")
            .unwrap();
        assert!(!count.predicate_heavy);
    }
}
