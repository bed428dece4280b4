//! The query timing harness behind Figure 13.
//!
//! For every query it records: rows returned, measured wall-clock and
//! CPU-proxy time on the synthetic data, the plan class, and the
//! I/O-model projection of the same access pattern onto the paper's
//! hardware at the paper's 14 M-object scale (the axis Figure 13 actually
//! plots).

use crate::spec::QuerySpec;
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
    /// Simulated CPU seconds at the current data scale.
    pub sim_cpu_seconds: f64,
    /// Simulated elapsed seconds at the current data scale.
    pub sim_elapsed_seconds: f64,
    /// Simulated CPU seconds projected to the paper's 14 M-row scale.
    pub paper_cpu_seconds: f64,
    /// Simulated elapsed seconds projected to the paper's 14 M-row scale.
    pub paper_elapsed_seconds: f64,
    /// The plan class the optimizer chose.
    pub plan_class: PlanClass,
    /// The optimizer rules that produced the plan, in pipeline order.
    pub rules_fired: Vec<String>,
    /// The optimizer's estimated result cardinality (the statistics
    /// model's `est_rows` for the whole plan; compare with `rows` for the
    /// query's q-error).
    pub est_rows: Option<u64>,
    /// Violated invariants (empty = the query behaved as documented).
    pub violations: Vec<String>,
    /// Heap rows read by full scans (raw counter; `stats_regression` pins
    /// the same counter so executor refactors cannot silently change the
    /// access pattern).
    pub rows_scanned: u64,
    /// Rows read through indices (seeks and covering scans).
    pub rows_from_index: u64,
    /// Predicate evaluations performed.
    pub predicates_evaluated: u64,
    /// Heap bytes read by full scans (per-column: only the columns the
    /// plan touches are charged).
    pub bytes_scanned: u64,
    /// Whole segments skipped by zone-map pruning.
    pub segments_pruned: u64,
    /// Row batches the vectorized heap scans processed.
    pub batches_processed: u64,
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
    let stats = &outcome.stats;
    let paper = stats.simulated_at_paper_scale.unwrap_or(stats.simulated);
    Ok(QueryReport {
        id: query.id.to_string(),
        title: query.title.to_string(),
        rows: outcome.result.len(),
        wall_seconds: stats.wall_seconds,
        sim_cpu_seconds: stats.simulated.cpu_seconds,
        sim_elapsed_seconds: stats.simulated.elapsed_seconds,
        paper_cpu_seconds: paper.cpu_seconds,
        paper_elapsed_seconds: paper.elapsed_seconds,
        plan_class,
        rules_fired: summary.rules_fired.iter().map(|r| r.to_string()).collect(),
        est_rows: summary.est_rows,
        violations,
        rows_scanned: stats.stats.rows_scanned,
        rows_from_index: stats.stats.rows_from_index,
        predicates_evaluated: stats.stats.predicates_evaluated,
        bytes_scanned: stats.stats.bytes_scanned,
        segments_pruned: stats.stats.segments_pruned,
        batches_processed: stats.stats.batches_processed,
    })
}

/// Run a whole query family and return the reports in order.
pub fn run_all(
    server: &mut SkyServer,
    queries: &[QuerySpec],
) -> Result<Vec<QueryReport>, SkyServerError> {
    queries.iter().map(|q| run_query(server, q)).collect()
}

/// Render reports as the Figure 13 style table (one row per query, CPU and
/// elapsed seconds at paper scale, sorted the way the figure is: fastest
/// first).
pub fn render_figure13(reports: &[QueryReport]) -> String {
    let mut sorted: Vec<&QueryReport> = reports.iter().collect();
    sorted.sort_by(|a, b| a.paper_elapsed_seconds.total_cmp(&b.paper_elapsed_seconds));
    let mut out = String::from(
        "query  class       rows    cpu_s(paper)  elapsed_s(paper)  wall_s(measured)\n",
    );
    for r in sorted {
        out.push_str(&format!(
            "{:<6} {:<10} {:>6}  {:>12.2}  {:>16.2}  {:>16.4}\n",
            r.id,
            r.plan_class.to_string(),
            r.rows,
            r.paper_cpu_seconds,
            r.paper_elapsed_seconds,
            r.wall_seconds
        ));
    }
    out
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
        assert!(
            report.rules_fired.iter().any(|r| r == "predicate_pushdown"),
            "rules: {:?}",
            report.rules_fired
        );
        assert!(report.paper_elapsed_seconds > report.sim_elapsed_seconds);
        let rendered = render_figure13(&[report]);
        assert!(rendered.contains("Q15A"));
    }
}
