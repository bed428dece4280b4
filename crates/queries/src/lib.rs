//! # skyserver-queries
//!
//! The evaluation workload of the SkyServer paper: the 20 data-mining
//! queries of Szalay/Gray (§3, §11, Figure 13), the 15 simpler
//! astronomer queries, result invariants for each, and the timing harness
//! that measures them (the reproduction crate projects its reports onto
//! the paper's hardware for the Figure 13 table).

#![forbid(unsafe_code)]

pub mod astronomer;
pub mod runner;
pub mod spec;
pub mod twenty;

pub use astronomer::astronomer_queries;
pub use runner::{run_all, run_query, QueryReport};
pub use spec::{Invariant, QueryFamily, QuerySpec};
pub use twenty::{twenty_queries, FOOTPRINT_DEC, FOOTPRINT_RA};

/// All 36 queries: the 20 data-mining queries (incl. the Q15 fast-mover
/// variant) followed by the 15 astronomer queries.
pub fn all_queries() -> Vec<QuerySpec> {
    let mut queries = twenty_queries();
    queries.extend(astronomer_queries());
    queries
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyserver::SkyServerBuilder;

    #[test]
    fn every_query_runs_and_honours_its_invariants() {
        // One shared tiny server keeps this test fast while still executing
        // all 36 queries end to end.
        let mut server = SkyServerBuilder::new().tiny().build().unwrap();
        let reports = run_all(&mut server, &all_queries()).unwrap();
        assert_eq!(reports.len(), 36);
        let problems: Vec<String> = reports
            .iter()
            .filter(|r| !r.violations.is_empty())
            .map(|r| format!("{}: {:?}", r.id, r.violations))
            .collect();
        assert!(
            problems.is_empty(),
            "query problems:\n{}",
            problems.join("\n")
        );
    }
}
