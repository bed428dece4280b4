//! Integration test: the paper's headline queries behave as §11 describes
//! on a freshly built synthetic catalog.

use skyserver::{PlanClass, SkyServerBuilder};
use skyserver_queries::{astronomer_queries, run_all, twenty_queries};

#[test]
fn query1_is_an_index_lookup_join_and_q15_is_a_scan() {
    let mut sky = SkyServerBuilder::new().tiny().build().unwrap();
    let queries = twenty_queries();

    // Q1 (Figure 10): nested-loop join of the spatial search — the HTM
    // cover's htmID ranges walked in the index, each candidate's distance
    // tested — with the photoObj primary key.
    let q1 = queries.iter().find(|q| q.id == "Q1").unwrap();
    let plan = sky.explain(&q1.sql).unwrap();
    assert!(
        plan.contains(
            "RangeSeek(PhotoObj.ix_PhotoObj_htmID: fGetNearbyObjEq(181, -0.8, 3), 4 ranges, \
             by distance) AS GN"
        ),
        "plan:\n{plan}"
    );
    assert!(plan.contains("index lookup"), "plan:\n{plan}");
    assert_eq!(sky.plan_class(&q1.sql).unwrap(), PlanClass::IndexSeek);
    let outcome = sky.execute(&q1.sql).unwrap();
    // Small result, sorted by distance -- the 19-galaxies-in-0.19s shape.
    assert!(outcome.result.len() < 200);
    let d = outcome.result.column_values("distance");
    for w in d.windows(2) {
        assert!(w[0] <= w[1]);
    }

    // Q15A (Figure 11): a table scan over PhotoObj evaluating the velocity
    // predicate, rare candidates.
    let q15 = queries.iter().find(|q| q.id == "Q15A").unwrap();
    assert_eq!(sky.plan_class(&q15.sql).unwrap(), PlanClass::Scan);
    let outcome = sky.execute(&q15.sql).unwrap();
    let total = sky
        .query("select count(*) from PhotoObj")
        .unwrap()
        .scalar()
        .unwrap()
        .as_i64()
        .unwrap() as f64;
    let fraction = outcome.result.len() as f64 / total;
    assert!(
        fraction < 0.01,
        "asteroids are a rare population, got {fraction}"
    );
    assert!(!outcome.result.is_empty());

    // Q15B (Figure 12): the fast-mover pair query finds the planted NEO
    // pairs (the paper finds 4 pairs).
    let q15b = queries.iter().find(|q| q.id == "Q15B").unwrap();
    let outcome = sky.execute(&q15b.sql).unwrap();
    assert!(
        (1..=16).contains(&outcome.result.len()),
        "expected a handful of NEO pairs, got {}",
        outcome.result.len()
    );
}

#[test]
fn the_two_query_families_run_clean() {
    let mut sky = SkyServerBuilder::new().tiny().build().unwrap();
    let mining = run_all(&mut sky, &twenty_queries()).unwrap();
    assert_eq!(mining.len(), 21);
    let astronomer = run_all(&mut sky, &astronomer_queries()).unwrap();
    assert_eq!(astronomer.len(), 15);
    for report in mining.iter().chain(astronomer.iter()) {
        assert!(
            report.violations.is_empty(),
            "{} violated its invariants: {:?}",
            report.id,
            report.violations
        );
    }
    // The astronomer queries are "much simpler and run more quickly":
    // compare mean measured wall time.
    let mean = |rs: &[skyserver_queries::QueryReport]| {
        rs.iter().map(|r| r.wall_seconds).sum::<f64>() / rs.len() as f64
    };
    assert!(mean(&astronomer) <= mean(&mining) * 2.0);
}
