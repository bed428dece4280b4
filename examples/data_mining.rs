//! Data mining the SkyServer: run the paper's 20 astronomy queries (plus the
//! 15 astronomer queries) and print the Figure 13 style timing table.
//!
//! Run with: `cargo run --release --example data_mining`

use skyserver::SkyServerBuilder;
use skyserver_bench::{paper_scale_factor, paper_timing, render_figure13};
use skyserver_queries::{all_queries, run_all};

fn main() {
    println!("Building the synthetic SkyServer (this generates and loads the catalog)...");
    let mut sky = SkyServerBuilder::new()
        .tiny()
        .build()
        .expect("build SkyServer");
    let scale = paper_scale_factor(&sky);
    println!(
        "{} photo objects loaded; projecting timings to the paper's 14M-object scale (x{scale:.0}).\n",
        sky.counts().photo_obj,
    );

    // Show the plan of the paper's Query 1 (Figure 10).
    let queries = all_queries();
    let q1 = queries.iter().find(|q| q.id == "Q1").expect("Q1 exists");
    println!(
        "Query 1 ({}):\n{}",
        q1.title,
        sky.explain(&q1.sql).expect("plan")
    );

    // Run everything and print the Figure 13 table.
    println!("Running all {} queries...", queries.len());
    let reports = run_all(&mut sky, &queries).expect("queries run");
    println!("\n{}", render_figure13(&reports, scale));

    // Summarise by plan class, the way the paper's discussion does.
    for class in ["index", "scan", "join-scan", "function"] {
        let of_class: Vec<_> = reports
            .iter()
            .filter(|r| r.plan_class.to_string() == class)
            .collect();
        if of_class.is_empty() {
            continue;
        }
        let mean_elapsed: f64 = of_class
            .iter()
            .map(|r| paper_timing(r, scale).elapsed_seconds)
            .sum::<f64>()
            / of_class.len() as f64;
        println!(
            "{:<10} {:>2} queries, mean projected elapsed {:.1}s",
            class,
            of_class.len(),
            mean_elapsed
        );
    }
}
