//! # skyserver-bench
//!
//! The paper-reproduction harness.  The `reproduce` binary regenerates
//! every table and figure of the paper's evaluation (Table 1, Figures 5, 10,
//! 11, 12, 13, 15 and the §12 micro-measurements) against the synthetic
//! catalog and prints paper-value vs measured-value side by side.  The
//! library builds a catalog at a named [`Scale`] for the binary and for
//! tests, and is the one crate that owns the paper's evaluation models, as
//! the paper keeps the system (§3–§6) apart from what was measured on it
//! (§7, §9, §12):
//!
//! * [`iosim`], the analytic model of the 2002 ML530 disks and CPUs,
//! * [`traffic`], the §7 request-log simulator and Figure 5 analyser,
//! * the Figure 13 projection ([`paper_timing`], [`render_figure13`]) of
//!   each query's measured [`QueryReport`] to the paper's 14 M-object
//!   scale ([`paper_scale_factor`]).
//!
//! The tracked performance benchmark is skybench, under `benchmarks/`.

#![forbid(unsafe_code)]

pub mod iosim;
pub mod traffic;

use iosim::{CpuCost, IoSimulator, SimTiming};
use skyserver::{SkyServer, SkyServerBuilder, SurveyConfig};
use skyserver_queries::QueryReport;

/// Which data scale a reproduction run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~2.5 k objects: seconds to build, used in CI and unit tests.
    Tiny,
    /// ~60 k objects (the "Personal SkyServer" cut): the default.
    Personal,
    /// ~300 k objects: slower, closer statistics.
    Benchmark,
}

impl Scale {
    /// Parse a scale name (`tiny`, `personal`, `benchmark`).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "personal" | "default" => Some(Scale::Personal),
            "benchmark" | "large" => Some(Scale::Benchmark),
            _ => None,
        }
    }

    /// The survey configuration for this scale.
    pub fn config(self) -> SurveyConfig {
        match self {
            Scale::Tiny => SurveyConfig::tiny(),
            Scale::Personal => SurveyConfig::personal_skyserver(),
            Scale::Benchmark => SurveyConfig::benchmark(),
        }
    }
}

/// Build a SkyServer at the given scale (generation + load).
pub fn build_server(scale: Scale) -> SkyServer {
    SkyServerBuilder::new()
        .with_config(scale.config())
        .build()
        .expect("building the SkyServer from a preset configuration cannot fail")
}

/// Multiplier from this catalog's PhotoObj rows to the paper's 14 M-object
/// release.
pub fn paper_scale_factor(server: &SkyServer) -> f64 {
    14_000_000.0 / server.counts().photo_obj.max(1) as f64
}

/// Project a query's recorded counters onto the paper's production server,
/// with the data volume multiplied by `scale`.
pub fn paper_timing(report: &QueryReport, scale: f64) -> SimTiming {
    // The paper's two measured cost classes: ~19 clocks per byte for an
    // arithmetic predicate, ~10 for plain comparisons.
    let cost = if report.predicate_heavy {
        CpuCost::filtered_scan()
    } else {
        CpuCost::simple_scan()
    };
    IoSimulator::skyserver_production().project(&report.stats, cost, scale)
}

/// Render reports as the Figure 13 style table (one row per query, CPU and
/// elapsed seconds projected at `scale`, sorted the way the figure is:
/// fastest first).
pub fn render_figure13(reports: &[QueryReport], scale: f64) -> String {
    let mut rows: Vec<(&QueryReport, SimTiming)> = reports
        .iter()
        .map(|r| (r, paper_timing(r, scale)))
        .collect();
    rows.sort_by(|a, b| a.1.elapsed_seconds.total_cmp(&b.1.elapsed_seconds));
    let mut out = String::from(
        "query  class       rows    cpu_s(paper)  elapsed_s(paper)  wall_s(measured)\n",
    );
    for (r, paper) in rows {
        out.push_str(&format!(
            "{:<6} {:<10} {:>6}  {:>12.2}  {:>16.2}  {:>16.4}\n",
            r.id,
            r.plan_class.to_string(),
            r.rows,
            paper.cpu_seconds,
            paper.elapsed_seconds,
            r.wall_seconds
        ));
    }
    out
}

/// Format a byte count the way the paper's Table 1 does (KB/MB/GB).
pub fn human_bytes(bytes: u64) -> String {
    const KB: f64 = 1e3;
    const MB: f64 = 1e6;
    const GB: f64 = 1e9;
    let b = bytes as f64;
    if b >= GB {
        format!("{:.1}GB", b / GB)
    } else if b >= MB {
        format!("{:.1}MB", b / MB)
    } else if b >= KB {
        format!("{:.0}KB", b / KB)
    } else {
        format!("{bytes}B")
    }
}

/// Format a row count the way the paper's Table 1 does (k/m suffixes).
pub fn human_rows(rows: u64) -> String {
    if rows >= 1_000_000 {
        format!("{:.1}m", rows as f64 / 1e6)
    } else if rows >= 1_000 {
        format!("{:.0}k", rows as f64 / 1e3)
    } else {
        rows.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyserver_queries::{run_all, twenty_queries};

    #[test]
    fn the_tiny_catalog_is_over_1000x_below_paper_scale() {
        let server = build_server(Scale::Tiny);
        let scale = paper_scale_factor(&server);
        assert!(scale > 1000.0, "{scale}");
        assert!((scale * server.counts().photo_obj as f64 - 14e6).abs() < 1e-3);
    }

    #[test]
    fn figure13_table_contains_every_query_and_orders_by_time() {
        let mut server = build_server(Scale::Tiny);
        let scale = paper_scale_factor(&server);
        let reports = run_all(&mut server, &twenty_queries()).unwrap();
        let table = render_figure13(&reports, scale);
        for q in twenty_queries() {
            assert!(table.contains(q.id), "figure 13 table is missing {}", q.id);
        }
        let elapsed: Vec<f64> = (table.lines().skip(1))
            .map(|line| line.split_whitespace().nth(4).unwrap().parse().unwrap())
            .collect();
        assert_eq!(elapsed.len(), reports.len());
        assert!(elapsed.windows(2).all(|w| w[0] <= w[1]), "{table}");
        // The headline comparison of the paper: the spatial index-lookup
        // query (Q1, 0.19 s elapsed) is orders of magnitude faster than the
        // full PhotoObj scan (Q15, 162 s elapsed) at the 14 M-object scale.
        let at_paper_scale = |id: &str| {
            let report = reports.iter().find(|r| r.id == id).unwrap();
            paper_timing(report, scale).elapsed_seconds
        };
        let (q1, q15) = (at_paper_scale("Q1"), at_paper_scale("Q15A"));
        assert!(
            q15 > q1 * 10.0,
            "the full scan (Q15A: {q15:.2}s) should be far slower than the index lookup (Q1: {q1:.2}s)",
        );
        assert!(
            q15 > 30.0,
            "a 31 GB PhotoObj scan should project to minutes, got {q15:.2}s"
        );
        // One report renders as the header and its own row.
        let q15a = reports.iter().filter(|r| r.id == "Q15A").cloned();
        let single = render_figure13(&q15a.collect::<Vec<_>>(), scale);
        assert_eq!(single.lines().count(), 2);
        assert!(single.lines().nth(1).unwrap().starts_with("Q15A   scan"));
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("Personal"), Some(Scale::Personal));
        assert_eq!(Scale::parse("benchmark"), Some(Scale::Benchmark));
        assert_eq!(Scale::parse("huge"), None);
        assert!(Scale::Tiny.config().target_objects < Scale::Personal.config().target_objects);
    }

    #[test]
    fn humanised_numbers() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(60_000), "60KB");
        assert_eq!(human_bytes(31_000_000_000), "31.0GB");
        assert_eq!(human_rows(14_000_000), "14.0m");
        assert_eq!(human_rows(73_000), "73k");
        assert_eq!(human_rows(98), "98");
    }
}
