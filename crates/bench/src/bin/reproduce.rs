//! `reproduce` — regenerate every table and figure of the SkyServer paper's
//! evaluation against the synthetic catalog.
//!
//! Usage:
//!
//! ```text
//! reproduce [--scale tiny|personal|benchmark] [experiment ...]
//!
//! experiments: load table1 fig5 fig10 fig11 fig12 fig13 fig15 micro all
//! ```
//!
//! Every section prints the paper's reported values next to the values
//! measured (or model-projected) on this machine.  With no experiment names
//! every experiment runs; an unknown name or scale exits 2 before anything
//! is built.

use skyserver::SkyServer;
use skyserver_bench::iosim::{CpuCost, DiskConfig, HardwareProfile, IoSimulator, SimTiming};
use skyserver_bench::traffic::{analyze_traffic, simulate_traffic, TrafficConfig};
use skyserver_bench::{
    build_server, human_bytes, human_rows, paper_scale_factor, paper_timing, render_figure13, Scale,
};
use skyserver_queries::{run_all, run_query, twenty_queries, QueryReport};

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [&str; 9] = [
    "load", "table1", "fig5", "fig10", "fig11", "fig12", "fig13", "fig15", "micro",
];

/// Parse `[--scale S] [experiment ...]` (no names means all of them).
/// Every name is checked here, so a typo fails before anything is built.
fn parse_args(args: &[String]) -> Result<(Scale, Vec<&'static str>), String> {
    let mut scale = Scale::Personal;
    let mut experiments = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--scale" {
            let name = args.next().map_or("", String::as_str);
            scale = Scale::parse(name).ok_or("unknown scale; use tiny, personal or benchmark")?;
        } else if arg.eq_ignore_ascii_case("all") {
            experiments.extend(EXPERIMENTS);
        } else {
            let known = EXPERIMENTS
                .into_iter()
                .find(|e| e.eq_ignore_ascii_case(arg));
            experiments.push(known.ok_or_else(|| format!("unknown experiment {arg}"))?);
        }
    }
    if experiments.is_empty() {
        experiments.extend(EXPERIMENTS);
    }
    Ok((scale, experiments))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let names = EXPERIMENTS.join(" ");
        println!("reproduce [--scale tiny|personal|benchmark] [{names} all]");
        return;
    }
    let (scale, experiments) = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("{message}; see --help");
        std::process::exit(2);
    });

    // fig5 and fig15 don't need the loaded database.
    let needs_db = experiments.iter().any(|e| *e != "fig5" && *e != "fig15");
    println!("== SkyServer reproduction harness (scale: {scale:?}) ==\n");
    let mut server = needs_db.then(|| {
        let started = std::time::Instant::now();
        let server = build_server(scale);
        println!(
            "built synthetic SkyServer: {} photo objects, {} spectra, {:.1}s to generate + load\n",
            human_rows(server.counts().photo_obj as u64),
            human_rows(server.counts().spec_obj as u64),
            started.elapsed().as_secs_f64()
        );
        server
    });

    for experiment in experiments {
        match experiment {
            "load" => load_report(server.as_ref().expect("db built")),
            "table1" => table1(server.as_ref().expect("db built")),
            "fig5" => fig5(),
            "fig10" => fig10(server.as_mut().expect("db built")),
            "fig11" => fig11(server.as_mut().expect("db built")),
            "fig12" => fig12(server.as_mut().expect("db built")),
            "fig13" => fig13(server.as_mut().expect("db built")),
            "fig15" => fig15(),
            "micro" => micro(server.as_mut().expect("db built")),
            other => unreachable!("parse_args yields only known experiments, not {other}"),
        }
        println!();
    }
}

fn header(title: &str) {
    println!("---- {title} ----");
}

fn load_report(server: &SkyServer) {
    header("Load pipeline (§9.4)");
    let report = server.load_report();
    println!(
        "paper: load runs at ~5 GB/hour (CPU bound in conversion), full 80 GB DB loads in ~12 hours"
    );
    println!(
        "here : {} rows / {} of CSV in {:.2}s  ->  {:.0} MB/hour, {} load steps, clean={} (fk violations: {})",
        report.total_rows,
        human_bytes(report.total_bytes),
        report.wall_seconds,
        report.mb_per_hour(),
        report.events.len(),
        report.is_clean(),
        report.fk_violations.len()
    );
    println!(
        "post-load: {} neighbor pairs, {} pyramid tiles",
        report.neighbors.pairs, report.pyramid.tiles
    );
}

fn table1(server: &SkyServer) {
    header("Table 1: records and bytes in major tables");
    // Paper values (records, bytes) at the 14M-object scale.
    let paper: &[(&str, &str, &str)] = &[
        ("Field", "14k", "60MB"),
        ("Frame", "73k", "6GB"),
        ("PhotoObj", "14m", "31GB"),
        ("Profile", "14m", "9GB"),
        ("Neighbors", "111m", "5GB"),
        ("Plate", "98", "80KB"),
        ("SpecObj", "63k", "1GB"),
        ("SpecLine", "1.7m", "225MB"),
        ("SpecLineIndex", "1.8m", "142MB"),
        ("xcRedShift", "1.9m", "157MB"),
        ("elRedShift", "51k", "3MB"),
    ];
    let summaries = server.table_summaries();
    let scale = paper_scale_factor(server);
    println!(
        "{:<15} {:>10} {:>10}   {:>10} {:>10}   {:>12} {:>12}",
        "table", "paper_rows", "paper_size", "rows", "data_bytes", "rows@14m", "bytes@14m"
    );
    for (name, paper_rows, paper_bytes) in paper {
        let s = summaries.iter().find(|s| s.name.eq_ignore_ascii_case(name));
        match s {
            Some(s) => println!(
                "{:<15} {:>10} {:>10}   {:>10} {:>10}   {:>12} {:>12}",
                name,
                paper_rows,
                paper_bytes,
                human_rows(s.rows),
                human_bytes(s.data_bytes),
                human_rows((s.rows as f64 * scale) as u64),
                human_bytes((s.data_bytes as f64 * scale) as u64),
            ),
            None => println!("{name:<15} (missing)"),
        }
    }
    let data: u64 = summaries.iter().map(|s| s.data_bytes).sum();
    let index: u64 = summaries.iter().map(|s| s.index_bytes).sum();
    println!(
        "paper: 'indices approximately double the space' / '~30% of storage is indices'  ->  here indices are {:.0}% of data bytes",
        index as f64 / data.max(1) as f64 * 100.0
    );
}

fn fig5() {
    header("Figure 5: daily site traffic over 7 months");
    let config = TrafficConfig::default();
    let log = simulate_traffic(&config);
    let report = analyze_traffic(&log, &config);
    println!("paper: ~2.5M hits, ~1M page views, ~70k sessions; 30% crawlers, 8% education, 4% jp, 3% de; two outages; a 20x TV spike; 99.83% uptime");
    println!(
        "here : {} hits, {} page views, {} sessions; {:.0}% crawlers, {:.1}% education, {:.1}% jp, {:.1}% de; outage days {:?}; peak/median {:.1}x; {:.2}% uptime",
        report.total_hits,
        report.total_page_views,
        report.total_sessions,
        report.crawler_share * 100.0,
        report.education_share * 100.0,
        report.japanese_share * 100.0,
        report.german_share * 100.0,
        report.outage_days,
        report.peak_to_median,
        report.availability * 100.0
    );
    // Print a weekly-sampled series (the figure is daily; weekly keeps the
    // output readable).
    println!("week  hits      page_views  sessions");
    for week in report.daily.chunks(7) {
        let hits: u64 = week.iter().map(|d| d.hits).sum();
        let pages: u64 = week.iter().map(|d| d.page_views).sum();
        let sessions: u64 = week.iter().map(|d| d.sessions).sum();
        println!(
            "{:>4}  {:>8}  {:>10}  {:>8}",
            week[0].day / 7,
            hits,
            pages,
            sessions
        );
    }
}

/// Run one of the twenty queries, with its timing projected to the
/// paper's scale.
fn run_named(server: &mut SkyServer, id: &str) -> (QueryReport, SimTiming) {
    let queries = twenty_queries();
    let q = queries.iter().find(|q| q.id == id).expect("known query id");
    let report = run_query(server, q).expect("query runs");
    let paper = paper_timing(&report, paper_scale_factor(server));
    (report, paper)
}

fn fig10(server: &mut SkyServer) {
    header("Figure 10 / Query 1: spatial index lookup");
    println!("paper: 19 galaxies, 50ms CPU, 0.19s elapsed; plan = nested-loop join of fGetNearbyObjEq with photoObj");
    let queries = twenty_queries();
    let q1 = queries.iter().find(|q| q.id == "Q1").unwrap();
    let plan = server.explain(&q1.sql).expect("plan renders");
    let (report, paper) = run_named(server, "Q1");
    println!(
        "here : {} rows, {:.4}s wall (measured), {:.2}s CPU / {:.2}s elapsed projected to paper scale; plan class {}",
        report.rows, report.wall_seconds, paper.cpu_seconds, paper.elapsed_seconds, report.plan_class
    );
    println!("plan:\n{plan}");
}

fn fig11(server: &mut SkyServer) {
    header("Figure 11 / Query 15: slow-moving asteroids (parallel table scan)");
    println!("paper: 1,303 candidates from 14M objects; 72s CPU, 162s elapsed; plan = parallel table scan");
    let (report, paper) = run_named(server, "Q15A");
    let expected_at_paper_scale = 1303.0;
    let scaled = report.rows as f64 * paper_scale_factor(server);
    println!(
        "here : {} rows ({:.0} when scaled to 14M objects vs paper {expected_at_paper_scale}); {:.4}s wall; {:.1}s CPU / {:.1}s elapsed at paper scale; plan class {}",
        report.rows, scaled, report.wall_seconds, paper.cpu_seconds, paper.elapsed_seconds, report.plan_class
    );
}

fn fig12(server: &mut SkyServer) {
    header("Figure 12 / modified Query 15: fast movers via the covering index");
    println!("paper: 4 pairs found; 55s elapsed / 51s CPU with the covering index (vs ~10 minutes without)");
    let (report, paper) = run_named(server, "Q15B");
    println!(
        "here : {} pairs; {:.4}s wall; {:.1}s CPU / {:.1}s elapsed at paper scale; plan class {}",
        report.rows,
        report.wall_seconds,
        paper.cpu_seconds,
        paper.elapsed_seconds,
        report.plan_class
    );
}

fn fig13(server: &mut SkyServer) {
    header("Figure 13: execution times of the 20 data-mining queries");
    println!("paper: most queries run in seconds; single scans ~3 minutes; join/spatial queries are the slowest; the system is disk limited");
    let reports = run_all(server, &twenty_queries()).expect("queries run");
    println!("{}", render_figure13(&reports, paper_scale_factor(server)));
}

fn fig15() {
    header("Figure 15: sequential IO MB/s vs disk configuration");
    println!("paper: ~40 MB/s per disk; 3 disks saturate a controller (~119 MB/s); a 64bit/33MHz PCI bus saturates ~220 MB/s; raw NTFS reaches 430 MB/s on 12 disks/2 volumes; SQL count(*) saturates ~320 MB/s (2.7M records/s); the (r-g)>1 predicate is CPU bound");
    let profile = HardwareProfile::skyserver_ml530();
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>14}",
        "config", "raw MB/s", "sql MB/s", "filtered MB/s", "records/s (128B)"
    );
    for disks in 1..=12u32 {
        let sim = IoSimulator::new(profile, DiskConfig::balanced(disks, &profile));
        print_config_row(&format!("{disks} disk"), &sim);
    }
    let two_vol = IoSimulator::new(profile, DiskConfig::two_volume(12, &profile));
    print_config_row("12 disk 2 vol", &two_vol);
}

fn print_config_row(name: &str, sim: &IoSimulator) {
    println!(
        "{:<14} {:>12.0} {:>12.0} {:>12.0} {:>14.2e}",
        name,
        sim.scan_mbps(CpuCost::raw_copy()),
        sim.scan_mbps(CpuCost::simple_scan()),
        sim.scan_mbps(CpuCost::filtered_scan()),
        sim.records_per_second(128, CpuCost::simple_scan()),
    );
}

fn micro(server: &mut SkyServer) {
    header("§12 micro-measurements");
    let sim = IoSimulator::skyserver_production();
    let scan_30gb = sim.simulate_scan(30_000_000_000, CpuCost::simple_scan());
    let warm = sim.simulate_warm_scan(2_000_000_000, CpuCost::simple_scan());
    let cold = sim.simulate_scan(2_000_000_000, CpuCost::simple_scan());
    println!("paper: 30GB photoObj scans run at ~140 MB/s and take ~3 minutes");
    println!(
        "here : production config scans at {:.0} MB/s -> {:.0}s for 30GB (io_bound={})",
        sim.scan_mbps(CpuCost::simple_scan()),
        scan_30gb.elapsed_seconds,
        scan_30gb.io_bound
    );
    println!("paper: index (tag) scans of the 14M-row table: 7s warm, 17s cold");
    println!(
        "here : 2GB of tag-width data: {:.1}s warm vs {:.1}s cold (ratio {:.1}x)",
        warm.elapsed_seconds,
        cold.elapsed_seconds,
        cold.elapsed_seconds / warm.elapsed_seconds.max(1e-9)
    );
    // Measured on the real engine: count(*) vs filtered count(*).
    let t0 = std::time::Instant::now();
    let n = server
        .query("select count(*) from PhotoObj")
        .expect("count runs");
    let count_time = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let filtered = server
        .query("select count(*) from PhotoObj where (modelMag_r - modelMag_g) > 1")
        .expect("filtered count runs");
    let filtered_time = t0.elapsed().as_secs_f64();
    println!(
        "paper: count(*) costs ~10 clocks/byte; count(*) where (r-g)>1 costs ~19 clocks/byte (~2x)"
    );
    println!(
        "here : in-memory count(*)={} rows in {:.4}s; filtered count={} rows in {:.4}s (ratio {:.2}x)",
        n.scalar().map(ToString::to_string).unwrap_or_default(),
        count_time,
        filtered.scalar().map(ToString::to_string).unwrap_or_default(),
        filtered_time,
        filtered_time / count_time.max(1e-9)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Scale, Vec<&'static str>), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_experiments_and_all_run_everything_in_order() {
        let everything = EXPERIMENTS.to_vec();
        assert_eq!(parse(&[]), Ok((Scale::Personal, everything.clone())));
        assert_eq!(
            parse(&["--scale", "tiny"]),
            Ok((Scale::Tiny, everything.clone()))
        );
        assert_eq!(parse(&["ALL"]), Ok((Scale::Personal, everything)));
    }

    #[test]
    fn named_experiments_keep_their_order_and_ignore_case() {
        assert_eq!(
            parse(&["Fig13", "--scale", "benchmark", "load"]),
            Ok((Scale::Benchmark, vec!["fig13", "load"]))
        );
    }

    #[test]
    fn unknown_names_and_scales_are_errors() {
        let err = parse(&["--scale", "tiny", "fig10", "fig99"]).unwrap_err();
        assert_eq!(err, "unknown experiment fig99");
        assert!(parse(&["--scale", "huge"]).unwrap_err().contains("scale"));
        assert!(parse(&["--scale"]).unwrap_err().contains("scale"));
    }
}
