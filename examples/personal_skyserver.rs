//! The "Personal SkyServer" of §10: a laptop-scale copy of the database plus
//! the web site, served over HTTP on localhost so a classroom (or a single
//! student) has their own SkyServer.
//!
//! Run with: `cargo run --release --example personal_skyserver`
//!
//! Then try, in another terminal:
//!   curl 'http://127.0.0.1:8642/en/tools/search/x_sql?cmd=select+top+5+objID,ra,dec+from+Galaxy&format=csv'
//!   curl 'http://127.0.0.1:8642/en/tools/navi?ra=181&dec=-0.8&zoom=2'

use skyserver::SkyServerBuilder;
use skyserver_bench::traffic::{analyze_traffic, TrafficConfig};
use skyserver_web::{http_get, SkyServerSite};

fn main() {
    println!("Building the Personal SkyServer (1%-scale survey)...");
    let sky = SkyServerBuilder::new()
        .tiny()
        .build()
        .expect("build SkyServer");
    println!(
        "{} objects, {} spectra loaded.",
        sky.counts().photo_obj,
        sky.counts().spec_obj
    );

    let site = SkyServerSite::new(sky);
    let server = site
        .serve(8642)
        .or_else(|_| site.serve(0))
        .expect("bind a port");
    println!(
        "SkyServer web interface listening on http://{}/",
        server.addr()
    );

    // Exercise the site the way a visitor would (this doubles as a smoke
    // test when the example runs unattended).
    for path in [
        "/en/",
        "/en/tools/places",
        "/en/tools/navi?ra=181&dec=-0.8&zoom=1",
        "/en/tools/search/x_sql?cmd=select+count(*)+as+n+from+PhotoObj&format=json",
        "/skyserverqa/metadata",
    ] {
        let (status, body) = http_get(server.addr(), path).expect("request succeeds");
        println!("GET {path:<60} -> {status} ({} bytes)", body.len());
    }

    // Show what the site's own request log looks like through the Figure 5
    // analyser (a real deployment would accumulate this over months).
    let config = TrafficConfig {
        days: 1,
        ..TrafficConfig::default()
    };
    let log = site.request_log();
    let report = analyze_traffic(&log, &config);
    let mut sections = Vec::new();
    for record in &log {
        if !sections.contains(&record.section) {
            sections.push(record.section);
        }
    }
    println!(
        "\nRequest log so far: {} hits across {} sections today.",
        report.total_hits,
        sections.len()
    );

    // Keep serving if the operator asked for it.
    if std::env::args().any(|a| a == "--serve") {
        println!("Serving until Ctrl-C (pass no flag to exit immediately).");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(60));
        }
    }
    server.stop();
    println!("Done.");
}
