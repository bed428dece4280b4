//! Site-traffic simulation and analysis (§7, Figure 5).
//!
//! The paper reports seven months of operations: ~2.5 M hits, ~1 M page
//! views, ~70 K sessions; ~4 % Japanese and 3 % German sub-web traffic,
//! ~8 % education traffic; ~30 % crawler traffic; two network outages; a TV
//! show that produced a 20x spike; 99.83 % availability over 14 reboots.
//! We obviously cannot replay the real 2001 logs, so this module contains
//! (a) a log **simulator** that generates a statistically similar seven
//! months of requests and (b) the **analyser** that turns any request log
//! into the daily hits / page views / sessions series of Figure 5 plus the
//! §7 summary statistics.  Both speak the web tier's [`LogRecord`], so the
//! analyser reads the live site's request log
//! (`SkyServerSite::request_log`) the same way.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use skyserver_web::{LogRecord, Section};

/// Traffic simulation parameters (defaults reproduce §7).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// RNG seed (the simulation is deterministic per seed).
    pub seed: u64,
    /// Number of days to simulate (the paper covers ~7 months).
    pub days: u32,
    /// Human sessions per day once the site has ramped up.
    pub base_sessions_per_day: f64,
    /// Page views per human session.
    pub pages_per_session: f64,
    /// Asset hits per page view (images, css, ...).
    pub hits_per_page: f64,
    /// Fraction of *sessions* from crawlers.  Crawler sessions fetch many
    /// more pages than humans, so the default is tuned to make ~30 % of the
    /// *hits* crawler traffic, as §7 reports.
    pub crawler_fraction: f64,
    /// Fraction of page views on the education projects (paper: ~8 %).
    pub education_fraction: f64,
    /// Fraction of page views on the Japanese mirror (paper: ~4 %).
    pub japanese_fraction: f64,
    /// Fraction of page views on the German mirror (paper: ~3 %).
    pub german_fraction: f64,
    /// Day of the television feature (20x spike); None to disable.
    pub tv_spike_day: Option<u32>,
    /// Days on which the network was unreachable (paper: 22 June, 26 July).
    pub outage_days: Vec<u32>,
    /// Number of reboots over the period (paper: 14, ~0.17 % downtime).
    pub reboots: u32,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            seed: 2001,
            days: 214, // June 2001 .. December 2001: ~7 months
            base_sessions_per_day: 330.0,
            pages_per_session: 14.0,
            hits_per_page: 1.7,
            crawler_fraction: 0.175,
            education_fraction: 0.11,
            japanese_fraction: 0.055,
            german_fraction: 0.042,
            tv_spike_day: Some(123), // the 2 October 2001 TV show
            outage_days: vec![21, 55],
            reboots: 14,
        }
    }
}

/// Simulate a request log.
pub fn simulate_traffic(config: &TrafficConfig) -> Vec<LogRecord> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut log = Vec::new();
    let mut session_counter = 0u64;
    for day in 0..config.days {
        if config.outage_days.contains(&day) {
            continue; // the network was down: nothing reaches the server
        }
        // Ramp-up over the first month, then steady state with weekly rhythm
        // (classes use the site on weekdays).
        let ramp = ((day as f64 + 5.0) / 30.0).min(1.0);
        let weekday = day % 7;
        let weekly = if weekday < 5 { 1.1 } else { 0.7 };
        let spike = match config.tv_spike_day {
            Some(d) if day == d => 20.0,
            Some(d) if day == d + 1 => 6.0,
            Some(d) if day == d + 2 => 2.5,
            _ => 1.0,
        };
        let sessions_today =
            (config.base_sessions_per_day * ramp * weekly * spike * rng.gen_range(0.75..1.25))
                .round() as u64;
        for _ in 0..sessions_today {
            session_counter += 1;
            let crawler = rng.gen_bool(config.crawler_fraction);
            let pages = if crawler {
                rng.gen_range(5..60)
            } else {
                (config.pages_per_session * rng.gen_range(0.3..2.0)).round() as u64
            };
            for _ in 0..pages.max(1) {
                let section = pick_section(&mut rng, config, crawler);
                log.push(LogRecord {
                    day,
                    session: session_counter,
                    section,
                    page_view: true,
                    crawler,
                    status: 200,
                });
                // Asset hits attached to this page view.
                let hits = (config.hits_per_page * rng.gen_range(0.0..2.0)).round() as u64;
                for _ in 0..hits {
                    log.push(LogRecord {
                        day,
                        session: session_counter,
                        section,
                        page_view: false,
                        crawler,
                        status: 200,
                    });
                }
            }
        }
    }
    log
}

fn pick_section(rng: &mut ChaCha8Rng, config: &TrafficConfig, crawler: bool) -> Section {
    let x: f64 = rng.gen_range(0.0..1.0);
    if crawler {
        // Crawlers walk the data pages.
        return if x < 0.6 {
            Section::Explorer
        } else {
            Section::Navigator
        };
    }
    let edu = config.education_fraction;
    let jp = config.japanese_fraction;
    let de = config.german_fraction;
    if x < edu {
        Section::Education
    } else if x < edu + jp {
        Section::Japanese
    } else if x < edu + jp + de {
        Section::German
    } else if x < edu + jp + de + 0.25 {
        Section::FamousPlaces
    } else if x < edu + jp + de + 0.45 {
        Section::Navigator
    } else if x < edu + jp + de + 0.60 {
        Section::Explorer
    } else if x < edu + jp + de + 0.72 {
        Section::SqlSearch
    } else if x < edu + jp + de + 0.82 {
        Section::Help
    } else {
        Section::Home
    }
}

/// One day of the Figure 5 series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DailyTraffic {
    /// Day index since the site opened (0-based).
    pub day: u32,
    /// Raw HTTP hits (pages + embedded assets).
    pub hits: u64,
    /// Full page views.
    pub page_views: u64,
    /// Distinct sessions.
    pub sessions: u64,
}

/// The §7 summary plus the Figure 5 daily series.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// The Figure 5 daily series.
    pub daily: Vec<DailyTraffic>,
    /// Hits over the whole period.
    pub total_hits: u64,
    /// Page views over the whole period.
    pub total_page_views: u64,
    /// Sessions over the whole period.
    pub total_sessions: u64,
    /// Fraction of page views in the education section.
    pub education_share: f64,
    /// Fraction of page views in the Japanese sub-web.
    pub japanese_share: f64,
    /// Fraction of page views in the German sub-web.
    pub german_share: f64,
    /// Fraction of raw hits from crawlers.
    pub crawler_share: f64,
    /// Raw hits on the `/api/v1` programmatic surface (machine clients,
    /// attributed separately from page views).
    pub api_hits: u64,
    /// The subset of [`TrafficReport::api_hits`] that answered non-200
    /// (structured API errors are workload too, but a different kind).
    pub api_errors: u64,
    /// Average page views per day over the period.
    pub pages_per_day: f64,
    /// Peak-day hits over median-day hits (the TV spike shows up here).
    pub peak_to_median: f64,
    /// Days with zero traffic (network outages).
    pub outage_days: Vec<u32>,
    /// Availability over the period given the configured reboot count
    /// (patches ~5 minutes, power/operations outages ~hours).
    pub availability: f64,
}

/// Analyse a request log into the Figure 5 / §7 report.
pub fn analyze_traffic(log: &[LogRecord], config: &TrafficConfig) -> TrafficReport {
    let days = config.days;
    let mut daily: Vec<DailyTraffic> = (0..days)
        .map(|day| DailyTraffic {
            day,
            ..Default::default()
        })
        .collect();
    let mut sessions_per_day: Vec<std::collections::HashSet<u64>> =
        vec![std::collections::HashSet::new(); days as usize];
    let mut education = 0u64;
    let mut japanese = 0u64;
    let mut german = 0u64;
    let mut crawler_hits = 0u64;
    let mut total_page_views = 0u64;
    let mut api_hits = 0u64;
    let mut api_errors = 0u64;
    for r in log {
        let Some(d) = daily.get_mut(r.day as usize) else {
            continue;
        };
        d.hits += 1;
        if r.crawler {
            crawler_hits += 1;
        }
        if r.section == Section::Api {
            api_hits += 1;
            if r.status != 200 && r.status != 201 {
                api_errors += 1;
            }
        }
        if r.page_view {
            d.page_views += 1;
            total_page_views += 1;
            match r.section {
                Section::Education => education += 1,
                Section::Japanese => japanese += 1,
                Section::German => german += 1,
                _ => {}
            }
        }
        if let Some(day) = sessions_per_day.get_mut(r.day as usize) {
            day.insert(r.session);
        }
    }
    for (d, s) in daily.iter_mut().zip(&sessions_per_day) {
        d.sessions = s.len() as u64;
    }
    let total_hits: u64 = daily.iter().map(|d| d.hits).sum();
    let total_sessions: u64 = daily.iter().map(|d| d.sessions).sum();
    let mut hit_counts: Vec<u64> = daily.iter().map(|d| d.hits).filter(|&h| h > 0).collect();
    hit_counts.sort_unstable();
    let median = hit_counts.get(hit_counts.len() / 2).copied().unwrap_or(0);
    let peak = hit_counts.last().copied().unwrap_or(0);
    let outage_days: Vec<u32> = daily
        .iter()
        .filter(|d| d.hits == 0)
        .map(|d| d.day)
        .collect();
    // Availability: 8 software reboots at ~5 minutes, the rest at ~2 hours
    // (the paper's patch vs power split), over the whole period.
    let software = config.reboots.min(8) as f64 * 5.0 / 60.0;
    let hardware = config.reboots.saturating_sub(8) as f64 * 2.0;
    let downtime_hours = software + hardware;
    let availability = 1.0 - downtime_hours / (f64::from(days) * 24.0);
    TrafficReport {
        total_hits,
        total_page_views,
        total_sessions,
        education_share: ratio(education, total_page_views),
        japanese_share: ratio(japanese, total_page_views),
        german_share: ratio(german, total_page_views),
        crawler_share: ratio(crawler_hits, total_hits),
        api_hits,
        api_errors,
        pages_per_day: total_page_views as f64 / f64::from(days.max(1)),
        peak_to_median: if median > 0 {
            peak as f64 / median as f64
        } else {
            0.0
        },
        outage_days,
        availability,
        daily,
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> TrafficReport {
        let config = TrafficConfig::default();
        let log = simulate_traffic(&config);
        analyze_traffic(&log, &config)
    }

    #[test]
    fn totals_match_the_papers_order_of_magnitude() {
        let r = report();
        // Paper: ~2.5M hits, ~1M page views, ~70k sessions over 7 months.
        assert!(
            (1_500_000..4_500_000).contains(&r.total_hits),
            "hits {}",
            r.total_hits
        );
        assert!(
            (600_000..1_800_000).contains(&r.total_page_views),
            "page views {}",
            r.total_page_views
        );
        assert!(
            (40_000..120_000).contains(&r.total_sessions),
            "sessions {}",
            r.total_sessions
        );
        // Hits > page views > sessions each day.
        for d in &r.daily {
            assert!(d.hits >= d.page_views);
            assert!(d.page_views >= d.sessions || d.hits == 0);
        }
    }

    #[test]
    fn shares_match_section7() {
        let r = report();
        assert!(
            (0.2..0.4).contains(&r.crawler_share),
            "crawlers {}",
            r.crawler_share
        );
        assert!(
            (0.05..0.12).contains(&r.education_share),
            "edu {}",
            r.education_share
        );
        assert!((0.02..0.06).contains(&r.japanese_share));
        assert!((0.015..0.05).contains(&r.german_share));
        // Sustained usage of about 4,000 pages/day (paper's steady state);
        // the simulated average includes the ramp-up so allow a wide band.
        assert!(
            (2_000.0..8_000.0).contains(&r.pages_per_day),
            "pages/day {}",
            r.pages_per_day
        );
    }

    #[test]
    fn spike_and_outages_are_visible() {
        let r = report();
        assert!(
            r.peak_to_median > 8.0,
            "TV spike should stand out, got {}",
            r.peak_to_median
        );
        assert_eq!(r.outage_days, vec![21, 55]);
        assert!(r.availability > 0.995 && r.availability < 1.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let config = TrafficConfig::default();
        let a = simulate_traffic(&config);
        let b = simulate_traffic(&config);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[1000], b[1000]);
    }

    #[test]
    fn api_hits_are_attributed_separately_from_page_views() {
        let config = TrafficConfig {
            days: 1,
            ..TrafficConfig::default()
        };
        let record = |section, page_view, status| LogRecord {
            day: 0,
            session: 1,
            section,
            page_view,
            crawler: false,
            status,
        };
        let log = vec![
            record(Section::Api, false, 200),
            record(Section::Api, false, 422),
            record(Section::Api, false, 201),
            record(Section::Home, true, 200),
        ];
        let r = analyze_traffic(&log, &config);
        assert_eq!(r.api_hits, 3);
        assert_eq!(r.api_errors, 1, "only the 422 is an API error");
        assert_eq!(r.total_page_views, 1, "API hits are not page views");
        assert_eq!(r.total_hits, 4);
    }

    #[test]
    fn analyzer_handles_an_empty_log() {
        let config = TrafficConfig {
            days: 5,
            ..TrafficConfig::default()
        };
        let r = analyze_traffic(&[], &config);
        assert_eq!(r.total_hits, 0);
        assert_eq!(r.outage_days.len(), 5);
    }
}
