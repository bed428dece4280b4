//! # skyserver-bench
//!
//! The paper-reproduction harness.  The `reproduce` binary regenerates
//! every table and figure of the paper's evaluation (Table 1, Figures 5, 10,
//! 11, 12, 13, 15 and the §12 micro-measurements) against the synthetic
//! catalog and prints paper-value vs measured-value side by side.  The
//! library builds a catalog at a named [`Scale`] for the binary and for
//! tests.  The tracked performance benchmark is skybench, under
//! `benchmarks/`.

#![forbid(unsafe_code)]

use skyserver::{SkyServer, SkyServerBuilder, SurveyConfig};

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
