//! The names the benchmark reports under.  `BENCHMARK.json` lists the same
//! ones; a test holds the two together.

use crate::deck::analytic_templates;

/// The four workloads; later issues claim gains by these names.
pub const WORKLOADS: [&str; 4] = [
    "interactive_hot",
    "adhoc_api",
    "analytic_sql",
    "mixed_publish",
];

/// End-to-end metrics: `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics apart from the per-template ones.
const PER_LAYER: [(&str, &str); 62] = [
    ("http.parse_us", "us"),
    ("http.serialize_us", "us"),
    ("http.wire_us", "us"),
    ("http.reconnects", "count"),
    ("http.bytes_out_per_op", "bytes"),
    ("http.p99_ms", "ms"),
    ("site.handle_us", "us"),
    ("site.self_us", "us"),
    ("site.self_nonneg_share", "ratio"),
    ("site.log_records", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.entries", "count"),
    ("cache.bytes", "bytes"),
    ("cache.lookup_us", "us"),
    ("governor.shed", "count"),
    ("governor.admit_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("sql.plan_share", "ratio"),
    ("sql.exec_us", "us"),
    ("sql.rows_scanned", "count"),
    ("sql.rows_from_index", "count"),
    ("sql.predicates_evaluated", "count"),
    ("sql.bytes_scanned", "bytes"),
    ("sql.join_probes", "count"),
    ("sql.segments_pruned", "count"),
    ("sql.rows_returned", "count"),
    ("sql.rows_examined_per_returned", "ratio"),
    ("sql.peak_bytes_max", "bytes"),
    ("sql.deck_failed_public", "count"),
    ("sql.deck_failed_batch", "count"),
    ("formats.render_us", "us"),
    ("formats.bytes_out", "bytes"),
    ("htm.cover_us", "us"),
    ("htm.cover_ranges", "count"),
    ("storage.index_seek_us", "us"),
    ("storage.column_sweep_ms", "ms"),
    ("storage.fork_us", "us"),
    ("storage.admin_write_ms.insert_batch", "ms"),
    ("storage.admin_write_ms.update_row", "ms"),
    ("storage.admin_write_ms.undo_delete", "ms"),
    ("storage.publish_us", "us"),
    ("storage.analyze_ms", "ms"),
    ("storage.data_bytes", "bytes"),
    ("storage.index_bytes", "bytes"),
    ("storage.bytes_per_csv_byte", "ratio"),
    ("storage.releases_live", "count"),
    ("skygen.generate_s", "s"),
    ("loader.load_s", "s"),
    ("loader.mb_per_hour", "MB/h"),
    ("setup.site_start_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("share.http", "ratio"),
    ("share.site", "ratio"),
    ("share.sql_parse", "ratio"),
    ("share.sql_plan", "ratio"),
    ("share.sql_exec", "ratio"),
    ("share.formats", "ratio"),
    ("share.htm", "ratio"),
    ("share.storage", "ratio"),
];

/// Every per-layer metric, reported with `--trace 1`: the fixed ones and
/// one `sql.exec_ms.<id>` per analytic template.
pub fn per_layer() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|(name, unit)| (name.to_string(), *unit))
        .chain(
            analytic_templates()
                .iter()
                .map(|t| (format!("sql.exec_ms.{}", t.id), "ms")),
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `(name, unit)` of every entry of one list of `BENCHMARK.json`.
    fn declared(doc: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("a name").to_string(),
                    m["unit"].as_str().unwrap_or_default().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_and_the_binary_name_the_same_things() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");

        let workloads: Vec<String> = declared(&doc, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let own = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        let end_to_end = own(END_TO_END.map(|(n, u)| (n.to_string(), u)).to_vec());
        assert_eq!(declared(&doc, "end_to_end"), end_to_end);
        assert_eq!(declared(&doc, "per_layer"), own(per_layer()));

        let mut names: Vec<String> = workloads;
        names.extend(end_to_end.into_iter().map(|m| m.0));
        names.extend(per_layer().into_iter().map(|m| m.0));
        for name in &names {
            assert!(well_formed(name), "badly formed name {name:?}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(per_layer().len() <= 128);
    }
}
