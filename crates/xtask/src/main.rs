//! Workspace automation tasks (`cargo xtask <task>`, an alias for
//! `cargo run -p xtask -- <task>`).
//!
//! * `lint` — the **skylint** repo-specific lint pass described in
//!   ARCHITECTURE.md ("Static analysis & verification").  It is wired into
//!   CI as a named step and fails the build on any finding.
//! * `loc` — non-test lines per crate against the committed ceilings that
//!   skylint's `loc-ceiling` rule enforces.

#![forbid(unsafe_code)]

mod lexer;
mod lints;
mod loc;

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(),
        Some("loc") => run_loc(),
        other => {
            if let Some(other) = other {
                eprintln!("unknown task: {other}");
            }
            eprintln!("usage: cargo xtask lint|loc");
            ExitCode::FAILURE
        }
    }
}

fn run_lint() -> ExitCode {
    let root = workspace_root();
    match lints::run(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("skylint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("skylint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("skylint: io error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_loc() -> ExitCode {
    match loc::count(&workspace_root()) {
        Ok(crates) => {
            println!("{:<10} {:>7} {:>8}", "crate", "lines", "ceiling");
            for c in &crates {
                let ceiling = c.ceiling.map_or("-".to_string(), |n| n.to_string());
                println!("{:<10} {:>7} {:>8}", c.name, c.lines, ceiling);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loc: io error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use crate::lexer::{lex, strip_cfg_test};

    #[test]
    fn lexer_skips_comments_strings_and_lifetimes() {
        let src = r###"
            // a .unwrap() in a comment
            /* panic!("nested /* block */ comment") */
            fn f<'a>(s: &'a str) -> char {
                let _msg = "contains .unwrap() and panic!";
                let _raw = r#"also .expect( inside"#;
                let _bytes = br##"a "# is not the end: .unwrap()"##;
                '\n'
            }
        "###;
        let lexed = lex(src);
        let texts: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(!texts.contains(&"unwrap"));
        assert!(!texts.contains(&"panic"));
        assert!(!texts.contains(&"expect"));
        assert!(texts.contains(&"fn"));
    }

    #[test]
    fn cfg_test_blocks_are_stripped() {
        let src = r#"
            fn live() { work(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { x.unwrap(); }
            }
            fn also_live() {}
        "#;
        let tokens = strip_cfg_test(lex(src).tokens);
        let texts: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(!texts.contains(&"unwrap"));
        assert!(texts.contains(&"live"));
        assert!(texts.contains(&"also_live"));
    }

    #[test]
    fn non_test_lines_leave_out_cfg_test_items() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t() {}\n\
                   }\n\
                   // a comment still counts\n\
                   #[cfg(test)]\n\
                   use x::y;\n";
        assert_eq!(crate::loc::non_test_lines(src), 2);
    }

    #[test]
    fn allow_directives_parse() {
        let src = "// skylint: allow(no-unwrap) checked two lines above\nx.unwrap();\n";
        let lexed = lex(src);
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].lint, "no-unwrap");
        assert_eq!(lexed.allows[0].reason, "checked two lines above");
        assert_eq!(lexed.allows[0].line, 1);
    }

    #[test]
    fn full_row_gathers_are_flagged_where_statements_fetch_rows() {
        let src = "fn f(t: &Table, m: &Map, row: &[Value]) {\n\
                   let a = t.get(id);\n\
                   let b = m.get(key);\n\
                   let c = row.to_vec();\n\
                   for r in table.iter() {}\n\
                   t.gather_into(id, cols, &mut out);\n}\n";
        let lines = |path: &str| -> Vec<usize> {
            crate::lints::scan_file_tokens(std::path::Path::new(path), lex(src).tokens)
                .into_iter()
                .filter(|(_, lint, _)| *lint == "full-row-gather")
                .map(|(line, _, _)| line)
                .collect()
        };
        assert_eq!(lines("crates/sql/src/executor.rs"), vec![2, 4, 5]);
        assert_eq!(lines("crates/sql/src/engine.rs"), vec![2, 4, 5]);
        assert_eq!(lines("crates/schema/src/functions.rs"), vec![2, 4, 5]);
        assert!(lines("crates/sql/src/planner/mod.rs").is_empty());
    }

    #[test]
    fn per_key_seeks_are_flagged_in_the_executor_only() {
        let src = "fn f(idx: &BTreeIndex, keys: &[Value]) {\n\
                   let a = idx.range(&lo, &hi);\n\
                   let b = idx.seek_exact(&key);\n\
                   let c = idx.seek_sorted(keys);\n\
                   let d = (0..4).len();\n}\n";
        let lines = |path: &str| -> Vec<usize> {
            crate::lints::scan_file_tokens(std::path::Path::new(path), lex(src).tokens)
                .into_iter()
                .filter(|(_, lint, _)| *lint == "per-key-seek")
                .map(|(line, _, _)| line)
                .collect()
        };
        assert_eq!(lines("crates/sql/src/executor.rs"), vec![2, 3]);
        assert_eq!(lines("crates/sql/src/exec/vector.rs"), vec![2, 3]);
        assert!(lines("crates/storage/src/index.rs").is_empty());
        assert!(lines("crates/sql/src/engine.rs").is_empty());
    }

    #[test]
    fn per_cover_range_seeks_are_flagged_in_the_schema_crate() {
        let src = "fn f(idx: &BTreeIndex, ranges: &[(Value, Value)]) {\n\
                   for (lo, hi) in ranges { idx.range(&[lo], &[hi]); }\n\
                   let b = idx.seek_exact(&key);\n\
                   let c = idx.seek_ranges(ranges);\n}\n";
        let lines = |path: &str| -> Vec<usize> {
            crate::lints::scan_file_tokens(std::path::Path::new(path), lex(src).tokens)
                .into_iter()
                .filter(|(_, lint, _)| *lint == "per-key-seek")
                .map(|(line, _, _)| line)
                .collect()
        };
        assert_eq!(lines("crates/schema/src/functions.rs"), vec![2, 3]);
        assert_eq!(lines("crates/schema/src/lib.rs"), vec![2, 3]);
        assert!(lines("crates/loader/src/neighbors.rs").is_empty());
    }

    #[test]
    fn the_paper_model_is_named_outside_the_engine_and_loader_only() {
        let src = "fn f(stats: &ScanStats) -> SimTiming {
            let sim = IoSimulator::skyserver_production();
            sim.project(stats, CpuCost::simple_scan(), 1.0)
        }";
        let lines = |path: &str| -> Vec<usize> {
            crate::lints::scan_file_tokens(std::path::Path::new(path), lex(src).tokens)
                .into_iter()
                .filter(|(_, lint, _)| *lint == "paper-model")
                .map(|(line, _, _)| line)
                .collect()
        };
        assert_eq!(lines("crates/sql/src/engine.rs"), vec![1, 2, 3]);
        assert_eq!(lines("crates/sql/src/exec/vector.rs"), vec![1, 2, 3]);
        assert_eq!(lines("crates/loader/src/lib.rs"), vec![1, 2, 3]);
        assert!(lines("crates/queries/src/runner.rs").is_empty());
        assert!(lines("crates/storage/src/stats.rs").is_empty());
        assert!(lines("crates/bench/src/bin/reproduce.rs").is_empty());
    }

    #[test]
    fn the_neighbors_precomputation_reads_columns_not_rows() {
        let src = "fn f(table: &Table) {\n\
                   for (_, row) in table.iter() {}\n\
                   table.gather_into(id, &columns, &mut cells);\n}\n";
        let found = crate::lints::scan_file_tokens(
            std::path::Path::new("crates/loader/src/neighbors.rs"),
            lex(src).tokens,
        );
        let lines: Vec<usize> = (found.into_iter())
            .filter(|(_, lint, _)| *lint == "full-row-gather")
            .map(|(line, _, _)| line)
            .collect();
        assert_eq!(lines, vec![2]);
    }

    #[test]
    fn panics_are_flagged_on_the_hot_paths_only() {
        let src = "fn f(x: Option<u8>) {\n\
                   x.unwrap();\n\
                   x.expect(\"y\");\n\
                   panic!(\"z\");\n}\n";
        let lints = |path: &str| -> Vec<&'static str> {
            crate::lints::scan_file_tokens(std::path::Path::new(path), lex(src).tokens)
                .into_iter()
                .map(|(_, lint, _)| lint)
                .collect()
        };
        let all = vec!["no-unwrap", "no-expect", "no-panic"];
        for hot in [
            "crates/web/src/site.rs",
            "crates/sql/src/executor.rs",
            "crates/sql/src/exec/vector.rs",
            "crates/storage/src/failpoints.rs",
            "crates/storage/src/release.rs",
            "crates/storage/src/table_stats.rs",
            "crates/storage/src/index.rs",
        ] {
            assert_eq!(lints(hot), all, "{hot}");
        }
        assert!(lints("crates/storage/src/table.rs").is_empty());
    }

    #[test]
    fn the_workspace_is_lint_clean() {
        let findings = crate::lints::run(&crate::workspace_root()).unwrap();
        let rendered: Vec<String> = findings.iter().map(ToString::to_string).collect();
        assert!(
            rendered.is_empty(),
            "skylint findings:\n{}",
            rendered.join("\n")
        );
    }
}
