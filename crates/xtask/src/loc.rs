//! `cargo xtask loc`: non-test lines per workspace crate, and the ceilings
//! skylint holds them to.
//!
//! A crate's count is every line of the `.rs` files under its `src/`,
//! minus the lines of `#[cfg(test)]` items.  Integration tests under
//! `tests/` are not counted, so tests stay free.

use crate::lexer::{cfg_test_ranges, lex};
use std::path::Path;

/// The committed ceilings, by crate directory under `crates/`.  They only
/// go down; a change that raises one says why in CHANGES.md.
pub const CEILINGS: &[(&str, usize)] = &[
    ("bench", 1065),
    ("core", 513),
    ("htm", 911),
    ("loader", 843),
    ("queries", 706),
    ("schema", 848),
    ("skygen", 1757),
    ("sql", 13860),
    ("storage", 3897),
    ("web", 4671),
    ("xtask", 1077),
];

/// One crate's count against its ceiling.
pub struct CrateLines {
    /// Crate directory name under `crates/`.
    pub name: String,
    /// Non-test lines under `src/`.
    pub lines: usize,
    /// The committed ceiling, if the crate has one.
    pub ceiling: Option<usize>,
}

/// Count every workspace crate's non-test lines.
pub fn count(root: &Path) -> std::io::Result<Vec<CrateLines>> {
    let mut out = Vec::new();
    for dir in crate::lints::workspace_crates(root)? {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut lines = 0;
        for file in crate::lints::rust_files(&dir.join("src"))? {
            lines += non_test_lines(&std::fs::read_to_string(file)?);
        }
        let ceiling = CEILINGS.iter().find(|(c, _)| *c == name).map(|&(_, n)| n);
        out.push(CrateLines {
            name,
            lines,
            ceiling,
        });
    }
    Ok(out)
}

/// Lines of `src` outside its `#[cfg(test)]` items.
pub fn non_test_lines(src: &str) -> usize {
    let tokens = lex(src).tokens;
    let test_lines: usize = cfg_test_ranges(&tokens)
        .into_iter()
        .filter_map(|r| Some(tokens.get(r.end - 1)?.line + 1 - tokens.get(r.start)?.line))
        .sum();
    src.lines().count() - test_lines
}
