//! The skylint rules and driver.
//!
//! Rule catalogue (see ARCHITECTURE.md "Static analysis & verification"):
//!
//! | lint | scope | what it catches |
//! |------|-------|-----------------|
//! | `no-unwrap` | web request paths + sql executor hot path + failpoints + release catalog + table statistics + index runs | `.unwrap()` that turns a recoverable error into a worker panic |
//! | `no-expect` | same | `.expect(...)` likewise |
//! | `no-panic` | same | `panic!` / `unreachable!` / `todo!` / `unimplemented!` |
//! | `no-slice-index` | web request paths | `x[i]` indexing that can panic on malformed input |
//! | `lock-unwrap` | whole workspace | `.lock()/.read()/.write()` + `.unwrap()` — poisons cascade across requests |
//! | `value-clone-in-kernel` | vectorized kernels | `.clone()` inside the batch kernels (per-value clones defeat the point) |
//! | `per-key-seek` | sql executor + schema crate | `.range(` / `.seek_exact(`: a B-tree search per key or per cover range, where an index-lookup join walks a sorted chunk of keys once (`BTreeIndex::seek_sorted`) and a spatial search its cover's ranges once (`BTreeIndex::seek_ranges`) |
//! | `full-row-gather` | sql executor + engine DML + schema table functions + Neighbors precomputation | `t.get(..)` / `table.iter()` / `row.to_vec()`: materializing whole table rows where the statement's scan columns would do |
//! | `row-vec` | sql executor | `Vec<Vec<Value>>`: one allocation per buffered row, where a `RowBlock` keeps `width × len` cells in one buffer (the `ResultSet` boundary carries escapes); `HashMap<Vec<Value>` / `HashSet<Vec<Value>`: one allocation per hash key, where the `KeyIndex` keys slots whose cells live in a `RowBlock` |
//! | `paper-model` | every workspace crate except bench | naming the paper's evaluation models (`IoSimulator`, `CpuCost`, `SimTiming`, `HardwareProfile`, `DiskConfig`, `TrafficConfig`, `simulate_traffic`, `analyze_traffic`, `paper_scale_factor`): the system only measures, and the reproduction crate that prints the figures owns the 2002-hardware model, the §7 traffic simulator and the paper-scale projection |
//! | `forbid-unsafe` | every workspace crate | missing `#![forbid(unsafe_code)]` |
//! | `doc-links` | *.md in root + docs/ | relative links to files that do not exist |
//! | `ci-drift` | .github/workflows/ci.yml | `-p <package>` / `--bin <name>` that the workspace no longer has |
//! | `loc-ceiling` | every workspace crate | more non-test lines than the ceiling committed in `loc.rs` (or no ceiling) |
//!
//! Escapes: `// skylint: allow(<lint>) <reason>` on the finding's line or
//! the line above.  The reason is mandatory; unused escapes are themselves
//! findings so the allowlist can never go stale.

use crate::lexer::{lex, strip_cfg_test, AllowDirective, Tok};
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug)]
pub struct Finding {
    /// File the finding is in, repo-relative.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Lint name (e.g. `no-unwrap`).
    pub lint: &'static str,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.lint,
            self.message
        )
    }
}

/// What `paper-model` flags: the names of the paper's evaluation models.
const PAPER_MODELS: &str = "IoSimulator CpuCost SimTiming HardwareProfile DiskConfig \
                            TrafficConfig simulate_traffic analyze_traffic paper_scale_factor";

/// Which rule families apply to a source file.
struct Scope {
    /// `no-unwrap` / `no-expect` / `no-panic`.
    hot_path: bool,
    /// `no-slice-index` (web request handlers only — the sql executor
    /// indexes ordinal-verified rows, which the plan verifier covers).
    slice_index: bool,
    /// `value-clone-in-kernel`.
    kernel: bool,
    /// `full-row-gather`.
    row_gather: bool,
    /// `per-key-seek`.
    per_key_seek: bool,
    /// `paper-model`.
    paper_model: bool,
    /// `row-vec`.
    row_vec: bool,
}

fn scope_for(rel: &Path) -> Scope {
    let p = rel.to_string_lossy().replace('\\', "/");
    let web = p.starts_with("crates/web/src/");
    let executor = p == "crates/sql/src/executor.rs" || p.starts_with("crates/sql/src/exec/");
    // The fault-injection layer sits on the storage read path and inside
    // executor checkpoints: an accidental panic there would take down
    // the very workers the chaos suite exists to protect.
    let failpoints = p == "crates/storage/src/failpoints.rs";
    // The release catalog runs inside every admin publish and every
    // pinned read: a panic there poisons the serving slot for all
    // requests, so it gets the same no-panic discipline.
    let releases = p == "crates/storage/src/release.rs";
    // Statistics are merged inside every admin write, with the admin
    // lock held: a panic there poisons the write path for every writer.
    let stats = p == "crates/storage/src/table_stats.rs";
    // Every index read slices runs here, and every admin write copies
    // them: a panic kills the scan worker or poisons the write path.
    let index = p == "crates/storage/src/index.rs";
    Scope {
        hot_path: web || executor || failpoints || releases || stats || index,
        slice_index: web,
        kernel: p == "crates/sql/src/exec/vector.rs",
        // The engine file holds the DML paths, the schema file the table
        // functions: the other places rows are fetched for a statement.
        // The Neighbors precomputation reads four columns of every object.
        row_gather: executor
            || p == "crates/sql/src/engine.rs"
            || p == "crates/schema/src/functions.rs"
            || p == "crates/loader/src/neighbors.rs",
        // The spatial functions live in the schema crate: a cover's ranges
        // are walked once, never sought one at a time.
        per_key_seek: executor || p.starts_with("crates/schema/src/"),
        // The system only measures; the paper's evaluation models belong to
        // the reproduction crate that prints its figures.
        paper_model: !p.starts_with("crates/bench/"),
        // Rows between operators live in blocks; only a result set's rows
        // are one `Vec` each.
        row_vec: executor,
    }
}

/// Run every lint over the workspace rooted at `root`.  Returns all
/// findings (empty = clean).
pub fn run(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for crate_dir in workspace_crates(root)? {
        let src = crate_dir.join("src");
        check_forbid_unsafe(root, &crate_dir, &mut findings);
        for file in rust_files(&src)? {
            lint_rust_file(root, &file, &mut findings)?;
        }
    }
    check_doc_links(root, &mut findings)?;
    check_ci_drift(root, &mut findings)?;
    check_loc_ceilings(root, &mut findings)?;
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// The workspace's own crates (vendored stand-ins are third-party code and
/// exempt).
pub(crate) fn workspace_crates(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let path = entry?.path();
        if path.is_dir() && path.join("Cargo.toml").exists() {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

pub(crate) fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn lint_rust_file(root: &Path, file: &Path, findings: &mut Vec<Finding>) -> std::io::Result<()> {
    let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
    let src = std::fs::read_to_string(file)?;
    let lexed = lex(&src);
    let mut allows: Vec<(AllowDirective, bool)> =
        lexed.allows.into_iter().map(|d| (d, false)).collect();

    for (line, lint, message) in scan_file_tokens(&rel, lexed.tokens) {
        let allowed = allows.iter_mut().any(|(d, used)| {
            let hit = d.lint == lint && (d.line == line || d.line + 1 == line);
            if hit && !d.reason.is_empty() {
                *used = true;
            }
            hit && !d.reason.is_empty()
        });
        if !allowed {
            findings.push(Finding {
                file: rel.clone(),
                line,
                lint,
                message,
            });
        }
    }
    for (d, used) in allows {
        if d.reason.is_empty() {
            findings.push(Finding {
                file: rel.clone(),
                line: d.line,
                lint: "allow-without-reason",
                message: format!("skylint escape for {} has no written reason", d.lint),
            });
        } else if !used {
            findings.push(Finding {
                file: rel.clone(),
                line: d.line,
                lint: "unused-allow",
                message: format!("skylint escape for {} matches no finding", d.lint),
            });
        }
    }
    Ok(())
}

/// The raw `(line, lint, message)` findings of the token-stream rules that
/// apply to the file at repo-relative path `rel` (test code stripped,
/// escapes not yet applied).
pub fn scan_file_tokens(rel: &Path, tokens: Vec<Tok>) -> Vec<(usize, &'static str, String)> {
    let mut raw = Vec::new();
    scan_tokens(&strip_cfg_test(tokens), &scope_for(rel), &mut raw);
    raw
}

/// All token-stream rules in one pass.
fn scan_tokens(tokens: &[Tok], scope: &Scope, out: &mut Vec<(usize, &'static str, String)>) {
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str());
    for i in 0..tokens.len() {
        let t = &tokens[i];
        // lock-unwrap fires everywhere; the plain no-unwrap/no-expect rules
        // only in hot-path scopes (a finding is reported once — the more
        // specific lock-unwrap wins).
        let lock_unwrap = t.text == "."
            && matches!(text(i + 1), Some("lock" | "read" | "write"))
            && text(i + 2) == Some("(")
            && text(i + 3) == Some(")")
            && text(i + 4) == Some(".")
            && text(i + 5) == Some("unwrap")
            && text(i + 6) == Some("(");
        if lock_unwrap {
            out.push((
                t.line,
                "lock-unwrap",
                format!(
                    ".{}().unwrap() panics forever once the lock is poisoned; \
                     recover with unwrap_or_else(PoisonError::into_inner)",
                    text(i + 1).unwrap_or_default()
                ),
            ));
            continue;
        }
        if scope.paper_model && PAPER_MODELS.split(' ').any(|name| name == t.text) {
            let message = "the paper's evaluation models belong to the reproduction crate";
            out.push((t.line, "paper-model", message.into()));
        }
        let hash_key = matches!(t.text.as_str(), "HashMap" | "HashSet");
        let row_vec = t.text == "Vec" && text(i + 6) == Some(">");
        let vec_value = (1..6).all(|k| text(i + k) == Some(["<", "Vec", "<", "Value", ">"][k - 1]));
        if scope.row_vec && vec_value && (row_vec || hash_key) {
            let message = "one Vec per row or per hash key; keep the cells in a RowBlock";
            out.push((t.line, "row-vec", message.into()));
        }
        if !scope.hot_path && !scope.kernel && !scope.row_gather && !scope.per_key_seek {
            continue;
        }
        let method_call = |name: &str, j: usize| {
            tokens[j].text == "." && text(j + 1) == Some(name) && text(j + 2) == Some("(")
        };
        if scope.row_gather && i > 0 {
            // Receivers are recognised by this codebase's naming: a `Table`
            // is bound as `t` or `table`, a row as `row` / `*_row`.
            let receiver = tokens[i - 1].text.as_str();
            let whole_table_rows = matches!(receiver, "t" | "table")
                && ["get", "iter", "iter_range"]
                    .iter()
                    .any(|m| method_call(m, i));
            if whole_table_rows || (receiver.ends_with("row") && method_call("to_vec", i)) {
                out.push((
                    t.line,
                    "full-row-gather",
                    format!(
                        "{receiver}.{}() copies every column of the row; gather the \
                         source's scan columns instead",
                        text(i + 1).unwrap_or_default()
                    ),
                ));
            }
        }
        if scope.per_key_seek && (method_call("range", i) || method_call("seek_exact", i)) {
            out.push((
                t.line,
                "per-key-seek",
                format!(
                    ".{}() searches the index from its root for one key; walk a \
                     sorted chunk of keys with seek_sorted, or sorted ranges with \
                     seek_ranges, instead",
                    text(i + 1).unwrap_or_default()
                ),
            ));
        }
        if scope.hot_path {
            // Skip the `.unwrap()` that belongs to a lock-unwrap match at
            // i-4 — already reported above.
            let after_lock = i >= 4
                && tokens[i - 4].text == "."
                && matches!(text(i - 3), Some("lock" | "read" | "write"))
                && text(i - 2) == Some("(")
                && text(i - 1) == Some(")");
            if method_call("unwrap", i) && !after_lock {
                out.push((
                    t.line,
                    "no-unwrap",
                    "unwrap() on a hot path panics the worker; propagate the error".into(),
                ));
            }
            if method_call("expect", i) {
                out.push((
                    t.line,
                    "no-expect",
                    "expect() on a hot path panics the worker; propagate the error".into(),
                ));
            }
            if matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && text(i + 1) == Some("!")
            {
                out.push((
                    t.line,
                    "no-panic",
                    format!("{}! on a hot path kills the worker thread", t.text),
                ));
            }
            if scope.slice_index && t.text == "[" && i > 0 {
                let prev = &tokens[i - 1].text;
                let indexable = prev == ")"
                    || prev == "]"
                    || (prev
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphabetic() || c == '_')
                        && !is_keyword(prev));
                if indexable {
                    out.push((
                        t.line,
                        "no-slice-index",
                        format!("indexing after `{prev}` panics when out of bounds; use .get()"),
                    ));
                }
            }
        }
        if scope.kernel && method_call("clone", i) {
            out.push((
                t.line,
                "value-clone-in-kernel",
                "clone() inside a vectorized kernel; operate on borrowed values".into(),
            ));
        }
    }
}

/// Keywords that can precede `[` without forming an index expression
/// (`impl [T]`, `mut [0u8; 4]`, `in [a, b]`, ...).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "box"
            | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "trait"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
    )
}

/// Satellite: every workspace crate locks in `#![forbid(unsafe_code)]`.
fn check_forbid_unsafe(root: &Path, crate_dir: &Path, findings: &mut Vec<Finding>) {
    let entry = ["src/lib.rs", "src/main.rs"]
        .iter()
        .map(|p| crate_dir.join(p))
        .find(|p| p.exists());
    let Some(entry) = entry else { return };
    let rel = entry.strip_prefix(root).unwrap_or(&entry).to_path_buf();
    let has = std::fs::read_to_string(&entry)
        .map(|s| s.contains("#![forbid(unsafe_code)]"))
        .unwrap_or(false);
    if !has {
        findings.push(Finding {
            file: rel,
            line: 1,
            lint: "forbid-unsafe",
            message: "crate root is missing #![forbid(unsafe_code)]".into(),
        });
    }
}

/// Satellite: relative links in the repo's markdown must resolve.
fn check_doc_links(root: &Path, findings: &mut Vec<Finding>) -> std::io::Result<()> {
    let mut docs: Vec<PathBuf> = Vec::new();
    for dir in [root.to_path_buf(), root.join("docs")] {
        if !dir.exists() {
            continue;
        }
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "md") {
                docs.push(path);
            }
        }
    }
    docs.sort();
    for doc in docs {
        let rel = doc.strip_prefix(root).unwrap_or(&doc).to_path_buf();
        let text = std::fs::read_to_string(&doc)?;
        for (lineno, line) in text.lines().enumerate() {
            let mut rest = line;
            while let Some(open) = rest.find("](") {
                let after = &rest[open + 2..];
                let Some(close) = after.find(')') else { break };
                let target = &after[..close];
                rest = &after[close + 1..];
                let target = target.split('#').next().unwrap_or("");
                if target.is_empty() || target.contains("://") || target.starts_with("mailto:") {
                    continue;
                }
                let base = doc.parent().unwrap_or(root);
                if !base.join(target).exists() {
                    findings.push(Finding {
                        file: rel.clone(),
                        line: lineno + 1,
                        lint: "doc-links",
                        message: format!("broken relative link: {target}"),
                    });
                }
            }
        }
    }
    Ok(())
}

/// `loc-ceiling`: every crate stays within its committed non-test line
/// ceiling ([`crate::loc::CEILINGS`]), and every crate has one.
fn check_loc_ceilings(root: &Path, findings: &mut Vec<Finding>) -> std::io::Result<()> {
    for c in crate::loc::count(root)? {
        let message = match c.ceiling {
            Some(ceiling) if c.lines <= ceiling => continue,
            Some(ceiling) => format!("{} non-test lines exceed the ceiling of {ceiling}", c.lines),
            None => format!("{} non-test lines and no committed ceiling", c.lines),
        };
        findings.push(Finding {
            file: PathBuf::from("crates").join(&c.name).join("src"),
            line: 1,
            lint: "loc-ceiling",
            message,
        });
    }
    Ok(())
}

/// Satellite: CI steps must reference packages and binaries that exist.
fn check_ci_drift(root: &Path, findings: &mut Vec<Finding>) -> std::io::Result<()> {
    let ci = root.join(".github/workflows/ci.yml");
    if !ci.exists() {
        return Ok(());
    }
    let rel = ci.strip_prefix(root).unwrap_or(&ci).to_path_buf();

    let mut packages: Vec<String> = Vec::new();
    let mut bins: Vec<String> = Vec::new();
    for crate_dir in workspace_crates(root)? {
        let manifest = std::fs::read_to_string(crate_dir.join("Cargo.toml"))?;
        if let Some(name) = toml_package_name(&manifest) {
            bins.push(name.clone()); // a crate's default bin shares its name
            packages.push(name);
        }
        for line in manifest.lines() {
            // `name = "…"` lines under [[bin]] sections double as bin names;
            // collecting every name over-approximates, which is safe here.
            if let Some(name) = toml_string_value(line, "name") {
                if !bins.contains(&name) {
                    bins.push(name);
                }
            }
        }
        let bin_dir = crate_dir.join("src/bin");
        if bin_dir.exists() {
            for entry in std::fs::read_dir(&bin_dir)? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "rs") {
                    if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                        bins.push(stem.to_string());
                    }
                }
            }
        }
    }

    let text = std::fs::read_to_string(&ci)?;
    for (lineno, line) in text.lines().enumerate() {
        let words: Vec<&str> = line.split_whitespace().collect();
        for w in words.windows(2) {
            let (flag, value) = (
                w[0],
                w[1].trim_matches(|c: char| !c.is_alphanumeric() && c != '_' && c != '-'),
            );
            let missing = match flag {
                "-p" | "--package" => !packages.iter().any(|p| p == value),
                "--bin" => !bins.iter().any(|b| b == value),
                _ => false,
            };
            if missing {
                findings.push(Finding {
                    file: rel.clone(),
                    line: lineno + 1,
                    lint: "ci-drift",
                    message: format!(
                        "CI references {flag} {value}, which the workspace does not have"
                    ),
                });
            }
        }
    }
    Ok(())
}

fn toml_package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if in_package {
            if let Some(name) = toml_string_value(t, "name") {
                return Some(name);
            }
        }
    }
    None
}

fn toml_string_value(line: &str, key: &str) -> Option<String> {
    let t = line.trim();
    let rest = t.strip_prefix(key)?.trim_start();
    let rest = rest.strip_prefix('=')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.split('"').next().map(str::to_string)
}
