//! # dui-lint
//!
//! Std-only, token-aware static analysis for the workspace — the
//! in-tree replacement for the grep/awk determinism gates that used to
//! live in a shell script (`scripts/verify.sh` now runs this crate's
//! binary directly).
//!
//! Every quantitative claim this repository reproduces (Fig. 2, C1–C3)
//! rests on simulations being pure functions of `(config, seed)`. A
//! grep pattern cannot see `use`-aliasing, comments, or string
//! literals, and silently misses renamed imports of `Instant` or
//! `thread_rng` — and *no* per-file check can see a wall-clock read
//! laundered through two crates of helper functions. The analyzer is
//! layered accordingly:
//!
//! * [`lexer`] — a hand-rolled, lossless Rust lexer (raw strings,
//!   nested block comments, lifetimes, char literals);
//! * [`scan`] — the token-level scan: code-token index, `use`
//!   declarations (alias-aware), crate-root inner attributes and line
//!   helpers;
//! * [`parse`] — the one structural pass over that token stream:
//!   every `fn`/method with its body span, module path, enclosing
//!   type, and per-item `lint: allow(...)` attributes, plus a
//!   per-token context — innermost `fn` (a gap-free partition),
//!   `#[cfg(test)]` gating, enclosing `impl`/`trait` — that the
//!   per-file rules and the graph layers both read;
//! * [`symbols`] — the cross-crate symbol graph (canonical paths,
//!   suffix/method indexes);
//! * [`callgraph`] — a conservative call graph (direct calls, alias
//!   and `::`-path resolution, receiver-type method heuristics;
//!   unresolved calls recorded as explicit Unknown edges);
//! * [`taint`] — deterministic interprocedural taint propagation with
//!   canonical witness paths;
//! * [`rules`] — the shipped rules (see that module's table): ten
//!   per-file token rules and four whole-workspace graph rules;
//! * [`findings`] — deterministic findings, JSON-lines export, and the
//!   grandfathering [`Baseline`].
//!
//! ## Running
//!
//! ```sh
//! cargo run -p dui-lint                         # lint crates/ + src/
//! cargo run -p dui-lint -- --json --baseline lint.baseline
//! cargo run -p dui-lint -- --write-baseline     # regenerate lint.baseline
//! cargo run -p dui-lint -- --graph-dump         # call graph as JSONL
//! cargo run -p dui-lint -- crates/netsim        # lint a subtree
//! ```
//!
//! Output is deterministic: findings sort by `(file, line, col,
//! rule)`, the human table goes to stderr, and `--json` writes
//! byte-identical-across-runs JSON lines to `results/lint.jsonl`
//! (verified by `scripts/verify.sh`, which runs the lint — and the
//! graph dump — twice and byte-compares). Exit code is nonzero iff a
//! finding is not grandfathered by the baseline.
//!
//! ## Library use
//!
//! The binary, `tests/workspace.rs` and the fixture tests drive the
//! same entry points:
//!
//! ```
//! let findings = dui_lint::lint_source(
//!     "crates/x/src/lib.rs",
//!     "use std::time::Instant as Clock;\nfn f() { Clock::now(); }\n",
//! );
//! assert!(findings.iter().any(|f| f.rule == "determinism/wall-clock"));
//! ```
//!
//! Multi-file (cross-crate) inputs go through [`lint_sources`]:
//!
//! ```
//! let findings = dui_lint::lint_sources(&[
//!     (
//!         "crates/a/src/lib.rs".to_string(),
//!         "pub fn t() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }\n"
//!             .to_string(),
//!     ),
//!     (
//!         "crates/b/src/lib.rs".to_string(),
//!         "pub fn run() -> u64 { dui_a::t() }\n".to_string(),
//!     ),
//! ]);
//! assert!(findings
//!     .iter()
//!     .any(|f| f.rule == "determinism/transitive-wall-clock" && f.file == "crates/b/src/lib.rs"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod callgraph;
pub mod findings;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod scan;
pub mod symbols;
pub mod taint;

pub use analysis::{Analysis, AnalysisStats};
pub use findings::{
    apply_baseline, render_human, sort_findings, Baseline, Finding, Severity,
};

use parse::ParsedFile;
use std::io;
use std::path::{Path, PathBuf};

/// Run the full analyzer over in-memory sources (`(path, src)`,
/// **must be path-sorted** — symbol ids and witness chains depend on
/// input order only through this canonical order).
pub fn run_rules(sources: &[(String, String)]) -> (Vec<Finding>, AnalysisStats) {
    let files: Vec<ParsedFile<'_>> = sources
        .iter()
        .map(|(p, s)| ParsedFile::parse(p, s))
        .collect();

    let mut findings = Vec::new();
    for f in &files {
        rules::check_file(f, &mut findings);
    }
    let a = Analysis::from_files(files);
    let stats = a.stats();
    rules::check_graph(&a, &mut findings);
    sort_findings(&mut findings);
    (findings, stats)
}

/// Lint in-memory sources (`(path, src)`, any order — sorted and
/// deduplicated internally) through the full analyzer, per-file and
/// graph rules both. This is how the fixture tests exercise
/// cross-crate rules against synthetic multi-file inputs.
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let mut sorted: Vec<(String, String)> = sources.to_vec();
    sorted.sort();
    sorted.dedup();
    run_rules(&sorted).0
}

/// Lint one in-memory source as if it lived at `path` (repo-relative,
/// `/`-separated).
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    lint_sources(&[(path.to_string(), src.to_string())])
}

/// What one lint run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings in canonical order, `baselined` flags assigned.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings not grandfathered by the baseline.
    pub new_count: usize,
    /// Baseline entries that matched nothing although their file still
    /// exists (the code was fixed — candidates for removal).
    pub stale_baseline: Vec<String>,
    /// Baseline entries whose file no longer exists on disk at all
    /// (pruned automatically by `--write-baseline`).
    pub stale_missing_file: Vec<String>,
    /// Headline analysis sizes (files, symbols, call edges, unknowns).
    pub stats: AnalysisStats,
}

impl Report {
    /// Findings that are new (not baselined).
    pub fn new_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.baselined)
    }

    /// Count of grandfathered findings.
    pub fn baselined_count(&self) -> usize {
        self.findings.len() - self.new_count
    }
}

/// Directories the walker never descends into: build output, VCS
/// metadata, and the lint fixture corpora (which are known-bad by
/// design and referenced by virtual path from the tests instead).
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "results"];

/// The default scan roots, matching (and extending, by the root
/// `src/`) what the old grep gate covered.
pub const DEFAULT_PATHS: &[&str] = &["crates", "src"];

fn walk(dir: &Path, rel: &str, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    let mut entries: Vec<(String, PathBuf, bool)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_dir = entry.file_type()?.is_dir();
        entries.push((name, entry.path(), is_dir));
    }
    // Deterministic order regardless of filesystem enumeration.
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, path, is_dir) in entries {
        let child_rel = if rel.is_empty() {
            name.clone()
        } else {
            format!("{rel}/{name}")
        };
        if is_dir {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            walk(&path, &child_rel, out)?;
        } else if name.ends_with(".rs") {
            out.push((child_rel, path));
        }
    }
    Ok(())
}

/// Read every `.rs` file under `paths` (repo-relative, resolved
/// against `root`) into path-sorted `(rel_path, src)` pairs.
pub fn read_sources(root: &Path, paths: &[String]) -> io::Result<Vec<(String, String)>> {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    for p in paths {
        let full = root.join(p);
        let rel = p.replace('\\', "/");
        let meta = std::fs::metadata(&full).map_err(|e| {
            io::Error::new(e.kind(), format!("cannot stat {}: {e}", full.display()))
        })?;
        if meta.is_dir() {
            walk(&full, &rel, &mut files)?;
        } else if rel.ends_with(".rs") {
            files.push((rel, full));
        }
    }
    files.sort();
    files.dedup();
    let mut out: Vec<(String, String)> = Vec::with_capacity(files.len());
    for (rel, full) in files {
        let src = std::fs::read_to_string(&full).map_err(|e| {
            io::Error::new(e.kind(), format!("cannot read {}: {e}", full.display()))
        })?;
        out.push((rel, src));
    }
    Ok(out)
}

/// Lint the `.rs` files under `paths`, apply `baseline`, and return
/// the [`Report`].
pub fn lint_paths(root: &Path, paths: &[String], baseline: &Baseline) -> io::Result<Report> {
    let sources = read_sources(root, paths)?;
    let (mut findings, stats) = run_rules(&sources);
    let (new_count, stale) = apply_baseline(&mut findings, baseline);
    // Split stale entries: file still exists (the finding was fixed)
    // vs file gone entirely (the entry can only be dead weight).
    let mut stale_baseline = Vec::new();
    let mut stale_missing_file = Vec::new();
    for entry in stale {
        let file = entry.split('\t').nth(1).unwrap_or("");
        let scanned = sources.binary_search_by(|(p, _)| p.as_str().cmp(file)).is_ok();
        if scanned || root.join(file).exists() {
            stale_baseline.push(entry);
        } else {
            stale_missing_file.push(entry);
        }
    }
    Ok(Report {
        findings,
        files_scanned: sources.len(),
        new_count,
        stale_baseline,
        stale_missing_file,
        stats,
    })
}

/// The call graph of in-memory sources as deterministic JSONL (see
/// [`Analysis::graph_jsonl`]). Input order does not matter.
pub fn graph_dump_sources(sources: &[(String, String)]) -> String {
    let mut sorted: Vec<(String, String)> = sources.to_vec();
    sorted.sort();
    sorted.dedup();
    Analysis::build(&sorted).graph_jsonl()
}

/// The call graph of the `.rs` files under `paths` as deterministic
/// JSONL — the `--graph-dump` payload, byte-compared across two runs
/// by `scripts/verify.sh`.
pub fn graph_dump_paths(root: &Path, paths: &[String]) -> io::Result<String> {
    let sources = read_sources(root, paths)?;
    Ok(Analysis::build(&sources).graph_jsonl())
}

/// Serialize findings as JSON lines (the `results/lint.jsonl`
/// payload): one object per finding, canonical order, no timestamps —
/// byte-identical across runs on an unchanged tree.
pub fn to_jsonl(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_json_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_is_deterministic() {
        let src = "use std::time::Instant;\nfn f() { Instant::now(); }\n";
        let a = lint_source("crates/x/src/lib.rs", src);
        let b = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn jsonl_is_one_line_per_finding() {
        let f = lint_source(
            "crates/x/src/lib.rs",
            "use std::time::Instant;\nfn g() { x.unwrap(); }\n",
        );
        let jsonl = to_jsonl(&f);
        assert_eq!(jsonl.lines().count(), f.len());
        assert!(jsonl.lines().all(|l| l.starts_with("{\"rule\":")));
    }
}
