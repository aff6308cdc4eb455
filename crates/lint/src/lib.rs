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
//! `thread_rng`. The analyzer is a per-file token linter in five
//! layers, each reading only the one before:
//!
//! * [`lexer`] — a hand-rolled, lossless Rust lexer (raw strings,
//!   nested block comments, lifetimes, char literals);
//! * [`scan`] — the token-level scan: code-token index, `use`
//!   declarations (alias-aware), crate-root inner attributes and line
//!   helpers;
//! * [`parse`] — the one structural pass over that token stream: a
//!   per-token context — innermost `fn` (a gap-free partition),
//!   `#[cfg(test)]` gating, enclosing `impl`/`trait` — that the rules
//!   scope themselves by;
//! * [`rules`] — the shipped rules, one function of one file each
//!   ([`rules::FILE_RULES`]; `docs/lint.md` tabulates them);
//! * [`findings`] — deterministic findings and their JSON-lines export.
//!
//! What no per-file check can see — a clock read reached through a
//! call into exempt code, state shared across threads — is not
//! approximated here: it is closed structurally (no library crate may
//! depend on `dui-bench`, the one crate exempt from the determinism
//! rules; every crate root carries `#![forbid(unsafe_code)]`), and
//! `tests/workspace.rs` holds the tree to both. `docs/lint.md` records
//! the call-graph rules this replaced and why they went.
//!
//! ## Running
//!
//! ```sh
//! cargo run -p dui-lint                         # lint crates/ + src/
//! cargo run -p dui-lint -- --json               # also write results/lint.jsonl
//! cargo run -p dui-lint -- crates/netsim        # lint a subtree
//! ```
//!
//! Output is deterministic: findings sort by `(file, line, col,
//! rule)`, the human table goes to stderr, and `--json` writes
//! byte-identical-across-runs JSON lines to `results/lint.jsonl`. Exit
//! code is nonzero iff there is a finding; the only way to silence one
//! is the inline annotation its rule documents.
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

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod findings;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod scan;

pub use findings::{render_human, sort_findings, Finding, Severity};

use parse::ParsedFile;
use std::io;
use std::path::{Path, PathBuf};

/// Lint one in-memory source as if it lived at `path` (repo-relative,
/// `/`-separated).
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    rules::check_file(&ParsedFile::parse(path, src), &mut findings);
    sort_findings(&mut findings);
    findings
}

/// What one lint run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings in canonical order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
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

/// Lint the `.rs` files under `paths` and return the [`Report`].
pub fn lint_paths(root: &Path, paths: &[String]) -> io::Result<Report> {
    let sources = read_sources(root, paths)?;
    Ok(Report {
        // Path-sorted files, each file's findings sorted: canonical order.
        findings: sources
            .iter()
            .flat_map(|(path, src)| lint_source(path, src))
            .collect(),
        files_scanned: sources.len(),
    })
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
