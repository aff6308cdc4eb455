//! The `dui-lint` CLI.
//!
//! ```sh
//! dui-lint [--json] [paths…]
//! ```
//!
//! * default paths: `crates src` (repo-relative);
//! * `--json` — additionally write `results/lint.jsonl` (deterministic
//!   JSON lines, one per finding).
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use dui_lint::{render_human, to_jsonl};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: dui-lint [--json] [paths…]");
    ExitCode::from(2)
}

/// The repository root: the working directory if it contains one of
/// the default scan paths, else (under `cargo run`) two levels above
/// this crate's manifest.
fn find_root() -> PathBuf {
    let cwd = PathBuf::from(".");
    if dui_lint::DEFAULT_PATHS.iter().any(|p| cwd.join(p).is_dir()) {
        return cwd;
    }
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        if let Some(root) = Path::new(&manifest).parent().and_then(Path::parent) {
            return root.to_path_buf();
        }
    }
    cwd
}

fn main() -> ExitCode {
    let mut json = false;
    let mut paths: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" => json = true,
            s if s.starts_with("--") => return usage(),
            _ => paths.push(a),
        }
    }
    if paths.is_empty() {
        paths = dui_lint::DEFAULT_PATHS
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    let root = find_root();
    let report = match dui_lint::lint_paths(&root, &paths) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dui-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        let results = root.join("results");
        let path = results.join("lint.jsonl");
        let write = std::fs::create_dir_all(&results)
            .and_then(|()| std::fs::write(&path, to_jsonl(&report.findings)));
        if let Err(e) = write {
            eprintln!("dui-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("[saved results/lint.jsonl]");
    }

    eprint!("{}", render_human(&report.findings));
    let (findings, files) = (report.findings.len(), report.files_scanned);
    if findings > 0 {
        println!("dui-lint: FAIL — {findings} finding(s) in {files} files");
        ExitCode::FAILURE
    } else {
        println!("dui-lint: OK (0 findings; {files} files)");
        ExitCode::SUCCESS
    }
}
