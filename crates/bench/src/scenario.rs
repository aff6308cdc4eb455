//! The `experiments scenario` corpus runner.
//!
//! Takes a `.dsc` file or a directory of them, parses + compiles every
//! file up front (any diagnostic aborts the whole run — a corpus with a
//! broken file has no meaningful verdict), then runs the compiled
//! scenarios across `jobs` workers with [`crate::par::run_indexed`].
//! Scenario runs are pure functions of `(file, seed)`, so the verdict
//! table and `results/scenarios.csv` are byte-identical at any `--jobs`
//! (enforced by `tests/scenario_corpus.rs` and the verify.sh gate).

use crate::par::run_indexed;
use dui_core::stats::table::Table;
use dui_scenario::{compile, Compiled, RunReport};
use std::path::{Path, PathBuf};

/// Outcome of a corpus run.
pub struct CorpusReport {
    /// Human-readable verdict table + per-check detail for failures.
    pub text: String,
    /// `scenarios.csv`: one row per check plus an overall row per
    /// scenario.
    pub csv: Table,
    /// Scenarios with at least one failed check.
    pub failed: usize,
    /// Scenarios run.
    pub total: usize,
}

/// Collect the `.dsc` files under `path` (a file or a directory),
/// sorted by file name for a deterministic run order.
pub fn collect_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.to_path_buf()]);
    }
    if !path.is_dir() {
        return Err(format!("no such file or directory: {}", path.display()));
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?
        .filter_map(|ent| ent.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "dsc"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .dsc files under {}", path.display()));
    }
    Ok(files)
}

/// Parse and compile every file. The error string is the positioned
/// diagnostic (`file:line:col: message`) or the compile error prefixed
/// with the file name.
pub fn load(files: &[PathBuf]) -> Result<Vec<Compiled>, String> {
    let mut out = Vec::with_capacity(files.len());
    for f in files {
        let text = std::fs::read_to_string(f)
            .map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let name = f
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("scenario.dsc");
        let sc = dui_scenario::parse_str(name, &text).map_err(|e| e.to_string())?;
        out.push(compile(&sc).map_err(|e| format!("{name}: {e}"))?);
    }
    Ok(out)
}

/// Run a compiled corpus and assemble the report.
pub fn run_corpus(compiled: &[Compiled], jobs: usize) -> CorpusReport {
    let reports: Vec<RunReport> = run_indexed(compiled.len(), jobs, |i| compiled[i].run());

    let mut csv = Table::new(["scenario", "kind", "seed", "check", "pass", "detail"]);
    let mut show = Table::new(["scenario", "kind", "checks", "failed", "verdict"]);
    let mut detail = String::new();
    let mut failed_scenarios = 0usize;
    for r in &reports {
        let failed = r.checks.iter().filter(|c| !c.pass).count();
        for c in &r.checks {
            csv.row([
                r.name.clone(),
                r.kind.to_string(),
                r.seed.to_string(),
                c.label.clone(),
                if c.pass { "pass" } else { "FAIL" }.to_string(),
                c.detail.clone(),
            ]);
        }
        csv.row([
            r.name.clone(),
            r.kind.to_string(),
            r.seed.to_string(),
            "overall".to_string(),
            if failed == 0 { "pass" } else { "FAIL" }.to_string(),
            format!(
                "{} of {} checks passed; {} delivered; {} fallbacks",
                r.checks.len() - failed,
                r.checks.len(),
                r.delivered,
                r.fallbacks
            ),
        ]);
        show.row([
            r.name.clone(),
            r.kind.to_string(),
            r.checks.len().to_string(),
            failed.to_string(),
            if failed == 0 { "PASS" } else { "FAIL" }.to_string(),
        ]);
        if failed > 0 {
            failed_scenarios += 1;
            for c in r.checks.iter().filter(|c| !c.pass) {
                detail.push_str(&format!("  {}: FAIL {} — {}\n", r.name, c.label, c.detail));
            }
        }
    }
    let mut text = String::new();
    text.push_str(&show.to_text());
    if !detail.is_empty() {
        text.push_str("\nfailed checks:\n");
        text.push_str(&detail);
    }
    text.push_str(&format!(
        "\n{} of {} scenarios passed\n",
        reports.len() - failed_scenarios,
        reports.len()
    ));
    CorpusReport {
        text,
        csv,
        failed: failed_scenarios,
        total: reports.len(),
    }
}
