//! The workspace gate as a test: linting the real tree with the real
//! checked-in baseline must produce zero non-baselined findings and no
//! stale baseline entries. This is the same invariant the lint step
//! of `scripts/verify.sh` enforces, so `cargo test` alone catches a
//! determinism regression even where the script never runs.

use std::path::Path;

fn repo_root() -> &'static Path {
    // crates/lint -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels below the repo root")
}

fn workspace_report() -> dui_lint::Report {
    let root = repo_root();
    let baseline_text =
        std::fs::read_to_string(root.join("lint.baseline")).unwrap_or_default();
    let baseline = dui_lint::Baseline::parse(&baseline_text);
    let paths: Vec<String> = dui_lint::DEFAULT_PATHS.iter().map(|s| s.to_string()).collect();
    dui_lint::lint_paths(root, &paths, &baseline).expect("workspace scan succeeds")
}

#[test]
fn workspace_has_no_new_findings() {
    let report = workspace_report();
    let new: Vec<String> = report
        .new_findings()
        .map(|f| format!("{}:{}:{} [{}] {}", f.file, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(
        new.is_empty(),
        "non-baselined lint findings (fix them or regenerate lint.baseline \
         with `cargo run -p dui-lint -- --write-baseline`):\n{}",
        new.join("\n")
    );
}

#[test]
fn baseline_has_no_stale_entries() {
    let report = workspace_report();
    assert!(
        report.stale_baseline.is_empty(),
        "baseline entries matching nothing (remove them or regenerate):\n{}",
        report.stale_baseline.join("\n")
    );
}

#[test]
fn workspace_scan_is_byte_deterministic() {
    let a = dui_lint::to_jsonl(&workspace_report().findings);
    let b = dui_lint::to_jsonl(&workspace_report().findings);
    assert_eq!(a, b);
}
