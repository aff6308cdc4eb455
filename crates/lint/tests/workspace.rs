//! The workspace gate as a test: linting the real tree must produce
//! zero findings — the same invariant the lint step of
//! `scripts/verify.sh` enforces, so `cargo test` alone catches a
//! determinism regression even where the script never runs — and the
//! two invariants no per-file rule can see are structural: nothing the
//! determinism rules cover can depend on the crate they exempt, and
//! every crate root hands the `unsafe` ban to `rustc`. The last test
//! keeps `docs/lint.md`'s rule table in step with `FILE_RULES`.

use dui_lint::rules::FILE_RULES;
use std::path::Path;

fn repo_root() -> &'static Path {
    // crates/lint -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels below the repo root")
}

fn default_paths() -> Vec<String> {
    dui_lint::DEFAULT_PATHS
        .iter()
        .map(|s| s.to_string())
        .collect()
}

fn workspace_report() -> dui_lint::Report {
    dui_lint::lint_paths(repo_root(), &default_paths()).expect("workspace scan succeeds")
}

#[test]
fn workspace_has_no_findings() {
    let found: Vec<String> = workspace_report()
        .findings
        .iter()
        .map(|f| format!("{}:{}:{} [{}] {}", f.file, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(
        found.is_empty(),
        "lint findings (fix them, or annotate with the escape the rule documents):\n{}",
        found.join("\n")
    );
}

#[test]
fn workspace_scan_is_byte_deterministic() {
    let a = dui_lint::to_jsonl(&workspace_report().findings);
    let b = dui_lint::to_jsonl(&workspace_report().findings);
    assert_eq!(a, b);
}

/// The dependency tables of `manifest` that list `dep`, by `[header]`.
fn tables_listing<'a>(manifest: &'a str, dep: &str) -> Vec<&'a str> {
    let names_dep = |s: &str| {
        s.strip_prefix(dep)
            .is_some_and(|rest| rest.starts_with([' ', '.', '=', ']']))
    };
    let mut table = "";
    let mut found = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
            // `[dependencies.dui-bench]` spells the dependency in the header.
            if line
                .rsplit_once("dependencies.")
                .is_some_and(|(_, name)| names_dep(name))
            {
                found.push(table);
            }
        } else if table.contains("dependencies") && names_dep(line) {
            found.push(table);
        }
    }
    found
}

/// `crates/bench/` is exempt from the determinism rules, and the rules
/// look at one file at a time: a library function calling into the
/// harness's clocks would pass them. So no crate but `dui-bench` itself
/// may list `dui-bench` in any dependency table — the call does not
/// compile. The root package, whose `src/` is library code too, names
/// it only where it declares the workspace's crates and for its
/// integration tests.
#[test]
fn no_library_crate_depends_on_the_bench_harness() {
    let probe = "[dependencies]\ndui-core.workspace = true\ndui-benchmark = \"1\"\n\
                 [dev-dependencies]\ndui-bench = { path = \"x\" }\n\
                 [target.'cfg(unix)'.dependencies.dui-bench]\nversion = \"1\"\n";
    assert_eq!(
        tables_listing(probe, "dui-bench"),
        [
            "[dev-dependencies]",
            "[target.'cfg(unix)'.dependencies.dui-bench]"
        ],
        "the manifest reader sees what it is looking for"
    );

    let root = repo_root();
    let mut manifests = vec!["Cargo.toml".to_string()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let name = entry.expect("dir entry").file_name();
        manifests.push(format!("crates/{}/Cargo.toml", name.to_string_lossy()));
    }
    assert!(
        manifests.len() > 2,
        "found no crate manifests under crates/"
    );
    for path in manifests {
        let text =
            std::fs::read_to_string(root.join(&path)).unwrap_or_else(|e| panic!("{path}: {e}"));
        if text.contains("name = \"dui-bench\"") {
            continue;
        }
        let allowed: &[&str] = if path == "Cargo.toml" {
            &["[workspace.dependencies]", "[dev-dependencies]"]
        } else {
            &[]
        };
        let listed: Vec<&str> = tables_listing(&text, "dui-bench")
            .into_iter()
            .filter(|t| !allowed.contains(t))
            .collect();
        assert!(
            listed.is_empty(),
            "{path} lists dui-bench under {listed:?}: the harness is exempt from the determinism \
             rules, so nothing they cover may be able to call it"
        );
    }
}

/// Every crate root the walker finds carries `#![forbid(unsafe_code)]`,
/// asserted through the crate-root rule: the file as it stands has no
/// `docs/missing-deny` finding, and the same file without the attribute
/// (or with it weakened to `deny`) has one — so the rule covers this
/// root, and `workspace_has_no_findings` means what it says for it.
#[test]
fn every_crate_root_forbids_unsafe_code() {
    let sources =
        dui_lint::read_sources(repo_root(), &default_paths()).expect("workspace scan succeeds");
    let roots: Vec<&(String, String)> = sources
        .iter()
        .filter(|(p, _)| p == "src/lib.rs" || p.ends_with("/src/lib.rs"))
        .collect();
    assert!(
        roots.iter().any(|(p, _)| p == "src/lib.rs"),
        "the root package is a crate root"
    );
    assert!(roots.len() > 2, "found no crate roots under crates/");
    let root_findings = |path: &str, src: &str| {
        dui_lint::lint_source(path, src)
            .iter()
            .filter(|f| f.rule == "docs/missing-deny")
            .count()
    };
    for (path, src) in roots {
        assert!(
            src.contains("#![forbid(unsafe_code)]"),
            "{path} lacks #![forbid(unsafe_code)]"
        );
        assert_eq!(root_findings(path, src), 0, "{path}");
        for weakened in ["", "#![deny(unsafe_code)]"] {
            let src = src.replace("#![forbid(unsafe_code)]", weakened);
            assert_eq!(
                root_findings(path, &src),
                1,
                "{path} with the attribute as `{weakened}`"
            );
        }
    }
}

/// `docs/lint.md`'s "The rules" table documents every row of
/// `FILE_RULES` — same ids, same order — and no rule the list lacks.
#[test]
fn docs_document_the_rule_table_id_for_id() {
    let chapter = std::fs::read_to_string(repo_root().join("docs/lint.md")).expect("docs/lint.md");
    let heading = "## The rules";
    let at = chapter
        .find(heading)
        .unwrap_or_else(|| panic!("no '{heading}' in docs/lint.md"));
    let body = &chapter[at + heading.len()..];
    let body = &body[..body.find("\n## ").unwrap_or(body.len())];
    let documented: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .collect();
    let shipped: Vec<&str> = FILE_RULES.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        documented, shipped,
        "docs/lint.md §The rules should list, in order: {shipped:?}"
    );
}
