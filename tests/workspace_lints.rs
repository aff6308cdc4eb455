//! The lint gate as a test, and the guards that keep its declarations
//! honest.
//!
//! Every rule is a rustc or clippy lint declared once: `[workspace.lints]`
//! in the root `Cargo.toml`, the root `clippy.toml`, and the inner
//! `#![deny]` attributes at the library roots and digest modules
//! (docs/lint.md tabulates them). `clippy_gate_is_clean` runs the same
//! command `scripts/verify.sh` runs first, so `cargo test` alone fails on
//! a finding. The other tests check what no lint can see: which manifests
//! opt in, which roots carry the library-only denies, which files are
//! exempt from the clock ban and which crates may name the crate that
//! holds them, that the chapter lists
//! exactly what is declared, and that the architecture chapter maps
//! exactly the crates there are.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// `crates/<name>` for every directory under `crates/`, sorted.
fn crate_dirs() -> Vec<String> {
    let mut dirs: Vec<String> = std::fs::read_dir(repo_root().join("crates"))
        .expect("crates/ is readable")
        .map(|e| {
            format!(
                "crates/{}",
                e.expect("dir entry").file_name().to_string_lossy()
            )
        })
        .collect();
    dirs.sort();
    assert!(dirs.len() > 2, "found no crates under crates/");
    dirs
}

/// Every workspace member's manifest: the root package and each crate.
fn manifests() -> Vec<String> {
    let mut all = vec!["Cargo.toml".to_string()];
    all.extend(crate_dirs().into_iter().map(|d| format!("{d}/Cargo.toml")));
    all
}

/// Every library crate root: the root package's and each crate's.
fn library_roots() -> Vec<String> {
    let mut all = vec!["src/lib.rs".to_string()];
    all.extend(crate_dirs().into_iter().map(|d| format!("{d}/src/lib.rs")));
    all
}

/// Every `.rs` file under a `src/` directory: the root package's and
/// each crate's.
fn library_sources() -> Vec<String> {
    let mut all = Vec::new();
    rust_files("src", &mut all);
    for dir in crate_dirs() {
        rust_files(&format!("{dir}/src"), &mut all);
    }
    all
}

/// Every `.rs` file under `dir` (repo-relative), recursively.
fn rust_files(dir: &str, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(repo_root().join(dir)).unwrap_or_else(|e| panic!("{dir}: {e}")) {
        let entry = entry.expect("dir entry");
        let rel = format!("{dir}/{}", entry.file_name().to_string_lossy());
        if entry.file_type().expect("file type").is_dir() {
            rust_files(&rel, out);
        } else if rel.ends_with(".rs") {
            out.push(rel);
        }
    }
}

/// The keys of TOML table `[header]` in `manifest`, in order.
fn table_keys<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
    let mut in_table = false;
    let mut keys = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == header;
        } else if in_table {
            if let Some((key, _)) = line.split_once('=') {
                keys.push(key.trim());
            }
        }
    }
    keys
}

/// `src` without its comment lines.
fn code_lines(src: &str) -> String {
    src.lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The lint names of every `#![deny(...)]` in `src`'s code.
fn inner_denies(src: &str) -> Vec<String> {
    let code = code_lines(src);
    let mut names = Vec::new();
    let mut rest = code.as_str();
    while let Some(at) = rest.find("#![deny(") {
        rest = &rest[at + "#![deny(".len()..];
        let end = rest.find(")]").expect("a #![deny( closes");
        names.extend(
            rest[..end]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string),
        );
        rest = &rest[end..];
    }
    names
}

/// `cargo clippy --offline --workspace --all-targets -- -D warnings`, the
/// gate `scripts/verify.sh` runs first, in a target directory of its own
/// so it neither waits on nor invalidates the build that runs this test.
#[test]
fn clippy_gate_is_clean() {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(repo_root())
        .env(
            "CARGO_TARGET_DIR",
            Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-gate"),
        )
        .args([
            "clippy",
            "--offline",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ])
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "the clippy gate failed (fix the finding, or state the invariant in an \
         #[expect(…, reason = \"…\")] — docs/lint.md):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A member without `[lints] workspace = true` would build with none of
/// the workspace's lints, silently.
#[test]
fn every_member_opts_into_the_workspace_lints() {
    for path in manifests() {
        assert!(
            read(&path).contains("\n[lints]\nworkspace = true\n"),
            "{path} needs `[lints] workspace = true`"
        );
    }
}

/// The panic lints cover library code only (tests and benches assert
/// freely), so they are an inner attribute at each library root rather
/// than a workspace lint. `unsafe_code` is a workspace lint at `deny`,
/// not `forbid`, so that the counting-allocator tests can expect it; no
/// library source may.
#[test]
fn every_library_root_denies_panics_and_no_library_expects_unsafe() {
    const PANIC_DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
    for root in library_roots() {
        assert!(
            read(&root).contains(PANIC_DENY),
            "{root} lacks `{PANIC_DENY}`"
        );
    }
    for path in library_sources() {
        assert!(
            !code_lines(&read(&path)).contains("unsafe_code"),
            "{path} names `unsafe_code`"
        );
    }
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

/// Three `crates/bench/` files are exempt from the clock ban, and a lint
/// looks at one call at a time: a library function calling into the
/// harness's clocks would pass it. So no crate but `dui-bench` itself may
/// list `dui-bench` in any dependency table — the call does not compile. The root
/// package, whose `src/` is library code too, names it only where it
/// declares the workspace's crates and for its integration tests.
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

    for path in manifests() {
        let text = read(&path);
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
            "{path} lists dui-bench under {listed:?}: the harness is exempt from the clock \
             ban, so nothing the ban covers may be able to call it"
        );
    }
}

/// The clock lints are expected, each at its own module root, by exactly
/// the two files that read the wall clock: the microbench timer and the
/// `experiments` binary. An expectation
/// anywhere else — a crate root, a stage — would let a clock read there
/// pass the gate. (`disallowed_types` names the clock types; the
/// byte-conversion escapes expect only `disallowed_methods`.)
#[test]
fn clock_reads_are_confined_to_two_bench_modules() {
    let mut files = Vec::new();
    for dir in ["src", "tests"] {
        rust_files(dir, &mut files);
    }
    for krate in crate_dirs() {
        for dir in ["src", "tests", "benches"] {
            let dir = format!("{krate}/{dir}");
            if repo_root().join(&dir).is_dir() {
                rust_files(&dir, &mut files);
            }
        }
    }
    // Spelled in halves so that this file does not match itself.
    let needle = concat!("clippy::", "disallowed_types");
    let mut exempt: Vec<String> = files
        .into_iter()
        .filter(|f| code_lines(&read(f)).contains(needle))
        .collect();
    exempt.sort();
    assert_eq!(
        exempt,
        ["crates/bench/src/bin/experiments.rs", "crates/bench/src/harness.rs"],
        "only the wall-clock readers may expect the clock lints"
    );
}

/// The `name` of a crate manifest's `[package]`.
fn package_name(manifest: &str) -> &str {
    manifest
        .lines()
        .find_map(|l| l.strip_prefix("name = \""))
        .and_then(|rest| rest.split('"').next())
        .expect("a package name")
}

/// docs/architecture.md (and the book's contents page) state the crate
/// count in words, and the chapter's crate map has one row per crate:
/// both follow `crates/`, so folding, adding or deleting a crate cannot
/// leave the chapter stale.
#[test]
fn architecture_chapter_maps_exactly_the_crates() {
    const WORDS: &str = "zero one two three four five six seven eight nine ten eleven twelve \
                         thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty";
    let crates: BTreeSet<String> = crate_dirs()
        .iter()
        .map(|d| package_name(&read(&format!("{d}/Cargo.toml"))).to_string())
        .collect();
    let count = WORDS
        .split_whitespace()
        .nth(crates.len())
        .unwrap_or_else(|| panic!("{} crates: extend WORDS", crates.len()));
    for doc in ["docs/architecture.md", "docs/README.md"] {
        assert!(
            read(doc).contains(&format!("{count} crates")),
            "{doc} should say the workspace has {count} crates"
        );
    }

    let chapter = read("docs/architecture.md");
    let heading = "## The crates";
    let at = chapter
        .find(heading)
        .unwrap_or_else(|| panic!("no '{heading}' in docs/architecture.md"));
    let body = &chapter[at + heading.len()..];
    let body = &body[..body.find("\n## ").unwrap_or(body.len())];
    let mapped: BTreeSet<String> = body
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .map(str::to_string)
        .collect();
    assert_eq!(
        mapped, crates,
        "docs/architecture.md §The crates should have one row per crate under crates/"
    );
}

/// docs/lint.md's "The lints" table has one row per declared lint —
/// `[workspace.lints]`, and every `#![deny]` under a `src/` directory —
/// and no other; every path `clippy.toml` disallows is named in the
/// chapter.
#[test]
fn docs_list_exactly_the_declared_lints() {
    let manifest = read("Cargo.toml");
    let mut declared: BTreeSet<String> = BTreeSet::new();
    declared.extend(
        table_keys(&manifest, "[workspace.lints.rust]")
            .into_iter()
            .map(str::to_string),
    );
    declared.extend(
        table_keys(&manifest, "[workspace.lints.clippy]")
            .into_iter()
            .map(|k| format!("clippy::{k}")),
    );
    for path in library_sources() {
        declared.extend(inner_denies(&read(&path)));
    }

    let chapter = read("docs/lint.md");
    let heading = "## The lints";
    let at = chapter
        .find(heading)
        .unwrap_or_else(|| panic!("no '{heading}' in docs/lint.md"));
    let body = &chapter[at + heading.len()..];
    let body = &body[..body.find("\n## ").unwrap_or(body.len())];
    let documented: BTreeSet<String> = body
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .map(str::to_string)
        .collect();
    assert_eq!(
        documented, declared,
        "docs/lint.md §The lints should have one row per declared lint"
    );

    for line in read("clippy.toml").lines() {
        if let Some((_, rest)) = line.split_once("path = \"") {
            let path = rest.split('"').next().expect("a quoted path");
            assert!(
                chapter.contains(&format!("`{path}`")),
                "docs/lint.md does not name clippy.toml's `{path}`"
            );
        }
    }
}
