//! The lint gate as a test, and the guards that keep its declarations
//! honest.
//!
//! Every rule is a rustc or clippy lint declared once: `[workspace.lints]`
//! in the root `Cargo.toml`, the root `clippy.toml`, and the inner
//! `#![deny]` attributes at the library roots and digest modules
//! (docs/lint.md tabulates them). `clippy_gate_is_clean` runs the same
//! command `scripts/verify.sh` runs first, so `cargo test` alone fails on
//! a finding, and `benchmark_package_builds` checks that `ledger/`, which
//! `cargo test --workspace` never compiles, still builds. The other tests
//! check what no lint can see: which manifests opt in, which roots carry
//! the library-only denies, which files are exempt from the clock ban and
//! which crates may name the crate that holds them, that the chapter
//! lists exactly what is declared, that the architecture chapter maps
//! exactly the crates and public modules there are, that the flow pool
//! chapter states the sizes the pool's layout test pins, that the
//! reproduction map states the paper constants the code declares, and
//! that every public item in library code has a caller outside its file
//! (docs/lint.md §Reachability).

use std::collections::{BTreeMap, BTreeSet};
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

/// The benchmark package (`ledger/`, outside the workspace) still builds
/// against the crates' public API: `cargo check --all-targets` of its
/// manifest, in a target directory of its own. The check runs on a copy
/// of `ledger/Cargo.toml` under `target/tmp/` whose path dependencies
/// and binary point back at the repository, so nothing is written under
/// `ledger/`: its `Cargo.lock` is untracked, and `--locked` on a
/// checkout without one refuses to create it.
#[test]
fn benchmark_package_builds() {
    let root = repo_root().display().to_string();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ledger-check");
    std::fs::create_dir_all(&dir).expect("create the check directory");
    let manifest = read("ledger/Cargo.toml").replace("path = \"../", &format!("path = \"{root}/"));
    let manifest =
        format!("{manifest}\n[[bin]]\nname = \"ledger\"\npath = \"{root}/ledger/src/main.rs\"\n");
    std::fs::write(dir.join("Cargo.toml"), manifest).expect("write the manifest copy");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .env("CARGO_TARGET_DIR", dir.join("target"))
        .args(["check", "--offline", "--all-targets", "--manifest-path"])
        .arg(dir.join("Cargo.toml"))
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "ledger/ no longer builds against the workspace (the benchmark's code \
         changes only in a benchmark change; keep the API it calls):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// docs/reproduction-map.md §8 names, for every paper parameter, the one
/// `const` that declares it and its value; each row must read what the
/// constant holds, and every constant must have its row.
#[test]
fn reproduction_map_states_the_paper_constants() {
    use dui::blink::{selector, theory};
    let declared = [
        ("dui_blink::selector::CELLS", selector::CELLS.to_string()),
        (
            "dui_blink::selector::THRESHOLD",
            selector::THRESHOLD.to_string(),
        ),
        (
            "dui_blink::selector::RESET_INTERVAL",
            format!("{} s", selector::RESET_INTERVAL.as_secs_f64()),
        ),
        (
            "dui_blink::theory::FIG2_LEGIT_FLOWS",
            theory::FIG2_LEGIT_FLOWS.to_string(),
        ),
        (
            "dui_blink::theory::FIG2_MALICIOUS_FLOWS",
            theory::FIG2_MALICIOUS_FLOWS.to_string(),
        ),
        (
            "dui_blink::theory::FIG2_T_R",
            format!("{} s", theory::FIG2_T_R),
        ),
        ("dui_blink::theory::FIG2_Q_M", theory::FIG2_Q_M.to_string()),
        (
            "dui_flowgen::caida_like::PREFIX_COUNT",
            dui::flowgen::caida_like::PREFIX_COUNT.to_string(),
        ),
        (
            "dui_pytheas::engine::GAMMA",
            dui::pytheas::engine::GAMMA.to_string(),
        ),
        (
            "dui_pytheas::engine::C",
            dui::pytheas::engine::C.to_string(),
        ),
        (
            "dui_pcc::control::EPS_MIN",
            dui::pcc::control::EPS_MIN.to_string(),
        ),
        (
            "dui_pcc::control::EPS_MAX",
            dui::pcc::control::EPS_MAX.to_string(),
        ),
        (
            "dui_pcc::utility::LOSS_KNEE",
            dui::pcc::utility::LOSS_KNEE.to_string(),
        ),
    ];
    let chapter = read("docs/reproduction-map.md");
    let section = chapter
        .split("## 8. Paper parameters")
        .nth(1)
        .expect("docs/reproduction-map.md has '## 8. Paper parameters'");
    let rows: Vec<(String, String)> = section
        .lines()
        .filter(|l| l.starts_with("| ") && l.contains("| `dui_"))
        .map(|l| {
            let cells: Vec<&str> = l.split('|').map(str::trim).collect();
            (cells[4].trim_matches('`').to_string(), cells[3].to_string())
        })
        .collect();
    let want: Vec<(String, String)> = declared
        .iter()
        .map(|(path, v)| (path.to_string(), v.clone()))
        .collect();
    assert_eq!(
        rows, want,
        "docs/reproduction-map.md §8 rows (const, value)"
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
        [
            "crates/bench/src/bin/experiments.rs",
            "crates/bench/src/harness.rs"
        ],
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

/// The `pub mod` names declared at the top level of a library root,
/// file-backed (`pub mod sim;`) or inline (`pub mod prelude { … }`).
fn pub_mods(lib: &str) -> BTreeSet<String> {
    lib.lines()
        .filter_map(|l| l.strip_prefix("pub mod "))
        .map(|rest| rest.trim_end_matches([';', '{', ' ']).to_string())
        .collect()
}

/// The modules a crate-map "Key modules" cell names: the leading
/// backticked word of each item between top-level commas (commas inside
/// parentheses belong to an item's gloss). Items that open with prose
/// name no module, and file paths such as `bin/experiments.rs` are
/// exempt.
fn mapped_modules(cell: &str) -> BTreeSet<String> {
    let mut items = Vec::new();
    let (mut depth, mut start) = (0i32, 0);
    for (i, c) in cell.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            ',' if depth == 0 => {
                items.push(&cell[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&cell[start..]);
    items
        .iter()
        .filter_map(|item| item.trim().strip_prefix('`')?.split('`').next())
        .filter(|m| !m.contains(['/', '.']))
        .map(str::to_string)
        .collect()
}

/// docs/architecture.md (and the book's contents page) state the crate
/// count in words, and the chapter's crate map has one row per crate
/// whose "Key modules" column names exactly the `pub mod`s of that
/// crate's `lib.rs`: all three follow `crates/`, so folding, adding or
/// deleting a crate or a public module cannot leave the chapter stale.
#[test]
fn architecture_chapter_maps_exactly_the_crates() {
    const WORDS: &str = "zero one two three four five six seven eight nine ten eleven twelve \
                         thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty";
    let crates: BTreeMap<String, BTreeSet<String>> = crate_dirs()
        .iter()
        .map(|d| {
            let name = package_name(&read(&format!("{d}/Cargo.toml"))).to_string();
            (name, pub_mods(&read(&format!("{d}/src/lib.rs"))))
        })
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
    let mapped: BTreeMap<String, BTreeSet<String>> = body
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| {
            let (name, rest) = l.split_once('`')?;
            let cell = rest.splitn(3, '|').nth(2)?.trim_end().trim_end_matches('|');
            Some((name.to_string(), mapped_modules(cell)))
        })
        .collect();
    assert_eq!(
        mapped.keys().collect::<Vec<_>>(),
        crates.keys().collect::<Vec<_>>(),
        "docs/architecture.md §The crates should have one row per crate under crates/"
    );
    let stale: Vec<String> = crates
        .iter()
        .filter(|(name, real)| mapped[*name] != **real)
        .map(|(name, real)| {
            let named = &mapped[name];
            let missing: Vec<&String> = real.difference(named).collect();
            let unknown: Vec<&String> = named.difference(real).collect();
            format!("{name}: missing {missing:?}, no such module {unknown:?}")
        })
        .collect();
    assert!(
        stale.is_empty(),
        "docs/architecture.md §The crates: each row's Key modules should name \
         exactly the crate's `pub mod`s:\n{}",
        stale.join("\n")
    );
}

/// docs/flow-pool.md's Layout block states the pool's sizes as "N B a
/// slot", "N B a row" and "N B a node", and each must be the size the
/// code has. The types are private to `dui-tcp`, so the figures are held
/// to the one place that takes their `size_of`: the tuple `pool.rs`'s
/// `a_slot_carries_only_its_own_kinds_row` asserts. A layout change then
/// fails that unit test until the tuple moves, and this one until the
/// chapter moves with it.
#[test]
fn flow_pool_layout_block_states_the_pinned_sizes() {
    let chapter = read("docs/flow-pool.md");
    let block = chapter
        .split("## Layout")
        .nth(1)
        .and_then(|s| s.split("```").nth(1))
        .expect("docs/flow-pool.md has a code block under '## Layout'");
    // The line each figure sits on, in the order pool.rs pins them.
    let figures = [
        ("slot columns", "a slot"),
        ("sender rows", "a row"),
        ("receiver rows", "a row"),
        ("output slab", "a node"),
        ("retransmission slab", "a node"),
    ];
    let stated: Vec<u64> = figures
        .iter()
        .map(|(label, unit)| {
            let line = block
                .lines()
                .find(|l| l.contains(label))
                .unwrap_or_else(|| panic!("the Layout block has no '{label}' line"));
            let end = line
                .find(&format!(" B {unit}"))
                .unwrap_or_else(|| panic!("'{line}' states no 'N B {unit}'"));
            let n = line[..end].rsplit(' ').next().unwrap_or_default();
            n.parse()
                .unwrap_or_else(|_| panic!("'{n}' in '{line}' is not a size"))
        })
        .collect();
    assert_eq!(
        block.matches(" B a ").count(),
        figures.len(),
        "every 'N B a …' figure in the Layout block should be one of {figures:?}"
    );
    let pool = read("crates/tcp/src/pool.rs");
    let pin = "assert_eq!((slot, sender, receiver, node, rtx), (";
    let at = pool
        .find(pin)
        .expect("pool.rs pins (slot, sender, receiver, node, rtx)")
        + pin.len();
    let pinned: Vec<u64> = pool[at..]
        .split(')')
        .next()
        .unwrap_or_default()
        .split(',')
        .map(|n| n.trim().parse().expect("a pinned size"))
        .collect();
    assert_eq!(
        stated, pinned,
        "docs/flow-pool.md's Layout block should state the (slot, sender row, \
         receiver row, packet node, retransmission node) sizes pool.rs pins"
    );
}

/// The type a field list `wire_struct!(Type {` (or `wire_struct!(enum
/// Type {`) on `line` describes.
fn field_list(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("wire_struct!(")?;
    let rest = rest.strip_prefix("enum ").unwrap_or(rest);
    rest.split_once(" {").map(|(ty, _)| ty)
}

/// Whether `src` defines `item`: `Type::member` is a `fn` or `const`
/// named `member` inside an `impl` block of `Type` (inherent or trait),
/// or `Type`'s encoder `put` or decoder `take` where a field list
/// declares them; a bare name is a top-level `fn`.
fn defines(src: &str, item: &str) -> bool {
    let declares = |line: &str, name: &str| {
        ["fn ", "const "].iter().any(|kw| {
            line.split(kw).skip(1).any(|rest| {
                rest.strip_prefix(name)
                    .is_some_and(|tail| tail.starts_with(['(', '<', ':']))
            })
        })
    };
    let Some((ty, member)) = item.split_once("::") else {
        return src
            .lines()
            .any(|l| !l.starts_with(' ') && declares(l, item));
    };
    if ["put", "take"].contains(&member) && src.lines().any(|l| field_list(l) == Some(ty)) {
        return true;
    }
    let mut lines = src.lines();
    while let Some(line) = lines.next() {
        let Some(header) = line.strip_prefix("impl") else {
            continue;
        };
        // The implemented type is the header's last path segment once
        // generic arguments are dropped: `impl<T> NodeLogic for Wrap<T> {`.
        let (mut depth, mut bare) = (0, String::new());
        for c in header.trim_end_matches('{').chars() {
            match c {
                '<' => depth += 1,
                '>' => depth -= 1,
                _ if depth == 0 => bare.push(c),
                _ => {}
            }
        }
        let implemented = bare.split_whitespace().last().unwrap_or_default();
        let body = lines.by_ref().take_while(|l| *l != "}");
        if implemented.rsplit("::").next() == Some(ty)
            && body.into_iter().any(|l| declares(l, member))
        {
            return true;
        }
    }
    false
}

/// docs/determinism.md's "Digest coverage" table names each encoder with
/// the module it lives in — the items in a row's Encoder cell belong to
/// the next `dui_…` path after them — and every one is defined there.
#[test]
fn digest_coverage_names_encoders_where_they_live() {
    let chapter = read("docs/determinism.md");
    let section = chapter
        .split("## Digest coverage")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .expect("docs/determinism.md has a '## Digest coverage' section");
    let mut named = 0;
    for row in section
        .lines()
        .filter(|l| l.starts_with("| `"))
        .take_while(|l| l.split('|').count() == 5)
    {
        let cell = row.split('|').nth(2).unwrap_or_default();
        let mut items: Vec<&str> = Vec::new();
        for code in cell.split('`').skip(1).step_by(2) {
            let Some(module) = code.strip_prefix("dui_") else {
                items.push(code);
                continue;
            };
            let (krate, path) = module.split_once("::").unwrap_or((module, "lib"));
            let base = format!("crates/{krate}/src/{}", path.replace("::", "/"));
            let file = [format!("{base}.rs"), format!("{base}/mod.rs")]
                .into_iter()
                .find(|f| repo_root().join(f).is_file())
                .unwrap_or_else(|| panic!("{code} (in '{row}') is no module: no {base}.rs"));
            let src = read(&file);
            for item in items.drain(..) {
                assert!(
                    defines(&src, item),
                    "{item} is not defined in {file} ('{row}')"
                );
                named += 1;
            }
        }
        assert!(
            items.is_empty(),
            "{items:?} in '{row}' name no module after them"
        );
    }
    assert!(
        named >= 10,
        "the coverage table named only {named} encoders"
    );
}

/// Every `impl` of an engine trait object in library code (outside its
/// file's `#[cfg(test)] mod tests`) names its type in the first column
/// of docs/determinism.md's "Digest coverage" table: no logic, program,
/// rewriter, tap or flow source reaches the state hash unlisted.
#[test]
fn every_engine_trait_impl_has_a_coverage_row() {
    const TRAITS: [&str; 5] = [
        "NodeLogic",
        "DataPlaneProgram",
        "IcmpRewriter",
        "LinkTap",
        "FlowSource",
    ];
    let chapter = read("docs/determinism.md");
    let section = chapter
        .split("## Digest coverage")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .expect("docs/determinism.md has a '## Digest coverage' section");
    let listed: BTreeSet<&str> = section
        .lines()
        .filter(|l| l.starts_with("| `"))
        .filter_map(|l| l.split('|').nth(1))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .collect();
    let mut impls = 0;
    for dir in crate_dirs() {
        let mut files = Vec::new();
        rust_files(&format!("{dir}/src"), &mut files);
        for path in files {
            let src = read(&path);
            let lib = src
                .split("#[cfg(test)]\nmod tests")
                .next()
                .unwrap_or_default();
            for header in lib.lines().filter_map(|l| l.strip_prefix("impl")) {
                let Some((tr, ty)) = header.split_once(" for ") else {
                    continue;
                };
                let tr = tr.split_whitespace().last().unwrap_or_default();
                if !TRAITS.contains(&tr.rsplit("::").next().unwrap_or_default()) {
                    continue;
                }
                let ty = ty.trim_end_matches('{').trim();
                let ty = ty.split('<').next().unwrap_or_default();
                assert!(
                    listed.contains(ty),
                    "{path}: `impl {tr} for {ty}` has no row in docs/determinism.md's \
                     \"Digest coverage\" table"
                );
                impls += 1;
            }
        }
    }
    assert!(impls >= 18, "found only {impls} engine trait impls");
}

/// Every field list in library code (outside its file's
/// `#[cfg(test)] mod tests`) has a row in the round-trip table
/// `WIRE_SHAPES` of `crates/replay/tests/oracle.rs`, so no shape's
/// encoder and decoder go untested against each other.
#[test]
fn every_field_list_has_a_round_trip_row() {
    let oracle = read("crates/replay/tests/oracle.rs");
    let table = oracle
        .split("const WIRE_SHAPES")
        .nth(1)
        .and_then(|s| s.split("];").next())
        .expect("oracle.rs declares the WIRE_SHAPES table");
    let mut lists = 0;
    for path in library_sources() {
        let src = read(&path);
        let lib = src
            .split("#[cfg(test)]\nmod tests")
            .next()
            .unwrap_or_default();
        for ty in lib.lines().filter_map(field_list) {
            assert!(
                table.contains(&format!("round_trips::<{ty}>")),
                "{path}: the field list of `{ty}` has no row in oracle.rs's WIRE_SHAPES"
            );
            lists += 1;
        }
    }
    assert!(lists >= 20, "found only {lists} field lists");
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

/// Public items that fail the reachability lint and stay, as `(file,
/// name, reason)`. A row goes when its item does or when a caller
/// appears: `every_public_item_has_a_caller` fails on a stale row.
const KEPT: &[(&str, &str, &str)] = &[
    (
        "crates/survey/src/ron.rs",
        "set_true_path",
        "the one writer of RON's ground-truth paths: ron.rs's unit tests \
         genuine_failure_recovered_via_relay and latency_tiebreak_prefers_faster_relay \
         set up genuine loss and delay with it, and a test-local copy would write the \
         overlay's private fields",
    ),
    (
        "crates/survey/src/ron.rs",
        "true_delivery",
        "the one reader of RON's ground-truth paths: ron.rs's unit tests \
         healthy_overlay_routes_direct and genuine_failure_recovered_via_relay check \
         routing around genuine loss with it, and a test-local copy would read the \
         overlay's private fields",
    ),
];

/// Whether `line` (trimmed) opens a re-export or a module declaration,
/// `pub use …` or `pub mod …` (with any visibility restriction): a name
/// there exports an item, it does not use it.
fn reexports(line: &str) -> bool {
    let Some(rest) = line.strip_prefix("pub") else {
        return false;
    };
    let rest = match rest.strip_prefix('(') {
        Some(inner) => inner.split_once(')').map_or("", |(_, r)| r),
        None => rest,
    };
    rest.starts_with(" use ") || rest.starts_with(" mod ")
}

/// The identifiers in `text`, in order.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The public item `line` (trimmed) declares, as (`is_type`, name):
/// `pub fn`, `pub const fn`, `pub const`, `pub static`, `pub struct`,
/// `pub enum`, `pub trait` or `pub type`. `pub(crate)` and narrower items
/// are not public.
fn public_item(line: &str) -> Option<(bool, &str)> {
    let rest = line.strip_prefix("pub ")?;
    let rest = rest
        .strip_prefix("const ")
        .filter(|r| r.starts_with("fn "))
        .unwrap_or(rest);
    let (kw, rest) = rest.split_once(' ')?;
    let is_type = match kw {
        "fn" | "const" | "static" => false,
        "struct" | "enum" | "trait" | "type" => true,
        _ => return None,
    };
    let name = identifiers(rest).next()?;
    rest.starts_with(name).then_some((is_type, name))
}

/// The identifiers an `impl` header names outside generic arguments: the
/// implemented type and the trait, which do not count as a use of either.
fn impl_header_names(line: &str) -> BTreeSet<String> {
    let (mut depth, mut bare) = (0, String::new());
    for c in line.chars() {
        match c {
            '<' => depth += 1,
            '>' => depth -= 1,
            _ if depth == 0 => bare.push(c),
            _ => {}
        }
    }
    identifiers(&bare).map(str::to_string).collect()
}

/// `line` with its string literals' contents and any trailing comment
/// blanked, except an identifier right after a `{` in a string (an
/// inline format argument). `in_str` carries a string that runs on past
/// the end of the line.
fn blank_strings(line: &str, in_str: &mut bool) -> String {
    let c: Vec<char> = line.chars().collect();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < c.len() {
        let (ch, next) = (c[i], c.get(i + 1).copied());
        i += 1;
        if *in_str {
            match ch {
                '\\' => i += 1,
                '"' => *in_str = false,
                '{' => {
                    while c
                        .get(i)
                        .is_some_and(|d| d.is_ascii_alphanumeric() || *d == '_')
                    {
                        out.push(c[i]);
                        i += 1;
                    }
                }
                _ => {}
            }
            out.push(' ');
            continue;
        }
        match (ch, next) {
            ('"', _) => {
                *in_str = true;
                out.push(' ');
            }
            ('/', Some('/')) => break,
            // A character literal: `'"'`, or an escape such as `'\''`.
            ('\'', Some('\\')) => i += 3,
            ('\'', _) if c.get(i + 1) == Some(&'\'') => i += 2,
            _ => out.push(ch),
        }
    }
    out
}

/// The reachability scan over `(path, source, is_library)` files: every
/// public item in the library part (above `mod tests`) of a library file
/// that no other file names, as `path: name`. A name counts where code
/// names it; comments (doc-tests among them), string literals and
/// `pub use` / `pub mod` statements do not. A type or trait also counts
/// as named when its own file's library part names it outside its
/// definition line and the `impl` headers. Each file is tokenised once.
fn unreached(files: &[(&str, &str, bool)]) -> Vec<String> {
    // In how many files each identifier appears.
    let mut spread: BTreeMap<String, usize> = BTreeMap::new();
    let mut scans = Vec::new();
    for (path, src, is_library) in files {
        let (mut named, mut own, mut items) = (BTreeSet::new(), BTreeSet::new(), Vec::new());
        let (mut in_tests, mut in_reexport, mut in_str) = (false, false, false);
        for line in code_lines(src).lines() {
            in_tests |= line.starts_with("mod tests");
            let line = blank_strings(line, &mut in_str);
            let trimmed = line.trim_start();
            if in_reexport || reexports(trimmed) {
                in_reexport = !trimmed.contains(';');
                continue;
            }
            named.extend(identifiers(&line).map(str::to_string));
            if !is_library || in_tests {
                continue;
            }
            let item = public_item(trimmed);
            let skip = if trimmed.starts_with("impl") {
                impl_header_names(trimmed)
            } else {
                item.iter().map(|&(_, name)| name.to_string()).collect()
            };
            own.extend(
                identifiers(&line)
                    .filter(|w| !skip.contains(*w))
                    .map(str::to_string),
            );
            items.extend(item.map(|(is_type, name)| (is_type, name.to_string())));
        }
        for w in &named {
            *spread.entry(w.clone()).or_default() += 1;
        }
        scans.push((path, named, own, items));
    }
    let mut out = Vec::new();
    for (path, named, own, items) in &scans {
        for (is_type, name) in items {
            let elsewhere = spread[name] > usize::from(named.contains(name));
            if !(elsewhere || *is_type && own.contains(name)) {
                out.push(format!("{path}: {name}"));
            }
        }
    }
    out
}

#[test]
fn the_reachability_scan_sees_only_code_callers() {
    let lib = "pub fn lonely() {}\n\
               pub fn documented() {}\n\
               pub fn self_tested() {}\n\
               pub fn reexported() {}\n\
               pub fn benchmarked() {}\n\
               pub fn called() {}\n\
               pub fn quoted() {}\n\
               pub const FORMATTED: u8 = 1;\n\
               pub struct Shown;\n\
               pub struct Hidden;\n\
               impl Hidden {}\n\
               pub fn show() -> Shown { Shown }\n\
               #[cfg(test)]\n\
               mod tests {\n    fn t() { super::self_tested(); super::lonely(); }\n}\n";
    let other = "/// `documented()` is in a doc comment.\n\
                 // documented\n\
                 pub use crate::a::{\n    reexported,\n};\n\
                 fn f() { crate::a::called(); crate::a::show(); }\n\
                 fn g() { println!(\"quoted {FORMATTED}\"); }\n";
    let ledger = "fn main() { dui::benchmarked(); }\n";
    let files = [
        ("crates/x/src/a.rs", lib, true),
        ("crates/x/src/b.rs", other, true),
        ("ledger/src/main.rs", ledger, false),
    ];
    assert_eq!(
        unreached(&files),
        [
            "crates/x/src/a.rs: lonely",
            "crates/x/src/a.rs: documented",
            "crates/x/src/a.rs: self_tested",
            "crates/x/src/a.rs: reexported",
            "crates/x/src/a.rs: quoted",
            "crates/x/src/a.rs: Hidden",
        ]
    );
}

/// Every public item in library code is named by code in another file —
/// library code, the `experiments` binary, `tests/`, a crate's tests or
/// benches, `examples/` or the benchmark package's `ledger/src` — or has
/// a `KEPT` row saying why it stays. rustc's `dead_code` lint stays
/// silent on a `pub` item; this finds the ones nothing calls.
#[test]
fn every_public_item_has_a_caller() {
    let library = library_sources();
    let mut users = Vec::new();
    for dir in ["tests", "examples", "ledger/src"] {
        if repo_root().join(dir).is_dir() {
            rust_files(dir, &mut users);
        }
    }
    for krate in crate_dirs() {
        for dir in ["tests", "benches"] {
            let dir = format!("{krate}/{dir}");
            if repo_root().join(&dir).is_dir() {
                rust_files(&dir, &mut users);
            }
        }
    }
    let texts: Vec<(String, String, bool)> = library
        .into_iter()
        .map(|p| (p, true))
        .chain(users.into_iter().map(|p| (p, false)))
        .map(|(p, lib)| {
            let text = read(&p);
            (p, text, lib)
        })
        .collect();
    let files: Vec<(&str, &str, bool)> = texts
        .iter()
        .map(|(p, t, lib)| (p.as_str(), t.as_str(), *lib))
        .collect();
    let found = unreached(&files);
    let kept: Vec<String> = KEPT
        .iter()
        .map(|(file, name, _)| format!("{file}: {name}"))
        .collect();
    let uncalled: Vec<&String> = found.iter().filter(|f| !kept.contains(f)).collect();
    assert!(
        uncalled.is_empty(),
        "public items that no other file's code names (make each private if \
         its own file calls it, delete it otherwise, or give it a KEPT row):\n{}",
        uncalled
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let stale: Vec<&String> = kept.iter().filter(|k| !found.contains(k)).collect();
    assert!(
        stale.is_empty(),
        "KEPT rows whose item is gone or now has a caller: {stale:?}"
    );
}
