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
            !w.is_empty()
                && w.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
        });
        assert!(kebab, "stage name '{}' is not kebab-case", s.name);
        assert!(
            names.insert(s.name),
            "stage name '{}' appears twice",
            s.name
        );
        assert!(
            !s.claim.is_empty() && !s.about.is_empty(),
            "{}: empty claim or about",
            s.name
        );
        assert!(
            !s.outputs.is_empty(),
            "{}: a stage emits at least one file",
            s.name
        );
        for file in s.outputs {
            assert!(files.insert(file), "'{file}' is declared by two rows");
        }
    }
}

fn ticked(items: impl IntoIterator<Item = &'static str>) -> String {
    let cells: Vec<String> = items.into_iter().map(|i| format!("`{i}`")).collect();
    if cells.is_empty() {
        "—".to_string()
    } else {
        cells.join(" ")
    }
}

fn stage_doc_row(s: &Stage) -> String {
    format!(
        "| `{}` | {} | {} | {} | {} |",
        s.name,
        s.claim,
        s.about,
        ticked(s.jobs.then_some("--jobs")),
        ticked(s.outputs.iter().copied()),
    )
}

/// `docs/operations.md` documents every row of `STAGES` and every
/// output file — in table order, with its claim, flags and outputs,
/// and each file beside the stage that emits it — and no row the table
/// lacks. A failure prints the rows to paste.
#[test]
fn docs_document_the_stage_table_row_for_row() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let chapter = std::fs::read_to_string(root.join("docs/operations.md")).unwrap();
    let outputs = STAGES.iter().flat_map(|s| {
        s.outputs
            .iter()
            .map(move |file| format!("| `{file}` | `{}` |", s.name))
    });
    let tables: [(&str, Vec<String>); 2] = [
        ("## Stages", STAGES.iter().map(stage_doc_row).collect()),
        ("## Stage outputs", outputs.collect()),
    ];
    for (heading, expected) in tables {
        let at = chapter
            .find(heading)
            .unwrap_or_else(|| panic!("no '{heading}' in docs/operations.md"));
        let body = &chapter[at + heading.len()..];
        let body = &body[..body.find("\n## ").unwrap_or(body.len())];
        let documented: Vec<&str> = body.lines().filter(|l| l.starts_with("| `")).collect();
        assert_eq!(
            documented,
            expected,
            "{heading} should read:\n{}\n",
            expected.join("\n")
        );
    }
}

/// The subcommand lines of `experiments --help`, without the `usage:`
/// label and the indent.
fn synopsis() -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--help")
        .output()
        .unwrap();
    let usage = String::from_utf8(out.stderr).unwrap();
    usage
        .lines()
        .map(|l| l.strip_prefix("usage:").unwrap_or(l).trim())
        .filter(|l| l.starts_with("experiments"))
        .map(str::to_string)
        .collect()
}

/// docs/operations.md's fenced synopsis is the CLI's usage text, line
/// for line, and every flag its flag table explains is one the usage
/// offers.
#[test]
fn docs_synopsis_and_flag_table_match_the_usage() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let chapter = std::fs::read_to_string(root.join("docs/operations.md")).unwrap();
    let usage = synopsis();
    let at = chapter
        .find("## The `experiments` CLI")
        .expect("CLI section");
    let section = &chapter[at..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    let fence = section.find("```\n").expect("fenced synopsis") + 4;
    let block: Vec<&str> = section[fence..section[fence..].find("```").unwrap() + fence]
        .lines()
        .collect();
    assert_eq!(
        block,
        usage,
        "docs/operations.md's synopsis should read:\n{}\n",
        usage.join("\n")
    );
    let flags: Vec<&str> = section
        .lines()
        .filter(|l| l.starts_with("| `"))
        .filter_map(|l| l.split('|').nth(1))
        .flat_map(|cell| cell.split([' ', '`', '=']))
        .filter(|w| w.starts_with("--"))
        .collect();
    assert!(
        flags.contains(&"--jobs") && flags.contains(&"--resume"),
        "{flags:?}"
    );
    for flag in flags {
        let offered = usage
            .iter()
            .any(|l| l.split([' ', '[', ']']).any(|w| w == flag));
        assert!(
            offered,
            "the flag table explains {flag}, which `experiments --help` does not offer"
        );
    }
}

#[test]
fn cli_usage_and_errors_come_from_the_tables() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .unwrap()
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
    assert_eq!(
        stages,
        STAGES.iter().map(|s| s.name).collect::<Vec<_>>(),
        "{usage}"
    );
    assert_eq!(stages.len(), 13, "{usage}");
    for r in RECORDINGS {
        assert!(
            listed("recordable:").contains(&r.name),
            "usage omits '{}':\n{usage}",
            r.name
        );
    }
    let (code, unknown) = experiments(&["no-such-stage"]);
    assert_eq!(code, Some(2));
    assert!(
        unknown.starts_with("unknown experiment 'no-such-stage'. Available: "),
        "{unknown}"
    );
    assert!(
        STAGES
            .iter()
            .all(|s| unknown.split(' ').any(|w| w == s.name)),
        "{unknown}"
    );
    // The retired engine flag, spelled in halves so that a grep of this
    // crate for it finds nothing that still drives the sharded engine.
    let sharded = concat!("--sim", "-threads");
    // The gate names what it compared, and `--jobs` is all it varies.
    let gate = run(&["verify-determinism", "fig2-rates", "survey"]).stdout;
    let gate = String::from_utf8(gate).unwrap();
    let lines: Vec<&str> = gate.lines().take(2).collect();
    assert!(
        lines[0].starts_with("fig2-rates       same bytes run to run: OK ("),
        "{gate}"
    );
    assert!(lines[1].starts_with("survey           same bytes run to run, across --jobs: OK ("));
    assert!(
        !gate.contains(sharded) && !usage.contains(sharded),
        "{gate}{usage}"
    );
    // Retired flags are refused, not ignored: the supervisord stage
    // sweeps its worker counts itself, and every stage and scenario
    // runs the sequential engine.
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let inline = format!("{sharded}=2");
    // So are the record/replay flags that only restated a default.
    for args in [
        &["--workers", "2"][..],
        &[sharded, "2"],
        &["blink-packet", &inline],
        &["scenario", corpus, sharded, "2"],
        &["record", "fig2-small", "--out", "fig2.duir"],
        &["record", "fig2-small", "--ckpt-every", "5"],
        &["replay", "results/fig2-small.duir", "--check"],
    ] {
        assert_eq!(experiments(args), (Some(2), usage.clone()), "{args:?}");
    }
}

/// A recording from before the digest fold changed is refused by its
/// version, not replayed into a misleading divergence.
#[test]
fn replay_refuses_a_version_1_recording() {
    let mut bytes = dui_core::replay::Recording {
        stage: "fig2-small".into(),
        ..Default::default()
    }
    .to_bytes();
    for version in [1, 2] {
        bytes[dui_core::replay::record::MAGIC.len()] = version;
        let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("version-{version}.duir"));
        std::fs::write(&file, &bytes).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["replay".as_ref(), file.as_os_str()])
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains("recording version: undefined tag"),
            "{stderr}"
        );
    }
}
