//! The `experiments scenario` contract: the verdict CSV is a pure
//! function of the corpus — `--jobs` must never leak into the bytes —
//! and the recovery expectations really are wired to healing (a flap
//! that never heals fails its `recovery_within`).

use std::path::PathBuf;

use dui_bench::scenario::{collect_files, load, run_corpus};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf()
}

fn examples_dir() -> PathBuf {
    workspace_root().join("examples/scenarios")
}

/// The benchmark's `dsc_corpus` workload runs a frozen copy of the
/// shipped corpus: same 16 file names, same bytes.
#[test]
fn ledger_corpus_is_the_examples_corpus() {
    let name_of = |p: &PathBuf| p.file_name().unwrap().to_string_lossy().into_owned();
    let examples = collect_files(&examples_dir()).expect("corpus listable");
    let frozen =
        collect_files(&workspace_root().join("ledger/corpus")).expect("frozen corpus listable");
    assert_eq!(examples.len(), 16, "the shipped corpus has 16 scenarios");
    assert_eq!(
        frozen.iter().map(name_of).collect::<Vec<_>>(),
        examples.iter().map(name_of).collect::<Vec<_>>(),
        "file names differ"
    );
    for (ours, theirs) in examples.iter().zip(&frozen) {
        assert!(
            std::fs::read(ours).expect("readable") == std::fs::read(theirs).expect("readable"),
            "{} differs from {}",
            theirs.display(),
            ours.display()
        );
    }
}

/// A fast slice of the shipped corpus run at `--jobs 1` and `--jobs 4`:
/// the CSV must be byte-identical and every check must pass.
#[test]
fn jobs_do_not_change_the_csv() {
    let files: Vec<PathBuf> = collect_files(&examples_dir())
        .expect("corpus listable")
        .into_iter()
        .filter(|p| {
            let n = p.file_name().unwrap().to_string_lossy().into_owned();
            n == "linear_flap.dsc" || n == "ring_churn.dsc" || n == "tcp_bounce.dsc"
        })
        .collect();
    assert_eq!(files.len(), 3, "expected the three fast tcp scenarios");
    let compiled = load(&files).expect("corpus compiles");
    let serial = run_corpus(&compiled, 1);
    let parallel = run_corpus(&compiled, 4);
    assert_eq!(serial.failed, 0, "corpus slice failed:\n{}", serial.text);
    assert_eq!(
        serial.csv.to_csv(),
        parallel.csv.to_csv(),
        "--jobs changed the verdict CSV bytes"
    );
}

/// If healing were broken the chaos scenarios would notice: a flap whose
/// down time extends past the horizon (so the heal never happens) must
/// fail `recovery_within` — the expectation is wired to the heal edge,
/// not vacuously true.
#[test]
fn recovery_expectation_fails_without_healing() {
    let text = "\
[scenario]
name = never_heals
seed = 5
[topology]
kind = linear
nodes = 4
[workload]
kind = tcp
flows = 16
src = h0
dst = h3
horizon = 24s
[chaos]
link_flap = r1-r2 at=8s down=60s
[expect]
recovery_within = 5s
";
    let sc = dui_scenario::parse_str("never_heals.dsc", text).expect("parses");
    let report = dui_scenario::compile(&sc).expect("compiles").run();
    let rec = report
        .checks
        .iter()
        .find(|c| c.label.starts_with("recovery_within"))
        .expect("recovery check present");
    assert!(
        !rec.pass,
        "recovery_within passed even though the link never healed: {}",
        rec.detail
    );
    assert!(
        rec.detail.contains("no heal before horizon"),
        "unexpected detail: {}",
        rec.detail
    );
}
