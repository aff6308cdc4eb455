//! The harness's central guarantee: `--jobs N` changes wall-clock time
//! only. These tests run reduced-size stages at jobs=1 and jobs=4 and
//! byte-compare every CSV (and the printed report), hold every light
//! row of `STAGES` to the whole contract through `verify_determinism`
//! (the heavy rows run under `experiments verify-determinism` in
//! `scripts/verify.sh`), and test that gate itself on fake rows.

use dui_bench::recordings::build_subject;
use dui_bench::stages::{
    blink_sweep_with, fig2_with, verify_determinism, Fig2Opts, Output, Stage, StageOutput, STAGES,
};
use dui_core::blink::fastsim::AttackSimConfig;
use dui_core::netsim::time::SimDuration;
use dui_core::replay::Recorder;
use dui_core::stats::table::Table;
use dui_core::telemetry::Registry;
use std::sync::atomic::{AtomicU64, Ordering};

fn csv_bytes(out: &StageOutput) -> Vec<(String, String)> {
    out.tables
        .iter()
        .map(|(name, t)| (name.clone(), t.to_csv()))
        .collect()
}

#[test]
fn fig2_csv_identical_across_jobs() {
    let opts = Fig2Opts {
        cfg: AttackSimConfig {
            legit_flows: 200,
            malicious_flows: 11,
            horizon: SimDuration::from_secs(60),
            ..AttackSimConfig::fig2()
        },
        replicates: 8,
        master_seed: 1,
    };
    let seq = fig2_with(&opts, 1);
    let par4 = fig2_with(&opts, 4);
    assert!(!csv_bytes(&seq).is_empty());
    assert_eq!(csv_bytes(&seq), csv_bytes(&par4), "fig2 CSVs must be jobs-invariant");
    assert_eq!(seq.report, par4.report, "fig2 report must be jobs-invariant");
    // The telemetry snapshot — counters, float gauges, histograms — must
    // serialize to the same metrics.jsonl line at any thread count.
    assert!(!seq.metrics.is_empty(), "fig2 must export metrics");
    assert_eq!(
        seq.metrics.to_json_line("fig2"),
        par4.metrics.to_json_line("fig2"),
        "fig2 metrics.jsonl line must be jobs-invariant"
    );
}

#[test]
fn blink_sweep_csv_identical_across_jobs() {
    let seq = blink_sweep_with(3, 1);
    let par4 = blink_sweep_with(3, 4);
    assert_eq!(csv_bytes(&seq).len(), 3, "sweep, cells ablation, salt ablation");
    assert_eq!(
        csv_bytes(&seq),
        csv_bytes(&par4),
        "blink-sweep CSVs must be jobs-invariant"
    );
    assert_eq!(seq.report, par4.report);
}

#[test]
fn fig2_master_seed_changes_results() {
    // Sanity check on the seeding contract itself: a different master
    // seed must actually reach the simulations.
    let mk = |seed| Fig2Opts {
        cfg: AttackSimConfig {
            legit_flows: 120,
            malicious_flows: 7,
            horizon: SimDuration::from_secs(30),
            ..AttackSimConfig::fig2()
        },
        replicates: 3,
        master_seed: seed,
    };
    let a = fig2_with(&mk(1), 2);
    let b = fig2_with(&mk(2), 2);
    assert_ne!(csv_bytes(&a), csv_bytes(&b));
}

/// Record a stage and return its checkpoint hash sequence plus final
/// hash — the `dui-replay` strengthening of the byte-compare tests
/// above: not just "same CSV out" but "same full simulator state at
/// every checkpoint boundary".
fn checkpoint_hashes(stage: &str, every: u64) -> (Vec<(u64, u64)>, u64) {
    let mut subject = build_subject(stage).expect("recordable stage");
    let s = subject.as_subject_mut();
    let rec = Recorder::new(stage, s.config_digest(), every).record(s);
    (
        rec.checkpoints
            .iter()
            .map(|c| (c.event_index, c.state_hash))
            .collect(),
        rec.final_hash,
    )
}

#[test]
fn fastsim_checkpoint_hashes_identical_across_runs() {
    let a = checkpoint_hashes("fig2-small", 4_000);
    let b = checkpoint_hashes("fig2-small", 4_000);
    assert!(a.0.len() >= 4, "enough checkpoints to compare: {}", a.0.len());
    assert_eq!(a, b, "fig2 state hashes must be run-invariant");
}

#[test]
fn engine_checkpoint_hashes_identical_across_runs() {
    let a = checkpoint_hashes("blink-packet-small", 20_000);
    let b = checkpoint_hashes("blink-packet-small", 20_000);
    assert!(a.0.len() >= 4, "enough checkpoints to compare: {}", a.0.len());
    assert_eq!(a, b, "packet-level state hashes must be run-invariant");
}

#[test]
fn metrics_jsonl_identical_across_jobs() {
    // The rows that simulate minutes of packets or a million flows keep
    // the reduced-size tests above and run at full size under
    // `experiments verify-determinism`; every other row is held to the
    // whole contract here — run to run and across `--jobs` — on its
    // CSVs, artifacts, `metrics.jsonl` line and report.
    const HEAVY: [&str; 4] = ["fig2", "blink-packet", "pcc", "flow-scale"];
    for name in HEAVY {
        assert!(Stage::named(name).is_some(), "excluded stage '{name}' is not a row");
    }
    let light: Vec<&Stage> = STAGES.iter().filter(|s| !HEAVY.contains(&s.name)).collect();
    verify_determinism(&light).unwrap_or_else(|diff| panic!("{diff}"));

    // What `experiments all --metrics` writes is exactly one
    // `to_json_line(stage)` per stage.
    let jsonl: String = light
        .iter()
        .map(|s| {
            let out = s.run_checked(1).expect("declared outputs");
            out.metrics.to_json_line(s.name) + "\n"
        })
        .collect();
    assert!(jsonl.contains("blink.reroutes"), "defenses must export blink metrics");
    // 40 of the 64 cells are malicious in both runs; the full `f64` is
    // pinned so a change to how a snapshot is scored shows up here.
    assert!(jsonl.contains(
        "\"defenses.supervisor.risk.attacked\":0.625,\"defenses.supervisor.risk.defended\":0.625"
    ));
    // `Snapshot::with_prefix` inserts the separator itself.
    assert!(!jsonl.contains(".."), "a metric name carries a double dot");
}

/// A fake stage output in which exactly the piece named `vary` takes
/// the value `v` (everything else is constant): a table with one
/// deterministic and one measured column, an artifact, one metric key
/// and the report.
fn fake_output(vary: &str, v: u64) -> StageOutput {
    let cell = |piece: &str| if piece == vary { v } else { 0 }.to_string();
    let mut out = StageOutput::default();
    let mut t = Table::new(["flows", "wall_s"]);
    t.row(["7", "0.1"]);
    t.row([cell("cell"), cell("measured")]);
    out.tables.push(("t.csv".to_string(), t));
    out.artifacts.push(("a.jsonl".to_string(), format!("{{}}\n{}\n", cell("artifact"))));
    let mut reg = Registry::new();
    let c = reg.counter("fake.key");
    reg.add(c, if vary == "metric" { v } else { 0 });
    out.metrics = reg.snapshot();
    out.report = format!("fake report\n{}\n", cell("report"));
    out
}

/// [`fake_output`]'s two files, with and without the measured column
/// declared.
const MEASURED: &[Output] = &[
    Output { file: "t.csv", measured: &["wall_s"] },
    Output { file: "a.jsonl", measured: &[] },
];
const WHOLE: &[Output] = &[
    Output { file: "t.csv", measured: &[] },
    Output { file: "a.jsonl", measured: &[] },
];

fn fake(outputs: &'static [Output], run: fn(usize) -> StageOutput) -> Stage {
    Stage { name: "fake", claim: "T", about: "a test row", jobs: true, outputs, run }
}

fn verdict(row: Stage) -> Result<(), String> {
    verify_determinism(&[&row])
}

#[test]
fn gate_ignores_measured_columns_and_nothing_else() {
    // A measurement may differ, and so may the report that prints it.
    assert_eq!(verdict(fake(MEASURED, |jobs| fake_output("measured", jobs as u64))), Ok(()));
    assert_eq!(verdict(fake(MEASURED, |jobs| fake_output("report", jobs as u64))), Ok(()));
    // Every other byte may not; the error names stage, file:line and settings.
    let starts = |row: Stage, head: &str| {
        let diff = verdict(row).expect_err(head);
        assert!(diff.starts_with(head), "{diff}");
    };
    starts(
        fake(MEASURED, |jobs| fake_output("cell", jobs as u64)),
        "fake · t.csv:3 · --jobs 4 vs --jobs 1\n  --jobs 4: 4\n  --jobs 1: 1",
    );
    starts(
        fake(MEASURED, |jobs| fake_output("metric", jobs as u64)),
        "fake · metrics.jsonl:1 · --jobs 4 vs --jobs 1",
    );
    starts(
        fake(MEASURED, |jobs| fake_output("artifact", jobs as u64)),
        "fake · a.jsonl:2 · --jobs 4 vs --jobs 1",
    );
    starts(
        fake(WHOLE, |jobs| fake_output("report", jobs as u64)),
        "fake · report:2 · --jobs 4 vs --jobs 1",
    );
    // Without a declared measured column the same table is compared whole.
    starts(
        fake(WHOLE, |jobs| fake_output("measured", jobs as u64)),
        "fake · t.csv:3 · --jobs 4 vs --jobs 1",
    );
    // Two runs of one configuration that disagree (the parent's defect:
    // a wall-clock value in a `Registry`) fail before any flag is varied.
    static CALLS: AtomicU64 = AtomicU64::new(0);
    starts(
        fake(MEASURED, |_| fake_output("metric", CALLS.fetch_add(1, Ordering::Relaxed))),
        "fake · metrics.jsonl:1 · run 1 vs run 2 (same configuration)",
    );
}

#[test]
fn gate_refuses_outputs_the_row_does_not_declare() {
    let refused = |run: fn(usize) -> StageOutput, head: &str| {
        let row = fake(MEASURED, run);
        let diff = row.run_checked(1).expect_err(head);
        assert!(diff.starts_with(head), "{diff}");
        assert_eq!(verdict(row), Err(diff));
    };
    let undeclared = |_| {
        let mut out = fake_output("", 0);
        out.tables.push(("extra.csv".to_string(), Table::new(["x"])));
        out
    };
    refused(undeclared, "fake · extra.csv:1 · the stage emitted [t.csv, extra.csv, a.jsonl]");
    let missing = |_| {
        let mut out = fake_output("", 0);
        out.artifacts.clear();
        out
    };
    refused(missing, "fake · a.jsonl:1 · the stage emitted [t.csv], its row declares [t.csv, a.jsonl]");
    let out_of_order = |_| {
        let mut out = fake_output("", 0);
        let (name, text) = out.artifacts.remove(0);
        out.tables.insert(0, (name, Table::new([text])));
        out
    };
    refused(out_of_order, "fake · a.jsonl:1 · the stage emitted [a.jsonl, t.csv]");
    let renamed_column = |_| {
        let mut out = fake_output("", 0);
        out.tables[0].1 = Table::new(["flows", "wall_seconds"]);
        out
    };
    refused(renamed_column, "fake · t.csv:1 · measured column 'wall_s' is not in the header");
    let quoted = |_| {
        let mut out = fake_output("", 0);
        out.tables[0].1.row(["a,b", "0.2"]);
        out
    };
    refused(quoted, "fake · t.csv:1 · a table with measured columns must not quote a cell");
}
