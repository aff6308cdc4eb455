//! The harness's central guarantee: `--jobs N` changes wall-clock time
//! only. These tests run reduced-size stages at jobs=1 and jobs=4 and
//! byte-compare every CSV (and the printed report).

use dui_bench::recordings::build_subject;
use dui_bench::stages::{blink_sweep_with, fig2_with, run_stage, Fig2Opts, StageCfg, StageOutput};
use dui_core::blink::fastsim::AttackSimConfig;
use dui_core::netsim::time::SimDuration;
use dui_core::replay::Recorder;

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
    // What `experiments all --metrics` writes is exactly one
    // `to_json_line(stage)` per stage; build the file contents in-process
    // for packet-level and fastsim stages at jobs 1 vs 4 and byte-compare.
    // (`defenses` exercises gauge merging — f64 sums — which is the part
    // most sensitive to collection order.)
    let jsonl = |jobs: usize| {
        let mut s = String::new();
        for name in ["fig2-rates", "defenses"] {
            let cfg = StageCfg { jobs, ..StageCfg::default() };
            let out = run_stage(name, &cfg).expect("known stage");
            s.push_str(&out.metrics.to_json_line(name));
            s.push('\n');
        }
        s
    };
    let seq = jsonl(1);
    let par4 = jsonl(4);
    assert!(seq.contains("blink.reroutes"), "defenses must export blink metrics");
    // 40 of the 64 cells are malicious in both runs; the full `f64` is
    // pinned so a change to how a snapshot is scored shows up here.
    assert!(seq.contains(
        "\"defenses.supervisor.risk.attacked\":0.625,\"defenses.supervisor.risk.defended\":0.625"
    ));
    assert_eq!(seq, par4, "metrics.jsonl must be jobs-invariant");
}
