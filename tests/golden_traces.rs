//! Golden-trace fixtures: the checkpoint hash sequences of the small
//! recordable stages, pinned as text files under `tests/golden/`.
//!
//! This is the cross-crate determinism gate: the subject builders live
//! in `dui-bench`, the recorder and state hashing in `dui-replay`, and
//! the simulations in `dui-blink` / `dui-netsim` — a re-run through the
//! whole stack must reproduce every pinned state hash bit-for-bit, on
//! any machine. A diff here means simulation behavior changed: either a
//! regression, or an intentional change that must be re-blessed with
//!
//! ```sh
//! GOLDEN_BLESS=1 cargo test --test golden_traces
//! ```

use dui_bench::recordings::build_subject;
use dui_replay::{Recorder, Recording};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Stage → (fixture file, checkpoint cadence).
const GOLDEN: &[(&str, &str, u64)] = &[
    ("fig2-small", "fig2.hashes", 4_000),
    ("blink-packet-small", "blink_packet.hashes", 20_000),
    ("pcc-small", "pcc.hashes", 50_000),
];

fn fixture_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// Record `stage` and render its trace: one header line binding the
/// configuration, one line per checkpoint, one final-hash line.
fn record_trace(stage: &str, every: u64) -> String {
    let mut subject = build_subject(stage).expect("recordable stage");
    let s = subject.as_subject_mut();
    let rec: Recording = Recorder::new(stage, s.config_digest(), every).record(s);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {stage} ckpt_every={every} config={:016x} events={}",
        rec.config_digest,
        rec.events.len()
    );
    for c in &rec.checkpoints {
        let _ = writeln!(out, "{} {} {:016x}", c.event_index, c.time, c.state_hash);
    }
    let _ = writeln!(out, "final {:016x}", rec.final_hash);
    out
}

fn check(stage: &str, file: &str, every: u64) {
    let got = record_trace(stage, every);
    let path = fixture_path(file);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, &got).expect("write golden fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e});\n\
             bless with: GOLDEN_BLESS=1 cargo test --test golden_traces",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "golden trace for '{stage}' diverged — simulation behavior changed.\n\
         If intentional, re-bless with: GOLDEN_BLESS=1 cargo test --test golden_traces"
    );
}

#[test]
fn fig2_golden_trace() {
    let (stage, file, every) = GOLDEN[0];
    check(stage, file, every);
}

#[test]
fn blink_packet_golden_trace() {
    let (stage, file, every) = GOLDEN[1];
    check(stage, file, every);
}

#[test]
fn pcc_golden_trace() {
    let (stage, file, every) = GOLDEN[2];
    check(stage, file, every);
}

/// The full-size recordable runs are the paper's C4 and C6
/// configurations. Their config digests cover every parameter (the f64
/// bits included), so a change to how those configurations are declared
/// or lowered that moves any one of them fails here.
#[test]
fn paper_run_configs_are_pinned() {
    for (stage, want) in [
        ("blink-packet", 0x714d_3179_c175_ebc8_u64),
        ("pcc", 0x4c7e_ef0a_46f4_6d9a),
        ("pcc-small", 0xbff7_412e_0eb0_9037),
    ] {
        let mut subject = build_subject(stage).expect("recordable stage");
        let got = subject.as_subject_mut().config_digest();
        assert_eq!(got, want, "{stage}: config digest {got:#018x}");
    }
}
