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

/// Digest of one component's state under `write`.
fn digest_of(write: impl FnOnce(&mut dui::stats::digest::StateDigest)) -> u64 {
    let mut d = dui::stats::digest::StateDigest::new();
    write(&mut d);
    d.finish()
}

/// A SYN flood host after 50 ticks of its default flood.
fn syn_flood_digest() -> u64 {
    use dui::attacks::{SynFloodConfig, SynFloodHost};
    use dui::netsim::node::NodeLogic;
    use dui::netsim::packet::Addr;
    use dui::netsim::prelude::{Bandwidth, Simulator, TopologyBuilder};
    use dui::netsim::time::{SimDuration, SimTime};

    let mut b = TopologyBuilder::new();
    let attacker = b.host("attacker", Addr::new(10, 9, 0, 1));
    let victim = b.host("victim", Addr::new(10, 0, 0, 1));
    b.link(
        attacker,
        victim,
        Bandwidth::gbps(1),
        SimDuration::from_millis(1),
        64,
    );
    let mut sim = Simulator::new(b.build(), 5);
    let cfg = SynFloodConfig {
        victim: Addr::new(10, 0, 0, 1),
        ..SynFloodConfig::default()
    };
    sim.set_logic(attacker, Box::new(SynFloodHost::new(cfg)));
    sim.run_until(SimTime::ZERO + SimDuration::from_micros(49_500));
    let host: &mut SynFloodHost = sim.logic_mut(attacker);
    assert_eq!(host.sent, 50);
    digest_of(|d| host.state_digest(d))
}

/// The canonical 3-arm Pytheas engine after 20 rounds at its defaults.
fn pytheas_digest() -> u64 {
    use dui::pytheas::engine::{make_groups, AcceptAll, EngineConfig, PytheasEngine};
    use dui::pytheas::qoe::QoeModel;

    let model = QoeModel::new(vec![0.4, 0.85, 0.7], 0.05);
    let mut e = PytheasEngine::new(model, EngineConfig::default(), &make_groups(2), 9);
    e.run(20, &mut AcceptAll);
    digest_of(|d| e.state_digest(d))
}

/// The final state hash of a small guarded Blink run whose trigger the
/// guard vetoes.
fn guarded_blink_hash() -> u64 {
    use dui::netsim::time::{SimDuration, SimTime};
    use dui::scenario::{BlinkScenario, BlinkScenarioConfig};

    let cfg = BlinkScenarioConfig {
        legit_flows: 100,
        malicious_flows: 105,
        attack_start: SimTime::from_secs(2),
        trigger_at: Some(SimTime::from_secs(24)),
        guarded: true,
        horizon: SimDuration::from_secs(30),
        seed: 3,
        ..BlinkScenarioConfig::default()
    };
    let mut sc = BlinkScenario::build(&cfg);
    sc.sim.run_until(SimTime::from_secs(30));
    assert!(sc.vetoed() > 0, "the guard must rule on the trigger");
    sc.sim.state_hash()
}

/// A digest of the verdict log of a short fixed stream in which every
/// signal (Blink occupancy, Pytheas outliers, PCC drop pattern, SYN
/// backlog) climbs from quiet to veto.
fn supervisord_verdicts_digest() -> u64 {
    use dui::supervisord::{self, Config, ProducerSpec};
    use dui::telemetry::delta::Frame;
    use dui::telemetry::Registry;

    let frames = |producer: u32, fill: fn(&mut Registry, u64)| -> Vec<Frame> {
        (0..12u64)
            .map(|k| {
                let mut reg = Registry::new();
                fill(&mut reg, k);
                Frame {
                    producer,
                    seq: k,
                    epoch: k,
                    ingest_ns: 0,
                    delta: reg.snapshot(),
                }
            })
            .collect()
    };
    let blink: fn(&mut Registry, u64) = |reg, k| {
        let g = reg.gauge("blink.cells.malicious");
        reg.observe(g, 6.0 * k as f64);
    };
    let pytheas: fn(&mut Registry, u64) = |reg, k| {
        for m in 0..6u64 {
            let g = reg.gauge(&format!("pytheas.qoe.c{m}"));
            let sunk = if m < k / 3 { 0.5 } else { 0.0 };
            reg.observe(g, 0.8 - sunk + 0.01 * m as f64);
        }
    };
    let pcc: fn(&mut Registry, u64) = |reg, k| {
        for (side, lossy) in [("high", k), ("low", 1)] {
            let l = reg.counter(&format!("pcc.mi.{side}_lossy"));
            reg.add(l, lossy);
            let t = reg.counter(&format!("pcc.mi.{side}_total"));
            reg.add(t, 20);
        }
    };
    let syn: fn(&mut Registry, u64) = |reg, k| {
        let live = reg.gauge("tcp.handshake.synrcvd_live");
        reg.observe(live, 6.0 * k as f64);
        let dropped = reg.counter("tcp.handshake.syn_dropped");
        reg.add(dropped, k * k);
        let entered = reg.counter("tcp.handshake.synrcvd");
        reg.add(entered, 40);
    };
    let producers = [
        ("g-blink", blink),
        ("g-pytheas", pytheas),
        ("g-pcc", pcc),
        ("g-syn", syn),
    ]
    .into_iter()
    .enumerate()
    .map(|(id, (group, fill))| {
        let spec = ProducerSpec {
            id: id as u32,
            group: group.to_string(),
        };
        (spec, frames(id as u32, fill).into_iter())
    })
    .collect();
    let report = supervisord::run(&Config::default(), producers);
    let jsonl = report.to_jsonl();
    for action in ["allow", "constrain", "veto"] {
        assert!(
            jsonl.contains(&format!("\"action\":\"{action}\"")),
            "{jsonl}"
        );
    }
    digest_of(|d| d.write_str(&jsonl))
}

/// Pins the components whose settings are fixed constants and that no
/// golden trace covers: the SYN flood host, the Pytheas engine, the
/// RTO guard inside a Blink run, and the supervisor's signal bank.
#[test]
fn component_digests_are_pinned() {
    let got = [
        ("syn flood host", syn_flood_digest()),
        ("pytheas engine", pytheas_digest()),
        ("guarded blink", guarded_blink_hash()),
        ("supervisord verdicts", supervisord_verdicts_digest()),
    ];
    let want = [
        0x50ce_9318_0460_b894_u64,
        0xcc81_fa29_fddf_f4dc,
        0x85ad_b169_d3a0_e098,
        0xf0f1_a6f9_dcc6_95e4,
    ];
    for ((what, got), want) in got.into_iter().zip(want) {
        assert_eq!(got, want, "{what}: digest {got:#018x}");
    }
}
