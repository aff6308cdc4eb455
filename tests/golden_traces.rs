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
    digest_of(|d| host.encode(&mut dui::stats::wire::Sink::digest(d)))
}

/// The canonical 3-arm Pytheas engine after 20 rounds at its defaults.
fn pytheas_digest() -> u64 {
    use dui::pytheas::engine::{make_groups, AcceptAll, EngineConfig, PytheasEngine};
    use dui::pytheas::qoe::QoeModel;

    let model = QoeModel::new(vec![0.4, 0.85, 0.7], 0.05);
    let mut e = PytheasEngine::new(model, EngineConfig::default(), &make_groups(2), 9);
    e.run(20, &mut AcceptAll);
    digest_of(|d| e.encode(d))
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

/// The state hash of a small attacked PCC run once the §4.2 equalizer
/// has armed and dropped.
fn armed_equalizer_hash() -> u64 {
    use dui::netsim::prelude::Bandwidth;
    use dui::netsim::time::SimTime;
    use dui::scenario::{PccScenario, PccScenarioConfig};

    let mut sc = PccScenario::build(&PccScenarioConfig {
        bottleneck: Bandwidth::mbps(5),
        attacked: true,
        seed: 3,
        ..PccScenarioConfig::default()
    });
    sc.sim.run_until(SimTime::from_secs(12));
    assert!(
        sc.sim.counters().dropped_tap > 0,
        "the equalizer must have armed"
    );
    sc.sim.state_hash()
}

/// The state hash of a traceroute across two routers, its third probe
/// in flight.
fn traceroute_hash() -> u64 {
    use dui::nethide::traceroute::TracerouteProber;
    use dui::netsim::prelude::*;

    let mut b = TopologyBuilder::new();
    let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
    for (a, c) in [(h1, r1), (r1, r2), (r2, h2)] {
        b.link(a, c, Bandwidth::mbps(100), SimDuration::from_millis(1), 32);
    }
    let mut sim = Simulator::new(b.build(), 1);
    sim.set_logic(r1, Box::new(RouterLogic::new()));
    sim.set_logic(r2, Box::new(RouterLogic::new()));
    sim.set_logic(h2, Box::new(SinkHost::new()));
    sim.set_logic(
        h1,
        Box::new(TracerouteProber::new(Addr::new(10, 0, 0, 2), 8)),
    );
    sim.run_until(SimTime::from_secs_f64(1.002));
    let prober: &mut TracerouteProber = sim.logic_mut(h1);
    assert_eq!(prober.result.hops.len(), 2, "two hops answered");
    sim.state_hash()
}

/// The state hash of a short run carrying every other attack part: a
/// bounce program and an ICMP rewriter on each of two routers, a window
/// clamp and an ICMP spoof tap, and a TCP host fed by a flow stream.
fn attack_parts_hash() -> u64 {
    use dui::attacks::primitives::WindowClamper;
    use dui::attacks::{BounceProgram, IcmpSpoofTap};
    use dui::flowgen::flows::{DurationDist, FlowPopulationConfig};
    use dui::flowgen::stream::{FlowStream, StreamSource};
    use dui::nethide::{FictionRewriter, VirtualTopology, VirtualTopologyRewriter};
    use dui::netsim::prelude::*;
    use dui::tcp::TcpHost;
    use std::sync::Arc;

    let mut b = TopologyBuilder::new();
    let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    let h2 = b.host("h2", Addr::new(10, 0, 1, 1));
    let (bw, delay) = (Bandwidth::mbps(100), SimDuration::from_millis(1));
    let edge = b.link(h1, r1, bw, delay, 64);
    b.link(r1, r2, bw, delay, 64);
    let last = b.link(r2, h2, bw, delay, 64);
    let topo = b.build();
    let (a1, a2, dst) = (topo.node(r1).addr, topo.node(r2).addr, topo.node(h2).addr);
    let mut sim = Simulator::new(topo, 11);
    let prefix = Prefix::new(Addr::new(10, 0, 1, 0), 24);
    sim.announce_prefix(prefix, h2);
    let bounce = |partner| {
        Box::new(BounceProgram::new(
            Box::new(|p: &Packet| p.payload > 0),
            partner,
            1,
        ))
    };
    let fiction = FictionRewriter::new(vec![Addr::new(10, 66, 0, 1)], false, a1);
    sim.set_logic(
        r1,
        Box::new(
            RouterLogic::new()
                .with_program(bounce(r2))
                .with_icmp_rewriter(Box::new(fiction)),
        ),
    );
    let mut vt = VirtualTopology::default();
    vt.set_path(
        Addr::new(10, 0, 0, 1),
        dst,
        vec![Addr::new(10, 66, 0, 1), a2, dst],
    );
    let virtual_rw = VirtualTopologyRewriter::new(Arc::new(vt), a2);
    sim.set_logic(
        r2,
        Box::new(
            RouterLogic::new()
                .with_program(bounce(r1))
                .with_icmp_rewriter(Box::new(virtual_rw)),
        ),
    );
    let stream = FlowStream::new(
        FlowPopulationConfig {
            prefix,
            arrival_rate: 20.0,
            duration: DurationDist::default(),
            pkt_interval: SimDuration::from_millis(10),
            horizon: SimDuration::from_secs(1),
            warm_start: Some(2),
        },
        dui::stats::Rng::new(4),
    );
    sim.set_logic(
        h1,
        Box::new(TcpHost::with_source(Box::new(StreamSource::new(
            stream, 1460,
        )))),
    );
    sim.set_logic(h2, Box::new(TcpHost::new()));
    sim.install_tap(
        last,
        Dir::BtoA,
        Box::new(WindowClamper::new(Box::new(|_| true), 4 * 1460)),
    );
    let spoof = std::iter::once((a2, Addr::new(10, 66, 0, 2))).collect();
    sim.install_tap(edge, Dir::BtoA, Box::new(IcmpSpoofTap::new(spoof)));
    for ttl in 1..4 {
        sim.inject(
            h1,
            Packet::probe(Addr::new(10, 0, 0, 1), dst, 9, u16::from(ttl), ttl),
        );
    }
    sim.run_until(SimTime::from_secs_f64(0.3));
    let router: &mut RouterLogic = sim.logic_mut(r1);
    assert!(
        router.program_mut::<BounceProgram>(0).bounced_packets > 0,
        "r1 bounced"
    );
    sim.state_hash()
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
/// RTO guard inside a Blink run, the supervisor's signal bank, the
/// armed PCC equalizer tap, a traceroute prober mid-run, and the other
/// attack programs, rewriters, taps and a streamed flow source.
#[test]
fn component_digests_are_pinned() {
    let got = [
        ("syn flood host", syn_flood_digest()),
        ("pytheas engine", pytheas_digest()),
        ("guarded blink", guarded_blink_hash()),
        ("supervisord verdicts", supervisord_verdicts_digest()),
        ("armed equalizer", armed_equalizer_hash()),
        ("traceroute", traceroute_hash()),
        ("attack parts", attack_parts_hash()),
    ];
    let want = [
        0x035d_7b08_6818_3c05_u64,
        0x39bc_dbdd_5095_6129,
        0xe965_d89a_b216_4591,
        0xf0f1_a6f9_dcc6_95e4,
        0x390b_2cfe_7ab4_5370,
        0x28ae_71b9_368b_48d5,
        0x082f_2cf5_9e16_9540,
    ];
    for ((what, got), want) in got.into_iter().zip(want) {
        assert_eq!(got, want, "{what}: digest {got:#018x}");
    }
}
