//! Seeded valid blobs of every binary format the workspace decodes,
//! shared by the same-bytes oracle (`same_bytes.rs`) and the
//! hostile-bytes harness (`hostile_bytes.rs`).
//!
//! The two `.duir` fixtures are the `fig2-small` / `blink-packet-small`
//! subjects (`FastSimSubject`, `SimulatorSubject` over TCP hosts) scaled
//! down to a few KiB: the harness decodes every blob once per byte, five
//! times over, and the real `-small` recordings are 500–600 KiB.

#![allow(dead_code)]

use dui_blink::fastsim::{AttackSim, AttackSimConfig};
use dui_blink::selector::BlinkParams;
use dui_netsim::prelude::*;
use dui_replay::record::{attack_sim_snapshot_to_bytes, engine_checkpoint_to_bytes};
use dui_replay::{FastSimSubject, Recorder, Recording, ReplaySubject, SimulatorSubject};
use dui_tcp::{FlowPool, FlowSpec, TcpHost, TcpHostConfig, TcpSenderConfig};

/// Seed of every fast-simulation fixture.
pub const FASTSIM_SEED: u64 = 11;
/// Config digest the engine recording is made under.
pub const ENGINE_DIGEST: u64 = 0x00E1_61E5;
/// End of the engine recording.
pub const ENGINE_END: SimTime = SimTime(60_000_000);

/// `fig2-small`, smaller still: 8 cells, 14 flows, 2 s.
pub fn fastsim_cfg() -> AttackSimConfig {
    AttackSimConfig {
        params: BlinkParams {
            cells: 8,
            threshold: 4,
            ..BlinkParams::default()
        },
        legit_flows: 12,
        malicious_flows: 2,
        horizon: SimDuration::from_secs(2),
        ..AttackSimConfig::fig2()
    }
}

/// A fresh fast-simulation subject (what a `.duir` of it replays against).
pub fn fastsim_subject() -> FastSimSubject {
    FastSimSubject::new(fastsim_cfg(), FASTSIM_SEED)
}

/// The fast simulation 60 packets in, as a snapshot blob.
pub fn fastsim_snapshot() -> Vec<u8> {
    let mut sim = AttackSim::new(&fastsim_cfg(), FASTSIM_SEED);
    for _ in 0..60 {
        sim.step();
    }
    attack_sim_snapshot_to_bytes(&sim.snapshot())
}

/// `.duir` of the fast simulation, checkpointed every 40 events.
pub fn fastsim_recording() -> Recording {
    let mut subject = fastsim_subject();
    Recorder::new("fig2-small", subject.config_digest(), 40).record(&mut subject)
}

fn flow(sport: u16, start_ms: u64, config: TcpSenderConfig) -> FlowSpec {
    FlowSpec {
        key: FlowKey::tcp(Addr::new(10, 0, 0, 1), sport, Addr::new(10, 0, 0, 2), 80),
        start: SimTime::ZERO + SimDuration::from_millis(start_ms),
        config,
    }
}

/// Three senders: bulk, paced with the handshake lifecycle, and one that
/// has not started by the time any fixture is captured.
fn flows() -> Vec<FlowSpec> {
    vec![
        flow(
            1000,
            0,
            TcpSenderConfig {
                total_bytes: Some(40_000),
                ..Default::default()
            },
        ),
        flow(
            1001,
            3,
            TcpSenderConfig {
                total_bytes: Some(9_000),
                app_rate: Some(200_000),
                handshake: true,
                time_wait: SimDuration::from_millis(20),
                ..Default::default()
            },
        ),
        flow(
            1002,
            900,
            TcpSenderConfig {
                total_bytes: Some(5_000),
                ..Default::default()
            },
        ),
    ]
}

/// h1 — r — h2 with a sink hanging off the router: TCP hosts at both
/// ends, a lossy jittered hop, an announced prefix. `with_flows` false
/// builds the empty twin a checkpoint is restored into.
pub fn engine(with_flows: bool) -> Simulator {
    let mut b = TopologyBuilder::new();
    let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
    let r = b.router("r");
    let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
    let s = b.host("s", Addr::new(10, 0, 1, 1));
    let (bw, delay) = (Bandwidth::mbps(10), SimDuration::from_millis(2));
    b.link(h1, r, bw, delay, 32);
    b.link(r, h2, bw, delay, 8);
    b.link(r, s, bw, delay, 8);
    let mut sim = Simulator::new(b.build(), 5);
    let mut src = TcpHost::with_flows(if with_flows { flows() } else { Vec::new() });
    src.set_config(TcpHostConfig {
        listen_backlog: Some(4),
        evict_closed: true,
        syn_rcvd_timeout: Some(SimDuration::from_millis(500)),
    });
    sim.set_logic(h1, Box::new(src));
    sim.set_logic(r, Box::new(RouterLogic::new()));
    sim.set_logic(h2, Box::new(TcpHost::new()));
    sim.set_logic(s, Box::new(SinkHost::new()));
    sim.announce_prefix(Prefix::new(Addr::new(10, 0, 1, 0), 24), s);
    sim.set_fault(
        LinkId(1),
        Dir::AtoB,
        FaultConfig {
            drop_prob: 0.05,
            jitter_max: Some(SimDuration::from_millis(1)),
        },
    );
    if with_flows {
        for i in 0..3u16 {
            let k = FlowKey::udp(Addr::new(10, 0, 0, 1), 2000 + i, Addr::new(10, 0, 1, 1), 53);
            sim.inject(h1, Packet::udp(k, 200 + u32::from(i)));
        }
        sim.inject(
            h1,
            Packet::probe(Addr::new(10, 0, 0, 1), Addr::new(10, 0, 1, 1), 7, 1, 1),
        );
        sim.inject(
            h1,
            Packet::probe(Addr::new(10, 0, 0, 1), Addr::new(10, 0, 1, 1), 7, 2, 9),
        );
    }
    sim
}

/// The engine 12 ms in: senders mid-transfer, packets queued and in
/// flight, timers pending.
pub fn engine_mid_run() -> Simulator {
    let mut sim = engine(true);
    sim.run_until(SimTime::ZERO + SimDuration::from_millis(12));
    sim
}

/// Engine checkpoint blob of [`engine_mid_run`].
pub fn engine_checkpoint() -> Vec<u8> {
    engine_checkpoint_to_bytes(&engine_mid_run().checkpoint().expect("checkpointable"))
}

/// A fresh engine subject (what a `.duir` of it replays against).
pub fn engine_subject() -> SimulatorSubject {
    SimulatorSubject::new(engine(true), ENGINE_END, ENGINE_DIGEST)
}

/// `.duir` of the engine run, checkpointed every 150 events.
pub fn engine_recording() -> Recording {
    Recorder::new("blink-packet-small", ENGINE_DIGEST, 150).record(&mut engine_subject())
}

fn logic_blob(node: usize) -> Vec<u8> {
    let ckpt = engine_mid_run().checkpoint().expect("checkpointable");
    ckpt.logics[node].clone().expect("node has logic")
}

/// `TcpHost::save_state` of the sending host, mid-transfer.
pub fn tcp_host_state() -> Vec<u8> {
    logic_blob(0)
}

/// `RouterLogic::save_state`.
pub fn router_state() -> Vec<u8> {
    logic_blob(1)
}

/// `SinkHost::save_state` after three UDP flows.
pub fn sink_state() -> Vec<u8> {
    let mut sim = engine(true);
    sim.run_until(SimTime::ZERO + SimDuration::from_millis(30));
    sim.checkpoint().expect("checkpointable").logics[3]
        .clone()
        .expect("sink has logic")
}

/// A pool with a sender mid-transfer, a listener, a receiver holding
/// out-of-order data, and two freed slots chained on the free list.
pub fn pool() -> FlowPool {
    let key = |sport| FlowKey::tcp(Addr::new(10, 0, 0, 1), sport, Addr::new(10, 0, 0, 2), 80);
    let mut p = FlowPool::new();
    let s = p.insert_sender(
        key(1000),
        TcpSenderConfig {
            total_bytes: Some(100_000),
            ..Default::default()
        },
        7,
    );
    p.insert_listener(key(2000));
    let dead_a = p.insert_receiver(key(3000), 1);
    let rcv = p.insert_receiver(key(4000), 1);
    let dead_b = p.insert_receiver(key(5000), 1);
    p.free(dead_a).expect("live");
    p.free(dead_b).expect("live");
    p.on_start(s, SimTime::ZERO).expect("live");
    let _ = p.take_out(s).expect("live");
    let now = SimTime::ZERO + SimDuration::from_millis(3);
    let flags = TcpFlags::default();
    // A hole at 1, then 1461.. and 4381.. arrive: two reassembly entries.
    p.on_segment(rcv, now, &Packet::tcp(key(4000), 1461, 0, flags, 1460))
        .expect("live");
    p.on_segment(rcv, now, &Packet::tcp(key(4000), 4381, 0, flags, 1460))
        .expect("live");
    let _ = p.take_out(rcv).expect("live");
    p
}

/// `FlowPool::to_bytes` of [`pool`].
pub fn pool_state() -> Vec<u8> {
    pool().to_bytes().expect("drained")
}

/// Every blob kind, named.
pub fn all() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("duir_fastsim", fastsim_recording().to_bytes()),
        ("duir_engine", engine_recording().to_bytes()),
        ("engine_checkpoint", engine_checkpoint()),
        ("fastsim_snapshot", fastsim_snapshot()),
        ("tcp_host", tcp_host_state()),
        ("flow_pool", pool_state()),
        ("sink_host", sink_state()),
        ("router", router_state()),
    ]
}

/// Widths of the `0xFF` runs written at every offset: a byte, a `u32`,
/// a `u64`, and the longest varint.
pub const FF_WIDTHS: [usize; 4] = [1, 4, 8, 10];

/// The exhaustive mutant families of `blob`, as `(family, offset, bytes)`:
/// every truncation, and a `0xFF` run of each [`FF_WIDTHS`] width at every
/// offset (skipped where it would change nothing).
pub fn exhaustive_mutants(blob: &[u8], mut f: impl FnMut(&'static str, usize, &[u8])) {
    for len in 0..blob.len() {
        f("truncate", len, &blob[..len]);
    }
    let mut mutant = blob.to_vec();
    for (family, width) in ["ff1", "ff4", "ff8", "ff10"].into_iter().zip(FF_WIDTHS) {
        for at in 0..blob.len() {
            let end = (at + width).min(blob.len());
            mutant[at..end].fill(0xFF);
            if mutant != blob {
                f(family, at, &mutant);
            }
            mutant[at..end].copy_from_slice(&blob[at..end]);
        }
    }
}

/// One to four random bit flips of `blob`.
pub fn flipped(g: &mut dui_stats::propcheck::Gen, blob: &[u8]) -> Vec<u8> {
    let mut mutant = blob.to_vec();
    for _ in 0..g.usize(1..5) {
        let at = g.usize(0..blob.len());
        mutant[at] ^= 1 << g.u8(0..8);
    }
    mutant
}

/// A prefix of `blob` spliced onto a suffix of `other`.
pub fn spliced(g: &mut dui_stats::propcheck::Gen, blob: &[u8], other: &[u8]) -> Vec<u8> {
    let (cut, from) = (g.usize(0..blob.len() + 1), g.usize(0..other.len() + 1));
    [&blob[..cut], &other[from..]].concat()
}
