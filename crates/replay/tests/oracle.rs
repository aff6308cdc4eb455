//! The determinism oracle's own check: for every component whose state
//! digest runs its checkpoint encoder, two states digest equal if and
//! only if they encode to the same bytes.
//!
//! Each property builds two states from one generated operation
//! sequence, the second with part of it permuted (or, in about half the
//! cases, not), exactly where order could hide state:
//!
//! * two `FlowPool`s free the same slots in different orders, and then
//!   take the same inserts;
//! * a `TcpHost` and a `SinkHost` receive the same segments in
//!   different orders, and run on past the half-open reaper;
//! * two `TcpHost`s run transfers whose sizes are permuted among the
//!   flows, so the flows close, and free their slots, in another order;
//! * an `AttackSim` and its `FlowSelector` are stepped to the same
//!   point, or not, by a fresh run and by a run restored from the
//!   first's checkpoint;
//! * two engines — a TCP host and a sink behind a plain router, which
//!   answers expired probes or not — take the same packets in
//!   different orders, and the same faults and link flaps in different
//!   orders, section by section and as a whole;
//! * two `Rng`s are drawn to the same point, or not.
//!
//! A digest that skips state its bytes carry reads "equal" where the
//! bytes differ — the divergence then surfaces only later, at the wrong
//! event — and a digest that folds something the bytes do not carry
//! reads "different" where they agree.
//!
//! Every field list (`wire_struct!`) and hand-written `Wire` shape is
//! also held, row by row of `WIRE_SHAPES`, to the round trip its one
//! description promises: a value decodes from its own bytes to itself,
//! its bytes re-encode to themselves, its digest and bytes agree with a
//! neighbour's, every strict prefix is refused, and `MIN_BYTES` is the
//! shortest encoding reached.
//!
//! Parts with no decoder (link taps, a PCC endpoint, a traceroute
//! prober) have no bytes to compare, so the last property holds their
//! digests to what they are for: two engines whose state hashes agree
//! run on to agreeing state hashes. The engines carry the §4.2 PCC
//! equalizer tap and a traceroute prober, built from one generated
//! configuration or from two that differ in one setting.

use dui_attacks::{IcmpSpoofTap, PccEqualizerTap};
use dui_blink::fastsim::{AttackSim, AttackSimConfig, FlowState};
use dui_blink::selector::{Cell, FlowSelector, SelectorStats};
use dui_nethide::TracerouteProber;
use dui_netsim::link::LinkDirStats;
use dui_netsim::node::SinkFlowStats;
use dui_netsim::prelude::*;
use dui_pcc::{PccReceiver, PccSender, PccSenderConfig};
use dui_replay::record::CheckpointFrame;
use dui_stats::digest::StateDigest;
use dui_stats::propcheck::{self, Config, Gen, PropError, PropResult};
use dui_stats::wire::{ErrorKind, Reader, Sink, Wire, Writer};
use dui_stats::Rng;
use dui_stats::{prop_assert, prop_assert_eq, prop_check};
use dui_tcp::conn::{RcvState, ReceiverStats, RecvRow, SegmentRecord, SenderMeta, SenderStats};
use dui_tcp::conn::{SeqState, TcpState};
use dui_tcp::TcpSenderConfig;
use dui_tcp::{FlowPool, FlowSpec, HostCounters, Reno, RttEstimator, TcpHost, TcpHostConfig};
use std::fmt::Debug;

/// Equal digests exactly when the bytes are equal.
fn digest_iff_bytes(what: &str, a: (u64, Vec<u8>), b: (u64, Vec<u8>)) -> PropResult {
    prop_assert_eq!(
        a.0 == b.0,
        a.1 == b.1,
        "{what}: digests {:#018x} / {:#018x}, bytes equal: {}",
        a.0,
        b.0,
        a.1 == b.1
    );
    Ok(())
}

fn digest(write: impl FnOnce(&mut StateDigest)) -> u64 {
    let mut d = StateDigest::new();
    write(&mut d);
    d.finish()
}

/// A fast simulation's checkpoint bytes.
fn sim_bytes(sim: &AttackSim) -> Vec<u8> {
    sim.walk(true).bytes.expect("nothing refuses").into_bytes()
}

/// `items` in an order drawn from `g`: unchanged in about half the
/// cases, otherwise shuffled.
fn maybe_permuted<'a, T>(g: &mut Gen, items: &'a [T]) -> Vec<&'a T> {
    let mut out: Vec<_> = items.iter().collect();
    if g.bool() {
        for i in (1..out.len()).rev() {
            out.swap(i, g.usize(0..i + 1));
        }
    }
    out
}

fn key(sport: u16) -> FlowKey {
    FlowKey::tcp(Addr::new(10, 0, 0, 1), sport, Addr::new(10, 0, 0, 2), 80)
}

/// A pool of mixed flows, every output drained.
fn pool_with(kinds: &[u8]) -> (FlowPool, Vec<dui_tcp::FlowRef>) {
    let mut p = FlowPool::new();
    let now = SimTime::ZERO;
    let refs: Vec<_> = kinds
        .iter()
        .zip(1000u16..)
        .map(|(&kind, sport)| match kind {
            0 => {
                let cfg = TcpSenderConfig {
                    total_bytes: Some(20_000),
                    handshake: sport % 2 == 0,
                    ..Default::default()
                };
                let r = p.insert_sender(key(sport), cfg, u32::from(sport));
                p.on_start(r, now).expect("live");
                r
            }
            1 => p.insert_listener(key(sport)),
            _ => p.insert_receiver(key(sport), 1),
        })
        .collect();
    for &r in &refs {
        p.drain_out(r, drop).expect("live");
    }
    (p, refs)
}

fn pool_state(p: &FlowPool) -> (u64, Vec<u8>) {
    (
        digest(|d| p.state_digest(d)),
        p.to_bytes().expect("drained"),
    )
}

fn host_state(h: &mut dyn NodeLogic) -> (u64, Vec<u8>) {
    (
        digest(|d| h.encode(&mut Sink::digest(d))),
        Sink::save(|s| h.encode(s)).expect("restorable"),
    )
}

/// `src` sends every packet of `pkts` at time zero into a TCP host and
/// a sink, which run until `until`.
fn hosts_after(pkts: &[&Packet], until: SimTime) -> Simulator {
    let mut b = TopologyBuilder::new();
    let src = b.host("src", Addr::new(10, 0, 0, 1));
    let tcp = b.host("tcp", Addr::new(10, 0, 0, 2));
    let sink = b.host("sink", Addr::new(10, 0, 0, 3));
    let (bw, delay) = (Bandwidth::mbps(100), SimDuration::from_millis(1));
    b.link(src, tcp, bw, delay, 64);
    b.link(src, sink, bw, delay, 64);
    let mut sim = Simulator::new(b.build(), 3);
    let mut host = TcpHost::new();
    host.set_config(TcpHostConfig {
        listen_backlog: Some(6),
        evict_closed: true,
        syn_rcvd_timeout: Some(SimDuration::from_millis(20)),
    });
    sim.set_logic(src, Box::new(SinkHost::new()));
    sim.set_logic(tcp, Box::new(host));
    sim.set_logic(sink, Box::new(SinkHost::new()));
    for p in pkts {
        sim.inject(src, p.duplicate());
    }
    sim.run_until(until);
    sim
}

/// Flows of `sizes` bytes from one TCP host to another, walking the full
/// lifecycle, both hosts evicting closed flows, run until every transfer
/// has closed on both sides.
fn transfers_after(sizes: &[&u64]) -> Simulator {
    let mut b = TopologyBuilder::new();
    let src = b.host("src", Addr::new(10, 0, 0, 1));
    let dst = b.host("dst", Addr::new(10, 0, 0, 2));
    b.link(
        src,
        dst,
        Bandwidth::mbps(100),
        SimDuration::from_millis(1),
        256,
    );
    let mut sim = Simulator::new(b.build(), 3);
    let flows = (5000u16..)
        .zip(sizes)
        .map(|(sport, &&size)| FlowSpec {
            key: key(sport),
            start: SimTime::ZERO,
            config: TcpSenderConfig {
                total_bytes: Some(size),
                handshake: true,
                time_wait: SimDuration::from_millis(5),
                ..Default::default()
            },
        })
        .collect();
    let evicting = TcpHostConfig {
        evict_closed: true,
        ..TcpHostConfig::default()
    };
    let mut sender = TcpHost::with_flows(flows);
    sender.set_config(evicting.clone());
    let mut receiver = TcpHost::new();
    receiver.set_config(evicting);
    sim.set_logic(src, Box::new(sender));
    sim.set_logic(dst, Box::new(receiver));
    sim.run_until(SimTime::from_secs(5));
    sim
}

/// A link operation applied mid-run.
#[derive(Debug, Clone, Copy)]
enum LinkOp {
    Fault(LinkId, Dir, FaultConfig),
    Up(LinkId, bool),
}

/// `src` — router — {TCP host, sink}: every packet of `pkts` is injected
/// at `src` at time zero, the run pauses at 3 ms for `ops`, then goes on
/// to `until`.
fn engine_after(pkts: &[&Packet], ops: &[&LinkOp], respond: bool, until: SimTime) -> Simulator {
    let mut b = TopologyBuilder::new();
    let src = b.host("src", Addr::new(10, 0, 0, 1));
    let r = b.router("r");
    let tcp = b.host("tcp", Addr::new(10, 0, 0, 2));
    let sink = b.host("sink", Addr::new(10, 0, 0, 3));
    let (bw, delay) = (Bandwidth::mbps(10), SimDuration::from_millis(1));
    b.link(src, r, bw, delay, 8);
    b.link(r, tcp, bw, delay, 8);
    b.link(r, sink, bw, delay, 8);
    let mut sim = Simulator::new(b.build(), 3);
    let mut router = RouterLogic::new();
    router.respond_time_exceeded = respond;
    sim.set_logic(src, Box::new(SinkHost::new()));
    sim.set_logic(r, Box::new(router));
    sim.set_logic(tcp, Box::new(TcpHost::new()));
    sim.set_logic(sink, Box::new(SinkHost::new()));
    for p in pkts {
        sim.inject(src, p.duplicate());
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_millis(3));
    for op in ops {
        match **op {
            LinkOp::Fault(link, dir, fault) => sim.set_fault(link, dir, fault),
            LinkOp::Up(link, up) => sim.set_link_up(link, up),
        }
    }
    sim.run_until(until);
    sim
}

/// Section `i` of `sim`'s state encoder: its digest, and its bytes.
fn section_state(sim: &Simulator, i: usize) -> (u64, Vec<u8>) {
    let bytes = Sink::save(|s| sim.encode_section(i, s)).expect("restorable");
    (
        digest(|d| sim.encode_section(i, &mut Sink::digest(d))),
        bytes,
    )
}

/// The state hash, and the checkpoint bytes without the state hash they
/// end with.
fn engine_state(sim: &Simulator) -> (u64, Vec<u8>) {
    let mut bytes = sim.checkpoint().expect("restorable");
    bytes.truncate(bytes.len() - 8);
    (sim.state_hash(), bytes)
}

/// One engine of the equal-future property: a PCC sender `h1` and a
/// traceroute prober `h3` behind router `r`, the PCC receiver `h2` on a
/// 10 Mbit/s bottleneck carrying the equalizer tap, and, if `spoof`, a
/// tap that rewrites `r`'s time-exceeded claims on their way to `h3`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Attacked {
    arm_after_ms: u64,
    max_ttl: u8,
    spoof: bool,
}

impl Attacked {
    fn build(self) -> Simulator {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
        let h3 = b.host("h3", Addr::new(10, 0, 0, 3));
        let r = b.router("r");
        let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
        let ms = SimDuration::from_millis;
        b.link(h1, r, Bandwidth::mbps(100), ms(2), 64);
        let probes = b.link(h3, r, Bandwidth::mbps(100), ms(2), 64);
        let bottleneck = b.link(r, h2, Bandwidth::mbps(10), ms(5), 32);
        let topo = b.build();
        let r_addr = topo.node(r).addr;
        let mut sim = Simulator::new(topo, 5);
        let key = FlowKey::tcp(Addr::new(10, 0, 0, 1), 5001, Addr::new(10, 0, 0, 2), 5001);
        sim.set_logic(h1, Box::new(PccSender::new(PccSenderConfig::new(key, 7))));
        sim.set_logic(h2, Box::new(PccReceiver::new(ms(100))));
        sim.set_logic(r, Box::new(RouterLogic::new()));
        sim.set_logic(
            h3,
            Box::new(TracerouteProber::new(Addr::new(10, 0, 0, 2), self.max_ttl)),
        );
        let tap = PccEqualizerTap::with_arm_delay(key, ms(25), ms(self.arm_after_ms), 9);
        sim.install_tap(bottleneck, Dir::AtoB, Box::new(tap));
        if self.spoof {
            let fake = std::iter::once((r_addr, Addr::new(10, 66, 0, 1))).collect();
            sim.install_tap(probes, Dir::BtoA, Box::new(IcmpSpoofTap::new(fake)));
        }
        sim
    }
}

prop_check! {
    fn rng_digest_is_its_bytes(g) {
        let mut a = Rng::new(g.u64(0..3));
        for _ in 0..g.usize(0..4) {
            a.next_u64();
        }
        let mut b = if g.bool() {
            Rng::from_state(a.state())
        } else {
            let mut b = Rng::new(g.u64(0..3));
            for _ in 0..g.usize(0..4) {
                b.next_u64();
            }
            b
        };
        let state = |r: &Rng| {
            let words = |s: &mut Sink<'_>| r.put(s);
            (
                digest(|d| words(&mut Sink::digest(d))),
                Sink::save(words).expect("an rng refuses nothing"),
            )
        };
        let (sa, sb) = (state(&a), state(&b));
        let equal = sa.1 == sb.1;
        digest_iff_bytes("rng", sa, sb)?;
        if equal {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    fn equal_digest_means_equal_future(g) {
        let a = Attacked {
            arm_after_ms: [20, 40][g.usize(0..2)],
            max_ttl: g.u8(2..4),
            spoof: g.bool(),
        };
        let b = match g.u8(0..4) {
            0 => Attacked { arm_after_ms: 60 - a.arm_after_ms, ..a },
            1 => Attacked { max_ttl: 5 - a.max_ttl, ..a },
            2 => Attacked { spoof: !a.spoof, ..a },
            _ => a,
        };
        let (mut sa, mut sb) = (a.build(), b.build());
        prop_assert_eq!(sa.fingerprint(), sb.fingerprint());
        let t1 = SimTime::ZERO + SimDuration::from_millis(g.u64(10..1200));
        sa.run_until(t1);
        sb.run_until(t1);
        let equal = sa.state_hash() == sb.state_hash();
        prop_assert_eq!(equal || a != b, true, "one configuration, two hashes");
        let t2 = t1 + SimDuration::from_millis(g.u64(1..400));
        sa.run_until(t2);
        sb.run_until(t2);
        if equal {
            prop_assert_eq!(
                sa.state_hash(),
                sb.state_hash(),
                "equal at {t1:?} under {a:?} / {b:?}, apart at {t2:?}"
            );
        }
    }

    fn pool_digest_is_its_bytes(g) {
        let kinds = g.vec(2..10, |g| g.u8(0..3));
        let (mut a, refs) = pool_with(&kinds);
        let (mut b, _) = pool_with(&kinds);
        let freed: Vec<_> = refs.into_iter().filter(|_| g.bool()).collect();
        for &r in &freed {
            a.free(r).expect("live");
        }
        for &r in maybe_permuted(g, &freed) {
            b.free(r).expect("live");
        }
        digest_iff_bytes("after the frees", pool_state(&a), pool_state(&b))?;
        // The same inserts now land in the slots each free list names.
        for sport in 2000..2000 + g.u16(0..4) {
            a.insert_listener(key(sport));
            b.insert_listener(key(sport));
        }
        digest_iff_bytes("after the inserts", pool_state(&a), pool_state(&b))?;
    }

    fn hosts_digest_their_bytes(g) {
        let pkts: Vec<Packet> = (0..g.usize(1..10))
            .map(|i| {
                let sport = 3000 + g.u16(0..5);
                let flags = TcpFlags {
                    syn: g.bool(),
                    ..TcpFlags::default()
                };
                if i % 3 == 2 {
                    let k = FlowKey::udp(Addr::new(10, 0, 0, 1), sport, Addr::new(10, 0, 0, 3), 53);
                    Packet::udp(k, 100)
                } else {
                    let payload = if flags.syn { 0 } else { 500 };
                    Packet::tcp(key(sport), g.u32(0..4) * 500, 0, flags, payload)
                }
            })
            .collect();
        let until = SimTime::ZERO + SimDuration::from_millis(g.u64(1..40));
        let mut a = hosts_after(&pkts.iter().collect::<Vec<_>>(), until);
        let mut b = hosts_after(&maybe_permuted(g, &pkts), until);
        for (what, node) in [("tcp host", NodeId(1)), ("sink host", NodeId(2))] {
            let (a, b): (&mut dyn NodeLogic, &mut dyn NodeLogic) = if node == NodeId(1) {
                (a.logic_mut::<TcpHost>(node), b.logic_mut::<TcpHost>(node))
            } else {
                (a.logic_mut::<SinkHost>(node), b.logic_mut::<SinkHost>(node))
            };
            digest_iff_bytes(what, host_state(a), host_state(b))?;
        }
    }

    fn closing_hosts_digest_their_bytes(g) {
        let sizes = g.vec(2..5, |g| g.u64(1..12) * 1460);
        let mut a = transfers_after(&sizes.iter().collect::<Vec<_>>());
        let mut b = transfers_after(&maybe_permuted(g, &sizes));
        for node in [NodeId(0), NodeId(1)] {
            let (a, b) = (a.logic_mut::<TcpHost>(node), b.logic_mut::<TcpHost>(node));
            prop_assert_eq!(a.counters().evictions, sizes.len() as u64);
            digest_iff_bytes("closing host", host_state(a), host_state(b))?;
        }
    }

    fn fastsim_digest_is_its_bytes(g) {
        let cfg = AttackSimConfig {
            legit_flows: g.usize(3..20),
            malicious_flows: g.usize(0..4),
            horizon: SimDuration::from_secs(3),
            ..AttackSimConfig::fig2()
        };
        let seed = g.u64(0..3);
        let steps = g.usize(0..200);
        let mut a = AttackSim::new(&cfg, seed);
        for _ in 0..steps {
            a.step();
        }
        // The second run is either restored from the first's checkpoint
        // or fresh, then stepped to the same point or a little past it.
        let mut b = if g.bool() {
            AttackSim::from_bytes(&cfg, &sim_bytes(&a)).expect("own checkpoint")
        } else {
            let mut b = AttackSim::new(&cfg, g.u64(0..3));
            for _ in 0..steps {
                b.step();
            }
            b
        };
        for _ in 0..g.usize(0..3) {
            b.step();
        }
        digest_iff_bytes(
            "attack sim",
            (a.state_hash(), sim_bytes(&a)),
            (b.state_hash(), sim_bytes(&b)),
        )?;
        // The selector's digest, taken of the selector decoded from its
        // bytes, against those bytes.
        let selector = |sim: &AttackSim| {
            let mut w = Writer::new();
            sim.selector().encode(&mut w);
            let bytes = w.into_bytes();
            let decoded = FlowSelector::decode(cfg.params, &mut Reader::new(&bytes))
                .expect("its own bytes");
            (digest(|d| decoded.encode(d)), bytes)
        };
        digest_iff_bytes("selector", selector(&a), selector(&b))?;
    }

    fn engine_digest_is_its_bytes(g) {
        let pkts: Vec<Packet> = (0..g.usize(1..12))
            .map(|i| {
                let sport = 3000 + g.u16(0..4);
                match i % 3 {
                    0 => Packet::probe(Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 3), 7, i as u16, g.u8(1..3)),
                    1 => {
                        let k = FlowKey::udp(Addr::new(10, 0, 0, 1), sport, Addr::new(10, 0, 0, 3), 53);
                        Packet::udp(k, 100 + g.u32(0..3) * 400)
                    }
                    _ => {
                        let flags = TcpFlags { syn: g.bool(), ..TcpFlags::default() };
                        let payload = if flags.syn { 0 } else { 500 };
                        Packet::tcp(key(sport), g.u32(0..4) * 500, 0, flags, payload)
                    }
                }
            })
            .collect();
        let ops: Vec<LinkOp> = (0..g.usize(0..5))
            .map(|_| {
                let link = LinkId(g.usize(0..3));
                if g.bool() {
                    LinkOp::Up(link, g.bool())
                } else {
                    let dir = if g.bool() { Dir::AtoB } else { Dir::BtoA };
                    LinkOp::Fault(link, dir, FaultConfig {
                        drop_prob: [0.0, 0.3][g.usize(0..2)],
                        jitter_max: g.bool().then(|| SimDuration::from_micros(g.u64(1..500))),
                    })
                }
            })
            .collect();
        let respond = g.bool();
        let until = SimTime::ZERO + SimDuration::from_millis(g.u64(3..30));
        let a = engine_after(&pkts.iter().collect::<Vec<_>>(), &ops.iter().collect::<Vec<_>>(), respond, until);
        let b = engine_after(
            &maybe_permuted(g, &pkts),
            &maybe_permuted(g, &ops),
            respond ^ (g.u8(0..4) == 0),
            until,
        );
        for (i, &(name, _)) in Simulator::SECTIONS.iter().enumerate() {
            digest_iff_bytes(name, section_state(&a, i), section_state(&b, i))?;
        }
        digest_iff_bytes("engine", engine_state(&a), engine_state(&b))?;
        // Each section folds from its seed, and the state hash is those
        // digests folded in order under one label.
        let mut whole = StateDigest::labeled("netsim");
        let mut sections = Vec::new();
        for (i, (name, seed)) in Simulator::SECTIONS.iter().enumerate() {
            let mut d = seed.clone();
            a.encode_section(i, &mut Sink::digest(&mut d));
            sections.push((*name, d.finish()));
            whole.write_u64(d.finish());
        }
        let walk = a.walk(false);
        prop_assert_eq!(&walk.sections, &sections);
        prop_assert_eq!(whole.finish(), walk.hash);
        prop_assert_eq!(walk.hash, a.state_hash());
    }
}

/// Every `Wire` shape, each the round-trip property at it.
/// `tests/workspace_lints.rs` requires a row for every field list.
const WIRE_SHAPES: [fn(); 27] = [
    round_trips::<Rng>,
    round_trips::<Proto>,
    round_trips::<FlowKey>,
    round_trips::<TcpFlags>,
    round_trips::<Header>,
    round_trips::<Packet>,
    round_trips::<SinkFlowStats>,
    round_trips::<FaultConfig>,
    round_trips::<LinkDirStats>,
    round_trips::<Reno>,
    round_trips::<RttEstimator>,
    round_trips::<TcpState>,
    round_trips::<TcpSenderConfig>,
    round_trips::<SenderStats>,
    round_trips::<SegmentRecord>,
    round_trips::<SeqState>,
    round_trips::<SenderMeta>,
    round_trips::<ReceiverStats>,
    round_trips::<RcvState>,
    round_trips::<RecvRow>,
    round_trips::<FlowSpec>,
    round_trips::<HostCounters>,
    round_trips::<TcpHostConfig>,
    round_trips::<Cell>,
    round_trips::<SelectorStats>,
    round_trips::<FlowState>,
    round_trips::<CheckpointFrame>,
];

#[test]
fn every_wire_shape_round_trips() {
    WIRE_SHAPES.iter().for_each(|round_trip| round_trip());
}

/// One generated byte: mostly the small values flags, tags, counts and
/// short varints take, the more often zero the higher `zeros` (of 16).
fn wire_byte(g: &mut Gen, zeros: u8) -> u8 {
    if g.u8(0..16) < zeros {
        return 0;
    }
    match g.u8(0..8) {
        0 => 1,
        1 => 6,
        2 => 17,
        3 => 0x40,
        _ => g.u8(0..255),
    }
}

/// A value of `T` and its encoding, decoded from generated bytes: bytes
/// are drawn as the decoder asks for them, and a refusal redraws either
/// the last few bytes before where it stopped or all bytes since a
/// random point before it. `None` if no value turns up within the
/// budget.
fn generate<T: Wire>(g: &mut Gen) -> Option<(T, Vec<u8>)> {
    let zeros = [6, 12, 15][g.usize(0..3)];
    let mut bytes = Vec::new();
    for _ in 0..4_000 {
        let mut r = Reader::new(&bytes);
        let err = match T::take(&mut r) {
            Ok(v) => {
                let used = bytes.len() - r.remaining();
                bytes.truncate(used);
                return Some((v, bytes));
            }
            Err(err) => err,
        };
        // A field's refusal stops just past that field, a `check`'s past
        // the whole shape.
        let keep = match err.kind {
            ErrorKind::Truncated => bytes.len(),
            _ if g.bool() => err.at.saturating_sub(g.usize(1..9)),
            _ => g.usize(0..err.at.max(1)),
        };
        bytes.truncate(keep);
        // Room past the field, so that a count of several elements fits;
        // a redraw after a refusal takes fewer zeros.
        let (more, zeros) = match err.kind {
            ErrorKind::Truncated => (g.usize(8..64), zeros),
            _ => (g.usize(8..64), 6),
        };
        bytes.extend((0..more).map(|_| wire_byte(g, zeros)));
    }
    None
}

/// `T`'s round trip over generated values: `take(put(v))` is `v`, the
/// bytes `v` was decoded from are `put(v)`, equal digests mean equal
/// bytes (against `v` itself or a value decoded from its bytes with one
/// byte redrawn), every strict prefix of the bytes is refused, and the
/// shortest encoding generated is `MIN_BYTES` long.
fn round_trips<T: Wire + Debug>() {
    let name = std::any::type_name::<T>();
    let bytes_of = |v: &T| {
        let mut w = Writer::new();
        v.put(&mut w);
        w.into_bytes()
    };
    let state = |v: &T| (digest(|d| v.put(d)), bytes_of(v));
    let mut shortest = usize::MAX;
    propcheck::check(name, &Config::default(), |g| {
        let Some((v, bytes)) = generate::<T>(g) else {
            return Err(PropError::Discard);
        };
        prop_assert_eq!(bytes_of(&v), bytes.clone(), "{name}: {v:?}");
        let back = T::take(&mut Reader::new(&bytes));
        prop_assert_eq!(
            format!("{back:?}"),
            format!("{:?}", Ok::<_, ()>(&v)),
            "{name}"
        );
        for cut in 0..bytes.len() {
            let prefix = T::take(&mut Reader::new(&bytes[..cut]));
            prop_assert!(
                prefix.is_err(),
                "{name}: {bytes:?} cut to {cut} bytes decoded"
            );
        }
        let mut near = bytes.clone();
        if g.bool() {
            let at = g.usize(0..near.len());
            near[at] = wire_byte(g, 6);
        }
        if let Ok(w) = T::take(&mut Reader::new(&near)) {
            digest_iff_bytes(name, state(&v), state(&w))?;
        }
        shortest = shortest.min(bytes.len());
        Ok(())
    });
    assert_eq!(
        shortest,
        T::MIN_BYTES,
        "{name}: the shortest encoding generated"
    );
}
