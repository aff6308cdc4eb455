//! End-to-end tests of the simulation engine: delivery timing, queueing,
//! routing, TTL handling, taps, fault injection, timers, determinism.

use dui_netsim::prelude::*;
use std::any::Any;

fn line() -> (Topology, NodeId, NodeId, NodeId) {
    let mut b = TopologyBuilder::new();
    let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
    let r = b.router("r");
    let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
    b.link(h1, r, Bandwidth::mbps(100), SimDuration::from_millis(1), 64);
    b.link(r, h2, Bandwidth::mbps(100), SimDuration::from_millis(1), 64);
    (b.build(), h1, r, h2)
}

fn basic_sim() -> (Simulator, NodeId, NodeId, NodeId) {
    let (topo, h1, r, h2) = line();
    let mut sim = Simulator::new(topo, 1);
    sim.set_logic(r, Box::new(RouterLogic::new()));
    sim.set_logic(h2, Box::new(SinkHost::new()));
    (sim, h1, r, h2)
}

fn udp_key() -> FlowKey {
    FlowKey::udp(Addr::new(10, 0, 0, 1), 5000, Addr::new(10, 0, 0, 2), 80)
}

#[test]
fn packet_crosses_two_links_with_correct_latency() {
    let (mut sim, h1, _r, h2) = basic_sim();
    // 1028-byte UDP packet: ser = 1028*8/100e6 = 82.24us per link, prop = 1ms per link.
    sim.inject(h1, Packet::udp(udp_key(), 1000));
    sim.run_until(SimTime::from_secs(1));
    let sink: &mut SinkHost = sim.logic_mut(h2);
    assert_eq!(sink.total_packets, 1);
    assert_eq!(sink.total_bytes, 1000);
    // Link stats reflect one delivery per hop.
    let s0 = sim.link_stats(LinkId(0), Dir::AtoB);
    assert_eq!(s0.delivered, 1);
    assert_eq!(s0.bytes_delivered, 1028);
}

#[test]
fn queue_drops_when_overloaded() {
    // Tiny queue + slow link: flood it and check DropTail.
    let mut b = TopologyBuilder::new();
    let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
    let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
    b.link(h1, h2, Bandwidth::kbps(8), SimDuration::from_millis(1), 2);
    let mut sim = Simulator::new(b.build(), 1);
    sim.set_logic(h2, Box::new(SinkHost::new()));
    for _ in 0..10 {
        sim.inject(h1, Packet::udp(udp_key(), 100));
    }
    sim.run_until(SimTime::from_secs(10));
    let stats = sim.link_stats(LinkId(0), Dir::AtoB);
    // 1 in flight + 2 queued accepted; 7 dropped.
    assert_eq!(stats.dropped_queue, 7);
    assert_eq!(stats.delivered, 3);
    assert_eq!(sim.counters().dropped_queue, 7);
}

#[test]
fn serialization_is_pipelined_not_parallel() {
    // Two packets injected at t=0 on one link must be serialized one after
    // the other: second arrives one serialization-delay later.
    let mut b = TopologyBuilder::new();
    let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
    let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
    b.link(h1, h2, Bandwidth::mbps(1), SimDuration::ZERO, 16);
    let mut sim = Simulator::new(b.build(), 1);
    sim.set_logic(h2, Box::new(SinkHost::new()));
    sim.enable_trace(100);
    sim.inject(h1, Packet::udp(udp_key(), 972)); // 1000 B on wire = 8 ms at 1 Mbps
    sim.inject(h1, Packet::udp(udp_key(), 972));
    sim.run_until(SimTime::from_secs(1));
    let delivers: Vec<_> = sim
        .trace_events()
        .iter()
        .filter(|e| matches!(e.kind, dui_netsim::trace::TraceKind::Deliver))
        .map(|e| e.time)
        .collect();
    assert_eq!(delivers.len(), 2);
    let gap = delivers[1].since(delivers[0]);
    assert_eq!(gap, SimDuration::from_millis(8));
}

#[test]
fn ttl_expiry_generates_time_exceeded() {
    let (mut sim, h1, _r, _h2) = basic_sim();
    // Probe with TTL 1 expires at the router; h1 (sink logic absent -> use
    // SinkHost to catch reply) — install a sink on h1 to receive the ICMP.
    sim.set_logic(h1, Box::new(SinkHost::new()));
    let probe = Packet::probe(Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2), 7, 1, 1);
    sim.inject(h1, probe);
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.counters().dropped_ttl, 1);
    let h1_sink: &mut SinkHost = sim.logic_mut(h1);
    // The ICMP reply is consumed by the sink host (not an echo request).
    assert_eq!(h1_sink.total_packets, 1);
}

#[test]
fn hosts_answer_ping() {
    let (mut sim, h1, _r, _h2) = basic_sim();
    sim.set_logic(h1, Box::new(SinkHost::new()));
    let probe = Packet::probe(Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2), 9, 1, 64);
    sim.inject(h1, probe);
    sim.run_until(SimTime::from_secs(1));
    let h1_sink: &mut SinkHost = sim.logic_mut(h1);
    assert_eq!(h1_sink.total_packets, 1, "echo reply should come back");
}

#[test]
fn failed_link_blackholes_traffic() {
    let (mut sim, h1, _r, h2) = basic_sim();
    sim.set_link_up(LinkId(1), false);
    sim.inject(h1, Packet::udp(udp_key(), 100));
    sim.run_until(SimTime::from_secs(1));
    let sink: &mut SinkHost = sim.logic_mut(h2);
    assert_eq!(sink.total_packets, 0);
    assert_eq!(sim.counters().dropped_fault, 1);
    // Restore and verify recovery.
    sim.set_link_up(LinkId(1), true);
    sim.inject(h1, Packet::udp(udp_key(), 100));
    sim.run_until(SimTime::from_secs(2));
    let sink: &mut SinkHost = sim.logic_mut(h2);
    assert_eq!(sink.total_packets, 1);
}

#[test]
fn fault_injection_drops_statistically() {
    let (topo, h1, r, h2) = line();
    let mut sim = Simulator::new(topo, 7);
    sim.set_logic(r, Box::new(RouterLogic::new()));
    sim.set_logic(h2, Box::new(SinkHost::new()));
    sim.set_fault(
        LinkId(0),
        Dir::AtoB,
        FaultConfig {
            drop_prob: 0.5,
            jitter_max: None,
        },
    );
    for i in 0..1000u64 {
        sim.run_until(SimTime::ZERO + SimDuration::from_micros(i * 100));
        sim.inject(h1, Packet::udp(udp_key(), 10));
    }
    sim.run_until(SimTime::from_secs(60));
    let sink: &mut SinkHost = sim.logic_mut(h2);
    let got = sink.total_packets as f64;
    assert!((got - 500.0).abs() < 80.0, "got {got}");
}

/// Tap that drops every other packet and counts what it saw.
struct AlternatingDropper {
    seen: u64,
}
impl LinkTap for AlternatingDropper {
    fn intercept(
        &mut self,
        _now: SimTime,
        _dir: Dir,
        _pkt: &mut Packet,
        _inject: &mut Vec<Packet>,
    ) -> TapAction {
        self.seen += 1;
        if self.seen.is_multiple_of(2) {
            TapAction::Drop
        } else {
            TapAction::Forward
        }
    }
}

#[test]
fn mitm_tap_can_drop() {
    let (mut sim, h1, _r, h2) = basic_sim();
    sim.install_tap(
        LinkId(1),
        Dir::AtoB,
        Box::new(AlternatingDropper { seen: 0 }),
    );
    for _ in 0..10 {
        sim.inject(h1, Packet::udp(udp_key(), 10));
    }
    sim.run_until(SimTime::from_secs(1));
    let sink: &mut SinkHost = sim.logic_mut(h2);
    assert_eq!(sink.total_packets, 5);
    assert_eq!(sim.counters().dropped_tap, 5);
}

/// Tap that delays every packet by a fixed amount.
struct Delayer(SimDuration);
impl LinkTap for Delayer {
    fn intercept(
        &mut self,
        _now: SimTime,
        _dir: Dir,
        _pkt: &mut Packet,
        _inject: &mut Vec<Packet>,
    ) -> TapAction {
        TapAction::Delay(self.0)
    }
}

#[test]
fn mitm_tap_can_delay() {
    let (mut sim, h1, _r, h2) = basic_sim();
    sim.enable_trace(100);
    sim.install_tap(
        LinkId(1),
        Dir::AtoB,
        Box::new(Delayer(SimDuration::from_millis(100))),
    );
    sim.inject(h1, Packet::udp(udp_key(), 100));
    sim.run_until(SimTime::from_secs(1));
    let sink: &mut SinkHost = sim.logic_mut(h2);
    assert_eq!(sink.total_packets, 1);
    // Arrival must be >= 100ms (the tap delay) + 2ms propagation.
    let last = sim.trace_events().last().unwrap().time;
    assert!(last >= SimTime::from_secs_f64(0.102));
}

/// Tap that injects a copy of each packet (a rudimentary duplicator).
struct Duplicator;
impl LinkTap for Duplicator {
    fn intercept(
        &mut self,
        _now: SimTime,
        _dir: Dir,
        pkt: &mut Packet,
        inject: &mut Vec<Packet>,
    ) -> TapAction {
        let mut copy = pkt.clone();
        copy.id = 0; // fresh id on injection
        inject.push(copy);
        TapAction::Forward
    }
}

#[test]
fn mitm_tap_can_inject() {
    let (mut sim, h1, _r, h2) = basic_sim();
    sim.install_tap(LinkId(1), Dir::AtoB, Box::new(Duplicator));
    for _ in 0..3 {
        sim.inject(h1, Packet::udp(udp_key(), 10));
    }
    sim.run_until(SimTime::from_secs(1));
    let sink: &mut SinkHost = sim.logic_mut(h2);
    assert_eq!(sink.total_packets, 6);
}

/// Node that pings on a timer to exercise on_start/on_timer.
struct Pinger {
    dst: Addr,
    sent: u32,
    got_replies: u32,
}
impl NodeLogic for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::from_millis(10), 1);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
        if matches!(pkt.header, Header::IcmpEchoReply { .. }) {
            self.got_replies += 1;
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        if self.sent < 4 {
            self.sent += 1;
            let p = Packet::probe(ctx.addr(), self.dst, 1, self.sent as u16, 64);
            ctx.send(p);
            ctx.set_timer(SimDuration::from_millis(10), 1);
        }
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn timers_drive_periodic_behavior() {
    let (mut sim, h1, _r, _h2) = basic_sim();
    sim.set_logic(
        h1,
        Box::new(Pinger {
            dst: Addr::new(10, 0, 0, 2),
            sent: 0,
            got_replies: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    let p: &mut Pinger = sim.logic_mut(h1);
    assert_eq!(p.sent, 4);
    assert_eq!(p.got_replies, 4);
}

/// `enable_spans` records every dispatched event as a span labelled by
/// event kind and stamped with simulated (not wall-clock) nanoseconds —
/// and, being an observer the sharded engine cannot merge yet, makes
/// `set_sim_threads` fall back to the sequential engine and count it.
#[test]
fn spans_record_each_dispatch_at_sim_time_and_force_the_sequential_engine() {
    let (mut sim, h1, _r, _h2) = basic_sim();
    let dst = Addr::new(10, 0, 0, 2);
    sim.set_logic(h1, Box::new(Pinger { dst, sent: 0, got_replies: 0 }));
    assert!(sim.spans().is_none());
    sim.enable_spans(1024);
    sim.set_sim_threads(2);
    sim.run_until(SimTime::from_secs(1));

    let recorder = sim.spans().expect("spans were enabled");
    assert_eq!((recorder.wrapped(), recorder.open_depth()), (0, 0));
    let spans = recorder.spans();
    let starts_of = |name: &str| -> Vec<u64> {
        spans.iter().filter(|s| s.name == name).map(|s| s.start_ns).collect()
    };
    // The pinger's timer fires every 10 ms of simulated time: four pings
    // and the tick that finds nothing left to send.
    assert_eq!(starts_of("timer"), [10, 20, 30, 40, 50].map(|ms| ms * 1_000_000));
    // Each ping and its reply cross two links: a transmission and a
    // delivery per hop.
    assert_eq!(starts_of("deliver").len(), 16);
    assert_eq!(starts_of("tx_complete").len(), 16);
    assert_eq!(spans.len(), 5 + 16 + 16);
    // An event is dispatched at one instant, in time order.
    assert!(spans.iter().all(|s| s.depth == 0 && s.start_ns == s.end_ns));
    assert!(spans.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    // First hop of the first ping: 64 B at 100 Mbit/s, then 1 ms of wire.
    assert_eq!(starts_of("tx_complete")[0], 10_000_000 + 5_120);
    assert_eq!(starts_of("deliver")[0], 10_000_000 + 5_120 + 1_000_000);

    let metrics = sim.metrics_snapshot();
    assert_eq!(metrics.counter("netsim.parallel.fallback"), 1);
    assert_eq!(metrics.counter("netsim.parallel.fallback.spans"), 1);
    let p: &mut Pinger = sim.logic_mut(h1);
    assert_eq!((p.sent, p.got_replies), (4, 4));
}

#[test]
fn identical_seeds_are_bit_identical() {
    let run = |seed: u64| {
        let (topo, h1, r, h2) = line();
        let mut sim = Simulator::new(topo, seed);
        sim.set_logic(r, Box::new(RouterLogic::new()));
        sim.set_logic(h2, Box::new(SinkHost::new()));
        sim.set_fault(
            LinkId(0),
            Dir::AtoB,
            FaultConfig {
                drop_prob: 0.3,
                jitter_max: Some(SimDuration::from_millis(5)),
            },
        );
        for i in 0..200 {
            let mut k = udp_key();
            k.sport = 1000 + i;
            sim.inject(h1, Packet::udp(k, 100));
        }
        sim.run_until(SimTime::from_secs(5));
        let sink: &mut SinkHost = sim.logic_mut(h2);
        (sink.total_packets, sim.counters())
    };
    assert_eq!(run(99), run(99));
    assert_ne!(run(99).0, run(100).0, "different seeds should diverge");
}

#[test]
fn unroutable_packet_is_counted() {
    let (mut sim, h1, _r, _h2) = basic_sim();
    let key = FlowKey::udp(Addr::new(10, 0, 0, 1), 1, Addr::new(99, 9, 9, 9), 2);
    sim.inject(h1, Packet::udp(key, 10));
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.counters().dropped_no_route, 1);
}

#[test]
fn prefix_announcement_routes_whole_prefix() {
    let (topo, h1, r, h2) = line();
    let mut sim = Simulator::new(topo, 1);
    sim.set_logic(r, Box::new(RouterLogic::new()));
    sim.set_logic(h2, Box::new(SinkHost::new()));
    sim.announce_prefix(Prefix::new(Addr::new(20, 0, 0, 0), 8), h2);
    let key = FlowKey::udp(Addr::new(10, 0, 0, 1), 1, Addr::new(20, 5, 6, 7), 2);
    sim.inject(h1, Packet::udp(key, 10));
    sim.run_until(SimTime::from_secs(1));
    let sink: &mut SinkHost = sim.logic_mut(h2);
    assert_eq!(sink.total_packets, 1);
}

#[test]
fn run_to_quiescence_drains() {
    let (mut sim, h1, _r, _h2) = basic_sim();
    sim.inject(h1, Packet::udp(udp_key(), 10));
    let n = sim.run_to_quiescence(10_000);
    assert!(n >= 4, "at least tx/deliver per hop, got {n}");
}

#[test]
fn step_limited_is_equivalent_to_run_until() {
    let build = || {
        let (topo, h1, r, h2) = line();
        let mut sim = Simulator::new(topo, 5);
        sim.set_logic(r, Box::new(RouterLogic::new()));
        sim.set_logic(h2, Box::new(SinkHost::new()));
        for i in 0..50 {
            let mut k = udp_key();
            k.sport = 2000 + i;
            sim.inject(h1, Packet::udp(k, 200));
        }
        sim
    };
    let mut a = build();
    a.run_until(SimTime::from_secs(1));
    let mut b = build();
    let mut steps = 0u64;
    while b.step_limited(SimTime::from_secs(1)).is_some() {
        steps += 1;
    }
    assert!(steps > 100, "expected many events, got {steps}");
    assert_eq!(a.now(), b.now());
    assert_eq!(a.state_hash(), b.state_hash());
}

#[test]
fn checkpoint_restore_is_a_state_hash_fixed_point() {
    let build = || {
        let (topo, h1, r, h2) = line();
        let mut sim = Simulator::new(topo, 11);
        sim.set_logic(r, Box::new(RouterLogic::new()));
        sim.set_logic(h2, Box::new(SinkHost::new()));
        sim.set_fault(
            LinkId(0),
            Dir::AtoB,
            FaultConfig {
                drop_prob: 0.2,
                jitter_max: Some(SimDuration::from_millis(2)),
            },
        );
        (sim, h1, h2)
    };
    let (mut orig, h1, h2) = build();
    for i in 0..100 {
        let mut k = udp_key();
        k.sport = 3000 + i;
        orig.inject(h1, Packet::udp(k, 150));
    }
    // Stop mid-flight so the checkpoint carries pending events and queued packets.
    orig.run_until(SimTime::from_secs_f64(0.001));
    let ckpt = orig.checkpoint().expect("checkpointable");
    assert_eq!(ckpt.state_hash, orig.state_hash());

    // Restore into a freshly built scenario and verify the hash fixed point.
    let (mut resumed, _h1, _h2) = build();
    let expected_hash = ckpt.state_hash;
    resumed.restore(ckpt).expect("restorable");
    assert_eq!(resumed.state_hash(), expected_hash);

    // Both must now evolve identically to quiescence.
    orig.run_until(SimTime::from_secs(5));
    resumed.run_until(SimTime::from_secs(5));
    assert_eq!(orig.state_hash(), resumed.state_hash());
    let a: &mut SinkHost = orig.logic_mut(h2);
    let a = (a.total_packets, a.total_bytes);
    let b: &mut SinkHost = resumed.logic_mut(h2);
    assert_eq!(a, (b.total_packets, b.total_bytes));
}

#[test]
fn checkpoint_refuses_taps() {
    let (mut sim, _h1, _r, _h2) = basic_sim();
    sim.install_tap(LinkId(0), Dir::AtoB, Box::new(Duplicator));
    assert!(sim.checkpoint().is_err());
}
