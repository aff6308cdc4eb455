//! Sequential-vs-parallel equivalence for the operator bounce attack —
//! the companion to `crates/netsim/tests/parallel_equivalence.rs`,
//! living here because the netsim crate cannot depend on dui-attacks.
//!
//! The TTL-threshold [`BounceProgram`] reads no foreign packet ids, so
//! a scenario running it is `--sim-threads` eligible: state hashes,
//! counters and the program's own bounce tally must be byte-identical
//! at every thread count, with the bounce pair deliberately straddling
//! the domain cut so tormented packets cross the barrier repeatedly.

use dui_attacks::BounceProgram;
use dui_netsim::parallel::ParallelOutcome;
use dui_netsim::prelude::*;
use dui_stats::wire::{Encoder, Sink};
use std::any::Any;

fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1_000_000)
}

/// Deterministic test-local PRNG (the engine RNG is off-limits under
/// the parallel engine).
#[derive(Debug, Clone, Copy)]
struct TestRng(u64);

impl TestRng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Timer-driven UDP source aimed at one victim; half its packets match
/// the bounce predicate (dport 9000), half sail through (dport 9001).
struct BurstHost {
    addr: Addr,
    victim: Addr,
    rng: TestRng,
    bursts_left: u32,
    sent: u64,
    got_packets: u64,
}

impl BurstHost {
    fn new(addr: Addr, victim: Addr, seed: u64, bursts: u32) -> Self {
        BurstHost {
            addr,
            victim,
            rng: TestRng(seed | 1),
            bursts_left: bursts,
            sent: 0,
            got_packets: 0,
        }
    }
}

impl NodeLogic for BurstHost {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::from_millis(1 + self.rng.pick(4)), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        if self.bursts_left == 0 {
            return;
        }
        self.bursts_left -= 1;
        for _ in 0..1 + self.rng.pick(3) {
            let dport = 9000 + self.rng.pick(2) as u16;
            let sport = 4000 + self.rng.pick(16) as u16;
            let size = 100 + self.rng.pick(1000) as u32;
            ctx.send(Packet::udp(
                FlowKey::udp(self.addr, sport, self.victim, dport),
                size,
            ));
            self.sent += 1;
        }
        ctx.set_timer(SimDuration::from_millis(1 + self.rng.pick(6)), 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {
        self.got_packets += 1;
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn encode(&self, s: &mut Sink<'_>) {
        s.refuse("a test burst host has no checkpoint decoder");
        s.u64(self.rng.0);
        s.u64(self.bursts_left as u64);
        s.u64(self.sent);
        s.u64(self.got_packets);
    }
}

/// Two clusters joined by a millisecond WAN link — the domain cut —
/// with the bounce pair (r1, r2) straddling it. Sources live in
/// cluster 1, the victim in cluster 2.
fn build(seed: u64, bounces: u32) -> (Simulator, NodeId, NodeId, NodeId) {
    let mut b = TopologyBuilder::new();
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    let victim_addr = Addr::new(10, 1, 0, 1);
    let mut sources = Vec::new();
    for h in 0..3u8 {
        let addr = Addr::new(10, 0, h, 1);
        let node = b.host(&format!("src{h}"), addr);
        b.link(
            node,
            r1,
            Bandwidth::gbps(1),
            SimDuration::from_nanos(400),
            64,
        );
        sources.push((node, addr));
    }
    let victim = b.host("victim", victim_addr);
    b.link(
        victim,
        r2,
        Bandwidth::gbps(1),
        SimDuration::from_nanos(400),
        64,
    );
    b.link(r1, r2, Bandwidth::mbps(50), SimDuration::from_millis(3), 32);
    let mut sim = Simulator::new(b.build(), seed);
    let matcher = |p: &Packet| p.key.dport == 9000;
    sim.set_logic(
        r1,
        Box::new(RouterLogic::new().with_program(Box::new(BounceProgram::new(
            Box::new(matcher),
            r2,
            bounces,
        )))),
    );
    sim.set_logic(
        r2,
        Box::new(RouterLogic::new().with_program(Box::new(BounceProgram::new(
            Box::new(matcher),
            r1,
            bounces,
        )))),
    );
    for (i, &(node, addr)) in sources.iter().enumerate() {
        sim.set_logic(
            node,
            Box::new(BurstHost::new(
                addr,
                victim_addr,
                seed ^ ((i as u64) << 8),
                30,
            )),
        );
    }
    sim.set_logic(victim, Box::new(SinkHost::new()));
    (sim, r1, r2, victim)
}

fn bounced(sim: &mut Simulator, r: NodeId) -> u64 {
    let logic: &mut RouterLogic = sim.logic_mut(r);
    logic.program_mut::<BounceProgram>(0).bounced_packets
}

#[test]
fn bounce_scenario_matches_sequential_across_thread_counts() {
    for seed in [11u64, 12] {
        let (mut reference, r1, r2, _) = build(seed, 3);
        let mut want_hashes = Vec::new();
        for ms in [60u64, 150, 300] {
            reference.run_until(at_ms(ms));
            want_hashes.push(reference.state_hash());
        }
        let want_counters = reference.counters();
        let want_bounced = (bounced(&mut reference, r1), bounced(&mut reference, r2));
        assert!(
            want_bounced.0 > 0,
            "attack never engaged (seed {seed}): {want_bounced:?}"
        );
        for threads in [1usize, 2, 4, 8] {
            let (mut sim, r1, r2, _) = build(seed, 3);
            sim.set_sim_threads(threads);
            let mut outcome = None;
            let mut hashes = Vec::new();
            for ms in [60u64, 150, 300] {
                sim.run_until(at_ms(ms));
                if outcome.is_none() {
                    outcome = sim.last_parallel_outcome().copied();
                }
                hashes.push(sim.state_hash());
            }
            assert_eq!(
                hashes, want_hashes,
                "state hash diverged (seed {seed}, {threads} threads)"
            );
            match outcome {
                Some(ParallelOutcome::Ran(report)) => {
                    assert!(report.domains >= 2, "bounce pair must straddle a cut");
                }
                other => panic!("expected a parallel run, got {other:?}"),
            }
            assert_eq!(
                sim.counters(),
                want_counters,
                "seed {seed}, {threads} threads"
            );
            assert_eq!(
                (bounced(&mut sim, r1), bounced(&mut sim, r2)),
                want_bounced,
                "bounce tally diverged (seed {seed}, {threads} threads)"
            );
        }
    }
}

#[test]
fn bounced_traffic_still_arrives_under_parallel_engine() {
    let (mut sim, _, _, victim) = build(21, 3);
    sim.set_sim_threads(4);
    sim.run_until(at_ms(300));
    let sink: &mut SinkHost = sim.logic_mut(victim);
    assert!(sink.total_packets > 0, "victim starved");
    assert_eq!(sim.counters().total_drops(), 0, "bounce must not drop");
}
