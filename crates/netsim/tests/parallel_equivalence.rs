//! Sequential-vs-parallel equivalence: the parallel engine must produce
//! byte-identical observable state — state hashes, counters, logical
//! metrics — for any `--sim-threads N`, on randomized topologies and
//! traffic, with operator actions (link flaps) interleaved between runs.

use dui_netsim::parallel::ParallelOutcome;
use dui_netsim::prelude::*;
use dui_stats::digest::StateDigest;
use dui_stats::wire::{DecodeError, Reader, Writer};
use std::any::Any;

/// Thread counts every equivalence case runs at: one (the same loop with
/// nobody to meet), even and odd splits, and more threads than domains.
const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

/// Milliseconds → SimTime (nanosecond ticks).
fn at_ms(ms: u64) -> SimTime {
    SimTime(ms * 1_000_000)
}

/// Deterministic test-local PRNG (splitmix-ish LCG). The engine's own
/// RNG is off-limits under the parallel engine, so the traffic
/// generator carries one of these instead.
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

/// Timer-driven traffic generator: sends pseudo-random UDP bursts to
/// peer hosts off its own PRNG. Deliberately never touches `ctx.rng()`
/// and never reads `pkt.id` — the two things node logic must not do
/// under the parallel engine.
struct PulseHost {
    addr: Addr,
    peers: Vec<Addr>,
    rng: TestRng,
    bursts_left: u32,
    sent: u64,
    got_packets: u64,
    got_bytes: u64,
}

impl PulseHost {
    fn new(addr: Addr, peers: Vec<Addr>, seed: u64, bursts: u32) -> Self {
        PulseHost {
            addr,
            peers,
            rng: TestRng(seed | 1),
            bursts_left: bursts,
            sent: 0,
            got_packets: 0,
            got_bytes: 0,
        }
    }
}

impl NodeLogic for PulseHost {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::from_millis(1 + self.rng.pick(5)), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        if self.bursts_left == 0 {
            return;
        }
        self.bursts_left -= 1;
        let n = 1 + self.rng.pick(3);
        for _ in 0..n {
            let dst = self.peers[self.rng.pick(self.peers.len() as u64) as usize];
            let sport = 4000 + self.rng.pick(16) as u16;
            let size = 100 + self.rng.pick(1200) as u32;
            ctx.send(Packet::udp(FlowKey::udp(self.addr, sport, dst, 9000), size));
            self.sent += 1;
        }
        ctx.set_timer(SimDuration::from_millis(1 + self.rng.pick(7)), 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
        self.got_packets += 1;
        self.got_bytes += pkt.payload as u64;
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn state_digest(&self, d: &mut StateDigest) {
        d.write_u64(self.rng.0);
        d.write_u64(self.bursts_left as u64);
        d.write_u64(self.sent);
        d.write_u64(self.got_packets);
        d.write_u64(self.got_bytes);
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = Writer::with_capacity(40);
        for v in [
            self.rng.0,
            self.bursts_left as u64,
            self.sent,
            self.got_packets,
            self.got_bytes,
        ] {
            w.u64(v);
        }
        Some(w.into_bytes())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), DecodeError> {
        let mut r = Reader::new(bytes);
        let rng = TestRng(r.u64("pulse rng")?);
        let bursts_left = r.u64("pulse bursts")?;
        let bursts_left = r.narrow("pulse bursts", bursts_left)?;
        let (sent, got_packets, got_bytes) = (r.u64("sent")?, r.u64("packets")?, r.u64("bytes")?);
        r.finish("pulse checkpoint")?;
        self.rng = rng;
        self.bursts_left = bursts_left;
        self.sent = sent;
        self.got_packets = got_packets;
        self.got_bytes = got_bytes;
        Ok(())
    }
}

/// A pseudo-random multi-domain topology: 2–4 clusters (each a router
/// plus 1–3 hosts on sub-microsecond LAN links, so the cluster
/// contracts into one domain) joined by millisecond WAN links with
/// small queues (so cross-domain drops happen).
fn random_clustered(seed: u64) -> (Topology, Vec<NodeId>, Vec<NodeId>, Vec<Addr>) {
    let mut rng = TestRng(seed.wrapping_mul(0x9e37_79b9).wrapping_add(seed) | 1);
    let clusters = 2 + rng.pick(3) as usize;
    clustered(rng, clusters, false)
}

/// The same shape with a chosen number of clusters — and, on request, one
/// more domain that never dispatches anything: a leaf router behind its
/// own WAN link that no route crosses (the Blink scenario's backup router
/// is such a domain).
fn clustered(
    mut rng: TestRng,
    clusters: usize,
    idle_leaf: bool,
) -> (Topology, Vec<NodeId>, Vec<NodeId>, Vec<Addr>) {
    let mut b = TopologyBuilder::new();
    let mut routers = Vec::new();
    let mut hosts = Vec::new();
    let mut addrs = Vec::new();
    for c in 0..clusters {
        let r = b.router(&format!("r{c}"));
        for h in 0..1 + rng.pick(3) as usize {
            let addr = Addr::new(10, c as u8, h as u8, 1);
            let node = b.host(&format!("h{c}-{h}"), addr);
            b.link(
                node,
                r,
                Bandwidth::gbps(1),
                SimDuration::from_nanos(200 + rng.pick(600)),
                64,
            );
            hosts.push(node);
            addrs.push(addr);
        }
        if let Some(&prev) = routers.last() {
            b.link(
                prev,
                r,
                Bandwidth::mbps(10 + rng.pick(90)),
                SimDuration::from_millis(2 + rng.pick(7)),
                (4 + rng.pick(28)) as usize,
            );
        }
        routers.push(r);
    }
    if clusters > 2 && rng.pick(2) == 1 {
        // Close the ring so routing has real choices to make.
        b.link(
            routers[clusters - 1],
            routers[0],
            Bandwidth::mbps(10 + rng.pick(90)),
            SimDuration::from_millis(2 + rng.pick(7)),
            (4 + rng.pick(28)) as usize,
        );
    }
    if idle_leaf {
        let leaf = b.router("idle");
        b.link(routers[0], leaf, Bandwidth::mbps(10), SimDuration::from_millis(3), 8);
        routers.push(leaf);
    }
    (b.build(), routers, hosts, addrs)
}

/// Build a fully wired simulator over `topo`: routers route, every host
/// pulses traffic at every other host.
fn wire(topo: Topology, routers: &[NodeId], hosts: &[NodeId], addrs: &[Addr], seed: u64) -> Simulator {
    let mut sim = Simulator::new(topo, seed);
    for &r in routers {
        sim.set_logic(r, Box::new(RouterLogic::new()));
    }
    for (i, &h) in hosts.iter().enumerate() {
        let peers: Vec<Addr> = addrs
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &a)| a)
            .collect();
        sim.set_logic(
            h,
            Box::new(PulseHost::new(addrs[i], peers, seed ^ (i as u64) << 8, 40)),
        );
    }
    sim
}

/// Metrics snapshot with the structural engine metrics stripped: these
/// measure the machine (arena/wheel internals), which legitimately
/// differs between the sequential engine and the domain decomposition.
/// Everything else must match exactly.
fn logical_metrics(sim: &Simulator) -> String {
    let mut snap = sim.metrics_snapshot();
    let structural = |k: &str| k.starts_with("netsim.arena.") || k.starts_with("netsim.wheel.");
    snap.counters.retain(|k, _| !structural(k));
    snap.gauges.retain(|k, _| !structural(k));
    snap.hists.retain(|k, _| !structural(k));
    snap.to_json_line("logical")
}

/// Drive `sim` through the shared schedule of runs and interleaved
/// link flaps, collecting the state hash at every milestone.
fn drive(sim: &mut Simulator, flap: LinkId) -> (Vec<u64>, Option<ParallelOutcome>) {
    let mut hashes = Vec::new();
    let mut first = None;
    for (i, ms) in [50u64, 120, 200, 320].into_iter().enumerate() {
        sim.run_until(at_ms(ms));
        if first.is_none() {
            first = sim.last_parallel_outcome().copied();
        }
        hashes.push(sim.state_hash());
        if i == 1 {
            sim.set_link_up(flap, false);
        }
        if i == 2 {
            sim.set_link_up(flap, true);
        }
    }
    (hashes, first)
}

/// The WAN link joining the first two clusters (always present —
/// topologies have ≥ 2 clusters). Links are created hosts-first per
/// cluster, so the first inter-router link is the first one whose
/// endpoints are both routers.
fn first_wan_link(sim: &Simulator, routers: &[NodeId]) -> LinkId {
    for (i, l) in sim.core().topo().links().iter().enumerate() {
        if routers.contains(&l.a) && routers.contains(&l.b) {
            return LinkId(i);
        }
    }
    unreachable!("clustered topologies always have a WAN link");
}

fn assert_parallel_ran(outcome: Option<ParallelOutcome>) {
    match outcome {
        Some(ParallelOutcome::Ran(report)) => {
            assert!(report.windows > 0, "parallel run executed no windows");
            assert!(report.domains >= 2);
        }
        other => panic!("expected a parallel run, got {other:?}"),
    }
}

/// Run `drive` (which returns the state hashes it saw) on the sequential
/// engine and at every thread count: hashes, counters and logical metrics
/// must equal the sequential engine's, and the full metrics snapshot —
/// structural metrics included — must be the same at every thread count.
fn assert_equivalent(build: impl Fn() -> Simulator, drive: impl Fn(&mut Simulator) -> Vec<u64>) {
    let mut reference = build();
    let want = drive(&mut reference);
    let mut full: Option<String> = None;
    for threads in THREADS {
        let mut sim = build();
        sim.set_sim_threads(threads);
        assert_eq!(drive(&mut sim), want, "state hashes diverged at {threads} threads");
        let outcome = sim.last_parallel_outcome();
        assert!(matches!(outcome, Some(ParallelOutcome::Ran(_))), "fell back: {outcome:?}");
        assert_eq!(sim.counters(), reference.counters(), "{threads} threads");
        assert_eq!(logical_metrics(&sim), logical_metrics(&reference), "{threads} threads");
        let all = sim.metrics_snapshot().to_json_line("all");
        assert_eq!(*full.get_or_insert(all.clone()), all, "structural metrics at {threads} threads");
    }
}

#[test]
fn parallel_matches_sequential_across_thread_counts() {
    // Random shapes, then domain counts no thread count divides (3 threads
    // over 4, 5 and 7 domains among them), with and without a domain that
    // never runs.
    let random = [1u64, 2, 3].map(|seed| (seed, random_clustered(seed)));
    let uneven = [(4, false), (5, true), (7, false), (6, true)].map(|(clusters, idle_leaf)| {
        let seed = 40 + clusters as u64;
        (seed, clustered(TestRng(seed | 1), clusters, idle_leaf))
    });
    for (seed, (topo, routers, hosts, addrs)) in random.into_iter().chain(uneven) {
        let build = || wire(topo.clone(), &routers, &hosts, &addrs, seed);
        let flap = first_wan_link(&build(), &routers);
        assert_equivalent(build, |sim| {
            let (hashes, first) = drive(sim, flap);
            if sim.sim_threads() > 0 {
                assert_parallel_ran(first);
            }
            hashes
        });
    }
}

#[test]
fn thread_counts_agree_byte_for_byte_including_structural_metrics() {
    // Across N ≥ 1 the *full* metrics snapshot must be byte-identical:
    // the decomposition is fixed by the topology, N only changes how
    // many workers execute it.
    let (topo, routers, hosts, addrs) = random_clustered(7);
    let flap;
    let (base_line, base_hash) = {
        let mut sim = wire(topo.clone(), &routers, &hosts, &addrs, 7);
        flap = first_wan_link(&sim, &routers);
        sim.set_sim_threads(1);
        drive(&mut sim, flap);
        (sim.metrics_snapshot().to_json_line("all"), sim.state_hash())
    };
    for threads in &THREADS[1..] {
        let mut sim = wire(topo.clone(), &routers, &hosts, &addrs, 7);
        sim.set_sim_threads(*threads);
        drive(&mut sim, flap);
        assert_eq!(sim.state_hash(), base_hash, "{threads} threads");
        assert_eq!(
            sim.metrics_snapshot().to_json_line("all"),
            base_line,
            "{threads} threads"
        );
    }
}

#[test]
fn stale_cross_domain_handles_from_in_window_drops() {
    // Regression: a packet gets its id assigned in-window, then is
    // dropped (tiny WAN queue) before the barrier — the barrier's id
    // patch must tolerate the stale handle and still advance the id
    // cursor exactly like the sequential allocator.
    let mut b = TopologyBuilder::new();
    let a1 = b.host("a1", Addr::new(10, 0, 0, 1));
    let a2 = b.host("a2", Addr::new(10, 0, 1, 1));
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    let z1 = b.host("z1", Addr::new(10, 1, 0, 1));
    b.link(a1, r1, Bandwidth::gbps(1), SimDuration::from_nanos(300), 64);
    b.link(a2, r1, Bandwidth::gbps(1), SimDuration::from_nanos(300), 64);
    b.link(z1, r2, Bandwidth::gbps(1), SimDuration::from_nanos(300), 64);
    // Starved WAN link: queue of 1 at low bandwidth → constant drops.
    b.link(r1, r2, Bandwidth::kbps(64), SimDuration::from_millis(3), 1);
    let topo = b.build();
    let routers = [r1, r2];
    let hosts = [a1, a2, z1];
    let addrs = [Addr::new(10, 0, 0, 1), Addr::new(10, 0, 1, 1), Addr::new(10, 1, 0, 1)];

    let mut reference = wire(topo.clone(), &routers, &hosts, &addrs, 11);
    reference.run_until(at_ms(400));
    assert!(
        reference.counters().dropped_queue > 0,
        "scenario must actually drop packets"
    );

    let mut par = wire(topo, &routers, &hosts, &addrs, 11);
    par.set_sim_threads(4);
    par.run_until(at_ms(400));
    assert_parallel_ran(par.last_parallel_outcome().copied());
    assert_eq!(par.state_hash(), reference.state_hash());
    assert_eq!(par.counters(), reference.counters());
}

#[test]
fn checkpoint_after_parallel_run_is_interchangeable() {
    let (topo, routers, hosts, addrs) = random_clustered(5);
    let mut seq = wire(topo.clone(), &routers, &hosts, &addrs, 5);
    let mut par = wire(topo.clone(), &routers, &hosts, &addrs, 5);
    par.set_sim_threads(4);
    seq.run_until(at_ms(150));
    par.run_until(at_ms(150));
    assert_parallel_ran(par.last_parallel_outcome().copied());
    assert_eq!(par.state_hash(), seq.state_hash());

    // A checkpoint taken after a parallel run restores into the
    // sequential twin (and vice versa) and both continue identically.
    let ckpt = par.checkpoint().expect("post-parallel checkpoint");
    seq.restore(ckpt).expect("restore parallel checkpoint");
    seq.run_until(at_ms(300));
    par.run_until(at_ms(300));
    assert_eq!(par.state_hash(), seq.state_hash());
}

#[test]
fn fallback_reasons_are_reported_and_results_still_match() {
    use dui_netsim::parallel::FallbackReason;

    // Single-domain topology: all links below the lookahead floor.
    let mut b = TopologyBuilder::new();
    let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
    let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
    b.link(h1, h2, Bandwidth::gbps(1), SimDuration::from_nanos(100), 16);
    let mut sim = Simulator::new(b.build(), 1);
    sim.set_logic(h2, Box::new(SinkHost::new()));
    sim.set_sim_threads(4);
    sim.inject(h1, Packet::udp(FlowKey::udp(Addr::new(10, 0, 0, 1), 1, Addr::new(10, 0, 0, 2), 2), 100));
    sim.run_until(at_ms(10));
    assert_eq!(
        sim.last_parallel_outcome(),
        Some(&ParallelOutcome::Fallback(FallbackReason::SingleDomain))
    );
    assert_eq!(sim.counters().delivered, 1);

    // Probabilistic faults on a multi-domain topology.
    let (topo, routers, hosts, addrs) = random_clustered(2);
    let mut sim = wire(topo, &routers, &hosts, &addrs, 2);
    let wan = first_wan_link(&sim, &routers);
    sim.set_fault(
        wan,
        Dir::AtoB,
        FaultConfig {
            drop_prob: 0.5,
            ..FaultConfig::default()
        },
    );
    sim.set_sim_threads(4);
    sim.run_until(at_ms(50));
    assert_eq!(
        sim.last_parallel_outcome(),
        Some(&ParallelOutcome::Fallback(FallbackReason::ActiveFaults))
    );
}

#[test]
fn targets_inside_a_window_and_window_sized_runs_match_sequential() {
    let (topo, routers, hosts, addrs) = clustered(TestRng(77), 5, true);
    let build = || wire(topo.clone(), &routers, &hosts, &addrs, 9);
    // A target that falls inside a window: the window is cut short and
    // the next run resumes from whatever it left pending.
    assert_equivalent(build, |sim| {
        [37_123_457u64, 37_123_458, 90_000_001, 200_000_000]
            .map(|ns| {
                sim.run_until(SimTime(ns));
                sim.state_hash()
            })
            .to_vec()
    });
    // Fifty runs of one lookahead each: a split and a join per window,
    // and a thread assignment that follows the previous run's counts.
    assert_equivalent(build, |sim| {
        sim.run_until(SimTime(1));
        let lookahead = match sim.last_parallel_outcome() {
            Some(ParallelOutcome::Ran(report)) => report.lookahead,
            _ => SimDuration::from_millis(2), // the sequential reference: any step will do
        };
        (1..=50u64)
            .map(|i| {
                sim.run_until(SimTime(i * lookahead.as_nanos()));
                sim.state_hash()
            })
            .collect()
    });
}

/// Ticks every millisecond; if `armed`, panics on its fifth tick.
struct FifthTickPanics {
    armed: bool,
    ticks: u32,
}

impl NodeLogic for FifthTickPanics {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        self.ticks += 1;
        assert!(!(self.armed && self.ticks == 5), "fifth tick");
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Two hosts, a 2 ms link, two threads: host 0's domain runs on the
/// calling thread, host 1's on the worker. The run happens on a spawned
/// thread behind `recv_timeout`, so a stranded rendezvous fails the test
/// instead of stalling the suite.
fn panic_in_host_resurfaces(armed: usize) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0", Addr::new(10, 0, 0, 1));
        let h1 = b.host("h1", Addr::new(10, 0, 0, 2));
        b.link(h0, h1, Bandwidth::mbps(10), SimDuration::from_millis(2), 8);
        let mut sim = Simulator::new(b.build(), 1);
        for (i, h) in [h0, h1].into_iter().enumerate() {
            sim.set_logic(h, Box::new(FifthTickPanics { armed: i == armed, ticks: 0 }));
        }
        sim.set_sim_threads(2);
        let run = std::panic::AssertUnwindSafe(|| sim.run_until(at_ms(50)));
        let message = std::panic::catch_unwind(run).map_err(|payload| {
            payload.downcast_ref::<&str>().map_or_else(
                || payload.downcast_ref::<String>().cloned().unwrap_or_default(),
                |s| s.to_string(),
            )
        });
        let _ = tx.send(message);
    });
    match rx.recv_timeout(std::time::Duration::from_secs(30)) {
        Ok(Err(message)) => assert!(message.contains("fifth tick"), "wrong payload: {message:?}"),
        Ok(Ok(())) => panic!("the node logic's panic was swallowed"),
        Err(_) => panic!("run_until hung after a node logic panicked"),
    }
}

#[test]
fn panic_in_a_leader_owned_domain_resurfaces() {
    panic_in_host_resurfaces(0);
}

#[test]
fn panic_in_a_worker_owned_domain_resurfaces() {
    panic_in_host_resurfaces(1);
}
