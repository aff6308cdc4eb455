//! Cross-crate integration: the §3.1 Blink case study at packet level —
//! the C4 claim of docs/reproduction-map.md. Legitimate TCP traffic, the
//! spoofing attacker, the Blink pipeline on a netsim router, and the §5
//! guard, all together.

use dui::netsim::time::{SimDuration, SimTime};
use dui::scenario::{BlinkScenario, BlinkScenarioConfig};

fn base_cfg() -> BlinkScenarioConfig {
    BlinkScenarioConfig {
        legit_flows: 200,
        malicious_flows: 64,
        horizon: SimDuration::from_secs(100),
        seed: 11,
        ..Default::default()
    }
}

#[test]
fn real_failure_detected_and_rerouted() {
    let mut sc = BlinkScenario::build(&base_cfg());
    sc.sim.run_until(SimTime::from_secs(20));
    assert!(sc.on_primary().unwrap());
    sc.fail_primary_forward();
    sc.sim.run_until(SimTime::from_secs(28));
    assert!(
        !sc.on_primary().unwrap(),
        "Blink must reroute around a real failure within seconds"
    );
    assert_eq!(sc.reroutes().unwrap(), 1);
}

#[test]
fn attacker_flows_capture_cells_over_time() {
    let mut sc = BlinkScenario::build(&base_cfg());
    sc.sim.run_until(SimTime::from_secs(15));
    let early = sc.malicious_cells().unwrap();
    sc.sim.run_until(SimTime::from_secs(80));
    let late = sc.malicious_cells().unwrap();
    assert!(late > early, "occupancy must grow: {early} -> {late}");
    assert!(
        late >= 32,
        "64 spoofed flows should capture a majority: {late}"
    );
}

#[test]
fn fake_retransmission_burst_triggers_spurious_reroute() {
    let cfg = BlinkScenarioConfig {
        trigger_at: Some(SimTime::from_secs(70)),
        ..base_cfg()
    };
    let mut sc = BlinkScenario::build(&cfg);
    sc.sim.run_until(SimTime::from_secs(69));
    assert!(sc.on_primary().unwrap(), "no reroute before the trigger");
    assert!(sc.malicious_cells().unwrap() >= 32, "attack prerequisites met");
    sc.sim.run_until(SimTime::from_secs(73));
    assert!(
        sc.reroutes().unwrap() >= 1,
        "the burst must look like a failure to Blink"
    );
    // Before the 5 s hold-down admits a second event, traffic sits on the
    // backup (later triggers cycle the two-entry next-hop list).
    assert!(!sc.on_primary().unwrap(), "traffic steered off the healthy path");
}

#[test]
fn rto_guard_vetoes_fake_but_passes_real() {
    // Guarded, attacked.
    let cfg = BlinkScenarioConfig {
        trigger_at: Some(SimTime::from_secs(70)),
        guarded: true,
        ..base_cfg()
    };
    let mut sc = BlinkScenario::build(&cfg);
    sc.sim.run_until(SimTime::from_secs(80));
    assert!(sc.on_primary().unwrap(), "guarded Blink must not fall for the burst");
    assert!(sc.vetoed() > 0, "the guard must have actually vetoed");

    // Guarded, real failure.
    let cfg = BlinkScenarioConfig {
        guarded: true,
        malicious_flows: 1,
        ..base_cfg()
    };
    let mut sc = BlinkScenario::build(&cfg);
    sc.sim.run_until(SimTime::from_secs(20));
    sc.fail_primary_forward();
    sc.sim.run_until(SimTime::from_secs(30));
    assert!(
        !sc.on_primary().unwrap(),
        "the guard must not suppress genuine failure recovery"
    );
}

#[test]
fn scenario_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let cfg = BlinkScenarioConfig {
            legit_flows: 80,
            horizon: SimDuration::from_secs(40),
            seed,
            ..base_cfg()
        };
        let mut sc = BlinkScenario::build(&cfg);
        sc.sim.run_until(SimTime::from_secs(40));
        (sc.malicious_cells().unwrap(), sc.sim.counters().delivered)
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

/// The sharded engine's one real workload: the full Blink scenario — TCP
/// hosts, the Blink program, the spoofing host and the RTO guard — comes
/// out of `set_sim_threads(n)` exactly as it comes out of the sequential
/// engine, trigger and reroute (or veto) included, with no fallback.
/// This is the check the stage gate's `--sim-threads` arm gave it; it is
/// deleted with the engine (ROADMAP `R-threads`, pass II).
#[test]
fn sharded_engine_matches_sequential_on_blink() {
    use dui::netsim::parallel::ParallelOutcome;
    use dui::telemetry::Snapshot;

    // Structural `netsim.arena.*` / `netsim.wheel.*` values describe a
    // sharded run's own arenas and queues, not the model
    // (docs/determinism.md, scope table).
    fn logical(mut snap: Snapshot) -> Snapshot {
        let keep = |k: &str| !k.starts_with("netsim.arena.") && !k.starts_with("netsim.wheel.");
        snap.counters.retain(|k, _| keep(k));
        snap.gauges.retain(|k, _| keep(k));
        snap.hists.retain(|k, _| keep(k));
        snap
    }
    let run = |guarded: bool, threads: usize| {
        let cfg = BlinkScenarioConfig {
            trigger_at: Some(SimTime::from_secs(70)),
            guarded,
            ..base_cfg()
        };
        let mut sc = BlinkScenario::build(&cfg);
        sc.sim.set_sim_threads(threads);
        let mut cells = Vec::new();
        for t in (15..=75).step_by(15) {
            sc.sim.run_until(SimTime::from_secs(t));
            if threads > 0 {
                let outcome = sc.sim.last_parallel_outcome();
                assert!(
                    matches!(outcome, Some(ParallelOutcome::Ran(_))),
                    "{threads} threads, t = {t} s: {outcome:?}"
                );
            }
            cells.push(sc.malicious_cells().unwrap());
        }
        let snap = sc.metrics();
        assert_eq!(snap.counter("netsim.parallel.fallback"), 0, "{threads} threads");
        (cells, sc.reroutes().unwrap(), sc.vetoed(), sc.sim.state_hash(), logical(snap))
    };
    for guarded in [false, true] {
        let (cells, reroutes, vetoed, hash, metrics) = run(guarded, 0);
        // The attack engages, so the comparison covers the trigger path.
        if guarded {
            assert!(vetoed > 0 && reroutes == 0, "guard vetoed {vetoed}, rerouted {reroutes}");
        } else {
            assert!(reroutes >= 1, "the burst must reroute unguarded Blink");
        }
        for threads in [1, 2, 4] {
            let at = format!("guarded = {guarded}, {threads} threads");
            let sharded = run(guarded, threads);
            assert_eq!(sharded.0, cells, "malicious_cells series, {at}");
            assert_eq!((sharded.1, sharded.2), (reroutes, vetoed), "reroutes, vetoed, {at}");
            assert_eq!(sharded.3, hash, "state hash, {at}");
            assert!(sharded.4 == metrics, "metrics snapshot, {at}");
        }
    }
}

/// `blink-packet-small` (the golden-trace subject) must keep the logical
/// outcome it had while `TcpHost` re-armed a wake after every ACK and
/// tick. The constants were captured at that commit; the one-wake-per-flow
/// host may change only event bookkeeping — which is why
/// `tests/golden/blink_packet.hashes` could be re-blessed — and must keep
/// timer events below deliveries (the wake chains ran at 2.6×).
#[test]
fn small_stage_outcome_survives_timer_bookkeeping_changes() {
    use dui::blink::program::BlinkProgram;
    use dui::netsim::node::RouterLogic;
    use dui::tcp::TcpHost;
    use dui_bench::recordings::{build_subject, StageSubject};

    let mut subject = build_subject("blink-packet-small").expect("recordable stage");
    let (mut timers, mut delivers) = (0u64, 0u64);
    while let Some(ev) = subject.as_subject_mut().step() {
        match ev.kind {
            "timer" => timers += 1,
            "deliver" => delivers += 1,
            _ => {}
        }
    }
    let StageSubject::Engine(engine) = subject else {
        panic!("blink-packet-small runs on the packet engine");
    };
    let mut sim = engine.into_sim();
    let node = |sim: &dui::netsim::sim::Simulator, name: &str| {
        sim.core().topo().node_by_name(name).expect("scenario node")
    };
    let (legit, ingress, victim) = (
        node(&sim, "legit-src"),
        node(&sim, "ingress"),
        node(&sim, "victim"),
    );

    assert_eq!(delivers, 24_629, "packets delivered");
    assert_eq!(sim.counters().delivered, 24_629);
    assert!(
        timers <= delivers,
        "timer chain is back: {timers} timer events for {delivers} deliveries"
    );

    let host: &mut TcpHost = sim.logic_mut(legit);
    let stats = host.all_sender_stats();
    let sum =
        |f: fn(&dui::tcp::conn::SenderStats) -> u64| stats.iter().map(|(_, s)| f(s)).sum::<u64>();
    assert_eq!(stats.len(), 203, "flows admitted");
    assert_eq!(sum(|s| s.bytes_acked), 5_130_241);
    assert_eq!(sum(|s| s.segments_sent), 3_769);
    assert_eq!(sum(|s| s.retransmissions), 0);
    assert_eq!(sum(|s| s.timeouts), 0);
    assert_eq!(host.completed_senders(), 163);
    let sink: &mut TcpHost = sim.logic_mut(victim);
    assert_eq!(sink.total_bytes_received(), 5_832_501);

    let router: &mut RouterLogic = sim.logic_mut(ingress);
    let blink = router.program_mut::<BlinkProgram>(0);
    let prefix = blink.monitored().next().expect("monitored prefix");
    assert_eq!(prefix.selector.stats.sampled, 144);
    assert_eq!(prefix.selector.stats.retransmissions, 175);
    let reroutes: Vec<u64> = prefix.reroute.events.iter().map(|e| e.at.0).collect();
    assert_eq!(reroutes, Vec::<u64>::new(), "reroute times (ns)");
}
