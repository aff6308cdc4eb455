//! Drop-accounting reconciliation over the telemetry registry: every
//! packet the engine ever creates must end in exactly one terminal
//! account — endpoint delivery, logic-less sink, router-local
//! consumption, or one of the drop categories. The test runs the
//! packet-level Blink scenario (attack included), then swaps every host
//! to a pure sink and drains, so nothing is left in flight when the
//! books are balanced.

use dui_core::netsim::node::SinkHost;
use dui_core::netsim::time::{SimDuration, SimTime};
use dui_core::scenario::{BlinkScenario, BlinkScenarioConfig};

#[test]
fn packets_created_equals_terminal_accounts() {
    let cfg = BlinkScenarioConfig {
        legit_flows: 60,
        malicious_flows: 16,
        trigger_at: Some(SimTime::from_secs(20)),
        horizon: SimDuration::from_secs(30),
        seed: 11,
        ..Default::default()
    };
    let mut sc = BlinkScenario::build(&cfg);
    sc.sim.run_until(SimTime::from_secs(25));

    // Stop all traffic generation and feedback: every host becomes a
    // sink, then the network drains for 10 simulated seconds.
    for host in [sc.legit, sc.attacker, sc.victim] {
        sc.sim.set_logic(host, Box::new(SinkHost::new()));
    }
    sc.sim.run_until(SimTime::from_secs(35));

    let snap = sc.sim.metrics_snapshot();
    let created = snap.counter("netsim.packets.created");
    let endpoint = snap.counter("netsim.delivered.endpoint");
    let sunk = snap.counter("netsim.sunk");
    let consumed = snap.counter("netsim.consumed.router");
    let drops: u64 = [
        "netsim.drop.queue",
        "netsim.drop.tap",
        "netsim.drop.fault",
        "netsim.drop.ttl",
        "netsim.drop.program",
        "netsim.drop.no_route",
    ]
    .iter()
    .map(|name| snap.counter(name))
    .sum();

    assert!(
        created > 10_000,
        "attack scenario must move traffic: {created}"
    );
    assert!(endpoint > 0, "hosts must have consumed packets");
    assert_eq!(
        created,
        endpoint + sunk + consumed + drops,
        "injected packets must reconcile with terminal accounts \
         (endpoint {endpoint} + sunk {sunk} + router {consumed} + drops {drops})"
    );

    // The legacy by-value Counters view is a projection of the same
    // registry: its drop total must agree with the snapshot's.
    let c = sc.sim.counters();
    assert_eq!(c.total_drops(), drops);
    assert_eq!(c.sunk, sunk);

    // The per-link queue-depth histogram recorded real enqueues.
    let depth = snap.hist("netsim.link.queue_depth").expect("depth hist");
    assert!(depth.count() > 0);
}
