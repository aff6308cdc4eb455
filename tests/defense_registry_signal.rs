//! Pins the `defenses`-ablation numbers across the telemetry refactor and
//! exercises the registry-backed supervisor signal (ISSUE 2 acceptance):
//! the RTO-guard ablation must produce exactly the same reroute/veto/
//! occupancy numbers as before `Counters` became a registry view, and the
//! same numbers must be readable from a metrics snapshot.

use dui_core::netsim::time::{SimDuration, SimTime};
use dui_core::scenario::{BlinkScenario, BlinkScenarioConfig};

fn run(guarded: bool) -> BlinkScenario {
    let cfg = BlinkScenarioConfig {
        legit_flows: 120,
        malicious_flows: 48,
        trigger_at: Some(SimTime::from_secs(30)),
        guarded,
        horizon: SimDuration::from_secs(45),
        seed: 7,
        ..Default::default()
    };
    let mut sc = BlinkScenario::build(&cfg);
    sc.sim.run_until(SimTime::from_secs(40));
    sc
}

/// Ablation numbers harvested before the telemetry refactor: the attacked
/// run reroutes twice with no vetoes, the guarded run vetoes both spurious
/// reroutes; the selector sees 33 malicious cells either way.
#[test]
fn ablation_numbers_unchanged_by_refactor() {
    let mut attacked = run(false);
    assert_eq!(attacked.reroutes().unwrap(), 2, "attacked reroutes");
    assert_eq!(attacked.vetoed(), 0, "attacked vetoes");
    assert_eq!(attacked.malicious_cells().unwrap(), 33, "attacked malicious cells");

    let mut defended = run(true);
    assert_eq!(defended.reroutes().unwrap(), 0, "defended reroutes");
    assert_eq!(defended.vetoed(), 2, "defended vetoes");
    assert_eq!(defended.malicious_cells().unwrap(), 33, "defended malicious cells");
}

/// The same signals must be available through the metrics registry — this
/// is what the `defenses` experiment stage and the supervisor consume.
#[test]
fn registry_snapshot_agrees_with_direct_api() {
    for guarded in [false, true] {
        let mut sc = run(guarded);
        let direct = (
            sc.reroutes().unwrap() as u64,
            sc.vetoed(),
            sc.malicious_cells().unwrap() as u64,
        );
        let snap = sc.metrics();
        assert_eq!(snap.counter("blink.reroutes"), direct.0, "guarded={guarded}");
        assert_eq!(snap.counter("blink.vetoed"), direct.1, "guarded={guarded}");
        assert_eq!(
            snap.gauge_mean("blink.cells.malicious"),
            Some(direct.2 as f64),
            "guarded={guarded}"
        );
        // The engine's own counters surface in the same snapshot.
        assert!(snap.counter("netsim.delivered") > 0, "guarded={guarded}");
    }
}

/// A supervisor assessing risk purely from registry snapshots (Fig. 3
/// point III/IV) sees the attacked run as risky: malicious flows hold
/// 33/64 cells, beyond half the selector's capacity.
#[test]
fn snapshot_supervisor_flags_malicious_occupancy() {
    use dui_defense::streaming::{OccupancyWindow, StreamingSupervisor};

    let assess = |snap: &dui_core::telemetry::Snapshot| {
        OccupancyWindow::new("blink.cells.malicious", 64.0, 1).observe(snap)
    };
    let mut sc = run(false);
    let snap = sc.metrics();
    let risk = assess(&snap);
    assert!(
        risk.0 > 0.5,
        "33/64 malicious occupancy must read as high risk, got {}",
        risk.0
    );
    // An idle network reads as no risk.
    let empty = dui_core::telemetry::Snapshot::default();
    assert_eq!(assess(&empty).0, 0.0);
}
