//! Pins the `defenses`-ablation numbers and the supervisor signal read
//! from the metrics registry: the RTO-guard ablation reroutes, vetoes and
//! holds cells exactly as pinned below, the registry snapshot reports the
//! same numbers as the scenario's direct API, and the streaming Blink
//! signal (`OccupancyWindow` at a window of one, as the `defenses` stage
//! runs it) reads that snapshot as high risk.

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

/// The pinned ablation numbers: the attacked run reroutes twice with no
/// vetoes, the guarded run vetoes both spurious reroutes; the selector
/// sees 33 malicious cells either way.
#[test]
fn ablation_numbers_unchanged_by_refactor() {
    let mut attacked = run(false);
    assert_eq!(attacked.reroutes(), 2, "attacked reroutes");
    assert_eq!(attacked.vetoed(), 0, "attacked vetoes");
    assert_eq!(attacked.malicious_cells(), 33, "attacked malicious cells");

    let mut defended = run(true);
    assert_eq!(defended.reroutes(), 0, "defended reroutes");
    assert_eq!(defended.vetoed(), 2, "defended vetoes");
    assert_eq!(defended.malicious_cells(), 33, "defended malicious cells");
}

/// The same signals must be available through the metrics registry — this
/// is what the `defenses` experiment stage and the supervisor consume.
#[test]
fn registry_snapshot_agrees_with_direct_api() {
    for guarded in [false, true] {
        let mut sc = run(guarded);
        let direct = (
            sc.reroutes() as u64,
            sc.vetoed(),
            sc.malicious_cells() as u64,
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

/// The streaming Blink signal, fed one registry snapshot (Fig. 3 point
/// III/IV: it never touches the data plane), sees the attacked run as
/// risky: malicious flows hold 33/64 cells, beyond half the selector's
/// capacity.
#[test]
fn occupancy_window_flags_malicious_occupancy() {
    use dui_defense::streaming::OccupancyWindow;

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
