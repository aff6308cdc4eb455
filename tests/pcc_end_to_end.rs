//! Cross-crate integration: the §4.2 PCC case study at packet level —
//! convergence when clean, non-convergence + fluctuation under the
//! equalizer MitM, detection by the §5 loss-pattern monitor.

use dui::defense::pcc_guard::PccLossPatternMonitor;
use dui::netsim::time::SimTime;
use dui::pcc::endpoint::PccSender;
use dui::scenario::{PccScenario, PccScenarioConfig};

#[test]
fn clean_flow_converges_near_capacity() {
    let mut sc = PccScenario::build(&PccScenarioConfig {
        seed: 2,
        ..Default::default()
    });
    sc.sim.run_until(SimTime::from_secs(40));
    let trace = sc.rate_trace(0);
    let tail: Vec<f64> = trace
        .points()
        .iter()
        .filter(|(t, _)| *t > 30.0)
        .map(|&(_, v)| v)
        .collect();
    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
    let capacity = 6.25e6; // 50 Mbps in bytes/s
    assert!(
        (mean - capacity).abs() / capacity < 0.25,
        "mean {:.2} MB/s vs capacity 6.25 MB/s",
        mean / 1e6
    );
}

#[test]
fn equalizer_pins_flow_below_fair_share() {
    let pin = 25.0 * 125_000.0; // 25 Mbps
    let mut sc = PccScenario::build(&PccScenarioConfig {
        attacked: true,
        pin_to: Some(pin),
        seed: 2,
        ..Default::default()
    });
    sc.sim.run_until(SimTime::from_secs(120));
    let trace = sc.rate_trace(0);
    let tail: Vec<f64> = trace
        .points()
        .iter()
        .filter(|(t, _)| *t > 40.0)
        .map(|&(_, v)| v)
        .collect();
    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
    let capacity = 6.25e6;
    assert!(
        mean < 0.85 * capacity,
        "attacked flow must be held below fair share: {:.2} MB/s",
        mean / 1e6
    );
}

#[test]
fn attacked_flow_suffers_inconclusive_decisions() {
    let mut sc = PccScenario::build(&PccScenarioConfig {
        attacked: true,
        pin_to: Some(25.0 * 125_000.0),
        seed: 3,
        ..Default::default()
    });
    sc.sim.run_until(SimTime::from_secs(60));
    let node = sc.senders[0];
    let s: &mut PccSender = sc.sim.logic_mut(node);
    let inconclusive = s
        .decisions()
        .iter()
        .filter(|d| matches!(d, dui::pcc::control::Decision::Inconclusive(_)))
        .count();
    assert!(
        inconclusive >= 3,
        "equalized trials should produce inconclusive decisions: {inconclusive} of {}",
        s.decisions().len()
    );
}

#[test]
fn loss_pattern_monitor_flags_the_attack_not_the_clean_path() {
    // The §5 monitor is aimed at the paper's mirror equalizer, whose loss
    // lands only in +ε phases (pin_to: None).
    let risk_of = |attacked: bool| {
        let mut sc = PccScenario::build(&PccScenarioConfig {
            attacked,
            seed: 4,
            ..Default::default()
        });
        sc.sim.run_until(SimTime::from_secs(60));
        let node = sc.senders[0];
        let s: &mut PccSender = sc.sim.logic_mut(node);
        PccLossPatternMonitor::from_sender(s).risk().0
    };
    let clean = risk_of(false);
    let attacked = risk_of(true);
    // The victim rides the bottleneck either way, so genuine queue losses
    // dilute the directional signal; the attack still separates cleanly
    // from the (lossless-at-capacity) clean run.
    assert!(
        attacked > clean + 0.12,
        "monitor must separate attack ({attacked:.2}) from clean ({clean:.2})"
    );
    assert!(clean < 0.05, "clean path must not be accused: {clean:.2}");
}

#[test]
fn aggregate_destination_fluctuation_grows_with_attack() {
    // 8 PCC flows to one destination; the coherent sway attack slowly
    // herds all flows up and down together, making the aggregate arrival
    // rate fluctuate (§4.2's destination-impact claim). The sway period
    // must exceed the drag time constant (~10 s) for flows to track it.
    let cv_of = |attacked: bool| {
        let mut sc = PccScenario::build(&PccScenarioConfig {
            flows: 8,
            attacked,
            pin_to: attacked.then_some(3.0 * 125_000.0),
            sway: attacked.then_some((0.5, dui::netsim::time::SimDuration::from_secs(50))),
            seed: 5,
            ..Default::default()
        });
        sc.sim.run_until(SimTime::from_secs(180));
        sc.destination_cv(SimTime::from_secs(180), 60.0)
    };
    let clean = cv_of(false);
    let attacked = cv_of(true);
    assert!(
        attacked > 2.0 * clean,
        "attack must amplify destination fluctuation: clean CV {clean:.3}, attacked CV {attacked:.3}"
    );
}
