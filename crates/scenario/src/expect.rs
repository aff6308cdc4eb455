//! Expectation evaluation: observed run data → pass/fail verdicts.
//!
//! The evaluator is a pure function of the scenario, the expanded chaos
//! schedule, and an [`Observed`] record the runner assembled — no
//! simulator access, so the check semantics are unit-testable with
//! hand-built observations (see the bottom of this file). Every
//! [`CheckResult::detail`] string is deterministic (sim-time arithmetic
//! only, no wall clock) and comma-free so it can sit in a CSV cell.

use crate::ast::{dur, time, Expectation, Scenario};
use crate::chaos::ChaosWindow;
use dui_core::netsim::time::{SimDuration, SimTime};
use dui_core::telemetry::Snapshot;

/// One point on the runner's observation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// When the sample was taken.
    pub t: SimTime,
    /// Cumulative endpoint deliveries (`netsim.delivered.endpoint`).
    pub delivered: u64,
    /// Cumulative Blink reroutes (0 on non-blink workloads).
    pub reroutes: u64,
    /// Is the victim prefix on the primary path? (true off-blink).
    pub on_primary: bool,
}

/// Blink end-of-run observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlinkObs {
    /// Total reroutes of the victim prefix.
    pub reroutes: u64,
    /// Final next-hop is the primary.
    pub on_primary: bool,
    /// Attacker-held selector cells at the end.
    pub malicious_cells: u64,
    /// Guard vetoes.
    pub vetoed: u64,
}

/// PCC end-of-run observations (steady-state tail of each rate trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PccObs {
    /// Slowest flow's steady-state rate, Mbit/s.
    pub rate_min_mbps: f64,
    /// Fastest flow's steady-state rate, Mbit/s.
    pub rate_max_mbps: f64,
    /// Worst per-flow relative oscillation amplitude.
    pub oscillation_max: f64,
}

/// Pytheas end-of-run observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PytheasObs {
    /// Steady-state honest QoE.
    pub honest_qoe: f64,
    /// Steady-state best-arm share.
    pub on_best: f64,
}

/// Everything the runner observed, handed to [`evaluate`].
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// The sample grid (empty for round-based workloads).
    pub samples: Vec<Sample>,
    /// Final merged telemetry snapshot.
    pub snapshot: Snapshot,
    /// Blink observations, when the workload is blink.
    pub blink: Option<BlinkObs>,
    /// PCC observations, when the workload is pcc.
    pub pcc: Option<PccObs>,
    /// Pytheas observations, when the workload is pytheas.
    pub pytheas: Option<PytheasObs>,
}

impl Default for Sample {
    fn default() -> Self {
        Sample {
            t: SimTime::ZERO,
            delivered: 0,
            reroutes: 0,
            on_primary: true,
        }
    }
}

/// One expectation's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckResult {
    /// The canonical expectation line (`reroute_within = 2s`).
    pub label: String,
    /// Did it hold?
    pub pass: bool,
    /// Deterministic human-readable evidence (comma-free).
    pub detail: String,
}

/// Evaluate every expectation against the observations.
pub fn evaluate(sc: &Scenario, windows: &[ChaosWindow], obs: &Observed) -> Vec<CheckResult> {
    let faults: Vec<&ChaosWindow> = windows
        .iter()
        .filter(|w| sc.chaos[w.decl].kind.is_fault())
        .collect();
    sc.expect
        .iter()
        .map(|e| {
            let (pass, detail) = check(e, sc, &faults, obs);
            CheckResult {
                label: e.line(),
                pass,
                detail,
            }
        })
        .collect()
}

fn check(
    e: &Expectation,
    sc: &Scenario,
    faults: &[&ChaosWindow],
    obs: &Observed,
) -> (bool, String) {
    match e {
        Expectation::RerouteWithin(d) => reroute_within(*d, faults, &obs.samples),
        Expectation::RecoveryWithin(d) => recovery_within(*d, sc, faults, &obs.samples),
        Expectation::BlackoutDuringChaos => blackout(faults, &obs.samples),
        Expectation::MinReroutes(n) => {
            let got = obs.blink.map(|b| b.reroutes).unwrap_or(0);
            (got >= *n, format!("{got} reroutes"))
        }
        Expectation::MaxReroutes(n) => {
            let got = obs.blink.map(|b| b.reroutes).unwrap_or(0);
            (got <= *n, format!("{got} reroutes"))
        }
        Expectation::FinalOnPrimary(want) => {
            let got = obs.blink.map(|b| b.on_primary).unwrap_or(true);
            (got == *want, format!("final on_primary = {got}"))
        }
        Expectation::MaliciousCellsMin(n) => {
            let got = obs.blink.map(|b| b.malicious_cells).unwrap_or(0);
            (got >= *n, format!("{got} attacker-held cells"))
        }
        Expectation::MaliciousCellsMax(n) => {
            let got = obs.blink.map(|b| b.malicious_cells).unwrap_or(0);
            (got <= *n, format!("{got} attacker-held cells"))
        }
        Expectation::VetoedMin(n) => {
            let got = obs.blink.map(|b| b.vetoed).unwrap_or(0);
            (got >= *n, format!("{got} vetoes"))
        }
        Expectation::DropRateMax(r) => {
            let created = obs.snapshot.counter("netsim.packets.created");
            let drops: u64 = obs
                .snapshot
                .counters
                .prefixed("netsim.drop.")
                .map(|(_, v)| v)
                .sum();
            let rate = if created == 0 {
                0.0
            } else {
                drops as f64 / created as f64
            };
            (
                rate <= *r,
                format!("{drops} of {created} packets dropped (rate {rate:.4})"),
            )
        }
        Expectation::DeliveredMin(n) => {
            let got = obs.snapshot.counter("netsim.delivered.endpoint");
            (got >= *n, format!("{got} endpoint deliveries"))
        }
        Expectation::QoeMin(v) => {
            let got = obs.pytheas.map(|p| p.honest_qoe).unwrap_or(0.0);
            (got >= *v, format!("honest QoE {got:.4}"))
        }
        Expectation::QoeMax(v) => {
            let got = obs.pytheas.map(|p| p.honest_qoe).unwrap_or(0.0);
            (got <= *v, format!("honest QoE {got:.4}"))
        }
        Expectation::OnBestMin(v) => {
            let got = obs.pytheas.map(|p| p.on_best).unwrap_or(0.0);
            (got >= *v, format!("best-arm share {got:.4}"))
        }
        Expectation::RateMinMbps(v) => {
            let got = obs.pcc.map(|p| p.rate_min_mbps).unwrap_or(0.0);
            (got >= *v, format!("slowest flow {got:.2} Mbit/s"))
        }
        Expectation::RateMaxMbps(v) => {
            let got = obs.pcc.map(|p| p.rate_max_mbps).unwrap_or(0.0);
            (got <= *v, format!("fastest flow {got:.2} Mbit/s"))
        }
        Expectation::OscillationMax(v) => {
            let got = obs.pcc.map(|p| p.oscillation_max).unwrap_or(0.0);
            (got <= *v, format!("worst oscillation {got:.4}"))
        }
        Expectation::SynRcvdPeakMax(n) => {
            // Peak SYN-RCVD gauge summed over hosts: only the listening
            // destination ever enters SYN-RCVD, so the sum is its peak.
            let got = obs
                .snapshot
                .gauges
                .get("tcp.handshake.synrcvd_peak")
                .map_or(0, |&(sum, _)| sum as u64);
            (got <= *n, format!("peak SYN-RCVD occupancy {got}"))
        }
        Expectation::HandshakeCompletedMin(n) => {
            let got = obs.snapshot.counter("tcp.handshake.completed");
            (got >= *n, format!("{got} completed handshakes"))
        }
        Expectation::CounterMin(name, n) => {
            let got = obs.snapshot.counter(name);
            (got >= *n, format!("{name} = {got}"))
        }
        Expectation::CounterMax(name, n) => {
            let got = obs.snapshot.counter(name);
            (got <= *n, format!("{name} = {got}"))
        }
    }
}

/// A reroute must appear within `d` of the *first* fault start: the
/// baseline is the reroute count at the last sample at or before the
/// fault, and some sample inside the deadline must exceed it.
fn reroute_within(d: SimDuration, faults: &[&ChaosWindow], samples: &[Sample]) -> (bool, String) {
    let Some(first) = faults.first() else {
        return (false, "no fault window".to_string());
    };
    let f = first.start;
    let baseline = samples
        .iter()
        .take_while(|s| s.t <= f)
        .last()
        .map(|s| s.reroutes)
        .unwrap_or(0);
    for s in samples.iter().filter(|s| s.t > f) {
        if s.reroutes > baseline {
            return if s.t <= f + d {
                (
                    true,
                    format!(
                        "rerouted by {} ({} after fault)",
                        time(s.t),
                        dur(SimDuration(s.t.0 - f.0))
                    ),
                )
            } else {
                (
                    false,
                    format!(
                        "first reroute at {} ({} after fault)",
                        time(s.t),
                        dur(SimDuration(s.t.0 - f.0))
                    ),
                )
            };
        }
    }
    (false, format!("no reroute after fault at {}", time(f)))
}

/// Endpoint delivery must resume within `d` of the *last* fault heal:
/// the first sample strictly after the heal whose cumulative delivery
/// count grew marks recovery.
fn recovery_within(
    d: SimDuration,
    sc: &Scenario,
    faults: &[&ChaosWindow],
    samples: &[Sample],
) -> (bool, String) {
    let Some(heal) = faults.iter().map(|w| w.end).max() else {
        return (false, "no fault window".to_string());
    };
    let horizon = sc
        .workload
        .horizon()
        .map(|h| SimTime(h.0))
        .unwrap_or(SimTime::ZERO);
    if heal >= horizon {
        return (false, format!("no heal before horizon ({})", time(heal)));
    }
    let mut prev: Option<u64> = None;
    for s in samples {
        if s.t > heal {
            if let Some(p) = prev {
                if s.delivered > p {
                    let lag = SimDuration(s.t.0 - heal.0);
                    return (
                        lag <= d,
                        format!("delivery resumed {} after heal at {}", dur(lag), time(heal)),
                    );
                }
            }
        }
        prev = Some(s.delivered);
    }
    (
        false,
        format!("delivery never resumed after heal at {}", time(heal)),
    )
}

/// Some whole sampling interval inside one fault window must deliver
/// nothing — evidence the chaos genuinely cut the traffic.
fn blackout(faults: &[&ChaosWindow], samples: &[Sample]) -> (bool, String) {
    for w in faults {
        for pair in samples.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if a.t >= w.start && b.t <= w.end && b.delivered == a.delivered {
                return (
                    true,
                    format!("no deliveries in [{} {}]", time(a.t), time(b.t)),
                );
            }
        }
    }
    (
        false,
        "every sampling interval delivered packets".to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t: u64, delivered: u64) -> Sample {
        Sample {
            t: SimTime::from_secs(t),
            delivered,
            reroutes: 0,
            on_primary: true,
        }
    }

    fn window(start: u64, end: u64) -> ChaosWindow {
        ChaosWindow {
            decl: 0,
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
        }
    }

    #[test]
    fn blackout_needs_a_flat_interval_inside_the_window() {
        let w = window(10, 15);
        let faults = vec![&w];
        let flat = [s(9, 50), s(10, 60), s(11, 60), s(12, 60), s(16, 80)];
        assert!(blackout(&faults, &flat).0);
        let busy = [s(9, 50), s(10, 60), s(11, 70), s(12, 80), s(16, 90)];
        assert!(!blackout(&faults, &busy).0);
    }

    #[test]
    fn recovery_measures_lag_from_the_heal() {
        let sc = crate::parse::parse_str(
            "t.dsc",
            "[scenario]\nname = x\n[topology]\nkind = linear\nnodes = 3\n\
             [workload]\nkind = tcp\nsrc = h0\ndst = h2\nhorizon = 40s\n\
             [chaos]\nlink_flap = r0-r1 at=10s down=5s\n",
        )
        .unwrap();
        let w = window(10, 15);
        let faults = vec![&w];
        // Delivery flat through the outage, resumes at t = 17.
        let samples = [s(10, 100), s(12, 100), s(16, 100), s(17, 120), s(18, 140)];
        let (pass, _) = recovery_within(SimDuration::from_secs(3), &sc, &faults, &samples);
        assert!(pass);
        let (pass, _) = recovery_within(SimDuration::from_secs(1), &sc, &faults, &samples);
        assert!(!pass);
    }

    #[test]
    fn recovery_fails_without_a_heal_before_horizon() {
        let sc = crate::parse::parse_str(
            "t.dsc",
            "[scenario]\nname = x\n[topology]\nkind = linear\nnodes = 3\n\
             [workload]\nkind = tcp\nsrc = h0\ndst = h2\nhorizon = 40s\n\
             [chaos]\nlink_flap = r0-r1 at=10s down=60s\n",
        )
        .unwrap();
        let w = window(10, 70);
        let faults = vec![&w];
        let samples = [s(10, 100), s(40, 100)];
        let (pass, detail) = recovery_within(SimDuration::from_secs(3), &sc, &faults, &samples);
        assert!(!pass);
        assert!(detail.contains("no heal"), "{detail}");
    }
}
