//! The PCC countermeasure of §5: "PCC could monitor when packets are
//! dropped in every +ε or −ε phase as well as limit the amplitude of the
//! oscillations by decreasing the range of ε."
//!
//! Two cooperating pieces:
//!
//! * [`PccLossPatternMonitor`] — consumes per-MI `(rate, base, loss)`
//!   triples and scores the *direction-asymmetry* of loss: on a congested
//!   but honest path, loss afflicts high- and low-rate intervals roughly
//!   in proportion to their rates; the §4.2 equalizer drops (almost) only
//!   in above-base intervals, which is statistically glaring.
//! * [`recommended_eps_max`] — the amplitude clamp: shrink ε_max toward
//!   its minimum as suspicion grows, bounding the oscillation the
//!   attacker can induce.

use crate::supervisor::Risk;
use dui_pcc::monitor::MiReport;

/// Streaming detector of direction-biased loss.
#[derive(Debug, Clone, Default)]
pub struct PccLossPatternMonitor {
    /// MIs above base rate that saw loss.
    pub high_lossy: u64,
    /// MIs above base rate, total.
    pub high_total: u64,
    /// MIs at/below base rate that saw loss.
    pub low_lossy: u64,
    /// MIs at/below base rate, total.
    pub low_total: u64,
    /// Sum of loss fractions in above-base MIs.
    pub high_loss_sum: f64,
    /// Sum of loss fractions in below-base MIs.
    pub low_loss_sum: f64,
}

impl PccLossPatternMonitor {
    /// New monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one finalized monitor interval and the base rate it was an
    /// experiment around.
    pub fn observe(&mut self, report: &MiReport, base_rate: f64) {
        let lossy = report.loss > 0.002; // measurement-noise floor
        if report.rate > base_rate * 1.001 {
            self.high_total += 1;
            self.high_loss_sum += report.loss;
            if lossy {
                self.high_lossy += 1;
            }
        } else if report.rate < base_rate * 0.999 {
            self.low_total += 1;
            self.low_loss_sum += report.loss;
            if lossy {
                self.low_lossy += 1;
            }
        }
        // Base-rate (filler) MIs are uninformative for the asymmetry test.
    }

    /// Loss-rate asymmetry in `[−1, 1]`: `P(loss | high) − P(loss | low)`.
    /// Near 0 on honest paths, near +1 under the §4.2 equalizer.
    pub fn asymmetry(&self) -> f64 {
        let p_high = if self.high_total == 0 {
            0.0
        } else {
            self.high_lossy as f64 / self.high_total as f64
        };
        let p_low = if self.low_total == 0 {
            0.0
        } else {
            self.low_lossy as f64 / self.low_total as f64
        };
        p_high - p_low
    }

    /// Loss *magnitude* asymmetry: `(L̄_high − L̄_low) / (L̄_high + L̄_low)`.
    /// More sensitive than presence asymmetry when benign congestion loss
    /// afflicts both directions and the attack merely adds extra loss on
    /// top of the high side.
    pub fn magnitude_asymmetry(&self) -> f64 {
        if self.high_total == 0 || self.low_total == 0 {
            return 0.0;
        }
        let mh = self.high_loss_sum / self.high_total as f64;
        let ml = self.low_loss_sum / self.low_total as f64;
        let denom = mh + ml;
        if denom < 1e-9 {
            return 0.0;
        }
        (mh - ml) / denom
    }

    /// Risk that the path is adversarial, requiring a minimum sample size
    /// before accusing anyone. Takes the stronger of the presence- and
    /// magnitude-based signals.
    pub fn risk(&self) -> Risk {
        let presence = presence_asymmetry(
            self.high_lossy,
            self.high_total,
            self.low_lossy,
            self.low_total,
        );
        presence.map_or(Risk::NONE, |a| {
            Risk::clamped(a.max(self.magnitude_asymmetry()))
        })
    }
}

/// `P(loss | high) − P(loss | low)` from interval tallies, or `None`
/// with fewer than 10 intervals on either side — too few to accuse
/// anyone. The one statement of the rule behind both
/// [`PccLossPatternMonitor::risk`] and the streaming
/// [`DropPatternWindow`](crate::streaming::DropPatternWindow).
pub(crate) fn presence_asymmetry(
    high_lossy: u64,
    high_total: u64,
    low_lossy: u64,
    low_total: u64,
) -> Option<f64> {
    if high_total < 10 || low_total < 10 {
        return None;
    }
    let p_high = high_lossy as f64 / high_total as f64;
    let p_low = low_lossy as f64 / low_total as f64;
    Some(p_high - p_low)
}

/// The ε clamp (paper: "limit the amplitude of the oscillations by
/// decreasing the range of ε"): interpolates from `eps_max` down to
/// `eps_min` as risk grows.
pub fn recommended_eps_max(risk: Risk, eps_min: f64, eps_max: f64) -> f64 {
    assert!(eps_min <= eps_max);
    eps_max - (eps_max - eps_min) * risk.0.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_netsim::time::{SimDuration, SimTime};

    fn mi(rate: f64, loss: f64) -> MiReport {
        // helper below constructs a synthetic report
        MiReport {
            id: 0,
            rate,
            sent: 100,
            delivered: ((1.0 - loss) * 100.0) as u64,
            loss,
            start: SimTime::ZERO,
            duration: SimDuration::from_millis(50),
        }
    }

    #[test]
    fn honest_congestion_is_symmetric() {
        let mut m = PccLossPatternMonitor::new();
        // Over capacity: both directions lose a bit.
        for _ in 0..50 {
            m.observe(&mi(1.05e6, 0.02), 1e6);
            m.observe(&mi(0.95e6, 0.015), 1e6);
        }
        assert!(m.asymmetry().abs() < 0.2, "asym = {}", m.asymmetry());
        assert!(m.risk().0 < 0.2);
    }

    #[test]
    fn equalizer_attack_is_glaring() {
        let mut m = PccLossPatternMonitor::new();
        // The §4.2 attacker: loss only in +ε intervals.
        for _ in 0..50 {
            m.observe(&mi(1.05e6, 0.03), 1e6);
            m.observe(&mi(0.95e6, 0.0), 1e6);
        }
        assert!(m.asymmetry() > 0.9);
        assert!(m.risk().0 > 0.9);
    }

    #[test]
    fn needs_sample_size_before_accusing() {
        let mut m = PccLossPatternMonitor::new();
        m.observe(&mi(1.05e6, 0.5), 1e6);
        m.observe(&mi(0.95e6, 0.0), 1e6);
        assert_eq!(m.risk().0, 0.0, "two MIs prove nothing");
    }

    #[test]
    fn clean_path_zero_everything() {
        let mut m = PccLossPatternMonitor::new();
        for _ in 0..50 {
            m.observe(&mi(1.05e6, 0.0), 1e6);
            m.observe(&mi(0.95e6, 0.0), 1e6);
        }
        assert_eq!(m.asymmetry(), 0.0);
    }

    #[test]
    fn filler_mis_ignored() {
        let mut m = PccLossPatternMonitor::new();
        for _ in 0..100 {
            m.observe(&mi(1e6, 0.5), 1e6); // exactly base rate
        }
        assert_eq!(m.high_total + m.low_total, 0);
    }

    #[test]
    fn eps_clamp_interpolates() {
        assert_eq!(recommended_eps_max(Risk::NONE, 0.01, 0.05), 0.05);
        assert!((recommended_eps_max(Risk::CERTAIN, 0.01, 0.05) - 0.01).abs() < 1e-12);
        let half = recommended_eps_max(Risk(0.5), 0.01, 0.05);
        assert!((half - 0.03).abs() < 1e-12);
    }

    #[test]
    fn clamp_bounds_attack_amplitude() {
        // With ε clamped at 0.01, the §4.2 oscillation cannot exceed ±1%:
        // verified against the controller.
        use dui_pcc::control::{ControlConfig, Controller};
        let cfg = ControlConfig {
            eps_max: recommended_eps_max(Risk::CERTAIN, 0.01, 0.05),
            ..Default::default()
        };
        let mut c = Controller::new(cfg, 1e6, 1);
        let _ = c.next_mi_rate();
        c.on_report(1.0);
        let _ = c.next_mi_rate();
        c.on_report(0.5); // exit Starting
        let base = c.base_rate();
        let mut max_dev: f64 = 0.0;
        for i in 0..60 {
            let r = c.next_mi_rate();
            c.on_report(7.0); // equalized utilities
            if i > 20 {
                max_dev = max_dev.max((r - base).abs() / base);
            }
        }
        assert!(max_dev <= 0.0100001, "amplitude bounded at 1%: {max_dev}");
    }
}
