//! The Pytheas countermeasure of §5: per-group, per-arm robust outlier
//! filtering of QoE reports.
//!
//! "Pytheas could look at the distribution of throughput across all
//! clients in a group. If only a few clients exhibit low throughput while
//! others exhibit high throughput, this is indicative of either groups
//! being ill-formed or malicious inputs from part of the group
//! population. Accordingly, the low-throughput clients can be tackled
//! separately, removing their impact on the larger population."
//!
//! The rule is `mad_band`, stated once: a value is an outlier when it
//! lies outside `median ± max(K·MAD, FLOOR)`. [`MadReportFilter`] applies
//! it per arm within each round's batch of reports;
//! [`GroupOutlierWindow`](crate::streaming::GroupOutlierWindow) applies
//! it across a group's members' windowed QoE.

use dui_pytheas::engine::ReportFilter;
use dui_pytheas::qoe::Report;
use dui_pytheas::session::GroupKey;
use dui_stats::summary::median_mad_in_place;

/// Band half-width in MAD units.
const K: f64 = 4.0;
/// Least band half-width, so tiny-noise batches don't reject everything.
const FLOOR: f64 = 0.15;

/// The plausible band of `values`: `(median, half_width)` with
/// `half_width = max(K·MAD, FLOOR)`, `K = 4`, `FLOOR = 0.15`. A value
/// deviating from the median by more than `half_width` is an outlier.
/// Works in `values` itself, which it leaves holding the sorted absolute
/// deviations.
pub(crate) fn mad_band(values: &mut [f64]) -> (f64, f64) {
    let (med, mad) = median_mad_in_place(values);
    (med, (K * mad).max(FLOOR))
}

/// Median/MAD report filter: rejects reports outside their arm's
/// `mad_band`.
#[derive(Default)]
pub struct MadReportFilter {
    /// Reports rejected so far.
    pub rejected: u64,
    /// Of the rejected, how many were actually malicious (evaluation
    /// only — uses the ground-truth bit carried by [`Report`]).
    pub rejected_malicious: u64,
}

impl MadReportFilter {
    /// Precision of the filter so far: rejected-malicious / rejected.
    pub fn precision(&self) -> f64 {
        if self.rejected == 0 {
            1.0
        } else {
            self.rejected_malicious as f64 / self.rejected as f64
        }
    }
}

impl ReportFilter for MadReportFilter {
    fn filter(&mut self, _group: GroupKey, reports: &[Report]) -> Vec<Report> {
        let mut keep = Vec::with_capacity(reports.len());
        let arms: std::collections::BTreeSet<usize> = reports.iter().map(|r| r.arm).collect();
        for arm in arms {
            let mut values: Vec<f64> = reports
                .iter()
                .filter(|r| r.arm == arm)
                .map(|r| r.value)
                .collect();
            if values.len() < 4 {
                // Too few to judge robustly: accept.
                keep.extend(reports.iter().filter(|r| r.arm == arm).cloned());
                continue;
            }
            let (med, half_width) = mad_band(&mut values);
            for r in reports.iter().filter(|r| r.arm == arm) {
                if (r.value - med).abs() > half_width {
                    self.rejected += 1;
                    if r.malicious {
                        self.rejected_malicious += 1;
                    }
                } else {
                    keep.push(*r);
                }
            }
        }
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_pytheas::engine::{
        make_groups, AcceptAll, EngineConfig, PoisonStrategy, PytheasEngine,
    };
    use dui_pytheas::qoe::QoeModel;

    fn g() -> GroupKey {
        GroupKey {
            asn: 1,
            prefix16: 0,
            location: 0,
        }
    }

    fn report(arm: usize, value: f64, malicious: bool) -> Report {
        Report {
            arm,
            value,
            malicious,
        }
    }

    #[test]
    fn passes_clean_batches() {
        let mut f = MadReportFilter::default();
        let batch: Vec<Report> = (0..20)
            .map(|i| report(0, 0.8 + 0.01 * (i % 3) as f64, false))
            .collect();
        let kept = f.filter(g(), &batch);
        assert_eq!(kept.len(), 20);
        assert_eq!(f.rejected, 0);
    }

    #[test]
    fn rejects_lying_minority() {
        let mut f = MadReportFilter::default();
        let mut batch: Vec<Report> = (0..16)
            .map(|i| report(0, 0.82 + 0.01 * (i % 4) as f64, false))
            .collect();
        batch.extend((0..4).map(|_| report(0, 0.0, true)));
        let kept = f.filter(g(), &batch);
        assert_eq!(kept.len(), 16, "the four zeros go");
        assert_eq!(f.rejected, 4);
        assert_eq!(f.rejected_malicious, 4);
        assert_eq!(f.precision(), 1.0);
    }

    #[test]
    fn small_batches_pass_unjudged() {
        let mut f = MadReportFilter::default();
        let batch = vec![report(0, 0.9, false), report(0, 0.0, true)];
        assert_eq!(f.filter(g(), &batch).len(), 2);
    }

    #[test]
    fn arms_judged_independently() {
        let mut f = MadReportFilter::default();
        let mut batch: Vec<Report> = (0..10).map(|_| report(0, 0.9, false)).collect();
        batch.extend((0..10).map(|_| report(1, 0.3, false)));
        // 0.3 on arm 1 is normal there, not an outlier vs arm 0.
        let kept = f.filter(g(), &batch);
        assert_eq!(kept.len(), 20);
    }

    #[test]
    fn defense_restores_group_qoe_under_poisoning() {
        // The §5 claim end-to-end: with the MAD filter, the §4.1 botnet
        // poisoning loses most of its power.
        let model = || QoeModel::new(vec![0.4, 0.85, 0.7], 0.05);
        let cfg = EngineConfig {
            poison_fraction: 0.2,
            poison: PoisonStrategy::Promote { down: 1, up: 2 },
            ..Default::default()
        };
        let mut undefended = PytheasEngine::new(model(), cfg.clone(), &make_groups(2), 7);
        let q_undefended = undefended.run(300, &mut AcceptAll);
        let mut defended = PytheasEngine::new(model(), cfg, &make_groups(2), 7);
        let mut filter = MadReportFilter::default();
        let q_defended = defended.run(300, &mut filter);
        assert!(
            q_defended > q_undefended + 0.03,
            "defense should recover QoE: {q_undefended} -> {q_defended}"
        );
        assert!(
            q_defended > 0.78,
            "defended group stays near the clean 0.85: {q_defended}"
        );
        assert!(
            filter.precision() > 0.8,
            "few honest reports sacrificed: precision {}",
            filter.precision()
        );
    }
}
