//! The Pytheas backend: offline critical-feature analysis and group
//! splitting.
//!
//! In Pytheas, frontends run per-group E2 in real time while a backend
//! periodically re-examines session history to check that groups are
//! well-formed: a *critical feature* is one whose values separate sessions
//! with materially different optimal decisions. When one is found, the
//! group is split along it.
//!
//! Two roles here:
//!
//! 1. **Fidelity** — this is how the real system maintains its grouping.
//! 2. **Defense** — the §5 discussion notes that a bimodal QoE
//!    distribution inside a group "is indicative of either groups being
//!    ill-formed or malicious inputs from part of the group population".
//!    When the damage is feature-aligned (e.g. a MitM throttling one
//!    location's links), splitting quarantines the affected
//!    subpopulation; when it is not (bots are feature-identical with
//!    their victims), splitting finds nothing and the outlier filter
//!    (`dui-defense`) is the right tool. Distinguishing those two cases
//!    is precisely the §5 research question.

use crate::session::SessionFeatures;

/// One observed session for backend analysis.
#[derive(Debug, Clone, Copy)]
pub struct SessionRecord {
    /// The session's features.
    pub features: SessionFeatures,
    /// Arm it was assigned.
    pub arm: usize,
    /// QoE it reported.
    pub qoe: f64,
}

/// Features the backend may split on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Feature {
    /// Autonomous system.
    Asn,
    /// /16 prefix.
    Prefix16,
    /// Location.
    Location,
    /// Content class.
    Content,
}

impl Feature {
    /// All candidate features.
    pub fn all() -> [Feature; 4] {
        [
            Feature::Asn,
            Feature::Prefix16,
            Feature::Location,
            Feature::Content,
        ]
    }

    /// The feature's value in a session.
    pub fn value(&self, s: &SessionFeatures) -> u32 {
        match self {
            Feature::Asn => s.asn,
            Feature::Prefix16 => s.prefix16 as u32,
            Feature::Location => s.location as u32,
            Feature::Content => s.content as u32,
        }
    }
}

/// Minimum sessions per (feature-value, arm) cell to trust its mean.
const MIN_SUPPORT: usize = 10;
/// Minimum per-arm QoE difference between partitions for a feature to
/// count as critical.
const GAP_THRESHOLD: f64 = 0.15;

/// A detected critical feature with its evidence.
#[derive(Debug, Clone)]
pub struct CriticalFeature {
    /// The feature to split on.
    pub feature: Feature,
    /// The largest per-arm QoE gap observed between two of its values.
    pub gap: f64,
    /// The arm exhibiting the gap.
    pub arm: usize,
}

/// Mean QoE per (feature value, arm) with support counting.
fn partition_means(
    records: &[SessionRecord],
    feature: Feature,
) -> std::collections::BTreeMap<(u32, usize), (f64, usize)> {
    let mut acc: std::collections::BTreeMap<(u32, usize), (f64, usize)> =
        std::collections::BTreeMap::new();
    for r in records {
        let key = (feature.value(&r.features), r.arm);
        let e = acc.entry(key).or_insert((0.0, 0));
        e.0 += r.qoe;
        e.1 += 1;
    }
    for v in acc.values_mut() {
        v.0 /= v.1 as f64;
    }
    acc
}

/// Find the most critical feature of a group's history, if any: a feature
/// for which two values see a per-arm QoE gap above the threshold (with
/// enough support on both sides).
pub fn critical_feature(records: &[SessionRecord]) -> Option<CriticalFeature> {
    let mut best: Option<CriticalFeature> = None;
    for feature in Feature::all() {
        let means = partition_means(records, feature);
        // Compare every pair of feature values arm-by-arm.
        let arms: std::collections::BTreeSet<usize> = means.keys().map(|&(_, a)| a).collect();
        let values: std::collections::BTreeSet<u32> = means.keys().map(|&(v, _)| v).collect();
        if values.len() < 2 {
            continue;
        }
        for &arm in &arms {
            let cells: Vec<(f64, usize)> = values
                .iter()
                .filter_map(|&v| means.get(&(v, arm)).copied())
                .filter(|&(_, n)| n >= MIN_SUPPORT)
                .collect();
            if cells.len() < 2 {
                continue;
            }
            let hi = cells.iter().map(|&(m, _)| m).fold(f64::MIN, f64::max);
            let lo = cells.iter().map(|&(m, _)| m).fold(f64::MAX, f64::min);
            let gap = hi - lo;
            if gap >= GAP_THRESHOLD && best.as_ref().map(|b| gap > b.gap).unwrap_or(true) {
                best = Some(CriticalFeature { feature, gap, arm });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_stats::Rng;

    fn features(asn: u32, location: u16, content: u16) -> SessionFeatures {
        SessionFeatures {
            asn,
            prefix16: 7,
            location,
            content,
        }
    }

    /// Records where arm quality is identical across all feature values
    /// (features and arms drawn independently).
    fn homogeneous(n: usize, rng: &mut Rng) -> Vec<SessionRecord> {
        (0..n)
            .map(|_| {
                let arm = rng.below_usize(3);
                let base = [0.4, 0.85, 0.7][arm];
                SessionRecord {
                    features: features(
                        100 + rng.below(2) as u32,
                        rng.below(3) as u16,
                        rng.below(4) as u16,
                    ),
                    arm,
                    qoe: (base + (rng.f64() - 0.5) * 0.05).clamp(0.0, 1.0),
                }
            })
            .collect()
    }

    #[test]
    fn homogeneous_group_has_no_critical_feature() {
        let mut rng = Rng::new(1);
        let records = homogeneous(600, &mut rng);
        assert!(critical_feature(&records).is_none());
    }

    #[test]
    fn location_throttle_is_detected_and_split() {
        // A MitM throttles arm 1 for location 9 only: that location's
        // sessions see arm 1 collapse while others don't — location is
        // critical, and splitting quarantines the attacked population.
        let mut rng = Rng::new(2);
        let mut records = homogeneous(400, &mut rng);
        for _ in 0..200 {
            let arm = rng.below_usize(3);
            let mut qoe = [0.4, 0.85, 0.7][arm];
            if arm == 1 {
                qoe = 0.2; // throttled at this location
            }
            records.push(SessionRecord {
                features: features(100, 9, rng.below(4) as u16),
                arm,
                qoe: (qoe + (rng.f64() - 0.5) * 0.05).clamp(0.0, 1.0),
            });
        }
        let cf = critical_feature(&records).expect("location gap must be detected");
        assert_eq!(cf.feature, Feature::Location);
        assert_eq!(cf.arm, 1);
        assert!(cf.gap > 0.4, "gap = {}", cf.gap);
    }

    #[test]
    fn content_driven_preferences_detected() {
        // Different content classes genuinely prefer different arms (the
        // benign reason backends re-group).
        let mut rng = Rng::new(3);
        let mut records = Vec::new();
        for _ in 0..600 {
            let content = rng.below(2) as u16;
            let arm = rng.below_usize(3);
            // Content 0 loves arm 0; content 1 loves arm 2.
            let qoe = match (content, arm) {
                (0, 0) | (1, 2) => 0.9,
                _ => 0.5,
            };
            records.push(SessionRecord {
                features: features(100, 1, content),
                arm,
                qoe: (qoe + (rng.f64() - 0.5) * 0.05).clamp(0.0, 1.0),
            });
        }
        let cf = critical_feature(&records).expect("detect");
        assert_eq!(cf.feature, Feature::Content);
    }

    #[test]
    fn bot_poisoning_is_feature_invisible() {
        // Bots share their victims' features: the damage is not
        // feature-aligned, so splitting finds nothing — the case where the
        // §5 outlier filter (not re-grouping) is the right defense.
        let mut rng = Rng::new(4);
        let mut records = homogeneous(500, &mut rng);
        for _ in 0..100 {
            records.push(SessionRecord {
                features: features(
                    100 + rng.below(2) as u32,
                    rng.below(3) as u16,
                    rng.below(4) as u16,
                ),
                arm: 1,
                qoe: 0.0, // lying about the good arm
            });
        }
        // The bots drag arm 1's mean down *uniformly across all feature
        // values*, so no split explains the variance.
        assert!(critical_feature(&records).is_none());
    }

    #[test]
    fn insufficient_support_is_not_accused() {
        let mut rng = Rng::new(5);
        let mut records = homogeneous(600, &mut rng);
        // 3 outlier sessions at a unique location: below MIN_SUPPORT there,
        // and too dilute to shift any other feature's cell means.
        for _ in 0..3 {
            records.push(SessionRecord {
                features: features(100, 77, 0),
                arm: 1,
                qoe: 0.0,
            });
        }
        assert!(critical_feature(&records).is_none());
    }
}
