//! Cross-crate integration: the Pytheas backend analyzing real engine
//! history — distinguishing feature-aligned damage (split the group) from
//! feature-invisible poisoning (filter the reports).

use dui::pytheas::backend::{critical_feature, Feature};
use dui::pytheas::engine::{
    make_groups, AcceptAll, EngineConfig, PoisonStrategy, PytheasEngine, Throttle,
};
use dui::pytheas::qoe::QoeModel;

fn model() -> QoeModel {
    QoeModel::new(vec![0.4, 0.85, 0.7], 0.05)
}

#[test]
fn throttle_on_one_group_is_feature_aligned_and_detected() {
    // Two groups at different locations; the MitM throttle reaches only
    // sessions of one (modelled by running the throttled engine for one
    // group and merging histories — the backend sees the union).
    let clean_cfg = EngineConfig::default();
    let throttled_cfg = EngineConfig {
        throttle: Some(Throttle {
            arm: 1,
            factor: 0.25,
            affected_fraction: 1.0,
        }),
        ..Default::default()
    };
    let groups = make_groups(2);
    let mut clean = PytheasEngine::new(model(), clean_cfg, &groups[..1], 5);
    let mut throttled = PytheasEngine::new(model(), throttled_cfg, &groups[1..], 6);
    for _ in 0..150 {
        clean.run_round(&mut AcceptAll);
        throttled.run_round(&mut AcceptAll);
    }
    let mut records = clean.records.clone();
    records.extend(throttled.records.iter().copied());
    let cf = critical_feature(&records).expect("feature-aligned damage must be detected");
    // The two groups differ in asn/prefix/location; any of those splits
    // quarantines the attacked population (content would not).
    assert_ne!(
        cf.feature,
        Feature::Content,
        "damage aligns with group identity"
    );
    assert!(cf.gap > 0.3, "gap = {}", cf.gap);
    assert_eq!(cf.arm, 1, "the throttled arm exhibits the gap");
}

#[test]
fn botnet_poisoning_is_not_feature_aligned() {
    // Bots are spread uniformly through the group: the backend must NOT
    // find a split (the §5 outlier filter is the right tool instead).
    let cfg = EngineConfig {
        poison_fraction: 0.2,
        poison: PoisonStrategy::DragDownArm(1),
        ..Default::default()
    };
    let mut e = PytheasEngine::new(model(), cfg, &make_groups(1), 7);
    for _ in 0..150 {
        e.run_round(&mut AcceptAll);
    }
    assert!(
        critical_feature(&e.records).is_none(),
        "uniform poisoning offers no clean split"
    );
}
