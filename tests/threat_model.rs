//! Cross-crate integration: the §2 threat model ties the case studies
//! together — every implemented attack is catalogued with its privilege
//! and target, and privilege checks are enforced at the scenario level.

use dui::attacks::pytheas_poison::{BotnetPoisoning, CdnThrottleAttack};
use dui::pytheas::engine::{EngineConfig, PoisonStrategy};
use dui::threat::{catalogue, Capability, Privilege, Target};

#[test]
fn catalogue_matches_paper_case_studies() {
    let cat = catalogue();
    let by_name = |n: &str| cat.iter().find(|a| a.name == n).expect(n);

    let blink = by_name("blink-takeover");
    assert_eq!(blink.privilege, Privilege::Host);
    assert_eq!(blink.target, Target::Infrastructure);
    assert_eq!(blink.section, "§3.1");

    let pytheas = by_name("pytheas-botnet-poison");
    assert_eq!(pytheas.privilege, Privilege::Host);
    assert_eq!(pytheas.target, Target::Endpoints);

    let pcc = by_name("pcc-oscillate");
    assert_eq!(pcc.privilege, Privilege::Mitm);

    let tr = by_name("traceroute-spoof");
    assert_eq!(tr.privilege, Privilege::Mitm);

    let syn = by_name("syn-flood");
    assert_eq!(syn.privilege, Privilege::Host);
    assert_eq!(syn.target, Target::Infrastructure);
    assert_eq!(syn.section, "§2");
}

#[test]
fn host_level_attacker_cannot_run_mitm_attacks() {
    let throttle = CdnThrottleAttack {
        arm: 0,
        factor: 0.5,
        reach: 1.0,
    };
    let mut cfg = EngineConfig::default();
    let err = throttle.apply(&mut cfg, Privilege::Host).unwrap_err();
    assert!(err.contains("man-in-the-middle"), "{err}");
    assert!(cfg.throttle.is_none(), "config untouched on refusal");
}

#[test]
fn operator_can_run_everything() {
    for a in catalogue() {
        assert!(a.check_privilege(Privilege::Operator).is_ok(), "{}", a.name);
    }
}

#[test]
fn capability_matrix_is_monotone_in_privilege() {
    for cap in [
        Capability::RecordOnPath,
        Capability::ModifyOnPath,
        Capability::InjectFromHost,
        Capability::InjectAnywhere,
        Capability::Reconfigure,
    ] {
        let mut allowed_before = false;
        for p in Privilege::all() {
            let allowed = p.grants(cap);
            assert!(
                allowed || !allowed_before,
                "capability {cap:?} must not be lost as privilege grows"
            );
            allowed_before = allowed;
        }
    }
}

#[test]
fn botnet_poisoning_composes_with_engine_config() {
    let atk = BotnetPoisoning {
        fraction: 0.15,
        strategy: PoisonStrategy::DragDownArm(1),
    };
    let mut cfg = EngineConfig::default();
    atk.apply(&mut cfg, Privilege::Mitm).unwrap(); // higher privilege ok
    assert_eq!(cfg.poison_fraction, 0.15);
    assert_eq!(cfg.poison, PoisonStrategy::DragDownArm(1));
}
