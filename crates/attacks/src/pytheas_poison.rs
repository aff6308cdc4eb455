//! The §4.1 Pytheas attacks, as scenario-level configurators.
//!
//! The measurement-poisoning logic itself lives in `dui-pytheas` (bots are
//! just sessions that lie); this module binds those knobs to the threat
//! model — which privilege enables which variant.

use crate::privilege::{AttackDescriptor, Privilege, Target};
use dui_pytheas::engine::{EngineConfig, PoisonStrategy, Throttle};

/// Descriptor for the botnet variant.
pub fn botnet_descriptor() -> AttackDescriptor {
    AttackDescriptor {
        name: "pytheas-botnet-poison",
        section: "§4.1",
        privilege: Privilege::Host,
        target: Target::Endpoints,
        summary: "bot sessions report fake QoE, driving group-wide decisions for honest clients",
    }
}

/// Descriptor for the CDN-throttle variant.
pub fn throttle_descriptor() -> AttackDescriptor {
    AttackDescriptor {
        name: "pytheas-cdn-throttle",
        section: "§4.1",
        privilege: Privilege::Mitm,
        target: Target::Endpoints,
        summary: "throttling one CDN's flows herds whole groups onto other sites",
    }
}

/// Host-privilege: a fraction of the group's sessions are bots reporting
/// adversarially.
#[derive(Debug, Clone, Copy)]
pub struct BotnetPoisoning {
    /// Fraction of sessions the attacker controls.
    pub fraction: f64,
    /// What the bots report.
    pub strategy: PoisonStrategy,
}

impl BotnetPoisoning {
    /// Apply to an engine configuration (after a privilege check).
    pub fn apply(&self, cfg: &mut EngineConfig, have: Privilege) -> Result<(), String> {
        botnet_descriptor().check_privilege(have)?;
        cfg.poison_fraction = self.fraction;
        cfg.poison = self.strategy;
        Ok(())
    }
}

/// MitM-privilege: throttle the flows of one CDN arm.
#[derive(Debug, Clone, Copy)]
pub struct CdnThrottleAttack {
    /// The arm (CDN site) to degrade.
    pub arm: usize,
    /// Quality multiplier experienced by affected sessions.
    pub factor: f64,
    /// Fraction of the arm's sessions crossing the compromised links.
    pub reach: f64,
}

impl CdnThrottleAttack {
    /// Apply to an engine configuration (after a privilege check).
    pub fn apply(&self, cfg: &mut EngineConfig, have: Privilege) -> Result<(), String> {
        throttle_descriptor().check_privilege(have)?;
        cfg.throttle = Some(Throttle {
            arm: self.arm,
            factor: self.factor,
            affected_fraction: self.reach,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_pytheas::engine::{make_groups, AcceptAll, PytheasEngine};
    use dui_pytheas::qoe::QoeModel;

    #[test]
    fn botnet_requires_only_host_privilege() {
        let atk = BotnetPoisoning {
            fraction: 0.2,
            strategy: PoisonStrategy::Promote { down: 1, up: 2 },
        };
        let mut cfg = EngineConfig::default();
        assert!(atk.apply(&mut cfg, Privilege::Host).is_ok());
        assert_eq!(cfg.poison_fraction, 0.2);
    }

    #[test]
    fn throttle_requires_mitm() {
        let atk = CdnThrottleAttack {
            arm: 1,
            factor: 0.3,
            reach: 0.8,
        };
        let mut cfg = EngineConfig::default();
        assert!(atk.apply(&mut cfg, Privilege::Host).is_err());
        assert!(atk.apply(&mut cfg, Privilege::Mitm).is_ok());
        assert!(cfg.throttle.is_some());
    }

    #[test]
    fn end_to_end_botnet_attack_composes() {
        let atk = BotnetPoisoning {
            fraction: 0.25,
            strategy: PoisonStrategy::Promote { down: 1, up: 0 },
        };
        let mut cfg = EngineConfig::default();
        atk.apply(&mut cfg, Privilege::Host).unwrap();
        let model = QoeModel::new(vec![0.4, 0.85, 0.7], 0.05);
        let mut engine = PytheasEngine::new(model, cfg, &make_groups(1), 1);
        let qoe = engine.run(300, &mut AcceptAll);
        assert!(qoe < 0.8, "poisoned run should underperform: {qoe}");
    }
}
