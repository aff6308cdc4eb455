//! The threat model of §2: attacker privileges, capabilities, and targets.
//!
//! Following Kerckhoff's principle (as the paper does), every attacker is
//! assumed to know the victim system's algorithms and parameters; the
//! privilege level only constrains *where they can touch traffic*.

use std::fmt;

/// Attacker privilege levels (§2.1, Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Privilege {
    /// Compromised host(s): manipulate/inject traffic those hosts send or
    /// receive.
    Host,
    /// Man in the middle on one or more links: record, modify, drop,
    /// delay, inject on those links; cannot break encryption.
    Mitm,
    /// Full control of the network: all of the above anywhere, plus
    /// configuration changes.
    Operator,
}

/// What a privilege is being asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Capability {
    /// Observe traffic on a link the attacker does not terminate.
    RecordOnPath,
    /// Modify/drop/delay traffic on a link.
    ModifyOnPath,
    /// Inject traffic from a compromised host.
    InjectFromHost,
    /// Inject traffic at an arbitrary network location.
    InjectAnywhere,
    /// Change device configuration (routing tables, data-plane programs,
    /// ICMP behavior).
    Reconfigure,
}

impl Privilege {
    /// Whether this privilege grants `cap` (§2.1's capability matrix).
    pub fn grants(&self, cap: Capability) -> bool {
        use Capability::*;
        match self {
            Privilege::Host => matches!(cap, InjectFromHost),
            Privilege::Mitm => matches!(cap, RecordOnPath | ModifyOnPath | InjectFromHost),
            Privilege::Operator => true,
        }
    }

    /// All privileges, weakest first.
    pub fn all() -> [Privilege; 3] {
        [Privilege::Host, Privilege::Mitm, Privilege::Operator]
    }
}

impl fmt::Display for Privilege {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Privilege::Host => write!(f, "host"),
            Privilege::Mitm => write!(f, "man-in-the-middle"),
            Privilege::Operator => write!(f, "operator"),
        }
    }
}

/// Attack targets (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Devices that forward traffic (routers, data-driven data planes).
    Infrastructure,
    /// Endpoints and the applications/protocols running on them.
    Endpoints,
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Infrastructure => write!(f, "network infrastructure"),
            Target::Endpoints => write!(f, "endpoints"),
        }
    }
}

/// Metadata describing one attack implementation (for the experiment
/// harness and reports).
#[derive(Debug, Clone)]
pub struct AttackDescriptor {
    /// Short name ("blink-takeover").
    pub name: &'static str,
    /// Paper section ("§3.1").
    pub section: &'static str,
    /// Minimum privilege required.
    pub privilege: Privilege,
    /// What it targets.
    pub target: Target,
    /// One-line summary.
    pub summary: &'static str,
}

impl AttackDescriptor {
    /// Assert that an attacker at `have` may run this attack (used by the
    /// scenario builder to keep experiments honest about the threat model).
    pub fn check_privilege(&self, have: Privilege) -> Result<(), String> {
        if have >= self.privilege {
            Ok(())
        } else {
            Err(format!(
                "attack '{}' needs {} privilege, attacker has {}",
                self.name, self.privilege, have
            ))
        }
    }
}

/// The catalogue of implemented attacks: each attack module's own
/// descriptor.
pub fn catalogue() -> Vec<AttackDescriptor> {
    use crate::{blink_takeover, operator, pcc_oscillate, pytheas_poison};
    use crate::{syn_flood, traceroute_spoof};
    vec![
        blink_takeover::descriptor(),
        pytheas_poison::botnet_descriptor(),
        pytheas_poison::throttle_descriptor(),
        pcc_oscillate::descriptor(),
        operator::descriptor(),
        traceroute_spoof::descriptor(),
        syn_flood::descriptor(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn privilege_ordering_is_strength() {
        assert!(Privilege::Host < Privilege::Mitm);
        assert!(Privilege::Mitm < Privilege::Operator);
    }

    #[test]
    fn capability_matrix() {
        use Capability::*;
        assert!(Privilege::Host.grants(InjectFromHost));
        assert!(!Privilege::Host.grants(ModifyOnPath));
        assert!(!Privilege::Host.grants(Reconfigure));
        assert!(Privilege::Mitm.grants(RecordOnPath));
        assert!(Privilege::Mitm.grants(ModifyOnPath));
        assert!(!Privilege::Mitm.grants(Reconfigure));
        assert!(!Privilege::Mitm.grants(InjectAnywhere));
        for c in [
            RecordOnPath,
            ModifyOnPath,
            InjectFromHost,
            InjectAnywhere,
            Reconfigure,
        ] {
            assert!(Privilege::Operator.grants(c));
        }
    }

    #[test]
    fn privilege_check_enforced() {
        let cat = catalogue();
        let pcc = cat.iter().find(|a| a.name == "pcc-oscillate").unwrap();
        assert!(pcc.check_privilege(Privilege::Host).is_err());
        assert!(pcc.check_privilege(Privilege::Mitm).is_ok());
        assert!(pcc.check_privilege(Privilege::Operator).is_ok());
    }

    #[test]
    fn catalogue_covers_all_case_studies() {
        let cat = catalogue();
        assert!(cat.len() >= 5);
        assert!(cat.iter().any(|a| a.target == Target::Infrastructure));
        assert!(cat.iter().any(|a| a.target == Target::Endpoints));
        for p in Privilege::all() {
            let _ = p.to_string();
        }
    }
}
