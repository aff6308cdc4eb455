//! # dui-attacks
//!
//! The paper's primary contribution, as a library: a typed **threat
//! model** for adversarial inputs to data-driven networks (Fig. 1 / §2)
//! and the **concrete attacks** of §3–§4, each implemented against the
//! corresponding system crate:
//!
//! | Attack | Paper | Privilege | Target |
//! |---|---|---|---|
//! | [`blink_takeover`] — fake TCP retransmissions hijack Blink's flow sample and trigger spurious reroutes | §3.1 | Host | Infrastructure |
//! | [`pytheas_poison`] — bot sessions / CDN throttling poison group-level QoE decisions | §4.1 | Host / MitM / Operator | Endpoints |
//! | [`pcc_oscillate`] — selective drops equalize PCC's A/B utilities, pinning it at ±5% oscillation | §4.2 | MitM | Endpoints |
//! | [`traceroute_spoof`] — unauthenticated ICMP lets anyone in-path present fake topologies | §4.3 | MitM / Operator | Endpoints |
//! | [`operator`] — data-plane program bounces selected traffic between devices, inflating latency | §4.1 | Operator | Endpoints |
//! | [`syn_flood`] — spoofed SYNs exhaust a stateful listener's half-open backlog | §2 | Host | Infrastructure |
//!
//! [`privilege`] defines the attacker taxonomy and capability checks;
//! [`primitives`] provides the generic building blocks (probabilistic
//! droppers, throttlers, delayers, header rewriters) the case studies
//! compose.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod blink_takeover;
pub mod operator;
pub mod pcc_oscillate;
pub mod primitives;
pub mod privilege;
pub mod pytheas_poison;
pub mod syn_flood;
pub mod traceroute_spoof;

pub use blink_takeover::{BlinkTakeover, MaliciousRetxHost};
pub use operator::BounceProgram;
pub use pcc_oscillate::PccEqualizerTap;
pub use privilege::{AttackDescriptor, Capability, Privilege, Target};
pub use pytheas_poison::{BotnetPoisoning, CdnThrottleAttack};
pub use syn_flood::{SynFloodConfig, SynFloodHost};
pub use traceroute_spoof::IcmpSpoofTap;
