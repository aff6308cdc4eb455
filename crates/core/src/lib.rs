//! # dui-core
//!
//! Umbrella crate for the `dui` reproduction of *"(Self) Driving Under
//! the Influence: Intoxicating Adversarial Network Inputs"* (HotNets'19).
//!
//! Re-exports every subsystem under one roof and provides ready-made
//! [`scenario`] builders that assemble the paper's case studies —
//! topology, workload, system under test, attacker, defense — so the
//! integration tests, the `.dsc` scenario runner and the experiment
//! harness all drive the same code.
//!
//! Crate map (see docs/architecture.md for the full inventory):
//!
//! * [`stats`] — deterministic RNG + statistics substrate
//! * [`netsim`] — discrete-event packet-level network simulator
//! * [`tcp`] — TCP (Reno) endpoints: Blink's signal source, PCC's baseline
//! * [`flowgen`] — synthetic workloads (CAIDA-trace substitute)
//! * [`blink`] — Blink fast-reroute pipeline + §3.1 attack theory
//! * [`pytheas`] — Pytheas group-based QoE E2 framework (§4.1 target)
//! * [`pcc`] — PCC Allegro transport (§4.2 target)
//! * [`nethide`] — traceroute + NetHide topology obfuscation (§4.3)
//! * [`attacks`] — the threat model (Fig. 1) and concrete attacks
//! * [`defense`] — the §5 countermeasures (Fig. 3 driver/supervisor)
//! * [`replay`] — deterministic record/replay: state hashing, recordings,
//!   checkpoint resume, first-divergence pinpointing
//! * [`supervisord`] — streaming supervisor-as-a-service: sharded online
//!   risk evaluation over telemetry snapshot deltas (`dui-defense`'s
//!   module, re-exported)
//! * [`telemetry`] — zero-dep metrics registry and snapshot-delta streaming

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use dui_attacks as attacks;
pub use dui_blink as blink;
pub use dui_defense as defense;
pub use dui_defense::supervisord;
pub use dui_flowgen as flowgen;
pub use dui_nethide as nethide;
pub use dui_netsim as netsim;
pub use dui_pcc as pcc;
pub use dui_pytheas as pytheas;
pub use dui_replay as replay;
pub use dui_stats as stats;
pub use dui_survey as survey;
pub use dui_tcp as tcp;
pub use dui_telemetry as telemetry;

pub mod scenario;

/// The threat model types (re-exported from `dui-attacks`).
pub mod threat {
    pub use dui_attacks::privilege::{catalogue, AttackDescriptor, Capability, Privilege, Target};
}
