//! # dui-pcc
//!
//! A from-scratch reimplementation of **PCC Allegro** (Dong et al.,
//! NSDI'15) — the data-driven transport protocol the HotNets'19 paper
//! *"(Self) Driving Under the Influence"* attacks in §4.2.
//!
//! PCC replaces TCP's hard-wired loss reactions with online experiments:
//! time is divided into *monitor intervals* (MIs); the sender tries rates
//! `r(1+ε)` and `r(1−ε)` in randomized A/B trials, measures a
//! loss-penalized *utility* for each, and moves the rate in the direction
//! of higher utility. When trials disagree (no consistent winner), it
//! stays at `r` and escalates `ε` in steps up to **5%** — the property the
//! paper's attacker weaponizes: by selectively dropping packets so both
//! directions *look* equally good, a MitM pins PCC into perpetual
//! inconclusive trials, oscillating ±5% forever (§4.2: "the attacker can
//! cause PCC flows to fluctuate by ±5%, without allowing them to converge
//! to the right rate").
//!
//! Structure:
//!
//! * [`utility`] — the loss-penalized saturating utility
//!   (docs/reproduction-map.md §4, substitution 5 documents the exact
//!   form).
//! * [`monitor`] — per-MI accounting: packets sent / delivered / lost.
//! * [`control`] — the sans-I/O Allegro controller state machine
//!   (Starting → Decision ↔ Moving), unit-testable without a network.
//! * [`endpoint`] — `dui-netsim` sender/receiver driving the controller
//!   over a real simulated path.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod control;
pub mod endpoint;
pub mod monitor;
pub mod utility;

pub use control::{ControlConfig, Controller, Decision, Phase};
pub use endpoint::{PccReceiver, PccSender, PccSenderConfig};
pub use monitor::{MiReport, MonitorAccounting};
pub use utility::{allegro_utility, UtilityParams};
