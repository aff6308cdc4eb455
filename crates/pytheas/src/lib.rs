//! # dui-pytheas
//!
//! A from-scratch reimplementation of **Pytheas** (Jiang et al., NSDI'17)
//! — the group-based, real-time exploration-exploitation (E2) framework
//! for Quality-of-Experience optimization that the HotNets'19 paper
//! *"(Self) Driving Under the Influence"* attacks in §4.1.
//!
//! Pytheas groups client sessions by feature similarity (ASN, prefix,
//! location, …) and runs one multi-armed-bandit instance *per group* over
//! the available decisions (CDN / server / bitrate choices). Sessions
//! report QoE measurements; the group's bandit uses them to steer future
//! sessions of the whole group. That group granularity is exactly the
//! leverage the paper's attack exploits: "if multiple clients within a
//! group report manipulated QoE measurements, this can drive decisions
//! for other clients."
//!
//! * [`session`] — session features and group keys.
//! * [`e2`] — the discounted-UCB exploration-exploitation engine.
//! * [`qoe`] — ground-truth QoE model (per-arm quality + noise) and
//!   reporting (honest or adversarial).
//! * [`engine`] — the frontend loop: sessions arrive, get decisions,
//!   report back; includes the [`engine::ReportFilter`] hook the §5
//!   countermeasure plugs into.
//! * [`backend`] — the offline critical-feature analysis that keeps
//!   groups well-formed (and, defensively, quarantines feature-aligned
//!   attacks like per-location throttling).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod backend;
pub mod e2;
pub mod engine;
pub mod qoe;
pub mod session;

pub use backend::{critical_feature, Feature, SessionRecord};
pub use e2::DiscountedUcb;
pub use engine::{EngineConfig, PytheasEngine, ReportFilter, RoundStats};
pub use qoe::{QoeModel, Report};
pub use session::{GroupKey, SessionFeatures};
