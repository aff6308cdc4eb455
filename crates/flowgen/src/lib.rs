//! # dui-flowgen
//!
//! Synthetic workload generation for the `dui` reproduction of *"(Self)
//! Driving Under the Influence"* (HotNets'19).
//!
//! The paper calibrates its Blink attack analysis against CAIDA anonymized
//! backbone traces (per-prefix flow arrival and lifetime processes). Those
//! traces are gated behind a data-use agreement, so this crate synthesizes
//! statistically-similar workloads instead (docs/reproduction-map.md §4,
//! substitution 1):
//!
//! * [`flows`] — per-prefix flow populations: Poisson arrivals, heavy-tailed
//!   (lognormal body + Pareto tail) activity durations, constant packet
//!   rates while active.
//! * [`prefixes`] — prefix populations with Zipf-distributed popularity,
//!   mirroring how traffic concentrates on few destination prefixes.
//! * [`caida_like`] — the calibrated "CAIDA-like" trace: parameters chosen
//!   so the *flow-selector residency time* tR (the only statistic the
//!   Blink attack depends on) reproduces the paper's reported distribution:
//!   median ≈ 5 s over top prefixes, half of the top-20 prefixes ≥ 10 s,
//!   and the worked example tR = 8.37 s.
//! * [`malicious`] — the attacker's flow population: `m` spoofed always-
//!   active 5-tuples that emit TCP segments with repeating sequence numbers
//!   (fake retransmissions) on command.
//! * [`stream`] — the one flow generator: a [`stream::FlowStream`]
//!   iterator derives flows on demand so million-flow hosts admit
//!   arrivals without materializing the workload;
//!   [`flows::FlowPopulation::generate`] collects the same stream.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod caida_like;
pub mod flows;
pub mod malicious;
pub mod prefixes;
pub mod stream;

pub use caida_like::{CaidaLikeConfig, CaidaLikeTrace};
pub use flows::{FlowPopulation, FlowPopulationConfig, SyntheticFlow};
pub use malicious::{MaliciousFlowSet, MaliciousFlowSetConfig};
pub use prefixes::PrefixPopulation;
pub use stream::{FlowStream, StreamSource};
