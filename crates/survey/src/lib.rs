//! # dui-survey
//!
//! The *other* vulnerable systems the HotNets'19 paper surveys in §3.2
//! and §4, each implemented from its own paper's published algorithm and
//! paired with the attack the survey sketches:
//!
//! | Module | System | Paper's sketched attack |
//! |---|---|---|
//! | [`sp_pifo`] | SP-PIFO (NSDI'20): PIFO approximation on strict-priority queues | "an attacker could send packet sequences of particular ranks, resulting in packets being delayed or even dropped" |
//! | [`flowradar`] | FlowRadar (NSDI'16)-style Bloom/IBLT flow telemetry | "an attacker can pollute, or even saturate a bloom filter, resulting in inaccurate network statistics" |
//! | [`dapper`] | DAPPER (SOSR'17): in-network TCP performance diagnosis | "an attacker can implicate either of these three [sender/network/receiver] for performance problems by manipulating TCP packets" |
//! | [`ron`] | RON (SOSP'01): resilient overlay routing on active probes | "an attacker in the path between two nodes could drop or delay RON's probes, so as to divert traffic to another next-hop" |

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod dapper;
pub mod flowradar;
pub mod ron;
pub mod sp_pifo;

pub use dapper::{Bottleneck, DapperDiagnoser};
pub use flowradar::FlowRadar;
pub use ron::RonOverlay;
pub use sp_pifo::SpPifo;
