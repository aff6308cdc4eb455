//! # dui-blink
//!
//! A from-scratch reimplementation of **Blink** (Holterbach et al., NSDI'19)
//! — the data-plane fast-reroute system the HotNets'19 paper *"(Self)
//! Driving Under the Influence"* uses as its flagship case study (§3.1).
//!
//! Blink infers remote path failures *entirely in the data plane* by
//! watching TCP retransmissions: when a path breaks, every flow crossing it
//! retransmits within an RTO, so a surge of retransmissions across many
//! monitored flows signals a failure long before BGP converges. On
//! inference, Blink reroutes the affected prefix to a backup next hop.
//!
//! The components, with the constants from the Blink paper that the
//! HotNets'19 attack analysis assumes:
//!
//! * [`selector::FlowSelector`] — per-prefix array of **64 cells**; flows
//!   hash into cells by 5-tuple; an occupied cell monitors exactly one flow
//!   until it FINs, idles for **2 s**, or the whole sample is reset every
//!   **8.5 min**.
//! * [`inference::FailureDetector`] — a failure is inferred when at least
//!   **32 of 64** monitored flows saw a retransmission within a sliding
//!   window (800 ms).
//! * [`reroute::RerouteState`] — per-prefix next-hop list; inference
//!   advances to the next backup.
//! * [`program::BlinkProgram`] — the above assembled as a
//!   `dui_netsim::node::DataPlaneProgram` (the P4 pipeline substitute).
//! * [`theory`] — the HotNets'19 §3.1 closed-form attack model:
//!   `p(t) = 1 − (1 − qm)^(t/tR)`, malicious cell count `~ Binomial(n, p)`.
//! * [`fastsim`] — flow-level Monte-Carlo of one prefix's selector under
//!   attack; regenerates the 50 simulation traces of the paper's Fig. 2.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod fastsim;
pub mod inference;
pub mod program;
pub mod reroute;
pub mod selector;
pub mod theory;

pub use fastsim::{AttackSim, AttackSimConfig};
pub use inference::FailureDetector;
pub use program::{BlinkConfig, BlinkProgram};
pub use reroute::RerouteState;
pub use selector::{BlinkParams, FlowSelector};
pub use theory::AttackModel;
