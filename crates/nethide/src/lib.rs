//! # dui-nethide
//!
//! Traceroute, topology obfuscation, and topology *faking* — the §4.3 case
//! study of the HotNets'19 paper *"(Self) Driving Under the Influence"*,
//! built around a reimplementation of **NetHide** (Meier et al., USENIX
//! Security'18).
//!
//! The §4.3 observation: ICMP time-exceeded replies are unauthenticated,
//! so whoever controls them controls the topology users *believe* in.
//! NetHide uses this defensively — it answers traceroute according to a
//! *virtual* topology chosen to hide DDoS-critical links while lying as
//! little as possible. The very same mechanism in a malicious operator's
//! hands presents arbitrary fictions.
//!
//! * [`traceroute`] — a traceroute prober as `dui-netsim` node logic, and
//!   the ground-truth path oracle.
//! * [`rewriter`] — ICMP rewriters: honest, virtual-topology (NetHide),
//!   and arbitrary-fiction (malicious operator).
//! * [`obfuscate`] — the NetHide-style virtual-topology search: keep
//!   per-link observable flow density below a security threshold while
//!   maximizing path accuracy/utility.
//! * [`metrics`] — accuracy (Levenshtein path similarity), utility
//!   (shared-physical-edge fraction), and flow-density security metrics.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod metrics;
pub mod obfuscate;
pub mod rewriter;
pub mod traceroute;

pub use metrics::{accuracy, flow_density, utility};
pub use obfuscate::{ObfuscationConfig, VirtualTopology};
pub use rewriter::{FictionRewriter, VirtualTopologyRewriter};
pub use traceroute::{physical_path_addrs, TracerouteProber};
