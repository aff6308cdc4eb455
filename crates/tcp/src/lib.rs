//! # dui-tcp
//!
//! A compact TCP model: Reno congestion control, Jacobson/Karn RTT
//! estimation, fast retransmit and RTO with exponential backoff, cumulative
//! ACKs with out-of-order buffering.
//!
//! Two roles in the `dui` reproduction of *"(Self) Driving Under the
//! Influence"* (HotNets'19):
//!
//! 1. **Signal source for Blink** (§3.1): on a real path failure, every TCP
//!    flow starts retransmitting on RTO — exactly the data-plane signal
//!    Blink infers failures from, and the signal the attack forges.
//! 2. **Baseline for PCC** (§4.2): PCC's paper positions it against
//!    hard-coded-rule TCP; our PCC experiments compare against this Reno.
//!
//! The connection state machines are *sans-I/O*: they consume segments and
//! clock ticks, and emit outgoing packets into an internal queue plus a
//! "next timer deadline". [`host::TcpHost`] adapts them to the
//! `dui-netsim` event loop. This keeps the protocol logic directly
//! unit-testable.
//!
//! Per-flow state is stored column-wise in a generational
//! [`pool::FlowPool`] (same handle contract as `dui-netsim`'s
//! `PacketArena`): 8-byte [`pool::FlowRef`] handles, an intrusive free
//! list, and typed stale-handle errors. The protocol cores in [`conn`]
//! are written once against borrowed column *views* over pool slots; a
//! single connection — what the unit tests drive — is a pool holding one
//! sender and one receiver.
//!
//! Connections walk the full RFC 9293 lifecycle when
//! [`TcpSenderConfig::handshake`] is set — LISTEN/SYN-RCVD passive open,
//! FIN/TIME-WAIT teardown — which unlocks SYN-flood and churn workloads.
//! With `handshake` off (the default) flows behave exactly as the
//! original handshake-less model: the systems under study act on data
//! segments, and retransmission *timing* signals are unaffected.
//! Remaining simplifications (documented per docs/reproduction-map.md):
//! segment-granularity windows (MSS-sized), no SACK/Nagle/delayed-ACK.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod conn;
pub mod host;
pub mod pool;
pub mod reno;
pub mod rtt;
pub mod seq;

pub use conn::{TcpSenderConfig, TcpState};
pub use host::{FlowSource, FlowSpec, HostCounters, TcpHost, TcpHostConfig, VecSource};
pub use pool::{FlowKind, FlowPool, FlowRef, StaleFlowRef};
pub use reno::Reno;
pub use rtt::RttEstimator;
