//! Deterministic record/replay for the simulation stack.
//!
//! Every experiment in this workspace is a deterministic function of its
//! configuration and seed — that is what makes the paper's attack numbers
//! reproducible. This crate turns that property into a debuggable,
//! checkable artifact:
//!
//! * [`record`] — a compact, versioned, hand-rolled binary format (varint
//!   framing, no external dependencies) holding one run's per-event
//!   digest stream plus periodic state checkpoints, written by a
//!   [`record::Recorder`] driving any [`replay::ReplaySubject`].
//! * [`replay`] — a [`replay::Replayer`] that re-drives a subject against
//!   a recording, verifying every event digest and every checkpoint's
//!   state hash, and resumes a run from any restorable checkpoint.
//! * [`diverge`] — given two recordings of "the same" run, binary-search
//!   the checkpoints then scan the event stream to report the **first
//!   divergent event**, with both digests and a per-component diff naming
//!   the mismatching subsystem.
//!
//! The determinism regression tests and `experiments record/replay`
//! commands in `dui-bench` are built on these three pieces.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// Recordings and digests convert losslessly: clippy refuses any cast
// in this crate that could truncate, wrap or drop a sign or precision.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss,
    clippy::cast_possible_wrap
)]

pub mod diverge;
pub mod record;
pub mod replay;
pub mod subjects;

pub use diverge::{first_divergence, ComponentDiff, Divergence};
pub use record::{CheckpointFrame, EventFrame, EventLog, Events, Recorder, Recording};
pub use replay::{ReplayError, ReplayReport, ReplaySubject, Replayer, StepInfo};
pub use subjects::{FastSimSubject, SimulatorSubject};
