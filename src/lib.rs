//! # dui — (Self) Driving Under the Influence, reproduced in Rust
//!
//! Workspace umbrella: re-exports [`dui_core`] (which in turn re-exports
//! every subsystem crate). The interesting entry points:
//!
//! * [`dui_core::scenario`] — one-call builders for the paper's case
//!   studies (Blink §3.1, Pytheas §4.1, PCC §4.2, NetHide §4.3);
//! * [`dui_core::threat`] — the attacker taxonomy of §2;
//! * `dui-bench`'s `experiments` binary — regenerates the paper's Fig. 2
//!   and every quantitative claim (see EXPERIMENTS.md), and runs the
//!   `.dsc` scenarios under `examples/scenarios/`, the paper's own C4 and
//!   C6 runs among them (`examples/scenarios/paper/`).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub use dui_core::*;
