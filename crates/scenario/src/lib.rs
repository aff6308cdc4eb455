//! `dui-scenario` — the declarative scenario framework.
//!
//! A `.dsc` file names a topology, a workload, an optional seeded chaos
//! schedule, and a set of machine-checked expectations; this crate parses
//! it ([`parse::parse_str`]), lowers it onto the case-study builders in
//! `dui-core::scenario` ([`compile::compile`]), and runs it to a
//! deterministic verdict ([`run`]). See `docs/scenarios.md` for the format
//! grammar and `examples/scenarios/` for the shipped corpus.
//!
//! Layering:
//!
//! ```text
//! .dsc text ──parse──▶ ast::Scenario ──compile──▶ compile::Compiled
//!                                │                      │ run
//!                                ▼ print (canonical)    ▼
//!                             .dsc text          run::RunReport
//! ```
//!
//! Everything is std-only and deterministic: the same file and seed always
//! produce the same verdicts, samples, and chaos schedule, which is what
//! lets `experiments scenario --jobs N` promise byte-identical
//! `results/scenarios.csv` at any parallelism.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod ast;
pub mod chaos;
pub mod compile;
pub mod expect;
pub mod keys;
pub mod parse;
pub mod run;

pub use ast::Scenario;
pub use compile::{compile, CompileError, Compiled};
pub use expect::CheckResult;
pub use parse::{parse_str, ParseError, ParseErrorKind};
pub use run::RunReport;
