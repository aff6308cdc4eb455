//! `dui-telemetry`: zero-dependency observability substrate for the DUI
//! workspace — a metrics registry and span tracing.
//!
//! The paper's §5 supervisor (Fig. 3) is a feedback loop that needs the
//! system to observe itself: input quality at point III, decision rates
//! at point IV. This crate is that substrate. It sits below every other
//! workspace crate (the simulator records into it from its event hot
//! loop), so it depends on nothing but `std`.
//!
//! The pieces:
//!
//! * [`registry`] — named counters, gauges, and log-linear
//!   [`hist::LogHistogram`]s behind copyable ids; freeze with
//!   [`Registry::snapshot`] into mergeable, exportable [`Snapshot`]s.
//! * [`delta`] — snapshot delta/sequence framing ([`Frame`],
//!   [`DeltaEncoder`]) for streaming telemetry to the
//!   `dui_defense::supervisord` detection pipeline.
//! * [`channel`] — a bounded SPSC channel (`Mutex` + `Condvar`) with
//!   blocking backpressure, the transport between producers and
//!   supervisord workers.
//! * [`span`] — nested spans in a bounded ring buffer, timestamped with
//!   caller-supplied nanoseconds (the simulator passes deterministic
//!   `SimTime` nanos; no clock is read here).
//! * [`json`] — the deterministic float/string JSON formatting shared
//!   by every byte-compared exporter.
//!
//! Everything here is deterministic — no module reads a clock (the
//! only wall clocks are in `dui-bench`, the one crate exempt from
//! clippy's clock ban):
//! identical record sequences produce byte-identical snapshots and JSON
//! lines, which is what lets `results/metrics.jsonl` be compared
//! byte-for-byte across `--jobs` values.
//!
//! ```
//! use dui_telemetry::{Registry, Snapshot};
//!
//! let mut reg = Registry::new();
//! let drops = reg.counter("netsim.drop.queue");
//! let depth = reg.histogram("netsim.link.queue_depth");
//! for d in [0u64, 1, 3, 9, 2] {
//!     reg.record(depth, d);
//! }
//! reg.inc(drops);
//!
//! // Snapshots merge associatively — safe across parallel replicates.
//! let mut total = Snapshot::default();
//! total.merge(&reg.snapshot());
//! total.merge(&reg.snapshot());
//! assert_eq!(total.counter("netsim.drop.queue"), 2);
//! assert_eq!(total.hist("netsim.link.queue_depth").unwrap().count(), 10);
//!
//! // Export is deterministic: same metrics, same bytes.
//! let line = total.to_json_line("demo");
//! assert_eq!(line, total.to_json_line("demo"));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod channel;
pub mod delta;
pub mod hist;
pub mod json;
pub mod registry;
pub mod span;

pub use delta::{DeltaEncoder, Frame};
pub use hist::LogHistogram;
pub use registry::{CounterId, GaugeId, HistId, Registry, Snapshot};
pub use span::{Span, SpanRecorder};
