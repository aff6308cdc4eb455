//! # dui-defense
//!
//! The §5 countermeasures of *"(Self) Driving Under the Influence"*
//! (HotNets'19): the **driver / supervisor** loop of the paper's Fig. 3
//! — telemetry snapshot in, [`Risk`] out — plus the three concrete
//! defenses the paper sketches for its case studies.
//!
//! | Module | Paper point | Defends |
//! |---|---|---|
//! | [`supervisor`] | Fig. 3, points III–IV | generic: the [`Risk`] estimate every signal returns |
//! | [`blink_guard`] | "Blink could monitor the RTT distribution … approximate the expected RTO distribution upon a failure" | Blink (§3.1 attack) |
//! | [`pytheas_guard`] | "look at the distribution of throughput across all clients in a group … the low-throughput clients can be tackled separately" | Pytheas (§4.1 attack) |
//! | [`pcc_guard`] | "monitor when packets are dropped in every +ε or −ε phase as well as limit the amplitude of the oscillations" | PCC (§4.2 attack) |
//! | [`input_quality`] | point I: "improving input quality by using many independent inputs" | generic |
//! | [`fuzzing`] | point II: "fuzzing techniques that enable auto-generation of (realistic) adversarial inputs" | testing Blink |
//! | [`streaming`] | Fig. 3's loop: incremental `observe(delta) -> Risk` with windowed state | all three — online in `dui-supervisord` (which maps risk to allow / constrain / veto), with a window of one in the `defenses` stage |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod blink_guard;
pub mod fuzzing;
pub mod input_quality;
pub mod pcc_guard;
pub mod pytheas_guard;
pub mod streaming;
pub mod supervisor;

pub use blink_guard::BlinkRtoGuard;
pub use fuzzing::{BlinkFuzzer, FuzzConfig};
pub use pcc_guard::PccLossPatternMonitor;
pub use pytheas_guard::MadReportFilter;
pub use streaming::{
    DropPatternWindow, GroupOutlierWindow, OccupancyWindow, StreamingSupervisor,
    SynBacklogWindow,
};
pub use supervisor::Risk;
