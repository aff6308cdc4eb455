//! Per-group signal state: the windowed risk signals evaluated on every
//! frame of a group, and the action and PCC ε clamp they sanction.

use super::verdict::{Action, GroupName, Verdict};
use crate::pcc_guard::recommended_eps_max;
use crate::streaming::{DropPatternWindow, GroupOutlierWindow, OccupancyWindow, SynBacklogWindow};
use dui_blink::selector::CELLS;
use dui_pcc::control::{EPS_MAX, EPS_MIN};
use dui_telemetry::delta::Frame;

/// Metric-name prefix (`<prefix>.{synrcvd_live,syn_dropped,synrcvd}`)
/// feeding the SYN-backlog signal.
const SYN_PREFIX: &str = "tcp.handshake";
/// Listener backlog capacity (risk 1.0 occupancy) for the SYN-backlog
/// signal.
const SYN_BACKLOG: f64 = 64.0;
/// Risk above which verdicts constrain the drivers.
const CONSTRAIN_ABOVE: f64 = 0.25;
/// Risk above which verdicts veto proposals outright.
const VETO_ABOVE: f64 = 0.5;

/// Configuration for the per-group signal bank: which metrics feed
/// each signal. The Blink signal's full scale (risk 1.0) is the
/// selector's [`CELLS`]; the ε clamp spans PCC's [`EPS_MIN`] to
/// [`EPS_MAX`].
#[derive(Debug, Clone)]
pub struct SignalConfig {
    /// Gauge watched by the Blink occupancy signal.
    pub blink_metric: String,
    /// Gauge-name prefix whose members feed the Pytheas outlier signal.
    pub pytheas_prefix: String,
    /// Counter-name prefix (`<prefix>.{high,low}_{lossy,total}`) feeding
    /// the PCC drop-pattern signal.
    pub pcc_prefix: String,
    /// Window length, in frames, for every signal's state.
    pub window: usize,
}

impl Default for SignalConfig {
    fn default() -> Self {
        SignalConfig {
            blink_metric: "blink.cells.malicious".to_string(),
            pytheas_prefix: "pytheas.qoe.".to_string(),
            pcc_prefix: "pcc.mi".to_string(),
            window: 8,
        }
    }
}

/// The windowed signal state of one group. Created when its worker
/// starts; owned by exactly one worker (a group's frames always hash to
/// a single shard), so no cross-worker synchronization is needed.
#[derive(Debug, Clone)]
pub struct SignalBank {
    blink: OccupancyWindow,
    pytheas: GroupOutlierWindow,
    pcc: DropPatternWindow,
    syn: SynBacklogWindow,
}

impl SignalBank {
    /// Fresh signal state for one group.
    pub fn new(cfg: &SignalConfig) -> Self {
        SignalBank {
            blink: OccupancyWindow::new(&cfg.blink_metric, CELLS as f64, cfg.window),
            pytheas: GroupOutlierWindow::new(&cfg.pytheas_prefix, cfg.window),
            pcc: DropPatternWindow::new(&cfg.pcc_prefix, cfg.window),
            syn: SynBacklogWindow::new(SYN_PREFIX, SYN_BACKLOG, cfg.window),
        }
    }

    /// Fold one frame's delta into the windowed state and rule on it.
    /// Deterministic: the verdict is a pure function of the frame
    /// sequence observed so far (`ingest_ns` is ignored). Builds the
    /// verdict's [`GroupName`] from `group`; a caller that rules on many
    /// frames of one group builds it once and calls
    /// [`observe_named`](Self::observe_named).
    pub fn observe(&mut self, group: &str, frame: &Frame) -> Verdict {
        self.observe_named(group.into(), frame)
    }

    /// [`observe`](Self::observe) under a name the caller already
    /// holds: allocates nothing once every window is full.
    pub fn observe_named(&mut self, group: GroupName, frame: &Frame) -> Verdict {
        let blink = self.blink.observe(&frame.delta).0;
        let pytheas = self.pytheas.observe(&frame.delta).0;
        let pcc = self.pcc.observe(&frame.delta);
        // SYN-backlog pressure folds into the overall risk only; it has
        // no dedicated verdict column (the verdict log format — and
        // every golden built on it — predates the signal). Frames that
        // carry no tcp.handshake.* metrics score 0.0 here.
        let syn = self.syn.observe(&frame.delta).0;
        let risk = blink.max(pytheas).max(pcc.0).max(syn);
        let action = if risk > VETO_ABOVE {
            Action::Veto
        } else if risk > CONSTRAIN_ABOVE {
            Action::Constrain
        } else {
            Action::Allow
        };
        Verdict {
            epoch: frame.epoch,
            producer: frame.producer,
            seq: frame.seq,
            group,
            blink,
            pytheas,
            pcc: pcc.0,
            risk,
            eps_max: recommended_eps_max(pcc, EPS_MIN, EPS_MAX),
            action,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_telemetry::{Registry, Snapshot};

    fn frame(seq: u64, delta: Snapshot) -> Frame {
        Frame {
            producer: 0,
            seq,
            epoch: seq,
            ingest_ns: 0,
            delta,
        }
    }

    #[test]
    fn quiet_group_allows() {
        let mut bank = SignalBank::new(&SignalConfig::default());
        let v = bank.observe("g", &frame(0, Snapshot::default()));
        assert_eq!(v.action, Action::Allow);
        assert_eq!(v.risk, 0.0);
        assert_eq!(v.eps_max, 0.05);
    }

    #[test]
    fn pcc_drop_asymmetry_clamps_eps() {
        // Four frames of one `pcc.mi.*` counter row into a window of 8.
        let last_verdict = |[hl, ht, ll, lt]: [u64; 4]| {
            let mut reg = Registry::new();
            for (name, v) in [
                ("pcc.mi.high_lossy", hl),
                ("pcc.mi.high_total", ht),
                ("pcc.mi.low_lossy", ll),
                ("pcc.mi.low_total", lt),
            ] {
                let c = reg.counter(name);
                reg.add(c, v);
            }
            let mut bank = SignalBank::new(&SignalConfig::default());
            let mut v = bank.observe("g", &frame(0, reg.snapshot()));
            for seq in 1..4 {
                v = bank.observe("g", &frame(seq, reg.snapshot()));
            }
            v
        };
        // Equalizer: loss only in +ε intervals clamps ε toward eps_min.
        let v = last_verdict([5, 5, 0, 5]);
        assert!(v.pcc > 0.9, "pcc = {}", v.pcc);
        assert!(v.eps_max < 0.015, "eps_max = {}", v.eps_max);
        // Honest congestion: symmetric loss, low risk, ε unclamped.
        let v = last_verdict([2, 5, 2, 5]);
        assert!(v.pcc < 0.1, "pcc = {}", v.pcc);
        assert_eq!(v.eps_max, 0.05);
    }

    #[test]
    fn syn_backlog_pressure_escalates_to_veto() {
        let mut bank = SignalBank::new(&SignalConfig {
            window: 1,
            ..SignalConfig::default()
        });
        let mut reg = Registry::new();
        let g = reg.gauge("tcp.handshake.synrcvd_live");
        reg.observe(g, 60.0);
        let d = reg.counter("tcp.handshake.syn_dropped");
        reg.add(d, 200);
        let e = reg.counter("tcp.handshake.synrcvd");
        reg.add(e, 64);
        let v = bank.observe("g", &frame(0, reg.snapshot()));
        assert_eq!(v.action, Action::Veto);
        // The verdict log has no syn column; the pressure surfaces
        // through the overall risk while the named signals stay quiet.
        assert!(v.risk > 0.9, "risk = {}", v.risk);
        assert_eq!(v.blink, 0.0);
        assert_eq!(v.pcc, 0.0);
    }

    #[test]
    fn a_nan_sample_does_not_blind_the_blink_signal() {
        let mut bank = SignalBank::new(&SignalConfig::default());
        for (seq, cells) in [56.0, f64::NAN, 56.0].into_iter().enumerate() {
            let mut reg = Registry::new();
            let g = reg.gauge("blink.cells.malicious");
            reg.observe(g, cells);
            let v = bank.observe("g", &frame(seq as u64, reg.snapshot()));
            assert_eq!((v.action, v.risk), (Action::Veto, 0.875), "frame {seq}");
        }
    }

    #[test]
    fn blink_occupancy_escalates_to_veto() {
        let mut bank = SignalBank::new(&SignalConfig {
            window: 1,
            ..SignalConfig::default()
        });
        let mut reg = Registry::new();
        let g = reg.gauge("blink.cells.malicious");
        reg.observe(g, 56.0);
        let v = bank.observe("g", &frame(0, reg.snapshot()));
        assert_eq!(v.blink, 0.875);
        assert_eq!(v.action, Action::Veto);
        assert_eq!(v.risk, 0.875);
    }
}
