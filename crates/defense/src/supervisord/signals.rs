//! Per-group signal state: the windowed risk signals evaluated on every
//! frame of a group, and the action and PCC ε clamp they sanction.

use super::verdict::{Action, Verdict};
use crate::pcc_guard::recommended_eps_max;
use crate::streaming::{DropPatternWindow, GroupOutlierWindow, OccupancyWindow, SynBacklogWindow};
use dui_telemetry::delta::Frame;

/// Configuration for the per-group signal bank: which metrics feed
/// each signal and how verdicts map risk to actions.
#[derive(Debug, Clone)]
pub struct SignalConfig {
    /// Gauge watched by the Blink occupancy signal.
    pub blink_metric: String,
    /// Full-scale occupancy (risk 1.0) for the Blink signal — 64 cells
    /// in the paper's selector.
    pub blink_capacity: f64,
    /// Gauge-name prefix whose members feed the Pytheas outlier signal.
    pub pytheas_prefix: String,
    /// Counter-name prefix (`<prefix>.{high,low}_{lossy,total}`) feeding
    /// the PCC drop-pattern signal.
    pub pcc_prefix: String,
    /// Metric-name prefix (`<prefix>.{synrcvd_live,syn_dropped,synrcvd}`)
    /// feeding the SYN-backlog signal.
    pub syn_prefix: String,
    /// Listener backlog capacity (risk 1.0 occupancy) for the
    /// SYN-backlog signal.
    pub syn_backlog: f64,
    /// Window length, in frames, for every signal's state.
    pub window: usize,
    /// PCC ε bounds for the amplitude clamp.
    pub eps_min: f64,
    /// See `eps_min`.
    pub eps_max: f64,
    /// Risk above which verdicts constrain the drivers.
    pub constrain_above: f64,
    /// Risk above which verdicts veto proposals outright.
    pub veto_above: f64,
}

impl Default for SignalConfig {
    fn default() -> Self {
        SignalConfig {
            blink_metric: "blink.cells.malicious".to_string(),
            blink_capacity: 64.0,
            pytheas_prefix: "pytheas.qoe.".to_string(),
            pcc_prefix: "pcc.mi".to_string(),
            syn_prefix: "tcp.handshake".to_string(),
            syn_backlog: 64.0,
            window: 8,
            eps_min: 0.01,
            eps_max: 0.05,
            constrain_above: 0.25,
            veto_above: 0.5,
        }
    }
}

/// The windowed signal state of one group. Created lazily when the
/// group's first frame arrives; owned by exactly one worker (a group's
/// frames always hash to a single shard), so no cross-worker
/// synchronization is needed.
#[derive(Debug, Clone)]
pub struct SignalBank {
    blink: OccupancyWindow,
    pytheas: GroupOutlierWindow,
    pcc: DropPatternWindow,
    syn: SynBacklogWindow,
    eps_min: f64,
    eps_max: f64,
    constrain_above: f64,
    veto_above: f64,
}

impl SignalBank {
    /// Fresh signal state for one group.
    pub fn new(cfg: &SignalConfig) -> Self {
        SignalBank {
            blink: OccupancyWindow::new(&cfg.blink_metric, cfg.blink_capacity, cfg.window),
            pytheas: GroupOutlierWindow::new(&cfg.pytheas_prefix, cfg.window),
            pcc: DropPatternWindow::new(&cfg.pcc_prefix, cfg.window),
            syn: SynBacklogWindow::new(&cfg.syn_prefix, cfg.syn_backlog, cfg.window),
            eps_min: cfg.eps_min,
            eps_max: cfg.eps_max,
            constrain_above: cfg.constrain_above,
            veto_above: cfg.veto_above,
        }
    }

    /// Fold one frame's delta into the windowed state and rule on it.
    /// Deterministic: the verdict is a pure function of the frame
    /// sequence observed so far (`ingest_ns` is ignored).
    pub fn observe(&mut self, group: &str, frame: &Frame) -> Verdict {
        let blink = self.blink.observe(&frame.delta).0;
        let pytheas = self.pytheas.observe(&frame.delta).0;
        let pcc = self.pcc.observe(&frame.delta);
        // SYN-backlog pressure folds into the overall risk only; it has
        // no dedicated verdict column (the verdict log format — and
        // every golden built on it — predates the signal). Frames that
        // carry no tcp.handshake.* metrics score 0.0 here.
        let syn = self.syn.observe(&frame.delta).0;
        let risk = blink.max(pytheas).max(pcc.0).max(syn);
        let action = if risk > self.veto_above {
            Action::Veto
        } else if risk > self.constrain_above {
            Action::Constrain
        } else {
            Action::Allow
        };
        Verdict {
            epoch: frame.epoch,
            producer: frame.producer,
            seq: frame.seq,
            group: group.to_string(),
            blink,
            pytheas,
            pcc: pcc.0,
            risk,
            eps_max: recommended_eps_max(pcc, self.eps_min, self.eps_max),
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
            syn_backlog: 64.0,
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
