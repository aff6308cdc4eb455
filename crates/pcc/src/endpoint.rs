//! PCC endpoints for `dui-netsim`: a paced sender driving the Allegro
//! controller over a simulated path, and a per-packet-acking receiver
//! that also records the arrival-throughput series the §4.2 experiment
//! measures ("sizable traffic fluctuations at the destination").

use crate::control::{ControlConfig, Controller, Decision};
use crate::monitor::MonitorAccounting;
use crate::utility::allegro_utility;
use dui_netsim::packet::{FlowKey, Header, Packet, TcpFlags};
use dui_netsim::prelude::{Ctx, NodeLogic};
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::wire::{Encoder, Sink};
use dui_stats::TimeSeries;
use std::any::Any;
use std::collections::HashMap;

/// Initial rate (bytes/s): 2 Mbps.
const INITIAL_RATE: f64 = 250_000.0;
/// Payload bytes per packet.
const PKT_PAYLOAD: u32 = 1000;
/// Monitor-interval length (≈1.5 RTT in Allegro; fixed here for a
/// ~20 ms RTT path).
const MI_DURATION: SimDuration = SimDuration::from_millis(50);
/// Extra wait after an MI ends before computing its loss, so in-flight
/// ACKs arrive (≈1 RTT).
const GRACE: SimDuration = SimDuration::from_millis(30);

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct PccSenderConfig {
    /// Flow 5-tuple.
    pub key: FlowKey,
    /// Controller tuning.
    pub control: ControlConfig,
    /// RNG seed for trial-order randomization.
    pub seed: u64,
}

impl PccSenderConfig {
    /// Default controller tuning for flow `key`.
    pub fn new(key: FlowKey, seed: u64) -> Self {
        PccSenderConfig {
            key,
            control: ControlConfig::default(),
            seed,
        }
    }
}

const TOKEN_SEND: u64 = 1;
const TOKEN_FINALIZE: u64 = 2;

/// The PCC sender node logic.
pub struct PccSender {
    cfg: PccSenderConfig,
    controller: Controller,
    acct: MonitorAccounting,
    current_mi: Option<(u64, SimTime, f64)>, // (id, end, rate)
    next_seq: u64,
    /// `(time, rate)` at each MI boundary — the Fig.-style rate trace.
    pub rate_trace: TimeSeries,
    /// Per-MI metadata `(mi id, trial rate, controller base rate)` — lets
    /// offline analysis (the §5 loss-pattern monitor) join loss reports
    /// with the experiment direction.
    pub mi_meta: Vec<(u64, f64, f64)>,
    /// Total packets sent.
    pub sent: u64,
    /// Total ACKs received.
    pub acked: u64,
}

impl PccSender {
    /// Build from config.
    pub fn new(cfg: PccSenderConfig) -> Self {
        let controller = Controller::new(cfg.control, INITIAL_RATE, cfg.seed);
        PccSender {
            cfg,
            controller,
            acct: MonitorAccounting::new(),
            current_mi: None,
            next_seq: 0,
            rate_trace: TimeSeries::new(),
            mi_meta: Vec::new(),
            sent: 0,
            acked: 0,
        }
    }

    /// Finalized monitor-interval reports so far.
    pub fn mi_history(&self) -> &[crate::monitor::MiReport] {
        self.acct.history()
    }

    /// The controller (for assertions on decisions/phase).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Completed decisions.
    pub fn decisions(&self) -> &[Decision] {
        &self.controller.decisions
    }

    /// Export the sender's observability surface into a telemetry
    /// registry under the `pcc.` prefix: decision counts (inconclusive =
    /// ε escalations, the §4.2 attack signal), a histogram of per-MI
    /// rates, and the mean per-MI utility.
    pub fn export_metrics(&self, reg: &mut dui_telemetry::Registry) {
        let mut up = 0u64;
        let mut down = 0u64;
        let mut inconclusive = 0u64;
        for d in &self.controller.decisions {
            match d {
                Decision::Up(_) => up += 1,
                Decision::Down(_) => down += 1,
                Decision::Inconclusive(_) => inconclusive += 1,
            }
        }
        for (name, v) in [
            ("pcc.decisions.up", up),
            ("pcc.decisions.down", down),
            ("pcc.decisions.inconclusive", inconclusive),
            ("pcc.mi.count", self.mi_meta.len() as u64),
            ("pcc.packets.sent", self.sent),
            ("pcc.packets.acked", self.acked),
        ] {
            let id = reg.counter(name);
            reg.add(id, v);
        }
        let rate = reg.histogram("pcc.mi.rate_bytes_per_sec");
        for &(_, trial_rate, _) in &self.mi_meta {
            reg.record(rate, trial_rate as u64);
        }
        let util = reg.gauge("pcc.mi.utility");
        for r in self.acct.history() {
            let mbps = r.rate / 125_000.0;
            reg.observe(util, allegro_utility(mbps, r.loss));
        }
    }

    fn rotate_mi(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let rate = self.controller.next_mi_rate();
        let end = now + MI_DURATION;
        let id = self.acct.open_mi(now, end, rate);
        self.current_mi = Some((id, end, rate));
        self.rate_trace.push(now.as_secs_f64(), rate);
        self.mi_meta.push((id, rate, self.controller.base_rate()));
        // Finalize check after this MI ends plus grace.
        ctx.set_timer(MI_DURATION + GRACE, TOKEN_FINALIZE);
    }

    fn pacing_gap(&self, rate: f64) -> SimDuration {
        let wire = (PKT_PAYLOAD + 40) as f64;
        SimDuration::from_secs_f64(wire / rate.max(1.0))
    }

    fn send_one(&mut self, ctx: &mut Ctx) {
        let Some((mi, _, rate)) = self.current_mi else {
            return;
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.acct.on_send(mi, seq);
        self.sent += 1;
        let pkt = Packet::tcp(
            self.cfg.key,
            seq as u32,
            0,
            TcpFlags::default(),
            PKT_PAYLOAD,
        );
        ctx.send(pkt);
        ctx.set_timer(self.pacing_gap(rate), TOKEN_SEND);
    }
}

impl NodeLogic for PccSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.rotate_mi(ctx);
        self.send_one(ctx);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
        // ACKs carry the data sequence in their `ack` field.
        if pkt.key == self.cfg.key.reversed() {
            if let Header::Tcp { ack, flags, .. } = pkt.header {
                if flags.ack {
                    self.acked += 1;
                    self.acct.on_ack(ack as u64);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        let now = ctx.now();
        match token {
            TOKEN_SEND => {
                // Rotate the MI at its boundary.
                if let Some((_, end, _)) = self.current_mi {
                    if now >= end {
                        self.rotate_mi(ctx);
                    }
                }
                self.send_one(ctx);
            }
            TOKEN_FINALIZE => {
                let reports = self.acct.finalize_due(now, SimDuration::ZERO);
                for r in reports {
                    let mbps = r.rate / 125_000.0;
                    let u = allegro_utility(mbps, r.loss);
                    self.controller.on_report(u);
                }
            }
            _ => {}
        }
    }

    /// The flow and its seed, the controller and MI accounting, the
    /// current MI, the sequence cursor, the traces and the counters.
    fn encode(&self, s: &mut Sink<'_>) {
        s.refuse("a PCC sender has no checkpoint decoder");
        self.cfg.key.encode(s);
        s.u64(self.cfg.seed);
        self.controller.encode(s);
        self.acct.encode(s);
        s.opt(self.current_mi, |s, (id, end, rate)| {
            s.u64(id);
            s.u64(end.0);
            s.f64(rate);
        });
        s.u64(self.next_seq);
        s.seq(self.rate_trace.points(), |s, &(t, v)| {
            s.f64(t);
            s.f64(v);
        });
        s.seq(&self.mi_meta, |s, &(id, trial, base)| {
            s.u64(id);
            s.f64(trial);
            s.f64(base);
        });
        s.u64(self.sent);
        s.u64(self.acked);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The PCC receiver: acknowledges every data packet and bins arriving
/// bytes per interval for the destination-fluctuation metric.
pub struct PccReceiver {
    /// Bin width for the arrival-throughput series.
    bin: SimDuration,
    /// Arrived payload bytes per bin (index = floor(t / bin)).
    bins: HashMap<u64, u64>,
    /// Total payload bytes received (all flows).
    pub total_bytes: u64,
}

impl PccReceiver {
    /// Receiver binning arrivals at `bin` granularity.
    pub fn new(bin: SimDuration) -> Self {
        assert!(bin > SimDuration::ZERO, "bin must be positive");
        PccReceiver {
            bin,
            bins: HashMap::new(),
            total_bytes: 0,
        }
    }

    /// Arrival throughput series in bytes/second per bin, up to `horizon`.
    pub fn throughput_series(&self, horizon: SimTime) -> TimeSeries {
        let mut ts = TimeSeries::new();
        let bin_s = self.bin.as_secs_f64();
        let last = horizon.as_nanos() / self.bin.as_nanos().max(1);
        for i in 0..last {
            let bytes = self.bins.get(&i).copied().unwrap_or(0);
            ts.push(i as f64 * bin_s, bytes as f64 / bin_s);
        }
        ts
    }
}

impl NodeLogic for PccReceiver {
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        let Header::Tcp { seq, flags, .. } = pkt.header else {
            return;
        };
        if flags.ack && pkt.payload == 0 {
            return;
        }
        let idx = ctx.now().as_nanos() / self.bin.as_nanos().max(1);
        *self.bins.entry(idx).or_insert(0) += pkt.payload as u64;
        self.total_bytes += pkt.payload as u64;
        // Acknowledge: echo the sequence in the ack field.
        let ack = Packet::tcp(
            pkt.key.reversed(),
            0,
            seq,
            TcpFlags {
                ack: true,
                ..TcpFlags::default()
            },
            0,
        );
        ctx.send(ack);
    }

    /// The bin width, the bins in index order (the map is unordered),
    /// then the byte total.
    fn encode(&self, s: &mut Sink<'_>) {
        s.refuse("a PCC receiver has no checkpoint decoder");
        s.u64(self.bin.as_nanos());
        let mut bins: Vec<_> = self.bins.iter().collect();
        bins.sort_unstable();
        s.seq(bins, |s, (&i, &bytes)| {
            s.u64(i);
            s.u64(bytes);
        });
        s.u64(self.total_bytes);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_netsim::packet::Addr;
    use dui_netsim::prelude::*;

    fn path(
        bw_mbps: u64,
    ) -> (
        Simulator,
        dui_netsim::topology::NodeId,
        dui_netsim::topology::NodeId,
    ) {
        let mut b = TopologyBuilder::new();
        let h1 = b.host("h1", Addr::new(10, 0, 0, 1));
        let r = b.router("r");
        let h2 = b.host("h2", Addr::new(10, 0, 0, 2));
        b.link(h1, r, Bandwidth::gbps(1), SimDuration::from_millis(5), 512);
        b.link(
            r,
            h2,
            Bandwidth::mbps(bw_mbps),
            SimDuration::from_millis(5),
            256,
        );
        let mut sim = Simulator::new(b.build(), 3);
        sim.set_logic(r, Box::new(RouterLogic::new()));
        (sim, h1, h2)
    }

    fn key() -> FlowKey {
        FlowKey::tcp(Addr::new(10, 0, 0, 1), 5001, Addr::new(10, 0, 0, 2), 5001)
    }

    #[test]
    fn pcc_flow_moves_data_end_to_end() {
        let (mut sim, h1, h2) = path(50);
        sim.set_logic(h1, Box::new(PccSender::new(PccSenderConfig::new(key(), 1))));
        sim.set_logic(h2, Box::new(PccReceiver::new(SimDuration::from_secs(1))));
        sim.run_until(SimTime::from_secs(10));
        let rx: &mut PccReceiver = sim.logic_mut(h2);
        assert!(rx.total_bytes > 1_000_000, "got {}", rx.total_bytes);
        let tx: &mut PccSender = sim.logic_mut(h1);
        assert!(tx.acked > 0);
        assert!(!tx.rate_trace.is_empty());
    }

    #[test]
    fn pcc_converges_toward_capacity_without_attack() {
        let (mut sim, h1, h2) = path(50); // 6.25 MB/s capacity
        sim.set_logic(h1, Box::new(PccSender::new(PccSenderConfig::new(key(), 2))));
        sim.set_logic(h2, Box::new(PccReceiver::new(SimDuration::from_secs(1))));
        sim.run_until(SimTime::from_secs(40));
        let tx: &mut PccSender = sim.logic_mut(h1);
        // Average sent rate over the last 10 s of the trace.
        let tail: Vec<f64> = tx
            .rate_trace
            .points()
            .iter()
            .filter(|(t, _)| *t > 30.0)
            .map(|&(_, r)| r)
            .collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let capacity = 6.25e6;
        assert!(
            mean > 0.5 * capacity && mean < 1.3 * capacity,
            "converged to {:.2} MB/s vs capacity 6.25 MB/s",
            mean / 1e6
        );
    }

    #[test]
    fn receiver_series_covers_horizon() {
        let rx = PccReceiver::new(SimDuration::from_secs(1));
        let ts = rx.throughput_series(SimTime::from_secs(5));
        assert_eq!(ts.len(), 5);
        assert!(ts.points().iter().all(|&(_, v)| v == 0.0));
    }
}
