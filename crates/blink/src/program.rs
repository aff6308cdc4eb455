//! Blink assembled as a data-plane program for `dui-netsim` routers — the
//! P4 pipeline substitute used in the packet-level experiments.

use crate::inference::FailureDetector;
use crate::reroute::RerouteState;
use crate::selector::{BlinkParams, FlowSelector};
use dui_netsim::node::{DataPlaneProgram, Verdict};
use dui_netsim::packet::{Header, Packet, Prefix};
use dui_netsim::time::{SimDuration, SimTime};
use dui_netsim::topology::NodeId;
use dui_stats::wire::{Encoder, Sink};
use std::any::Any;

/// Veto hook consulted before every reroute — the integration point for
/// the §5 supervisor countermeasure (`dui-defense::blink_guard`). Return
/// `false` to suppress the reroute (the failure event is still recorded).
pub trait RerouteGuard: Send {
    /// May the program reroute `prefix`'s traffic right now, given the
    /// selector state that triggered the inference?
    fn allow(&mut self, now: SimTime, selector: &FlowSelector) -> bool;
}

/// Minimum spacing between failure events for one prefix.
const HOLD_DOWN: SimDuration = SimDuration::from_secs(5);

/// Per-prefix monitoring state.
pub struct PrefixState {
    /// The monitored prefix.
    pub prefix: Prefix,
    /// Its flow selector.
    pub selector: FlowSelector,
    /// Its failure detector.
    pub detector: FailureDetector,
    /// Its next-hop state.
    pub reroute: RerouteState,
}

/// The Blink pipeline: per-prefix flow selection, retransmission-surge
/// failure inference, and next-hop switching. Every monitored prefix
/// gets the paper's selector ([`BlinkParams::default`]).
#[derive(Default)]
pub struct BlinkProgram {
    prefixes: Vec<PrefixState>,
    guard: Option<Box<dyn RerouteGuard>>,
    /// Reroutes vetoed by the guard.
    pub vetoed: u64,
}

impl BlinkProgram {
    /// Install a reroute guard (the supervisor of the paper's Fig. 3).
    pub fn with_guard(mut self, guard: Box<dyn RerouteGuard>) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Monitor `prefix`, forwarding via `next_hops[0]` until failures
    /// advance the list.
    pub fn monitor_prefix(&mut self, prefix: Prefix, next_hops: Vec<NodeId>) {
        self.prefixes.push(PrefixState {
            prefix,
            selector: FlowSelector::new(BlinkParams::default()),
            detector: FailureDetector::new(HOLD_DOWN),
            reroute: RerouteState::new(next_hops),
        });
    }

    /// State for a monitored prefix.
    pub fn prefix_state(&self, prefix: Prefix) -> Option<&PrefixState> {
        self.prefixes.iter().find(|p| p.prefix == prefix)
    }

    /// All monitored prefixes.
    pub fn monitored(&self) -> impl Iterator<Item = &PrefixState> {
        self.prefixes.iter()
    }

    /// Export the pipeline's observability surface into a telemetry
    /// registry: reroutes, guard vetoes, inference votes, and selector
    /// event counts (summed over monitored prefixes) under the `blink.`
    /// prefix.
    pub fn export_metrics(&self, reg: &mut dui_telemetry::Registry) {
        let mut reroutes = 0u64;
        let mut votes = 0u64;
        let mut stats = crate::selector::SelectorStats::default();
        let mut resets = 0u64;
        let mut occupied = 0u64;
        for p in &self.prefixes {
            reroutes += p.reroute.reroute_count() as u64;
            votes += p.detector.count() as u64;
            let s = p.selector.stats;
            stats.sampled += s.sampled;
            stats.evicted_fin += s.evicted_fin;
            stats.evicted_idle += s.evicted_idle;
            stats.evicted_reset += s.evicted_reset;
            stats.retransmissions += s.retransmissions;
            stats.not_monitored += s.not_monitored;
            resets += p.selector.resets;
            occupied += p.selector.occupied() as u64;
        }
        for (name, v) in [
            ("blink.reroutes", reroutes),
            ("blink.vetoed", self.vetoed),
            ("blink.inference.votes", votes),
            ("blink.selector.sampled", stats.sampled),
            ("blink.selector.evicted.fin", stats.evicted_fin),
            ("blink.selector.evicted.idle", stats.evicted_idle),
            ("blink.selector.evicted.reset", stats.evicted_reset),
            ("blink.selector.retransmissions", stats.retransmissions),
            ("blink.selector.not_monitored", stats.not_monitored),
            ("blink.selector.resets", resets),
        ] {
            let id = reg.counter(name);
            reg.add(id, v);
        }
        let g = reg.gauge("blink.cells.occupied");
        reg.observe(g, occupied as f64);
    }
}

impl DataPlaneProgram for BlinkProgram {
    fn process(
        &mut self,
        now: SimTime,
        pkt: &Packet,
        _default_next: Option<NodeId>,
    ) -> Option<Verdict> {
        let state = self
            .prefixes
            .iter_mut()
            .find(|p| p.prefix.contains(pkt.key.dst))?;
        if let Header::Tcp { seq, flags, .. } = pkt.header {
            // Blink monitors data segments; pure ACKs of the reverse
            // direction never match the destination prefix anyway.
            if pkt.payload > 0 || flags.fin || flags.rst {
                state
                    .selector
                    .on_packet(now, pkt.key, seq, flags.fin || flags.rst);
                if state.detector.evaluate(now, &state.selector).is_some() {
                    let allowed = match &mut self.guard {
                        Some(g) => g.allow(now, &state.selector),
                        None => true,
                    };
                    if allowed {
                        state.reroute.advance(now);
                    } else {
                        self.vetoed += 1;
                    }
                }
            }
        }
        Some(Verdict::Forward(state.reroute.active()))
    }

    fn label(&self) -> &str {
        "blink"
    }

    /// Each monitored prefix with its selector, detector and next hops,
    /// then whether a guard is installed and the veto count.
    fn encode(&self, s: &mut Sink<'_>) {
        s.refuse("a Blink program has no checkpoint decoder");
        s.seq(&self.prefixes, |s, p| {
            s.u32(p.prefix.addr.0);
            s.u8(p.prefix.len);
            p.selector.snapshot().encode(s);
            p.detector.encode(s);
            p.reroute.encode(s);
        });
        s.bool(self.guard.is_some());
        s.u64(self.vetoed);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_netsim::packet::{Addr, FlowKey, TcpFlags};

    fn prefix() -> Prefix {
        Prefix::new(Addr::new(10, 9, 0, 0), 16)
    }

    fn data_pkt(sport: u16, seq: u32) -> Packet {
        let key = FlowKey::tcp(Addr::new(198, 18, 0, 1), sport, Addr::new(10, 9, 1, 2), 80);
        Packet::tcp(key, seq, 0, TcpFlags::default(), 1000)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn program() -> BlinkProgram {
        let mut p = BlinkProgram::default();
        p.monitor_prefix(prefix(), vec![NodeId(10), NodeId(11)]);
        p
    }

    #[test]
    fn forwards_monitored_prefix_via_primary() {
        let mut p = program();
        let v = p.process(t(0), &data_pkt(1, 100), Some(NodeId(10)));
        assert_eq!(v, Some(Verdict::Forward(NodeId(10))));
    }

    #[test]
    fn unmonitored_traffic_gets_no_opinion() {
        let mut p = program();
        let key = FlowKey::tcp(Addr::new(198, 18, 0, 1), 5, Addr::new(44, 0, 0, 1), 80);
        let pkt = Packet::tcp(key, 1, 0, TcpFlags::default(), 100);
        assert_eq!(p.process(t(0), &pkt, Some(NodeId(3))), None);
    }

    #[test]
    fn mass_retransmissions_trigger_reroute() {
        let mut p = program();
        // Occupy cells with distinct flows.
        for i in 0..200u16 {
            p.process(t(0), &data_pkt(i, 100), Some(NodeId(10)));
        }
        // Everyone retransmits (same seq again) within the window.
        for i in 0..200u16 {
            p.process(t(300), &data_pkt(i, 100), Some(NodeId(10)));
        }
        let st = p.prefix_state(prefix()).unwrap();
        assert_eq!(st.reroute.reroute_count(), 1, "one reroute event");
        assert_eq!(st.reroute.active(), NodeId(11), "switched to backup");
        // Subsequent traffic forwards via the backup.
        let v = p.process(t(400), &data_pkt(0, 101), Some(NodeId(10)));
        assert_eq!(v, Some(Verdict::Forward(NodeId(11))));
    }

    #[test]
    fn below_threshold_does_not_reroute() {
        let mut p = program();
        for i in 0..200u16 {
            p.process(t(0), &data_pkt(i, 100), Some(NodeId(10)));
        }
        // Count occupied cells, then retransmit from fewer than half.
        let occupied = p.prefix_state(prefix()).unwrap().selector.occupied();
        let below = (occupied / 2).saturating_sub(5);
        let mut fired = 0usize;
        for i in 0..200u16 {
            if fired >= below {
                break;
            }
            // Only count flows that are actually monitored.
            let st = p.prefix_state(prefix()).unwrap();
            let key = data_pkt(i, 0).key;
            let monitored = st.selector.cells().iter().flatten().any(|c| c.flow == key);
            if monitored {
                p.process(t(300), &data_pkt(i, 100), Some(NodeId(10)));
                fired += 1;
            }
        }
        let st = p.prefix_state(prefix()).unwrap();
        assert_eq!(st.reroute.reroute_count(), 0);
    }

    #[test]
    fn persistent_failure_walks_the_backup_list() {
        // If the storm persists past the hold-down (the backup is broken
        // too, or the attacker keeps pushing), Blink advances again —
        // walking the next-hop list rather than sticking with a dead
        // backup.
        let mut p = BlinkProgram::default();
        p.monitor_prefix(prefix(), vec![NodeId(10), NodeId(11), NodeId(12)]);
        for i in 0..200u16 {
            p.process(t(0), &data_pkt(i, 100), Some(NodeId(10)));
        }
        // Storm 1 at t=300ms, storm 2 at t=6s (past the 5s hold-down).
        for i in 0..200u16 {
            p.process(t(300), &data_pkt(i, 100), Some(NodeId(10)));
        }
        assert_eq!(
            p.prefix_state(prefix()).unwrap().reroute.active(),
            NodeId(11)
        );
        for round in 0..3u64 {
            for i in 0..200u16 {
                p.process(t(6000 + round * 300), &data_pkt(i, 100), Some(NodeId(10)));
            }
        }
        let st = p.prefix_state(prefix()).unwrap();
        assert_eq!(st.reroute.active(), NodeId(12), "advanced to second backup");
        assert_eq!(st.reroute.reroute_count(), 2);
    }

    #[test]
    fn hold_down_limits_reroute_rate() {
        let mut p = program();
        for i in 0..200u16 {
            p.process(t(0), &data_pkt(i, 100), Some(NodeId(10)));
        }
        for round in 1..5u64 {
            for i in 0..200u16 {
                p.process(t(round * 400), &data_pkt(i, 100), Some(NodeId(10)));
            }
        }
        let st = p.prefix_state(prefix()).unwrap();
        // 4 retransmission storms inside 2 s, but 5 s hold-down: 1 reroute.
        assert_eq!(st.reroute.reroute_count(), 1);
    }
}
