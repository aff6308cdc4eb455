//! The §3.1 Blink takeover: a host-privilege attacker floods the victim
//! prefix with spoofed, always-active TCP flows; once its flows dominate
//! the flow selector it emits a synchronized burst of fake retransmissions
//! and Blink "detects a failure" that never happened.
//!
//! Note the property the paper stresses: "the attacker does not need to
//! establish TCP connections with the victim network" — the host below
//! never completes (or even starts) a handshake; it just emits segments.

use crate::privilege::{AttackDescriptor, Privilege, Target};
use dui_flowgen::MaliciousFlowSet;
use dui_netsim::packet::{Packet, TcpFlags};
use dui_netsim::prelude::{Ctx, NodeLogic};
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::wire::{Encoder, Sink, Wire};
use std::any::Any;

/// Descriptor for the attack.
pub fn descriptor() -> AttackDescriptor {
    AttackDescriptor {
        name: "blink-takeover",
        section: "§3.1",
        privilege: Privilege::Host,
        target: Target::Infrastructure,
        summary:
            "fake TCP retransmissions capture Blink's flow sample and trigger spurious rerouting",
    }
}

/// Attack phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    /// Keep flows alive with plausible (advancing-seq) segments so they
    /// get — and keep — selector cells.
    Infiltrate,
    /// Emit repeated-sequence segments: the failure signal.
    Trigger,
}

/// Parameters of the takeover.
#[derive(Debug, Clone)]
pub struct BlinkTakeover {
    /// The spoofed flow population.
    pub flows: MaliciousFlowSet,
    /// When to start sending at all.
    pub start: SimTime,
    /// When to switch from infiltration to the retransmission burst.
    pub trigger_at: SimTime,
    /// How long the retransmission burst lasts.
    pub trigger_duration: SimDuration,
}

/// A compromised host executing a [`BlinkTakeover`].
pub struct MaliciousRetxHost {
    attack: BlinkTakeover,
    /// Per-flow current sequence numbers.
    seqs: Vec<u32>,
    /// Packets sent.
    pub sent: u64,
    started: bool,
}

const TOKEN_TICK: u64 = 1;

impl MaliciousRetxHost {
    /// Build the host logic for an attack.
    pub fn new(attack: BlinkTakeover) -> Self {
        let n = attack.flows.len();
        MaliciousRetxHost {
            attack,
            seqs: (0..n as u32).map(|i| 1_000 + i * 50_000).collect(),
            sent: 0,
            started: false,
        }
    }

    fn phase(&self, now: SimTime) -> PhaseKind {
        if now >= self.attack.trigger_at
            && now < self.attack.trigger_at + self.attack.trigger_duration
        {
            PhaseKind::Trigger
        } else {
            PhaseKind::Infiltrate
        }
    }

    fn emit_round(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let phase = self.phase(now);
        for (i, key) in self.attack.flows.keys.clone().into_iter().enumerate() {
            let seq = match phase {
                PhaseKind::Infiltrate => {
                    // Advance: looks like a live flow making progress.
                    self.seqs[i] = self.seqs[i].wrapping_add(1460);
                    self.seqs[i]
                }
                // Repeat the last sequence: a retransmission to any
                // observer tracking per-flow sequence state.
                PhaseKind::Trigger => self.seqs[i],
            };
            let pkt = Packet::tcp(key, seq, 0, TcpFlags::default(), 1460);
            ctx.send(pkt);
            self.sent += 1;
        }
    }
}

impl NodeLogic for MaliciousRetxHost {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let delay = self.attack.start.since(ctx.now());
        ctx.set_timer(delay.max(SimDuration::from_nanos(1)), TOKEN_TICK);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {
        // Spoofed flows: nothing legitimate ever comes back; ignore.
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token != TOKEN_TICK {
            return;
        }
        if !self.started && ctx.now() < self.attack.start {
            ctx.set_timer(
                self.attack
                    .start
                    .since(ctx.now())
                    .max(SimDuration::from_nanos(1)),
                TOKEN_TICK,
            );
            return;
        }
        self.started = true;
        self.emit_round(ctx);
        // During the trigger burst, send fast enough that every flow
        // retransmits within Blink's 800 ms window.
        let interval = match self.phase(ctx.now()) {
            PhaseKind::Infiltrate => self.attack.flows.keepalive,
            PhaseKind::Trigger => SimDuration::from_millis(200),
        };
        ctx.set_timer(interval, TOKEN_TICK);
    }

    /// The attack (flow keys, keepalive, schedule), the per-flow
    /// sequence numbers, the send count and the started flag.
    fn encode(&self, s: &mut Sink<'_>) {
        s.refuse("a malicious retransmitting host has no checkpoint decoder");
        s.seq(&self.attack.flows.keys, |s, k| k.put(s));
        s.u64(self.attack.flows.keepalive.as_nanos());
        s.u64(self.attack.start.0);
        s.u64(self.attack.trigger_at.0);
        s.u64(self.attack.trigger_duration.as_nanos());
        s.seq(&self.seqs, |s, &seq| s.u32(seq));
        s.u64(self.sent);
        s.bool(self.started);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The §5-V (obfuscation) ablation, quantified: how many spoofed flows
/// must the attacker fabricate to cover at least `target_cells` distinct
/// selector cells?
///
/// * **Known salt** (Kerckhoff worst case: the switch uses a public or
///   guessable hash key): the attacker computes each candidate 5-tuple's
///   cell offline and keeps only useful ones — `target_cells` flows
///   suffice, one per cell.
/// * **Secret salt**: cells are opaque, so the attacker blindly samples
///   5-tuples and pays the coupon-collector tax (~`n·ln n` candidates for
///   full coverage), and — worse — cannot *discard* the redundant flows,
///   since it cannot tell which are redundant. It must keep (and fund)
///   every flow it generated.
///
/// Returns the number of flows the attacker must operate.
pub fn flows_needed_for_coverage(
    params: &dui_blink::selector::BlinkParams,
    prefix: dui_netsim::packet::Prefix,
    target_cells: usize,
    salt_known: bool,
    seed: u64,
) -> usize {
    use dui_blink::selector::FlowSelector;
    use dui_flowgen::flows::random_key_in_prefix;
    let selector = FlowSelector::new(*params);
    let mut rng = dui_stats::Rng::new(seed);
    let mut covered = std::collections::HashSet::new();
    let mut kept = 0usize;
    let mut sport = 10_000u16;
    let mut attempts = 0usize;
    while covered.len() < target_cells {
        attempts += 1;
        assert!(attempts < 2_000_000, "coverage unreachable");
        sport = sport.wrapping_add(13).max(1024);
        let key = random_key_in_prefix(prefix, &mut rng, sport);
        let cell = selector.index_of(&key);
        if salt_known {
            // Offline check against the known hash: keep only new cells.
            if covered.insert(cell) {
                kept += 1;
            }
        } else {
            // Blind: every generated flow must be kept alive.
            covered.insert(cell);
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_flowgen::MaliciousFlowSetConfig;
    use dui_netsim::packet::{Addr, Prefix};
    use dui_netsim::prelude::*;
    use dui_stats::Rng;

    #[test]
    fn infiltration_advances_trigger_repeats() {
        let cfg = MaliciousFlowSetConfig {
            prefix: Prefix::new(Addr::new(10, 0, 0, 0), 24),
            count: 3,
            keepalive: SimDuration::from_millis(500),
        };
        let flows = MaliciousFlowSet::generate(&cfg, &mut Rng::new(1));
        let attack = BlinkTakeover {
            flows,
            start: SimTime::ZERO,
            trigger_at: SimTime::from_secs(5),
            trigger_duration: SimDuration::from_secs(2),
        };
        let host = MaliciousRetxHost::new(attack);
        assert_eq!(host.phase(SimTime::from_secs(1)), PhaseKind::Infiltrate);
        assert_eq!(host.phase(SimTime::from_secs(6)), PhaseKind::Trigger);
        assert_eq!(host.phase(SimTime::from_secs(8)), PhaseKind::Infiltrate);
    }

    #[test]
    fn salt_secrecy_multiplies_attack_cost() {
        use dui_blink::selector::BlinkParams;
        use dui_netsim::packet::Prefix;
        let params = BlinkParams::default();
        let prefix = Prefix::new(Addr::new(10, 0, 0, 0), 16);
        let known = flows_needed_for_coverage(&params, prefix, 32, true, 1);
        let secret = flows_needed_for_coverage(&params, prefix, 32, false, 1);
        assert_eq!(known, 32, "known salt: one flow per target cell");
        assert!(
            secret >= 40,
            "secret salt: blind sampling costs extra flows, got {secret}"
        );
        // Full coverage magnifies the gap (coupon collector).
        let known_full = flows_needed_for_coverage(&params, prefix, 64, true, 2);
        let secret_full = flows_needed_for_coverage(&params, prefix, 64, false, 2);
        assert_eq!(known_full, 64);
        assert!(
            secret_full as f64 >= 2.5 * 64.0,
            "full coverage blind ~ n ln n: got {secret_full}"
        );
    }

    #[test]
    fn host_emits_spoofed_traffic_into_network() {
        // h_attacker - r - victim; count packets arriving for the prefix.
        let mut b = TopologyBuilder::new();
        let atk = b.host("atk", Addr::new(198, 18, 0, 1));
        let r = b.router("r");
        let v = b.host("v", Addr::new(10, 0, 0, 1));
        b.link(
            atk,
            r,
            Bandwidth::mbps(100),
            SimDuration::from_millis(1),
            256,
        );
        b.link(r, v, Bandwidth::mbps(100), SimDuration::from_millis(1), 256);
        let mut sim = Simulator::new(b.build(), 1);
        sim.set_logic(r, Box::new(RouterLogic::new()));
        sim.set_logic(v, Box::new(SinkHost::new()));
        sim.announce_prefix(Prefix::new(Addr::new(10, 0, 0, 0), 24), v);

        let cfg = MaliciousFlowSetConfig {
            prefix: Prefix::new(Addr::new(10, 0, 0, 0), 24),
            count: 10,
            keepalive: SimDuration::from_millis(500),
        };
        let flows = MaliciousFlowSet::generate(&cfg, &mut Rng::new(2));
        sim.set_logic(
            atk,
            Box::new(MaliciousRetxHost::new(BlinkTakeover {
                flows,
                start: SimTime::ZERO,
                trigger_at: SimTime::from_secs(100),
                trigger_duration: SimDuration::from_secs(1),
            })),
        );
        sim.run_until(SimTime::from_secs(5));
        let sink: &mut SinkHost = sim.logic_mut(v);
        // 10 flows, ~2 packets/s each, 5 s ≈ 100 packets.
        assert!(sink.total_packets > 50, "got {}", sink.total_packets);
        assert_eq!(sink.flow_count(), 10, "all spoofed 5-tuples distinct");
    }
}
