//! The classic spoofed SYN flood, aimed at a host that keeps per-flow
//! state for half-open connections (§2's state-exhaustion class of
//! adversarial inputs).
//!
//! [`SynFloodHost`] sprays TCP SYNs at a victim address from source
//! addresses drawn uniformly out of a spoof prefix, each on a fresh
//! 5-tuple. A listener that allocates state per SYN (like `dui-tcp`'s
//! `TcpHost` with the RFC 9293 lifecycle enabled) parks one SYN-RCVD
//! entry per spoofed tuple; the SYN-ACKs go back to addresses nobody
//! answers from, so the entries only drain through the listener's
//! SYN-RCVD reaper. The defense knobs under test are the listener's
//! `listen_backlog` cap and `syn_rcvd_timeout`.

use crate::privilege::{AttackDescriptor, Privilege, Target};
use dui_netsim::node::NodeLogic;
use dui_netsim::packet::{Addr, FlowKey, Packet, Prefix, TcpFlags};
use dui_netsim::sim::Ctx;
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::wire::{Encoder, Sink};
use dui_stats::Rng;
use std::any::Any;

/// Descriptor for the threat-model catalogue.
pub fn descriptor() -> AttackDescriptor {
    AttackDescriptor {
        name: "syn-flood",
        section: "§2",
        privilege: Privilege::Host,
        target: Target::Infrastructure,
        summary: "spoofed SYNs exhaust a stateful listener's half-open backlog",
    }
}

/// Destination port of every SYN.
const DPORT: u16 = 80;
/// Spoofed source addresses are drawn uniformly from this prefix:
/// TEST-NET-2, guaranteed to collide with no legitimate flow.
const SPOOF_PREFIX: Prefix = Prefix::new(Addr::new(198, 51, 100, 0), 24);

/// Parameters of a spoofed SYN flood.
#[derive(Debug, Clone, Copy)]
pub struct SynFloodConfig {
    /// The address the SYNs are aimed at.
    pub victim: Addr,
    /// SYNs per second while the flood is on.
    pub rate_per_sec: u64,
    /// When the flood starts.
    pub start: SimTime,
    /// How long it runs.
    pub duration: SimDuration,
    /// Seed of the spoofed-tuple stream.
    pub seed: u64,
}

impl Default for SynFloodConfig {
    fn default() -> Self {
        SynFloodConfig {
            victim: Addr::new(10, 0, 0, 1),
            rate_per_sec: 1000,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(10),
            seed: 0,
        }
    }
}

const TOKEN_TICK: u64 = 1;

/// Host logic that runs a [`SynFloodConfig`] flood.
pub struct SynFloodHost {
    cfg: SynFloodConfig,
    rng: Rng,
    /// SYNs emitted so far.
    pub sent: u64,
}

impl SynFloodHost {
    /// Build the attacker host.
    pub fn new(cfg: SynFloodConfig) -> Self {
        let rng = Rng::new(cfg.seed);
        SynFloodHost { cfg, rng, sent: 0 }
    }

    fn interval(&self) -> SimDuration {
        SimDuration::from_nanos(1_000_000_000 / self.cfg.rate_per_sec.max(1))
    }

    fn spoofed_key(&mut self) -> FlowKey {
        let p = SPOOF_PREFIX;
        let hosts = 1u64 << (32 - p.len as u32);
        let src = Addr(p.addr.0 | (self.rng.below(hosts) as u32));
        let sport = 1024 + (self.rng.below(64_511) as u16);
        FlowKey::tcp(src, sport, self.cfg.victim, DPORT)
    }
}

impl NodeLogic for SynFloodHost {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let delay = self.cfg.start.since(ctx.now());
        ctx.set_timer(delay.max(SimDuration::from_nanos(1)), TOKEN_TICK);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {
        // Nothing legitimate ever returns to a spoofing attacker.
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token != TOKEN_TICK {
            return;
        }
        let now = ctx.now();
        if now < self.cfg.start {
            ctx.set_timer(
                self.cfg.start.since(now).max(SimDuration::from_nanos(1)),
                TOKEN_TICK,
            );
            return;
        }
        if now >= self.cfg.start + self.cfg.duration {
            return;
        }
        let key = self.spoofed_key();
        let isn = self.rng.next_u32();
        let flags = TcpFlags {
            syn: true,
            ..TcpFlags::default()
        };
        ctx.send(Packet::tcp(key, isn, 0, flags, 0));
        self.sent += 1;
        ctx.set_timer(self.interval(), TOKEN_TICK);
    }

    /// The spoofed-tuple RNG, the flood's settings and the send count.
    fn encode(&self, s: &mut Sink<'_>) {
        s.refuse("a SYN flood host has no checkpoint decoder");
        self.rng.state().into_iter().for_each(|w| s.u64(w));
        s.u32(self.cfg.victim.0);
        s.u64(self.cfg.rate_per_sec);
        s.u64(self.cfg.start.0);
        s.u64(self.cfg.duration.as_nanos());
        s.u64(self.sent);
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spoofed_keys_stay_in_the_prefix_and_vary() {
        let mut h = SynFloodHost::new(SynFloodConfig::default());
        let mut keys = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let k = h.spoofed_key();
            assert!(SPOOF_PREFIX.contains(k.src), "{:?}", k.src);
            assert_eq!(k.dst, h.cfg.victim);
            assert!(k.sport >= 1024);
            keys.insert((k.src.0, k.sport));
        }
        assert!(
            keys.len() > 90,
            "spoofed tuples barely vary: {}",
            keys.len()
        );
    }

    #[test]
    fn flood_rate_sets_the_tick_interval() {
        let h = SynFloodHost::new(SynFloodConfig {
            rate_per_sec: 4000,
            ..Default::default()
        });
        assert_eq!(h.interval(), SimDuration::from_nanos(250_000));
    }
}
