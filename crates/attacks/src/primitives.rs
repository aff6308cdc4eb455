//! Generic MitM building blocks: probabilistic droppers, token-bucket
//! throttlers, fixed delayers, and TCP header rewriters. The case-study
//! attacks compose these; they are also useful on their own for the
//! endpoint attacks sketched in the paper's §4 introduction (e.g.
//! "manipulated window size in TCP").

use dui_netsim::link::{Dir, LinkTap, TapAction};
use dui_netsim::packet::{FlowKey, Header, Packet};
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::Rng;

/// Predicate selecting which packets a tap touches.
pub type PacketFilter = Box<dyn Fn(&Packet) -> bool + Send>;

/// Match every packet.
pub fn any_packet() -> PacketFilter {
    Box::new(|_| true)
}

/// Match packets of one flow (either direction).
pub fn flow_filter(key: FlowKey) -> PacketFilter {
    Box::new(move |p| p.key == key || p.key == key.reversed())
}

/// Match packets whose destination is in the given set of flows' forward
/// direction.
pub fn forward_flow_filter(key: FlowKey) -> PacketFilter {
    Box::new(move |p| p.key == key)
}

/// Drop matching packets with a fixed probability.
pub struct RandomDropper {
    filter: PacketFilter,
    prob: f64,
    rng: Rng,
    /// Packets dropped so far.
    pub dropped: u64,
}

impl RandomDropper {
    /// Drop matching packets with probability `prob`.
    pub fn new(filter: PacketFilter, prob: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob));
        RandomDropper {
            filter,
            prob,
            rng: Rng::new(seed),
            dropped: 0,
        }
    }
}

impl LinkTap for RandomDropper {
    fn intercept(
        &mut self,
        _now: SimTime,
        _dir: Dir,
        pkt: &mut Packet,
        _inject: &mut Vec<Packet>,
    ) -> TapAction {
        if (self.filter)(pkt) && self.rng.chance(self.prob) {
            self.dropped += 1;
            TapAction::Drop
        } else {
            TapAction::Forward
        }
    }

    fn label(&self) -> &str {
        "random-dropper"
    }
}

/// Token-bucket throttler: matching packets beyond the rate budget are
/// dropped (the Pytheas CDN-throttle uses this).
pub struct Throttler {
    filter: PacketFilter,
    /// Budget refill rate, bytes/second.
    rate: f64,
    /// Bucket capacity in bytes.
    burst: f64,
    tokens: f64,
    last_refill: SimTime,
    /// Packets dropped so far.
    pub dropped: u64,
}

impl Throttler {
    /// Throttle matching traffic to `rate` bytes/s with `burst` bytes of
    /// burst tolerance.
    pub fn new(filter: PacketFilter, rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0 && burst > 0.0);
        Throttler {
            filter,
            rate,
            burst,
            tokens: burst,
            last_refill: SimTime::ZERO,
            dropped: 0,
        }
    }
}

impl LinkTap for Throttler {
    fn intercept(
        &mut self,
        now: SimTime,
        _dir: Dir,
        pkt: &mut Packet,
        _inject: &mut Vec<Packet>,
    ) -> TapAction {
        if !(self.filter)(pkt) {
            return TapAction::Forward;
        }
        let dt = now.since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        if self.tokens >= pkt.size as f64 {
            self.tokens -= pkt.size as f64;
            TapAction::Forward
        } else {
            self.dropped += 1;
            TapAction::Drop
        }
    }

    fn label(&self) -> &str {
        "throttler"
    }
}

/// Delay matching packets by a fixed amount (latency inflation — the §4.1
/// operator attack "increase latency by sending packets along longer
/// paths or bouncing them back-and-forth" has the same observable effect).
pub struct Delayer {
    filter: PacketFilter,
    delay: SimDuration,
    /// Packets delayed so far.
    pub delayed: u64,
}

impl Delayer {
    /// Delay matching packets by `delay`.
    pub fn new(filter: PacketFilter, delay: SimDuration) -> Self {
        Delayer {
            filter,
            delay,
            delayed: 0,
        }
    }
}

impl LinkTap for Delayer {
    fn intercept(
        &mut self,
        _now: SimTime,
        _dir: Dir,
        pkt: &mut Packet,
        _inject: &mut Vec<Packet>,
    ) -> TapAction {
        if (self.filter)(pkt) {
            self.delayed += 1;
            TapAction::Delay(self.delay)
        } else {
            TapAction::Forward
        }
    }

    fn label(&self) -> &str {
        "delayer"
    }
}

/// Clamp the advertised TCP receive window of matching ACKs — the
/// endpoint performance attack from §4's introduction ("manipulated
/// window size in TCP"): the sender obediently slows to a crawl.
pub struct WindowClamper {
    filter: PacketFilter,
    /// Window ceiling in bytes.
    pub clamp: u32,
    /// Packets rewritten so far.
    pub rewritten: u64,
}

impl WindowClamper {
    /// Clamp matching packets' advertised window to `clamp` bytes.
    pub fn new(filter: PacketFilter, clamp: u32) -> Self {
        WindowClamper {
            filter,
            clamp,
            rewritten: 0,
        }
    }
}

impl LinkTap for WindowClamper {
    fn intercept(
        &mut self,
        _now: SimTime,
        _dir: Dir,
        pkt: &mut Packet,
        _inject: &mut Vec<Packet>,
    ) -> TapAction {
        if (self.filter)(pkt) {
            if let Header::Tcp { window, .. } = &mut pkt.header {
                if *window > self.clamp {
                    *window = self.clamp;
                    self.rewritten += 1;
                }
            }
        }
        TapAction::Forward
    }

    fn label(&self) -> &str {
        "window-clamper"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_netsim::packet::{Addr, TcpFlags};

    fn key() -> FlowKey {
        FlowKey::tcp(Addr::new(1, 0, 0, 1), 10, Addr::new(2, 0, 0, 2), 80)
    }

    fn data() -> Packet {
        Packet::tcp(key(), 1, 0, TcpFlags::default(), 1000)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn dropper_respects_probability() {
        let mut d = RandomDropper::new(any_packet(), 0.5, 1);
        let mut dropped = 0;
        for _ in 0..10_000 {
            let mut p = data();
            if d.intercept(t(0), Dir::AtoB, &mut p, &mut Vec::new()) == TapAction::Drop {
                dropped += 1;
            }
        }
        assert!((dropped as f64 / 10_000.0 - 0.5).abs() < 0.03);
        assert_eq!(d.dropped, dropped);
    }

    #[test]
    fn dropper_ignores_unmatched() {
        let other = FlowKey::tcp(Addr::new(9, 9, 9, 9), 1, Addr::new(8, 8, 8, 8), 2);
        let mut d = RandomDropper::new(flow_filter(other), 1.0, 1);
        let mut p = data();
        assert_eq!(
            d.intercept(t(0), Dir::AtoB, &mut p, &mut Vec::new()),
            TapAction::Forward
        );
    }

    #[test]
    fn flow_filter_matches_both_directions() {
        let f = flow_filter(key());
        let mut fwd = data();
        let mut rev = data();
        rev.key = key().reversed();
        assert!(f(&fwd));
        assert!(f(&rev));
        let _ = (&mut fwd, &mut rev);
        let g = forward_flow_filter(key());
        assert!(g(&fwd));
        assert!(!g(&rev));
    }

    #[test]
    fn throttler_enforces_rate() {
        // 10 kB/s budget, 2 kB burst; offer 1 kB packets every 10 ms
        // (100 kB/s) for 1 s: ~10% should survive after the burst.
        let mut th = Throttler::new(any_packet(), 10_000.0, 2_000.0);
        let mut passed = 0u32;
        for i in 0..100u64 {
            let mut p = data(); // 1040 B on the wire
            if th.intercept(t(i * 10), Dir::AtoB, &mut p, &mut Vec::new()) == TapAction::Forward {
                passed += 1;
            }
        }
        // Budget: 2 kB burst + 1 s * 10 kB/s = 12 kB => ~11 packets.
        assert!((8..=14).contains(&passed), "passed = {passed}");
    }

    #[test]
    fn delayer_delays_matching() {
        let mut d = Delayer::new(any_packet(), SimDuration::from_millis(50));
        let mut p = data();
        assert_eq!(
            d.intercept(t(0), Dir::AtoB, &mut p, &mut Vec::new()),
            TapAction::Delay(SimDuration::from_millis(50))
        );
        assert_eq!(d.delayed, 1);
    }

    #[test]
    fn window_clamper_rewrites_in_place() {
        let mut w = WindowClamper::new(any_packet(), 1000);
        let mut p = data(); // window 65535 by constructor
        assert_eq!(
            w.intercept(t(0), Dir::AtoB, &mut p, &mut Vec::new()),
            TapAction::Forward
        );
        match p.header {
            Header::Tcp { window, .. } => assert_eq!(window, 1000),
            _ => unreachable!(),
        }
        assert_eq!(w.rewritten, 1);
        // Already-small windows untouched.
        let mut again = p.duplicate();
        w.intercept(t(0), Dir::AtoB, &mut again, &mut Vec::new());
        assert_eq!(w.rewritten, 1);
    }
}
