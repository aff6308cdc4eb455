//! Generic MitM building blocks: a per-flow packet filter and a TCP
//! window rewriter, for the endpoint attacks sketched in the paper's §4
//! introduction ("manipulated window size in TCP"). Random drop and
//! delay need no tap here: the engine has them as `link::FaultConfig`
//! and `TapAction::Delay`.

use dui_netsim::link::{Dir, LinkTap, TapAction};
use dui_netsim::packet::{FlowKey, Header, Packet};
use dui_netsim::time::SimTime;
use dui_stats::wire::{Encoder, Sink};

/// Predicate selecting which packets a tap touches.
pub type PacketFilter = Box<dyn Fn(&Packet) -> bool + Send>;

/// Match packets of one flow (either direction).
pub fn flow_filter(key: FlowKey) -> PacketFilter {
    Box::new(move |p| p.key == key || p.key == key.reversed())
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

    /// The clamp and the rewrite count.
    fn encode(&self, s: &mut Sink<'_>) {
        s.u32(self.clamp);
        s.u64(self.rewritten);
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

    #[test]
    fn flow_filter_matches_both_directions() {
        let f = flow_filter(key());
        let mut rev = data();
        rev.key = key().reversed();
        assert!(f(&data()));
        assert!(f(&rev));
        let other = FlowKey::tcp(Addr::new(9, 9, 9, 9), 1, Addr::new(8, 8, 8, 8), 2);
        assert!(!flow_filter(other)(&data()));
    }

    #[test]
    fn window_clamper_rewrites_in_place() {
        let mut w = WindowClamper::new(flow_filter(key()), 1000);
        let mut p = data(); // window 65535 by constructor
        assert_eq!(
            w.intercept(SimTime::ZERO, Dir::AtoB, &mut p, &mut Vec::new()),
            TapAction::Forward
        );
        match p.header {
            Header::Tcp { window, .. } => assert_eq!(window, 1000),
            _ => unreachable!(),
        }
        assert_eq!(w.rewritten, 1);
        // Already-small windows untouched.
        let mut again = p.duplicate();
        w.intercept(SimTime::ZERO, Dir::AtoB, &mut again, &mut Vec::new());
        assert_eq!(w.rewritten, 1);
    }
}
