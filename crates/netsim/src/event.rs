//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: the monotone sequence number
//! makes event ordering at equal timestamps FIFO and therefore the whole
//! simulation deterministic. Scheduling is backed by the hierarchical
//! timing wheel in [`crate::wheel`] (`O(1)` schedule/pop against the old
//! binary heap's `O(log n)`), which honors exactly the same ordering
//! contract.
//!
//! Live events carry packets as 8-byte [`PacketRef`] handles into the
//! [`PacketArena`]; [`Event::encode`] resolves them in place, so an
//! event's digest and checkpoint bytes carry the packet's content, never
//! its slot.

use crate::arena::{PacketArena, PacketRef};
use crate::link::Dir;
use crate::packet::Packet;
use crate::time::SimTime;
use crate::topology::{LinkId, NodeId};
use crate::wheel::{TimerWheel, WheelStats};
use dui_stats::wire::{DecodeError, Encoder, Encoding, ErrorKind, Reader, Var, Wire};

/// Things that can happen. Packet-carrying variants hold an arena handle,
/// so an `Event` is a small `Copy` value (~24 bytes) regardless of packet
/// contents.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A packet arrives at a node (after crossing a link).
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Handle to the packet in the engine's [`PacketArena`].
        pkt: PacketRef,
    },
    /// A link direction finished serializing its in-flight packet.
    TxComplete {
        /// The link.
        link: LinkId,
        /// Direction that completed.
        dir: Dir,
    },
    /// A node timer fired.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Opaque token chosen by the node when arming the timer.
        token: u64,
    },
    /// A (tap-delayed) packet is re-offered to a link queue. Re-offers skip
    /// fault injection and taps — the tap already ruled on this packet.
    Offer {
        /// The link.
        link: LinkId,
        /// Direction.
        dir: Dir,
        /// Handle to the packet in the engine's [`PacketArena`].
        pkt: PacketRef,
    },
}

impl Event {
    /// Short label for the event kind (used by traces and recordings).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Deliver { .. } => "deliver",
            Event::TxComplete { .. } => "tx_complete",
            Event::Timer { .. } => "timer",
            Event::Offer { .. } => "offer",
        }
    }

    /// The event encoder: the kind tag first, so different kinds can
    /// never collide structurally, then the fields. Handles are an
    /// implementation detail: a packet is resolved through `arena` in
    /// place (no copy — this runs once per recorded event) and written
    /// by its own encoder.
    #[expect(
        clippy::expect_used,
        reason = "a pending event's packet handle stays live until the event is dispatched"
    )]
    pub fn encode<E: Encoder>(&self, e: &mut E, arena: &PacketArena) {
        let pkt = |r| arena.get(r).expect("live event holds a stale packet ref");
        match *self {
            Event::Deliver { node, pkt: r } => {
                e.u8(0);
                e.varint_usize(node.0);
                pkt(r).put(e);
            }
            Event::TxComplete { link, dir } => {
                e.u8(1);
                e.varint_usize(link.0);
                e.bool(dir == Dir::BtoA);
            }
            Event::Timer { node, token } => {
                e.u8(2);
                e.varint_usize(node.0);
                e.varint(token);
            }
            Event::Offer { link, dir, pkt: r } => {
                e.u8(3);
                e.varint_usize(link.0);
                e.bool(dir == Dir::BtoA);
                pkt(r).put(e);
            }
        }
    }

    /// The fewest bytes an encoded event takes: a `TxComplete`'s tag,
    /// link and direction.
    pub const MIN_BYTES: usize = 1 + Var::<LinkId>::LEAST + bool::LEAST;

    /// Inverse of [`Event::encode`]: any packet moves into `arena`.
    pub fn decode(r: &mut Reader, arena: &mut PacketArena) -> Result<Event, DecodeError> {
        let dir = |r: &mut Reader| Ok(if r.bool("dir")? { Dir::BtoA } else { Dir::AtoB });
        Ok(match r.u8("event tag")? {
            0 => Event::Deliver {
                node: Var::read(r, "node")?,
                pkt: arena.insert(Packet::take(r)?),
            },
            1 => Event::TxComplete {
                link: Var::read(r, "link")?,
                dir: dir(r)?,
            },
            2 => Event::Timer {
                node: Var::read(r, "node")?,
                token: r.varint("token")?,
            },
            3 => Event::Offer {
                link: Var::read(r, "link")?,
                dir: dir(r)?,
                pkt: arena.insert(Packet::take(r)?),
            },
            _ => return Err(r.error("event tag", ErrorKind::Tag)),
        })
    }
}

/// Deterministic FIFO-at-equal-time event queue over a hierarchical
/// timing wheel.
#[derive(Debug, Default)]
pub struct EventQueue {
    wheel: TimerWheel<Event>,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, event: Event) {
        self.wheel.schedule(time.0, event);
    }

    /// Pop the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_due(SimTime(u64::MAX))
    }

    /// Pop the earliest pending event if it is due at or before `limit`;
    /// `None` leaves the queue untouched.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<(SimTime, Event)> {
        self.wheel.pop_due(limit.0).map(|(t, e)| (SimTime(t), e))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time().map(SimTime)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }

    /// The wheel's internal work counters (cascades, overflow deferrals).
    pub fn wheel_stats(&self) -> WheelStats {
        self.wheel.stats()
    }

    /// Schedule with an externally-computed 128-bit tie-break key (see
    /// [`TimerWheel::schedule_keyed`]). A queue is either counter-ordered
    /// (via [`EventQueue::schedule`]) or key-ordered, never both; the
    /// parallel engine's per-domain queues are key-ordered.
    pub(crate) fn schedule_keyed(&mut self, time: SimTime, key: u128, event: Event) {
        self.wheel.schedule_keyed(time.0, key, event);
    }

    /// `(time, key)` of the earliest pending event.
    pub(crate) fn peek_key(&mut self) -> Option<(SimTime, u128)> {
        self.wheel.peek_key().map(|(t, k)| (SimTime(t), k))
    }

    /// Pop the earliest pending event together with its tie-break key.
    pub(crate) fn pop_keyed(&mut self) -> Option<(SimTime, u128, Event)> {
        self.wheel.pop_keyed().map(|(t, k, e)| (SimTime(t), k, e))
    }

    /// Pending events as `(time, key, event)` copies, unsorted. The
    /// parallel join sorts the union of all domain queues by `(time, key)`
    /// to rebuild the merged sequential queue.
    pub(crate) fn drain_keyed(&self) -> Vec<(SimTime, u128, Event)> {
        self.wheel
            .iter()
            .into_iter()
            .map(|(t, k, e)| (SimTime(t), k, *e))
            .collect()
    }

    /// Pending events in dispatch order — exactly the order
    /// [`EventQueue::pop`] would return them — as *borrows*. No event or
    /// packet is cloned.
    ///
    /// The *relative* order is the logical state, while the absolute `seq`
    /// values are an implementation detail (a restored queue re-schedules
    /// these in order and gets fresh, order-preserving sequence numbers).
    pub fn snapshot_refs(&self) -> Vec<(SimTime, &Event)> {
        let mut v: Vec<(u64, u128, &Event)> = self.wheel.iter();
        v.sort_unstable_by_key(|&(t, q, _)| (t, q));
        v.into_iter().map(|(t, _, e)| (SimTime(t), e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_stats::digest::StateDigest;

    fn timer(node: usize, token: u64) -> Event {
        Event::Timer {
            node: NodeId(node),
            token,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), timer(0, 3));
        q.schedule(SimTime::from_secs(1), timer(0, 1));
        q.schedule(SimTime::from_secs(2), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, timer(0, i));
        }
        for i in 0..100 {
            let (_, e) = q.pop().unwrap();
            match e {
                Event::Timer { token, .. } => assert_eq!(token, i),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn pop_due_honours_the_limit() {
        let mut q = EventQueue::new();
        assert!(q.pop_due(SimTime::from_secs(9)).is_none());
        q.schedule(SimTime::from_secs(5), timer(0, 0));
        assert!(q.pop_due(SimTime(SimTime::from_secs(5).0 - 1)).is_none());
        assert_eq!(q.len(), 1);
        let (t, _) = q.pop_due(SimTime::from_secs(5)).expect("due");
        assert_eq!(t, SimTime::from_secs(5));
        assert!(q.is_empty());
    }

    #[test]
    fn snapshot_refs_is_dispatch_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), timer(0, 20));
        q.schedule(SimTime::from_secs(1), timer(0, 10));
        q.schedule(SimTime::from_secs(1), timer(0, 11));
        let tokens: Vec<u64> = q
            .snapshot_refs()
            .into_iter()
            .map(|(_, e)| match e {
                Event::Timer { token, .. } => *token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tokens, vec![10, 11, 20]);
    }

    #[test]
    fn events_round_trip_through_another_arena() {
        use crate::packet::{Addr, FlowKey};
        use dui_stats::wire::Writer;
        let mut arena = PacketArena::new();
        let key = FlowKey::udp(Addr::new(10, 0, 0, 1), 1, Addr::new(10, 0, 0, 2), 2);
        let events = [
            Event::Deliver {
                node: NodeId(3),
                pkt: arena.insert(Packet::udp(key, 99)),
            },
            Event::TxComplete {
                link: LinkId(1),
                dir: Dir::BtoA,
            },
            timer(2, 7),
            Event::Offer {
                link: LinkId(0),
                dir: Dir::AtoB,
                pkt: arena.insert(Packet::udp(key, 5)),
            },
        ];
        let mut other = PacketArena::new();
        other.insert(Packet::udp(key, 1));
        for event in events {
            let mut w = Writer::new();
            event.encode(&mut w, &arena);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = Event::decode(&mut r, &mut other).unwrap();
            assert_eq!(r.finish("event"), Ok(()));
            let (mut d1, mut d2) = (StateDigest::labeled("event"), StateDigest::labeled("event"));
            event.encode(&mut d1, &arena);
            back.encode(&mut d2, &other);
            assert_eq!(d1.finish(), d2.finish(), "{}", event.kind());
        }
    }
}
