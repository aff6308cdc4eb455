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
//! [`PacketArena`]; the self-contained [`SavedEvent`] twin (with the packet
//! by value) exists for checkpoints and the `dui-replay` byte codec, whose
//! formats and digests predate the arena and must not change.

use crate::arena::{PacketArena, PacketRef};
use crate::link::Dir;
use crate::packet::Packet;
use crate::time::SimTime;
use crate::topology::{LinkId, NodeId};
use crate::wheel::{TimerWheel, WheelStats};
use dui_stats::digest::StateDigest;

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

    /// Fold the event's full content into `d` (kind tag first, so
    /// different kinds can never collide structurally). Handles are an
    /// implementation detail: packet *contents* are resolved through
    /// `arena` and digested by value, byte-identical to [`SavedEvent`]'s
    /// digest — this is what keeps pre-refactor golden hashes valid.
    pub fn state_digest(&self, d: &mut StateDigest, arena: &PacketArena) {
        match self {
            Event::Deliver { node, pkt } => {
                d.write_u8(0);
                d.write_usize(node.0);
                let p = arena.get(*pkt).expect("live event holds a stale packet ref"); // lint: allow(panic)
                p.state_digest(d);
            }
            Event::TxComplete { link, dir } => {
                d.write_u8(1);
                d.write_usize(link.0);
                d.write_bool(*dir == Dir::BtoA);
            }
            Event::Timer { node, token } => {
                d.write_u8(2);
                d.write_usize(node.0);
                d.write_u64(*token);
            }
            Event::Offer { link, dir, pkt } => {
                d.write_u8(3);
                d.write_usize(link.0);
                d.write_bool(*dir == Dir::BtoA);
                let p = arena.get(*pkt).expect("live event holds a stale packet ref"); // lint: allow(panic)
                p.state_digest(d);
            }
        }
    }

    /// Materialize a self-contained [`SavedEvent`], cloning any packet out
    /// of `arena` (the clone happens inside the arena module).
    pub fn to_saved(&self, arena: &PacketArena) -> SavedEvent {
        match *self {
            Event::Deliver { node, pkt } => SavedEvent::Deliver {
                node,
                pkt: arena
                    .snapshot_packet(pkt)
                    .expect("live event holds a stale packet ref"), // lint: allow(panic)
            },
            Event::TxComplete { link, dir } => SavedEvent::TxComplete { link, dir },
            Event::Timer { node, token } => SavedEvent::Timer { node, token },
            Event::Offer { link, dir, pkt } => SavedEvent::Offer {
                link,
                dir,
                pkt: arena
                    .snapshot_packet(pkt)
                    .expect("live event holds a stale packet ref"), // lint: allow(panic)
            },
        }
    }
}

/// A self-contained event: identical shape to [`Event`] but carrying
/// packets by value. This is the representation checkpoints store and the
/// `dui-replay` codec serializes — it needs no arena to interpret, and its
/// byte format and digests are unchanged from the pre-arena engine.
#[derive(Debug, Clone, PartialEq)]
pub enum SavedEvent {
    /// A packet arrives at a node.
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// The packet, by value.
        pkt: Packet,
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
    /// A (tap-delayed) packet is re-offered to a link queue.
    Offer {
        /// The link.
        link: LinkId,
        /// Direction.
        dir: Dir,
        /// The packet, by value.
        pkt: Packet,
    },
}

impl SavedEvent {
    /// Short label for the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            SavedEvent::Deliver { .. } => "deliver",
            SavedEvent::TxComplete { .. } => "tx_complete",
            SavedEvent::Timer { .. } => "timer",
            SavedEvent::Offer { .. } => "offer",
        }
    }

    /// Fold the event's full content into `d` — byte-identical to
    /// [`Event::state_digest`] on the live twin.
    pub fn state_digest(&self, d: &mut StateDigest) {
        match self {
            SavedEvent::Deliver { node, pkt } => {
                d.write_u8(0);
                d.write_usize(node.0);
                pkt.state_digest(d);
            }
            SavedEvent::TxComplete { link, dir } => {
                d.write_u8(1);
                d.write_usize(link.0);
                d.write_bool(*dir == Dir::BtoA);
            }
            SavedEvent::Timer { node, token } => {
                d.write_u8(2);
                d.write_usize(node.0);
                d.write_u64(*token);
            }
            SavedEvent::Offer { link, dir, pkt } => {
                d.write_u8(3);
                d.write_usize(link.0);
                d.write_bool(*dir == Dir::BtoA);
                pkt.state_digest(d);
            }
        }
    }

    /// Rehydrate into a live [`Event`], moving any packet into `arena`
    /// (no clone — restore consumes the saved event).
    pub fn into_live(self, arena: &mut PacketArena) -> Event {
        match self {
            SavedEvent::Deliver { node, pkt } => Event::Deliver {
                node,
                pkt: arena.insert(pkt),
            },
            SavedEvent::TxComplete { link, dir } => Event::TxComplete { link, dir },
            SavedEvent::Timer { node, token } => Event::Timer { node, token },
            SavedEvent::Offer { link, dir, pkt } => Event::Offer {
                link,
                dir,
                pkt: arena.insert(pkt),
            },
        }
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

    /// Pending events materialized in dispatch order for checkpointing:
    /// each packet is cloned out of `arena` exactly once, into the
    /// returned Vec.
    pub fn snapshot_sorted(&self, arena: &PacketArena) -> Vec<(SimTime, SavedEvent)> {
        self.snapshot_refs()
            .into_iter()
            .map(|(t, e)| (t, e.to_saved(arena)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn saved_event_digest_matches_live() {
        use crate::packet::{Addr, FlowKey};
        let mut arena = PacketArena::new();
        let pkt = Packet::udp(
            FlowKey::udp(Addr::new(10, 0, 0, 1), 1, Addr::new(10, 0, 0, 2), 2),
            99,
        );
        let saved = SavedEvent::Deliver {
            node: NodeId(3),
            pkt: pkt.clone(), // lint: allow(packet-clone) — constructing the expected fixture
        };
        let live = Event::Deliver {
            node: NodeId(3),
            pkt: arena.insert(pkt),
        };
        let mut d1 = StateDigest::labeled("event");
        saved.state_digest(&mut d1);
        let mut d2 = StateDigest::labeled("event");
        live.state_digest(&mut d2, &arena);
        assert_eq!(d1.finish(), d2.finish());
        // Round trip: saved → live → saved.
        let live2 = saved.clone().into_live(&mut arena);
        assert_eq!(live2.to_saved(&arena), saved);
    }
}
