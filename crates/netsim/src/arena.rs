//! Slab storage for in-flight packets, addressed by generational handles.
//!
//! The event loop used to move ~88-byte [`Packet`] structs by value through
//! the heap-backed event queue: every schedule, sift and link-queue hop
//! copied the full struct. The arena replaces that with an 8-byte
//! [`PacketRef`] handle: the packet body is written into a slab slot once at
//! injection and stays put until it is dropped or delivered, while events,
//! link queues and tap delay buffers carry only the handle.
//!
//! Slots are recycled through an intrusive free list (each vacant slot
//! stores the index of the next vacant slot), so a steady-state simulation
//! allocates no memory per packet. Recycling is made safe by *generations*:
//! every slot carries a generation counter that is bumped when the slot is
//! freed, and a handle is only valid while its generation matches the
//! slot's. Using a stale handle — one whose packet has already been taken —
//! is a typed [`StaleRef`] error, never a silent read of whatever packet
//! now occupies the slot.

use crate::packet::Packet;
use std::fmt;

/// Sentinel for "no next free slot" in the intrusive free list.
const NIL: u32 = u32::MAX;

/// An 8-byte generational handle to a packet stored in a [`PacketArena`].
///
/// Handles are created only by [`PacketArena::insert`] and become invalid
/// (stale) when the packet is removed with [`PacketArena::take`]. All
/// accessors verify the generation, so a stale handle can be *detected* but
/// never dereferenced to the wrong packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef {
    idx: u32,
    gen: u32,
}

impl PacketRef {
    /// Slot index (diagnostics only — cannot be used to construct handles).
    pub fn index(&self) -> u32 {
        self.idx
    }

    /// Slot generation this handle was issued under (diagnostics only).
    pub fn generation(&self) -> u32 {
        self.gen
    }
}

impl fmt::Display for PacketRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{}g{}", self.idx, self.gen)
    }
}

/// Typed error for an access through an out-of-date [`PacketRef`].
///
/// Carries enough context to say *why* the handle is dead: either the slot
/// has since been vacated (`vacant`), or it was recycled for a newer packet
/// (`current_gen > expected_gen`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleRef {
    /// Slot index the handle pointed at.
    pub idx: u32,
    /// Generation the handle was issued under.
    pub expected_gen: u32,
    /// Generation the slot is at now.
    pub current_gen: u32,
    /// True if the slot is currently vacant (false: recycled and occupied
    /// by a different packet).
    pub vacant: bool,
}

impl fmt::Display for StaleRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stale packet ref: slot {} gen {} is {} at gen {}",
            self.idx,
            self.expected_gen,
            if self.vacant { "vacant" } else { "recycled" },
            self.current_gen
        )
    }
}

impl std::error::Error for StaleRef {}

/// One slab slot: either a live packet or a link in the free list. The
/// generation counts how many times the slot has been freed.
#[derive(Debug)]
enum Slot {
    Occupied { gen: u32, pkt: Packet },
    Free { gen: u32, next_free: u32 },
}

/// Generational slab arena holding every packet currently inside the
/// simulation (pending events, link queues, in-flight transmitters, tap
/// delay buffers).
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Slot>,
    free_head: u32,
    live: usize,
    high_water: usize,
    recycled: u64,
}

impl PacketArena {
    /// Empty arena.
    pub fn new() -> Self {
        PacketArena {
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
            high_water: 0,
            recycled: 0,
        }
    }

    /// Store `pkt`, returning its handle. Reuses a vacant slot when one is
    /// available (LIFO), growing the slab only when all slots are live.
    pub fn insert(&mut self, pkt: Packet) -> PacketRef {
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            let (gen, next_free) = match *slot {
                Slot::Free { gen, next_free } => (gen, next_free),
                Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
            };
            self.free_head = next_free;
            self.recycled += 1;
            *slot = Slot::Occupied { gen, pkt };
            PacketRef { idx, gen }
        } else {
            let idx = self.slots.len() as u32;
            assert!(idx != NIL, "packet arena exhausted u32 index space");
            self.slots.push(Slot::Occupied { gen: 0, pkt });
            PacketRef { idx, gen: 0 }
        }
    }

    fn stale(&self, r: PacketRef) -> StaleRef {
        match self.slots.get(r.idx as usize) {
            Some(Slot::Occupied { gen, .. }) => StaleRef {
                idx: r.idx,
                expected_gen: r.gen,
                current_gen: *gen,
                vacant: false,
            },
            Some(Slot::Free { gen, .. }) => StaleRef {
                idx: r.idx,
                expected_gen: r.gen,
                current_gen: *gen,
                vacant: true,
            },
            None => StaleRef {
                idx: r.idx,
                expected_gen: r.gen,
                current_gen: 0,
                vacant: true,
            },
        }
    }

    /// Read the packet behind `r`.
    pub fn get(&self, r: PacketRef) -> Result<&Packet, StaleRef> {
        match self.slots.get(r.idx as usize) {
            Some(Slot::Occupied { gen, pkt }) if *gen == r.gen => Ok(pkt),
            _ => Err(self.stale(r)),
        }
    }

    /// Mutably borrow the packet behind `r` (header rewriting by taps).
    pub fn get_mut(&mut self, r: PacketRef) -> Result<&mut Packet, StaleRef> {
        let live = matches!(
            self.slots.get(r.idx as usize),
            Some(Slot::Occupied { gen, .. }) if *gen == r.gen
        );
        if !live {
            return Err(self.stale(r));
        }
        match self.slots.get_mut(r.idx as usize) {
            Some(Slot::Occupied { pkt, .. }) => Ok(pkt),
            _ => unreachable!("liveness checked above"),
        }
    }

    /// Remove and return the packet behind `r`, freeing its slot for
    /// reuse. The handle (and any copy of it) is stale afterwards.
    pub fn take(&mut self, r: PacketRef) -> Result<Packet, StaleRef> {
        match self.slots.get_mut(r.idx as usize) {
            Some(slot @ Slot::Occupied { .. }) => {
                let gen = match slot {
                    Slot::Occupied { gen, .. } => *gen,
                    Slot::Free { .. } => unreachable!(),
                };
                if gen != r.gen {
                    return Err(self.stale(r));
                }
                let freed = std::mem::replace(
                    slot,
                    Slot::Free {
                        gen: gen.wrapping_add(1),
                        next_free: self.free_head,
                    },
                );
                self.free_head = r.idx;
                self.live -= 1;
                match freed {
                    Slot::Occupied { pkt, .. } => Ok(pkt),
                    Slot::Free { .. } => unreachable!(),
                }
            }
            _ => Err(self.stale(r)),
        }
    }

    /// Mutable iteration over every live packet, in slot order. Used by
    /// the parallel engine's barrier to patch provisional packet ids in
    /// one sweep (packet bodies re-home to new slots on every forwarding
    /// hop, so handle-based patching cannot reach them).
    pub(crate) fn iter_live_mut(&mut self) -> impl Iterator<Item = &mut Packet> {
        self.slots.iter_mut().filter_map(|s| match s {
            Slot::Occupied { pkt, .. } => Some(pkt),
            Slot::Free { .. } => None,
        })
    }

    /// Number of live packets.
    pub fn live(&self) -> usize {
        self.live
    }

    /// True if no packets are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slab slots allocated (live + vacant).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Highest simultaneous live count seen.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of inserts served by recycling a vacant slot instead of
    /// growing the slab.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Addr, FlowKey};

    fn pkt(payload: u32) -> Packet {
        let mut p = Packet::udp(
            FlowKey::udp(Addr::new(10, 0, 0, 1), 1000, Addr::new(10, 0, 0, 2), 80),
            100,
        );
        p.payload = payload;
        p
    }

    #[test]
    fn insert_get_take_round_trip() {
        let mut a = PacketArena::new();
        let r = a.insert(pkt(7));
        assert_eq!(a.get(r).unwrap().payload, 7);
        assert_eq!(a.live(), 1);
        let p = a.take(r).unwrap();
        assert_eq!(p.payload, 7);
        assert_eq!(a.live(), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn stale_after_take_is_typed_error() {
        let mut a = PacketArena::new();
        let r = a.insert(pkt(1));
        a.take(r).unwrap();
        let err = a.get(r).unwrap_err();
        assert_eq!(err.idx, r.index());
        assert_eq!(err.expected_gen, 0);
        assert_eq!(err.current_gen, 1);
        assert!(err.vacant);
        assert!(a.get_mut(r).is_err());
        assert!(a.take(r).is_err());
    }

    #[test]
    fn recycled_slot_never_serves_old_handle() {
        let mut a = PacketArena::new();
        let r1 = a.insert(pkt(1));
        a.take(r1).unwrap();
        let r2 = a.insert(pkt(2));
        // Same slot, new generation.
        assert_eq!(r1.index(), r2.index());
        assert_ne!(r1.generation(), r2.generation());
        // The old handle is a typed error, not a read of packet 2.
        let err = a.get(r1).unwrap_err();
        assert!(!err.vacant, "slot is occupied by a different packet");
        assert_eq!(err.current_gen, r2.generation());
        assert_eq!(a.get(r2).unwrap().payload, 2);
    }

    #[test]
    fn free_list_is_lifo_and_slab_does_not_grow() {
        let mut a = PacketArena::new();
        let refs: Vec<_> = (0..8).map(|i| a.insert(pkt(i))).collect();
        assert_eq!(a.capacity(), 8);
        assert_eq!(a.high_water(), 8);
        for r in refs.iter().rev() {
            a.take(*r).unwrap();
        }
        // Reinsertion reuses slots 0..8 (LIFO: last freed = slot 0 first).
        for i in 0..8 {
            let r = a.insert(pkt(100 + i));
            assert_eq!(r.index(), i, "LIFO recycling");
        }
        assert_eq!(a.capacity(), 8, "no growth under churn");
        assert_eq!(a.recycled(), 8);
        assert_eq!(a.high_water(), 8);
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut a = PacketArena::new();
        let r = a.insert(pkt(1));
        a.get_mut(r).unwrap().ttl = 3;
        assert_eq!(a.get(r).unwrap().ttl, 3);
    }

    #[test]
    fn out_of_range_handle_is_stale() {
        let a = PacketArena::new();
        let bogus = PacketRef { idx: 42, gen: 0 };
        let err = a.get(bogus).unwrap_err();
        assert!(err.vacant);
        assert_eq!(err.idx, 42);
    }

    #[test]
    fn display_formats() {
        let mut a = PacketArena::new();
        let r = a.insert(pkt(1));
        assert_eq!(format!("{r}"), "pkt#0g0");
        a.take(r).unwrap();
        let err = a.get(r).unwrap_err();
        assert!(format!("{err}").contains("vacant"));
    }
}
