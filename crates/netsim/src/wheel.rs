//! A hierarchical timing wheel — the event queue's scheduling core.
//!
//! The classic binary-heap event queue costs `O(log n)` per operation and
//! moves entries around on every sift. Discrete-event simulators with large
//! pending-event populations (dense timer sets, thousands of in-flight
//! packets) do better with the hashed hierarchical timing wheel of Varghese
//! & Lauck: `O(1)` schedule, `O(1)` amortized pop.
//!
//! ## Geometry
//!
//! Time in nanoseconds is quantized to **ticks** of `2^10` ns (1.024 µs —
//! finer than any serialization delay the experiments produce, so slot
//! collisions stay small). Ticks are split byte-wise across **4 levels ×
//! 256 slots**: level 0 spans 256 ticks (~262 µs), level 1 spans 256×256
//! ticks (~67 ms), level 2 ~17 s, level 3 ~73 min. Events beyond the
//! 4-level horizon (or past tick `2^32`) wait in a small overflow heap.
//!
//! An entry is placed by the **first differing byte** between its tick and
//! the wheel cursor: if tick and cursor agree above byte 0 the entry goes
//! in level 0 at slot `tick & 255`; if they agree above byte 1 it goes in
//! level 1 at slot `(tick >> 8) & 255`; and so on. When the cursor enters a
//! higher-level slot's window, the slot is **cascaded**: its entries are
//! re-placed relative to the new cursor and land at a strictly lower level.
//! This lazy re-placement preserves the key invariant — *level 0 always
//! holds exactly the entries of the cursor's current 256-tick window, so
//! the first occupied level-0 slot contains the global minimum*.
//!
//! ## Storage
//!
//! Every pending entry lives exactly once, in one slab (`Vec<Node<T>>`):
//! a slot is a `head`/`tail` pair of slab indices and its entries are a
//! singly linked list through `Node::next`. Scheduling takes a cell off
//! a LIFO free list (the cell the last pop freed, still in cache), a
//! cascade relinks indices, a pop returns the cell to the free list — no
//! entry is ever copied and, once the slab has grown to the run's
//! high-water mark of pending entries, the wheel never allocates again.
//! Indices are `u32`: a wheel holds fewer than `2^32 - 1` pending entries
//! (checked, with that message, when the slab grows).
//!
//! ## Determinism contract
//!
//! Pops come out ordered by `(time, seq)` where `seq` is a monotone
//! per-wheel sequence number assigned at schedule time — byte-for-byte the
//! ordering of a binary heap keyed the same way. Two list invariants
//! deliver it:
//!
//! * **Every slot's head is the slot's minimum.** A schedule that is
//!   smaller than the head is linked in front of it, anything else
//!   behind the tail, so peeks are `O(1)` reads at every level.
//! * **Level-0 lists are ascending by `(time, seq)`.** Same-tick FIFO
//!   bursts (monotone `seq`) append, stragglers clamped from the past
//!   prepend, and an entry that belongs in the middle walks at most
//!   `WALK` links to its place. A slot that takes a middle entry beyond
//!   that walk keeps only head-is-minimum and tail-is-maximum, and is
//!   sorted once by the next pop that reaches it.
//!
//! Level 0 is ordered by the full key, so the order in which a cascade
//! visits a higher-level list cannot reach the pop order. Entries
//! scheduled in the past (before the cursor) are clamped into the cursor's
//! slot, where the same ordering yields them exactly as a heap would.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the tick quantum in nanoseconds (tick = `time >> TICK_SHIFT`).
const TICK_SHIFT: u32 = 10;
/// log2 of slots per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; ticks beyond `2^(LEVELS*8)` defer to the overflow heap.
const LEVELS: usize = 4;
/// "No cell": list terminator and empty-slot marker.
const NIL: u32 = u32::MAX;
/// Links a level-0 middle insert may follow before the slot gives up on
/// staying ascending and is sorted by its next pop instead.
const WALK: usize = 8;

/// One slab cell: a pending entry, or a free cell (`value` empty, `next`
/// the free list). `seq` is 128 bits wide: the wheel's own monotone
/// counter only ever uses the low 64, but callers may supply wider
/// externally-computed keys via [`TimerWheel::schedule_keyed`] (the
/// parallel engine encodes a global dispatch lineage in them).
#[derive(Debug)]
struct Node<T> {
    time: u64,
    seq: u128,
    next: u32,
    value: Option<T>,
}

impl<T> Node<T> {
    fn key(&self) -> (u64, u128) {
        (self.time, self.seq)
    }
}

/// One wheel slot: the ends of its entry list (`NIL` when empty).
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// One level: 256 slots plus a 256-bit occupancy bitmap for find-first-set
/// scans.
#[derive(Debug)]
struct Level {
    slots: [Slot; SLOTS],
    occupied: [u64; SLOTS / 64],
}

impl Level {
    const NEW: Level = Level {
        slots: [EMPTY; SLOTS],
        occupied: [0; SLOTS / 64],
    };

    /// First occupied slot index `>= from`, if any.
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= SLOTS / 64 {
                return None;
            }
            bits = self.occupied[word];
        }
    }
}

/// Counters describing the wheel's internal work — exported as telemetry
/// gauges/counters by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Higher-level slots cascaded (relinked into lower levels) so far.
    pub cascades: u64,
    /// Entries moved by those cascades.
    pub cascaded_entries: u64,
    /// Schedules deferred to the overflow heap (beyond the 4-level
    /// horizon).
    pub deferred: u64,
}

/// Hierarchical 4×256 timing wheel with a deterministic `(time, seq)`
/// pop order. See the module docs for the placement and cascade rules.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// The slab: every pending entry, plus the free cells.
    nodes: Vec<Node<T>>,
    /// Most recently freed cell (LIFO through `Node::next`), or `NIL`.
    free: u32,
    levels: [Level; LEVELS],
    /// Level-0 slots waiting for their sort-once (see the module docs).
    unsorted: [u64; SLOTS / 64],
    /// Index scratch for that sort, kept for its capacity.
    scratch: Vec<u32>,
    /// Entries beyond the horizon, as `(time, seq, cell)`.
    overflow: BinaryHeap<Reverse<(u64, u128, u32)>>,
    /// Tick of the most recent pop (placement reference point).
    cursor: u64,
    next_seq: u128,
    len: usize,
    stats: WheelStats,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// Empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimerWheel {
            nodes: Vec::new(),
            free: NIL,
            levels: [Level::NEW; LEVELS],
            unsorted: [0; SLOTS / 64],
            scratch: Vec::new(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            next_seq: 0,
            len: 0,
            stats: WheelStats::default(),
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Internal work counters.
    pub fn stats(&self) -> WheelStats {
        self.stats
    }

    /// Slab cells allocated so far: the high-water mark of [`Self::len`].
    pub fn slab_len(&self) -> usize {
        self.nodes.len()
    }

    /// Schedule `value` at absolute `time` (nanoseconds). Entries at equal
    /// times pop FIFO (monotone sequence tie-break).
    pub fn schedule(&mut self, time: u64, value: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_keyed(time, seq, value);
    }

    /// Schedule `value` at absolute `time` with a caller-supplied 128-bit
    /// tie-break key instead of the wheel's internal counter. Entries at
    /// equal times pop in ascending `key` order.
    ///
    /// A given wheel must use *either* [`TimerWheel::schedule`] *or*
    /// `schedule_keyed`, never both: the internal counter and external keys
    /// occupy the same ordering dimension, and mixing them would make the
    /// pop order depend on unrelated scheduling history. The parallel
    /// engine's per-domain wheels are keyed-only; the sequential engine's
    /// wheel is counter-only.
    pub fn schedule_keyed(&mut self, time: u64, key: u128, value: T) {
        let node = Node {
            time,
            seq: key,
            next: NIL,
            value: Some(value),
        };
        let n = match self.free {
            NIL => {
                let n = slab_index(self.nodes.len());
                self.nodes.push(node);
                n
            }
            n => {
                self.free = std::mem::replace(&mut self.nodes[n as usize], node).next;
                n
            }
        };
        self.len += 1;
        self.place(n);
    }

    /// Place (or re-place, during cascades) cell `n`, whose `next` is
    /// `NIL`, relative to the current cursor.
    fn place(&mut self, n: u32) {
        let key = self.nodes[n as usize].key();
        // Entries in the past are clamped into the cursor's slot; the
        // (time, seq) order inside the slot restores the heap's order.
        let tick = (key.0 >> TICK_SHIFT).max(self.cursor);
        let x = tick ^ self.cursor;
        let level = if x < 1 << SLOT_BITS {
            0
        } else if x < 1 << (2 * SLOT_BITS) {
            1
        } else if x < 1 << (3 * SLOT_BITS) {
            2
        } else if x < 1 << (4 * SLOT_BITS) {
            3
        } else {
            self.stats.deferred += 1;
            self.overflow.push(Reverse((key.0, key.1, n)));
            return;
        };
        let i = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let Slot { head, tail } = self.levels[level].slots[i];
        if head == NIL {
            self.levels[level].slots[i] = Slot { head: n, tail: n };
            let (w, m) = bit(i);
            self.levels[level].occupied[w] |= m;
        } else if key < self.nodes[head as usize].key() {
            self.nodes[n as usize].next = head;
            self.levels[level].slots[i].head = n;
        } else if level > 0 || key >= self.nodes[tail as usize].key() {
            self.nodes[tail as usize].next = n;
            self.levels[level].slots[i].tail = n;
        } else {
            self.place_inside(i, n, key);
        }
    }

    /// Link `n` into level-0 slot `i` strictly between its head and its
    /// tail: in order if that is within [`WALK`] links of the head,
    /// otherwise right behind the head, leaving the slot to its sort-once.
    fn place_inside(&mut self, i: usize, n: u32, key: (u64, u128)) {
        let head = self.levels[0].slots[i].head;
        let (w, m) = bit(i);
        let mut prev = head;
        if self.unsorted[w] & m == 0 {
            // `key` is below the tail's, so the walk ends on a live link.
            for step in 0.. {
                let next = self.nodes[prev as usize].next;
                if key < self.nodes[next as usize].key() {
                    break;
                }
                if step == WALK {
                    self.unsorted[w] |= m;
                    prev = head;
                    break;
                }
                prev = next;
            }
        }
        self.nodes[n as usize].next = std::mem::replace(&mut self.nodes[prev as usize].next, n);
    }

    /// Sort level-0 slot `i` ascending — its sort-once.
    fn sort_slot(&mut self, i: usize) {
        let (w, m) = bit(i);
        self.unsorted[w] &= !m;
        let mut order = std::mem::take(&mut self.scratch);
        order.clear();
        let mut n = self.levels[0].slots[i].head;
        while n != NIL {
            order.push(n);
            n = self.nodes[n as usize].next;
        }
        order.sort_unstable_by_key(|&n| self.nodes[n as usize].key());
        let mut next = NIL;
        for &n in order.iter().rev() {
            self.nodes[n as usize].next = next;
            next = n;
        }
        self.levels[0].slots[i] = Slot {
            head: order[0],
            tail: order[order.len() - 1],
        };
        self.scratch = order;
    }

    /// Byte `level` of the cursor (the scan base for that level).
    fn base(&self, level: usize) -> usize {
        ((self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// Pop the minimum-`(time, seq)` entry, advancing the cursor.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.pop_due(u64::MAX)
    }

    /// Pop the minimum entry if its time is at most `limit` — one scan
    /// where [`TimerWheel::peek_time`] then [`TimerWheel::pop`] make two.
    /// `None` leaves the wheel exactly as it was: the cursor only ever
    /// moves to the window of an entry that is then popped, so it never
    /// passes `limit`'s tick and a later schedule at or after `limit` is
    /// never clamped.
    pub fn pop_due(&mut self, limit: u64) -> Option<(u64, T)> {
        self.pop_entry(limit).map(|(time, _, value)| (time, value))
    }

    /// Pop the minimum entry together with its tie-break key. Used by
    /// keyed wheels (see [`TimerWheel::schedule_keyed`]) where the key
    /// carries meaning beyond FIFO ordering.
    pub fn pop_keyed(&mut self) -> Option<(u64, u128, T)> {
        self.pop_entry(u64::MAX)
    }

    fn pop_entry(&mut self, limit: u64) -> Option<(u64, u128, T)> {
        loop {
            // Level 0 holds exactly the current 256-tick window; the head
            // of its first occupied slot is the global minimum.
            if let Some(i) = self.levels[0].first_occupied_from(self.base(0)) {
                if self.nodes[self.levels[0].slots[i].head as usize].time > limit {
                    return None;
                }
                let (w, m) = bit(i);
                if self.unsorted[w] & m != 0 {
                    self.sort_slot(i);
                }
                let head = self.levels[0].slots[i].head;
                let node = &mut self.nodes[head as usize];
                let value = node.value.take().expect("linked cell holds a value"); // lint: allow(panic): slab invariant
                let (time, seq) = node.key();
                let next = std::mem::replace(&mut node.next, self.free);
                self.free = head;
                if next == NIL {
                    self.levels[0].slots[i] = EMPTY;
                    self.levels[0].occupied[w] &= !m;
                } else {
                    self.levels[0].slots[i].head = next;
                }
                self.len -= 1;
                self.cursor = self.cursor.max(time >> TICK_SHIFT);
                return Some((time, seq, value));
            }
            if !self.refill(limit) {
                return None;
            }
        }
    }

    /// Level 0 is empty: if the minimum pending entry is due by `limit`,
    /// bring its slot down — cascade the first occupied slot of the
    /// lowest non-empty level, or promote the next overflow epoch.
    /// `false`, with nothing touched, when no entry is due.
    fn refill(&mut self, limit: u64) -> bool {
        for level in 1..LEVELS {
            let Some(j) = self.levels[level].first_occupied_from(self.base(level)) else {
                continue;
            };
            let mut n = self.levels[level].slots[j].head;
            if self.nodes[n as usize].time > limit {
                return false;
            }
            self.levels[level].slots[j] = EMPTY;
            let (w, m) = bit(j);
            self.levels[level].occupied[w] &= !m;
            // Move the cursor to the start of that slot's window: keep
            // bytes above `level`, set byte `level` to j, zero the rest.
            let w = SLOT_BITS * level as u32;
            self.cursor = ((self.cursor >> (w + SLOT_BITS)) << (w + SLOT_BITS)) | (j as u64) << w;
            self.stats.cascades += 1;
            while n != NIL {
                let next = std::mem::replace(&mut self.nodes[n as usize].next, NIL);
                self.place(n);
                self.stats.cascaded_entries += 1;
                n = next;
            }
            return true;
        }
        let epoch = |time: u64| (time >> TICK_SHIFT) >> (SLOT_BITS * 4);
        let due = match self.overflow.peek() {
            Some(&Reverse((time, _, _))) if time <= limit => epoch(time),
            _ => return false,
        };
        self.cursor = due << (SLOT_BITS * 4);
        while let Some(&Reverse((time, _, n))) = self.overflow.peek() {
            if epoch(time) != due {
                break;
            }
            self.overflow.pop();
            self.place(n);
        }
        true
    }

    /// The minimum pending entry: the head of the first occupied slot of
    /// the lowest non-empty level (equal times always share a slot, so
    /// that is the global `(time, seq)` minimum), else the overflow heap's.
    fn peek_node(&self) -> Option<&Node<T>> {
        let in_wheel = (0..LEVELS).find_map(|level| {
            let i = self.levels[level].first_occupied_from(self.base(level))?;
            Some(self.levels[level].slots[i].head)
        });
        let n = in_wheel.or_else(|| self.overflow.peek().map(|&Reverse((_, _, n))| n))?;
        Some(&self.nodes[n as usize])
    }

    /// Time of the minimum pending entry.
    pub fn peek_time(&self) -> Option<u64> {
        self.peek_node().map(|n| n.time)
    }

    /// `(time, key)` of the minimum pending entry.
    pub fn peek_key(&mut self) -> Option<(u64, u128)> {
        self.peek_node().map(Node::key)
    }

    /// Visit every pending entry as `(time, seq, &value)`, in storage
    /// order (not pop order — sort by `(time, seq)` for that). Borrows
    /// only; the caller decides what to clone. One pass over the slab, so
    /// the cost scales with the high-water mark of pending entries, not
    /// with the 1024 slots of the wheel.
    pub fn iter(&self) -> Vec<(u64, u128, &T)> {
        let mut v = Vec::with_capacity(self.len);
        for n in &self.nodes {
            v.extend(n.value.as_ref().map(|value| (n.time, n.seq, value)));
        }
        v
    }
}

/// Word index and mask of bit `i` in a 256-bit slot bitmap.
fn bit(i: usize) -> (usize, u64) {
    (i / 64, 1 << (i % 64))
}

/// Slab index of the next new cell. `u32::MAX` is [`NIL`], so a wheel
/// holds fewer than `2^32 - 1` pending entries.
fn slab_index(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(n) if n != NIL => n,
        // lint: allow(panic): the documented capacity bound
        _ => panic!("timer wheel holds fewer than 2^32 - 1 pending events"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut w = TimerWheel::new();
        // One entry per level's range, scheduled out of order.
        let times = [
            5 << TICK_SHIFT,            // level 0
            300 << TICK_SHIFT,          // level 1
            70_000 << TICK_SHIFT,       // level 2
            20_000_000 << TICK_SHIFT,   // level 3
            (1u64 << 33) << TICK_SHIFT, // overflow
            7,                          // sub-tick, level 0
        ];
        for &t in times.iter().rev() {
            w.schedule(t, t);
        }
        assert_eq!(w.len(), times.len());
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        for want in sorted {
            let (t, v) = w.pop().expect("entry");
            assert_eq!(t, want);
            assert_eq!(v, want);
        }
        assert!(w.is_empty());
        assert!(w.pop().is_none());
        let st = w.stats();
        assert!(st.cascades > 0, "higher levels must have cascaded");
        assert_eq!(st.deferred, 1);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut w = TimerWheel::new();
        for i in 0..1000u64 {
            w.schedule(123_456, i);
        }
        for i in 0..1000u64 {
            assert_eq!(w.pop(), Some((123_456, i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = TimerWheel::new();
        assert_eq!(w.peek_time(), None);
        for &t in &[9_000_000u64, 50, 4_000, 1u64 << 45] {
            w.schedule(t, t);
        }
        while let Some(peek) = w.peek_time() {
            let (t, _) = w.pop().expect("peeked");
            assert_eq!(peek, t);
        }
    }

    #[test]
    fn pop_due_stops_at_the_limit_and_touches_nothing() {
        let mut w = TimerWheel::new();
        for &t in &[9_000_000u64, 50, 4_000, 1u64 << 45] {
            w.schedule(t, t);
        }
        assert_eq!(w.pop_due(49), None);
        assert_eq!(w.pop_due(50), Some((50, 50)));
        assert_eq!(w.pop_due(4_000), Some((4_000, 4_000)));
        // The next entry sits on a higher level: a limit short of it must
        // neither cascade nor move the cursor.
        let before = (w.cursor, w.stats());
        assert_eq!(w.pop_due(8_999_999), None);
        assert_eq!((w.cursor, w.stats()), before);
        assert_eq!(w.pop_due(9_000_000), Some((9_000_000, 9_000_000)));
        assert_eq!(w.pop_due((1 << 45) - 1), None, "overflow entry not due");
        assert_eq!((w.cursor >> 32, w.len()), (0, 1));
        assert_eq!(w.pop_due(u64::MAX), Some((1 << 45, 1 << 45)));
    }

    #[test]
    fn iter_sees_every_pending_entry() {
        let mut w = TimerWheel::new();
        for &t in &[10u64, 5_000_000, 1 << 50, 3] {
            w.schedule(t, t);
        }
        assert_eq!(w.pop(), Some((3, 3)), "a freed cell is not pending");
        let mut seen: Vec<(u64, u128)> = w.iter().into_iter().map(|(t, s, _)| (t, s)).collect();
        seen.sort_unstable();
        assert_eq!(seen, [(10, 0), (5_000_000, 1), (1 << 50, 2)]);
    }

    #[test]
    fn keyed_schedule_pops_in_key_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        // Same time, keys scheduled out of order — including keys wider
        // than 64 bits (the parallel engine's provisional-key bit).
        let keys: [u128; 5] = [7, 1u128 << 127 | 3, 2, 1u128 << 100, 0];
        for (i, &k) in keys.iter().enumerate() {
            w.schedule_keyed(5_000, k, i as u32);
        }
        // And one earlier-time entry with a huge key: time dominates.
        w.schedule_keyed(4_000, u128::MAX, 99);
        assert_eq!(w.peek_key(), Some((4_000, u128::MAX)));
        assert_eq!(w.pop_keyed(), Some((4_000, u128::MAX, 99)));
        let mut sorted: Vec<u128> = keys.to_vec();
        sorted.sort_unstable();
        for k in sorted {
            let (t, got, v) = w.pop_keyed().expect("entry");
            assert_eq!(t, 5_000);
            assert_eq!(got, k);
            assert_eq!(keys[v as usize], k);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn peek_key_matches_pop_keyed_across_levels() {
        let mut w: TimerWheel<u64> = TimerWheel::new();
        let mut x = 0xABCDu64;
        for i in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = (x >> 16) % 80_000_000;
            w.schedule_keyed(t, (i as u128) << 32, i);
        }
        while let Some(peek) = w.peek_key() {
            let (t, k, _) = w.pop_keyed().expect("peeked");
            assert_eq!(peek, (t, k));
        }
    }

    #[test]
    fn dense_same_tick_bursts_stay_cheap() {
        // Same-tick FIFO bursts take the append fast path; verify the
        // slot never falls back to its sort-once (O(1) pops).
        let mut w = TimerWheel::new();
        for i in 0..10_000u64 {
            w.schedule(42, i);
        }
        assert_eq!(
            w.unsorted,
            [0; SLOTS / 64],
            "FIFO burst must stay ascending"
        );
        for i in 0..10_000u64 {
            assert_eq!(w.pop(), Some((42, i)));
        }
    }

    #[test]
    fn out_of_order_keys_walk_then_sort_once() {
        // Keys ascending between one tick's head and tail: each walks one
        // link further than the last, until one would pass WALK links and
        // flags the slot instead; the first pop sorts it and clears the
        // flag.
        let mut w: TimerWheel<u128> = TimerWheel::new();
        let keys: Vec<u128> = [0, 1_000].into_iter().chain(1..=40).collect();
        for (n, &k) in keys.iter().enumerate() {
            w.schedule_keyed(7, k, k);
            let flagged = w.unsorted != [0; SLOTS / 64];
            assert_eq!(flagged, n > 2 + WALK, "after {n} inserts");
            assert_eq!(w.peek_key(), Some((7, 0)), "head stays the minimum");
        }
        let mut sorted = keys;
        sorted.sort_unstable();
        for k in sorted {
            assert_eq!(w.pop_keyed(), Some((7, k, k)));
            assert_eq!(
                w.unsorted,
                [0; SLOTS / 64],
                "one sort serves every later pop"
            );
        }
        assert!(w.is_empty());
    }

    #[test]
    fn freed_cells_are_reused_lifo() {
        let mut w = TimerWheel::new();
        for t in 0..100u64 {
            w.schedule(t << 20, t);
        }
        for round in 0..1_000u64 {
            let (t, _) = w.pop().expect("entry");
            w.schedule(t + (100 << 20), round);
        }
        assert_eq!((w.len(), w.slab_len()), (100, 100));
    }

    #[test]
    #[should_panic(expected = "fewer than 2^32 - 1 pending events")]
    fn slab_index_space_is_checked() {
        assert_eq!(slab_index(u32::MAX as usize - 1), u32::MAX - 1);
        slab_index(u32::MAX as usize);
    }
}
