//! A hierarchical timing wheel — the event queue's scheduling core.
//!
//! The classic binary-heap event queue costs `O(log n)` per operation and
//! moves entries around on every sift. Discrete-event simulators with large
//! pending-event populations (dense timer sets, thousands of in-flight
//! packets) do better with the hashed hierarchical timing wheel of Varghese
//! & Lauck: `O(1)` schedule, `O(1)` amortized pop, entries written once per
//! residence level.
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
//! ## Determinism contract
//!
//! Pops come out ordered by `(time, seq)` where `seq` is a monotone
//! per-wheel sequence number assigned at schedule time — byte-for-byte the
//! ordering of the binary-heap queue it replaces ([`BaselineHeapQueue`],
//! kept for equivalence testing and benchmarks). Entries scheduled in the
//! past (before the cursor) are clamped into the cursor's slot; the
//! `(time, seq)` sort inside the slot still yields them in exactly the
//! order the heap would.
//!
//! Per-slot entry lists are `VecDeque`s sorted *descending* by
//! `(time, seq)` so the minimum pops from the back in `O(1)`. The common
//! schedule patterns — same-tick FIFO bursts (monotone `seq`) and clamped
//! stragglers — extend the deque at an end without disturbing the order;
//! anything else marks the slot dirty and it is re-sorted on first pop.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the tick quantum in nanoseconds (tick = `time >> TICK_SHIFT`).
const TICK_SHIFT: u32 = 10;
/// log2 of slots per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; ticks beyond `2^(LEVELS*8)` defer to the overflow heap.
const LEVELS: usize = 4;

/// One pending entry. `seq` is 128 bits wide: the wheel's own monotone
/// counter only ever uses the low 64, but callers may supply wider
/// externally-computed keys via [`TimerWheel::schedule_keyed`] (the
/// parallel engine encodes a global dispatch lineage in them).
#[derive(Debug)]
struct Entry<T> {
    time: u64,
    seq: u128,
    value: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (u64, u128) {
        (self.time, self.seq)
    }
}

/// Overflow-heap wrapper ordered by `(time, seq)` only.
#[derive(Debug)]
struct HeapEntry<T>(Entry<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// One wheel slot: entries kept descending by `(time, seq)` (min at the
/// back) unless `sorted` is false, in which case the next pop re-sorts.
#[derive(Debug)]
struct Slot<T> {
    entries: VecDeque<Entry<T>>,
    sorted: bool,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot {
            entries: VecDeque::new(),
            sorted: true,
        }
    }
}

impl<T> Slot<T> {
    fn push(&mut self, e: Entry<T>) {
        if self.entries.is_empty() {
            self.entries.push_back(e);
            self.sorted = true;
            return;
        }
        if self.sorted {
            // Descending order: front is the max, back is the min.
            // lint: allow(panic): guarded by the is_empty early return above
            if e.key() >= self.entries.front().expect("non-empty").key() {
                self.entries.push_front(e);
                return;
            }
            // lint: allow(panic): guarded by the is_empty early return above
            if e.key() <= self.entries.back().expect("non-empty").key() {
                self.entries.push_back(e);
                return;
            }
            self.sorted = false;
        }
        self.entries.push_back(e);
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.entries
                .make_contiguous()
                .sort_unstable_by(|a, b| b.key().cmp(&a.key()));
            self.sorted = true;
        }
    }

    /// Remove and return the minimum-key entry.
    fn pop_min(&mut self) -> Option<Entry<T>> {
        self.ensure_sorted();
        self.entries.pop_back()
    }

    /// Key of the minimum entry without mutating (linear when dirty).
    fn peek_min_key(&self) -> Option<(u64, u128)> {
        if self.sorted {
            self.entries.back().map(|e| e.key())
        } else {
            self.entries.iter().map(|e| e.key()).min()
        }
    }
}

/// One level: 256 slots plus a 256-bit occupancy bitmap for find-first-set
/// scans.
#[derive(Debug)]
struct Level<T> {
    slots: Vec<Slot<T>>,
    occupied: [u64; SLOTS / 64],
}

impl<T> Level<T> {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
            occupied: [0; SLOTS / 64],
        }
    }

    fn mark(&mut self, i: usize) {
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.occupied[i / 64] &= !(1 << (i % 64));
    }

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
    /// Higher-level slots cascaded (drained and re-placed) so far.
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
    levels: Vec<Level<T>>,
    overflow: BinaryHeap<Reverse<HeapEntry<T>>>,
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
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
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

    /// Schedule `value` at absolute `time` (nanoseconds). Entries at equal
    /// times pop FIFO (monotone sequence tie-break).
    pub fn schedule(&mut self, time: u64, value: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.place(Entry { time, seq, value });
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
        self.len += 1;
        self.place(Entry {
            time,
            seq: key,
            value,
        });
    }

    /// Place (or re-place, during cascades) one entry relative to the
    /// current cursor.
    fn place(&mut self, e: Entry<T>) {
        // Entries in the past are clamped into the cursor's slot; the
        // (time, seq) sort inside the slot restores the heap's order.
        let tick = (e.time >> TICK_SHIFT).max(self.cursor);
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
            self.overflow.push(Reverse(HeapEntry(e)));
            return;
        };
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level].slots[slot].push(e);
        self.levels[level].mark(slot);
    }

    /// Byte `level` of the cursor (the scan base for that level).
    fn base(&self, level: usize) -> usize {
        ((self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// Pop the minimum-`(time, seq)` entry, advancing the cursor.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.pop_entry().map(|e| (e.time, e.value))
    }

    /// Pop the minimum entry together with its tie-break key. Used by
    /// keyed wheels (see [`TimerWheel::schedule_keyed`]) where the key
    /// carries meaning beyond FIFO ordering.
    pub fn pop_keyed(&mut self) -> Option<(u64, u128, T)> {
        self.pop_entry().map(|e| (e.time, e.seq, e.value))
    }

    fn pop_entry(&mut self) -> Option<Entry<T>> {
        loop {
            // Level 0 holds exactly the current 256-tick window; its first
            // occupied slot contains the global minimum.
            if let Some(i) = self.levels[0].first_occupied_from(self.base(0)) {
                let slot = &mut self.levels[0].slots[i];
                let e = slot.pop_min().expect("occupied bit set on empty slot"); // lint: allow(panic): occupancy bitmap invariant
                if slot.entries.is_empty() {
                    self.levels[0].clear(i);
                }
                self.len -= 1;
                self.cursor = self.cursor.max(e.time >> TICK_SHIFT);
                return Some(e);
            }
            // Level 0 exhausted: cascade the next occupied higher-level
            // slot into the lower levels and retry.
            let mut cascaded = false;
            for level in 1..LEVELS {
                if let Some(j) = self.levels[level].first_occupied_from(self.base(level)) {
                    let entries = std::mem::take(&mut self.levels[level].slots[j].entries);
                    self.levels[level].slots[j].sorted = true;
                    self.levels[level].clear(j);
                    // Move the cursor to the start of that slot's window:
                    // keep bytes above `level`, set byte `level` to j, zero
                    // the rest.
                    let w = SLOT_BITS * level as u32;
                    self.cursor = ((self.cursor >> (w + SLOT_BITS)) << (w + SLOT_BITS))
                        | (j as u64) << w;
                    self.stats.cascades += 1;
                    self.stats.cascaded_entries += entries.len() as u64;
                    for e in entries {
                        self.place(e);
                    }
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                continue;
            }
            // All wheels empty: promote the next overflow epoch, if any.
            let epoch = match self.overflow.peek() {
                Some(Reverse(HeapEntry(e))) => (e.time >> TICK_SHIFT) >> (SLOT_BITS * 4),
                None => return None,
            };
            self.cursor = epoch << (SLOT_BITS * 4);
            while let Some(Reverse(HeapEntry(e))) = self.overflow.peek() {
                if (e.time >> TICK_SHIFT) >> (SLOT_BITS * 4) != epoch {
                    break;
                }
                let Reverse(HeapEntry(e)) = self.overflow.pop().expect("peeked"); // lint: allow(panic): peek above proved non-empty
                self.place(e);
            }
        }
    }

    /// Time of the minimum pending entry, without mutating. A read-only
    /// version of the [`TimerWheel::pop`] scan: the first occupied slot of
    /// the lowest non-empty level holds the global minimum.
    pub fn peek_time(&self) -> Option<u64> {
        for level in 0..LEVELS {
            if let Some(i) = self.levels[level].first_occupied_from(self.base(level)) {
                let (time, _) = self.levels[level].slots[i]
                    .peek_min_key()
                    .expect("occupied bit set on empty slot"); // lint: allow(panic): occupancy bitmap invariant
                return Some(time);
            }
        }
        self.overflow.peek().map(|Reverse(HeapEntry(e))| e.time)
    }

    /// `(time, key)` of the minimum pending entry. Same scan as
    /// [`TimerWheel::peek_time`]; correct for the key too because
    /// entries at equal times always share a slot (placement is a pure
    /// function of tick and cursor), so the slot minimum is the global
    /// minimum. Takes `&mut self` to sort a dirty head slot once — the
    /// pop that follows needs it sorted anyway — instead of scanning it
    /// on every peek.
    pub fn peek_key(&mut self) -> Option<(u64, u128)> {
        for level in 0..LEVELS {
            if let Some(i) = self.levels[level].first_occupied_from(self.base(level)) {
                let slot = &mut self.levels[level].slots[i];
                slot.ensure_sorted();
                let key = slot.peek_min_key().expect("occupied bit set on empty slot"); // lint: allow(panic): occupancy bitmap invariant
                return Some(key);
            }
        }
        self.overflow
            .peek()
            .map(|Reverse(HeapEntry(e))| (e.time, e.seq))
    }

    /// Visit every pending entry as `(time, seq, &value)`, in storage
    /// order (not pop order — sort by `(time, seq)` for that). Borrows
    /// only; the caller decides what to clone. Walks the occupancy
    /// bitmaps, so the cost scales with pending entries, not with the
    /// 1024 slots of the wheel.
    pub fn iter(&self) -> Vec<(u64, u128, &T)> {
        let mut v = Vec::with_capacity(self.len);
        for l in &self.levels {
            for (w, &bits) in l.occupied.iter().enumerate() {
                let mut b = bits;
                while b != 0 {
                    let i = b.trailing_zeros() as usize;
                    b &= b - 1;
                    for e in &l.slots[(w << 6) | i].entries {
                        v.push((e.time, e.seq, &e.value));
                    }
                }
            }
        }
        for Reverse(HeapEntry(e)) in &self.overflow {
            v.push((e.time, e.seq, &e.value));
        }
        v
    }
}

/// The binary-heap event queue the wheel replaced, kept as the reference
/// implementation: the propcheck equivalence suite drives both with
/// identical schedules and asserts identical pop order, and the
/// microbenches race them head-to-head.
#[derive(Debug)]
pub struct BaselineHeapQueue<T> {
    heap: BinaryHeap<Reverse<HeapEntry<T>>>,
    next_seq: u128,
}

impl<T> Default for BaselineHeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BaselineHeapQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        BaselineHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `value` at absolute `time` (nanoseconds).
    pub fn schedule(&mut self, time: u64, value: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(HeapEntry(Entry { time, seq, value })));
    }

    /// Time of the earliest pending entry.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(HeapEntry(e))| e.time)
    }

    /// Pop the earliest pending entry.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|Reverse(HeapEntry(e))| (e.time, e.value))
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
            5 << TICK_SHIFT,                   // level 0
            300 << TICK_SHIFT,                 // level 1
            70_000 << TICK_SHIFT,              // level 2
            20_000_000 << TICK_SHIFT,          // level 3
            (1u64 << 33) << TICK_SHIFT,        // overflow
            7,                                 // sub-tick, level 0
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
    fn past_schedules_clamp_but_keep_heap_order() {
        let mut w = TimerWheel::new();
        let mut h = BaselineHeapQueue::new();
        // Advance the wheel cursor far forward…
        w.schedule(1 << 30, 0u64);
        h.schedule(1 << 30, 0u64);
        assert_eq!(w.pop(), h.pop());
        // …then schedule into the past, twice, out of order.
        for &t in &[5_000u64, 100, 2 << 30, 7] {
            w.schedule(t, t);
            h.schedule(t, t);
        }
        for _ in 0..4 {
            assert_eq!(w.pop(), h.pop());
        }
    }

    #[test]
    fn interleaved_schedule_pop_matches_heap() {
        let mut w = TimerWheel::new();
        let mut h = BaselineHeapQueue::new();
        // Deterministic scramble covering re-entrant scheduling around the
        // cursor, duplicates, and multi-level spreads.
        let mut x = 0x9E3779B97F4A7C15u64;
        for round in 0..5_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let t = (x >> 16) % 50_000_000;
            w.schedule(t, round);
            h.schedule(t, round);
            if round % 3 == 0 {
                assert_eq!(w.pop(), h.pop());
            }
        }
        loop {
            let (a, b) = (w.pop(), h.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn iter_sees_every_pending_entry() {
        let mut w = TimerWheel::new();
        for &t in &[10u64, 5_000_000, 1 << 50] {
            w.schedule(t, t);
        }
        let mut seen: Vec<(u64, u128)> = w.iter().into_iter().map(|(t, s, _)| (t, s)).collect();
        seen.sort_unstable();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], (10, 0));
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
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
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
        // Same-tick FIFO bursts take the push_front fast path; verify the
        // slot never goes unsorted (O(1) pops).
        let mut w = TimerWheel::new();
        for i in 0..10_000u64 {
            w.schedule(42, i);
        }
        assert!(w.levels[0].slots[0].sorted, "FIFO burst must stay sorted");
        for i in 0..10_000u64 {
            assert_eq!(w.pop(), Some((42, i)));
        }
    }
}
