//! Property-based tests of the simulator substrate: prefixes, flow keys,
//! event ordering, and routing invariants (via the in-tree `propcheck`
//! engine).

use dui_netsim::event::{Event, EventQueue};
use dui_netsim::packet::{Addr, FlowKey, Prefix};
use dui_netsim::time::{Bandwidth, SimDuration, SimTime};
use dui_netsim::topology::{NodeId, Routing, TopologyBuilder};
use dui_netsim::wheel::TimerWheel;
use dui_stats::{prop_assert, prop_assert_eq, prop_check, Rng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

prop_check! {
    fn prefix_contains_its_network_address(g) {
        let addr = g.any_u32();
        let len = g.u8(0..33);
        let p = Prefix::new(Addr(addr), len);
        prop_assert!(p.contains(p.addr));
    }

    fn prefix_longer_is_subset(g) {
        let addr = g.any_u32();
        let len = g.u8(0..32);
        let probe = g.any_u32();
        let longer = Prefix::new(Addr(addr), len + 1);
        let shorter = Prefix::new(Addr(addr), len);
        if longer.contains(Addr(probe)) {
            prop_assert!(shorter.contains(Addr(probe)));
        }
    }

    fn flowkey_reverse_involution(g) {
        let (src, dst) = (g.any_u32(), g.any_u32());
        let (sport, dport) = (g.any_u16(), g.any_u16());
        let k = FlowKey::tcp(Addr(src), sport, Addr(dst), dport);
        prop_assert_eq!(k.reversed().reversed(), k);
    }

    fn flowkey_digest_deterministic(g) {
        let (src, dst) = (g.any_u32(), g.any_u32());
        let (sport, dport) = (g.any_u16(), g.any_u16());
        let salt = g.any_u64();
        let k = FlowKey::tcp(Addr(src), sport, Addr(dst), dport);
        prop_assert_eq!(k.digest(salt), k.digest(salt));
    }

    fn event_queue_pops_in_time_order(g) {
        let times = g.vec(1..200, |g| g.u64(0..1_000_000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), Event::Timer { node: NodeId(0), token: i as u64 });
        }
        let mut prev = SimTime(0);
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= prev);
            prev = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    fn event_queue_fifo_at_equal_times(g) {
        let n = g.usize(1..100);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime(42), Event::Timer { node: NodeId(0), token: i as u64 });
        }
        for i in 0..n {
            match q.pop() {
                Some((_, Event::Timer { token, .. })) => prop_assert_eq!(token, i as u64),
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
    }

    fn serialization_delay_monotone_in_size(g) {
        let bw = Bandwidth::bps(g.u64(1_000..10_000_000_000));
        let a = g.any_u16();
        let b = g.any_u16();
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bw.serialization_delay(small as u32) <= bw.serialization_delay(large as u32));
    }
}

prop_check! {
    cases = 48;
    fn ring_routing_is_loop_free_and_symmetric_in_length(g) {
        // Build a ring of routers and check every pair routes with a path
        // no longer than ceil(n/2) hops and no repeated nodes.
        let n = g.usize(3..12);
        let mut b = TopologyBuilder::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| b.router(&format!("r{i}"))).collect();
        for i in 0..n {
            b.link(
                nodes[i],
                nodes[(i + 1) % n],
                Bandwidth::mbps(10),
                SimDuration::from_millis(1),
                8,
            );
        }
        let topo = b.build();
        let routing = Routing::shortest_paths(&topo);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let path = routing.path(nodes[i], nodes[j]).expect("ring is connected");
                let distinct: std::collections::HashSet<_> = path.iter().collect();
                prop_assert_eq!(distinct.len(), path.len(), "loop-free");
                prop_assert!(path.len() - 1 <= n / 2 + 1, "near-shortest");
                // Path lengths are symmetric on a uniform ring.
                let back = routing.path(nodes[j], nodes[i]).expect("connected");
                prop_assert_eq!(back.len(), path.len());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Timer-wheel / baseline-heap equivalence and generational-handle safety.
// ---------------------------------------------------------------------------

/// The binary-heap event queue the wheel replaced, kept here as the
/// reference model: `(time, seq)` order with a monotone `seq`, nothing
/// else. Every wheel property below is "the wheel pops what this pops".
#[derive(Default)]
struct BaselineHeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    next_seq: u64,
}

impl BaselineHeapQueue {
    fn schedule(&mut self, time: u64, value: u64) {
        self.heap.push(Reverse((time, self.next_seq, value)));
        self.next_seq += 1;
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((t, _, _))| t)
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        self.heap.pop().map(|Reverse((t, _, v))| (t, v))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// A schedule distance drawn so every wheel level — and the overflow
/// heap — participates.
fn any_scale_delta(g: &mut dui_stats::propcheck::Gen) -> u64 {
    match g.u8(0..6) {
        0 => g.u64(0..1 << 10), // same tick
        1 => g.u64(0..1 << 18), // level 0
        2 => g.u64(0..1 << 26), // level 1
        3 => g.u64(0..1 << 34), // level 2
        4 => g.u64(0..1 << 42), // level 3
        _ => g.u64(0..1 << 50), // overflow
    }
}

prop_check! {
    fn wheel_matches_heap_on_arbitrary_sequences(g) {
        // Drive the hierarchical wheel and the reference binary heap with
        // the same arbitrary interleaving of schedules and pops.
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut heap = BaselineHeapQueue::default();
        let ops = g.usize(1..300);
        let mut clock = 0u64;
        let mut payload = 0u64;
        for _ in 0..ops {
            if g.bool() || wheel.is_empty() {
                // Schedule at now + a delta spanning sub-tick to far-future.
                let t = clock.saturating_add(any_scale_delta(g));
                wheel.schedule(t, payload);
                heap.schedule(t, payload);
                payload += 1;
            } else {
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                let a = wheel.pop();
                let b = heap.pop();
                prop_assert_eq!(a, b, "pop order diverged");
                if let Some((t, _)) = a {
                    clock = clock.max(t);
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain: the full residual order must match exactly.
        while !wheel.is_empty() {
            prop_assert_eq!(wheel.pop(), heap.pop());
        }
        prop_assert_eq!(heap.len(), 0);
    }

    fn wheel_pop_due_is_peek_then_pop(g) {
        // `pop_due(limit)` must be exactly "`peek_time() <= limit`, then
        // `pop()`" — under random limits (before, at and far beyond the
        // head), at every level and out of the overflow heap — and a
        // refusal must leave the wheel as it was: whatever is scheduled
        // right after it, including into the past of the cursor and
        // between the last pop and the refused limit, still pops in heap
        // order.
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut heap = BaselineHeapQueue::default();
        let mut clock = 0u64;
        let mut payload = 0u64;
        let mut refused_at: Option<u64> = None;
        for _ in 0..g.usize(1..300) {
            if g.bool() || heap.len() == 0 {
                let t = match (refused_at.take(), g.u8(0..4)) {
                    (Some(limit), 0) => g.u64(clock..limit.saturating_add(1)),
                    (Some(_), 1) | (None, 0) => clock.saturating_sub(any_scale_delta(g)),
                    _ => clock.saturating_add(any_scale_delta(g)),
                };
                wheel.schedule(t, payload);
                heap.schedule(t, payload);
                payload += 1;
            } else {
                let head = heap.peek_time().expect("non-empty");
                let limit = match g.u8(0..5) {
                    0 => head.saturating_sub(1 + any_scale_delta(g)),
                    1 => head.saturating_sub(1),
                    2 => head,
                    3 => head.saturating_add(any_scale_delta(g)),
                    _ => u64::MAX,
                };
                let want = if head <= limit { heap.pop() } else { None };
                prop_assert_eq!(wheel.pop_due(limit), want, "limit {limit}, head {head}");
                refused_at = match want {
                    Some((t, _)) => {
                        clock = clock.max(t);
                        None
                    }
                    None => Some(limit.max(clock)),
                };
            }
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            prop_assert_eq!(wheel.len(), heap.len());
        }
        while let Some(want) = heap.pop() {
            prop_assert_eq!(wheel.pop_due(want.0), Some(want));
        }
        prop_assert!(wheel.pop_due(u64::MAX).is_none() && wheel.is_empty());
    }

    fn keyed_wheel_peeks_always_name_the_next_pop(g) {
        // A keyed wheel (the parallel engine's per-domain queue) against
        // an ordered map, under arbitrary interleavings of keyed
        // schedules — at every level, beyond the horizon, and in the past
        // of the cursor (clamped into its slot) — and pops: before every
        // pop, `peek_key` and `peek_time` must already name it. Keys are
        // wide (final-key and provisional-bit shapes) and out of order.
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        let mut model = std::collections::BTreeMap::new();
        let mut clock = 0u64;
        for serial in 0..g.u64(1..300) {
            if g.bool() || model.is_empty() {
                let scale = 10 + 8 * g.u32(0..6); // same tick … past the horizon
                let delta = g.u64(0..1 << scale);
                let time = if g.u8(0..4) == 0 {
                    clock.saturating_sub(delta)
                } else {
                    clock.saturating_add(delta)
                };
                // Unique by the serial; ordered by the random high bits.
                let key = (g.any_u64() as u128) << 64 | (g.any_u32() as u128) << 32 | serial as u128;
                wheel.schedule_keyed(time, key, serial);
                model.insert((time, key), serial);
            } else {
                let want = model.pop_first().map(|((t, k), v)| (t, k, v));
                prop_assert_eq!(wheel.peek_time(), want.map(|(t, _, _)| t));
                prop_assert_eq!(wheel.peek_key(), want.map(|(t, k, _)| (t, k)));
                prop_assert_eq!(wheel.pop_keyed(), want, "pop order diverged");
                clock = clock.max(want.map_or(0, |(t, _, _)| t));
            }
            prop_assert_eq!(wheel.len(), model.len());
        }
        while let Some(((t, k), v)) = model.pop_first() {
            prop_assert_eq!(wheel.peek_time(), Some(t));
            prop_assert_eq!(wheel.peek_key(), Some((t, k)));
            prop_assert_eq!(wheel.pop_keyed(), Some((t, k, v)));
        }
        prop_assert!(wheel.is_empty() && wheel.peek_key().is_none());
    }

    fn wheel_fifo_among_equal_times_any_scale(g) {
        // Bursts at the same timestamp must pop in schedule order no
        // matter which level the timestamp lands on.
        let t = g.any_u64() >> g.u8(0..33);
        let n = g.usize(2..64);
        let mut wheel: TimerWheel<usize> = TimerWheel::new();
        for i in 0..n {
            wheel.schedule(t, i);
        }
        for want in 0..n {
            match wheel.pop() {
                Some((pt, got)) => {
                    prop_assert_eq!(pt, t);
                    prop_assert_eq!(got, want, "FIFO at equal times");
                }
                None => prop_assert!(false, "wheel drained early"),
            }
        }
    }

    fn stale_packet_ref_is_typed_error_never_wrong_packet(g) {
        use dui_netsim::arena::PacketArena;
        use dui_netsim::packet::Packet;
        // Arbitrary insert/take churn; afterwards every retired handle
        // must yield StaleRef (with honest metadata) and every live handle
        // must still read back its own payload.
        let mut arena = PacketArena::new();
        let mut live: Vec<(dui_netsim::arena::PacketRef, u32)> = Vec::new();
        let mut dead: Vec<dui_netsim::arena::PacketRef> = Vec::new();
        let ops = g.usize(1..200);
        let mut stamp = 0u32;
        for _ in 0..ops {
            if g.bool() || live.is_empty() {
                let key = FlowKey::udp(Addr(g.any_u32()), g.any_u16(), Addr(g.any_u32()), g.any_u16());
                let mut p = Packet::udp(key, 64);
                p.payload = stamp;
                live.push((arena.insert(p), stamp));
                stamp += 1;
            } else {
                let i = g.usize(0..live.len());
                let (r, tag) = live.swap_remove(i);
                let p = arena.take(r).expect("live handle must take");
                prop_assert_eq!(p.payload, tag, "take returned the wrong packet");
                dead.push(r);
            }
        }
        for (r, tag) in &live {
            prop_assert_eq!(arena.get(*r).expect("live handle must read").payload, *tag);
        }
        for r in &dead {
            match arena.get(*r) {
                Ok(p) => prop_assert!(false, "stale handle read a packet: payload={}", p.payload),
                Err(e) => {
                    prop_assert_eq!(e.idx, r.index());
                    prop_assert_eq!(e.expected_gen, r.generation());
                    prop_assert!(
                        e.vacant || e.current_gen != r.generation(),
                        "stale error must show a vacated or recycled slot"
                    );
                }
            }
        }
        prop_assert_eq!(arena.live(), live.len());
    }
}

// ---------------------------------------------------------------------------
// Timer-wheel fixed cases: heap races, the no-cliff bound, the stated bounds.
// ---------------------------------------------------------------------------

#[test]
fn wheel_past_schedules_clamp_but_keep_heap_order() {
    let mut w = TimerWheel::new();
    let mut h = BaselineHeapQueue::default();
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
fn wheel_interleaved_schedule_pop_matches_heap() {
    let mut w = TimerWheel::new();
    let mut h = BaselineHeapQueue::default();
    // Deterministic scramble covering re-entrant scheduling around the
    // cursor, duplicates, and multi-level spreads.
    let mut x = 0x9E3779B97F4A7C15u64;
    for round in 0..5_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
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

/// Entries per no-cliff / stated-bound case.
const MANY: u64 = 100_000;

#[test]
fn wheel_one_slot_drains_without_a_cliff() {
    // Everything in one level-0 slot, the two ways a slot fills: random
    // 128-bit keys (a short walk, then one sort) and a same-time FIFO
    // burst (appends only). Either is linearithmic at worst and takes
    // milliseconds; a quadratic walk over 10^5 entries takes minutes. The
    // drains run on a spawned thread behind `recv_timeout`, so "under a
    // second" is a failure, not a slow suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mut rng = Rng::new(17);
        let mut w: TimerWheel<u64> = TimerWheel::new();
        let mut keys: Vec<(u64, u128)> = (0..MANY)
            .map(|_| {
                (
                    rng.next_u64() % 1024,
                    (rng.next_u64() as u128) << 64 | rng.next_u64() as u128,
                )
            })
            .collect();
        for (i, &(t, k)) in keys.iter().enumerate() {
            w.schedule_keyed(t, k, i as u64);
        }
        keys.sort_unstable();
        for &(t, k) in &keys {
            let (pt, pk, _) = w.pop_keyed().expect("entry");
            assert_eq!((pt, pk), (t, k));
        }
        assert!(w.is_empty());
        for i in 0..MANY {
            w.schedule(123_456, i);
        }
        for i in 0..MANY {
            assert_eq!(w.pop(), Some((123_456, i)));
        }
        let _ = tx.send(());
    });
    let done = rx.recv_timeout(std::time::Duration::from_secs(1));
    if done == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
        panic!("10^5 entries in one slot took over a second to drain");
    }
    worker.join().expect("drain order");
}

#[test]
fn wheel_overflow_defers_counts_and_promotes_in_order() {
    // The 4-level horizon is 2^32 ticks (2^42 ns, ~73 min). Entries past
    // it — here over five later epochs — wait in the overflow heap, each
    // counted once by `deferred`, and come back epoch by epoch in exact
    // `(time, seq)` order.
    const EPOCH: u64 = 1 << 42;
    let mut rng = Rng::new(5);
    let mut w: TimerWheel<u64> = TimerWheel::new();
    let mut h = BaselineHeapQueue::default();
    w.schedule(1_000, u64::MAX);
    h.schedule(1_000, u64::MAX);
    for i in 0..MANY {
        // Coarse offsets, so equal times (seq tie-breaks) are common.
        let t = EPOCH * (1 + rng.next_u64() % 5) + (rng.next_u64() % 4096) * (EPOCH / 4096);
        w.schedule(t, i);
        h.schedule(t, i);
    }
    assert_eq!(w.stats().deferred, MANY);
    assert_eq!(
        w.stats().cascades,
        0,
        "nothing beyond the horizon is in a slot"
    );
    assert_eq!(w.pop_due(EPOCH - 1), h.pop());
    assert_eq!(
        w.pop_due(EPOCH - 1),
        None,
        "no epoch is promoted before it is due"
    );
    assert_eq!(w.slab_len() as u64, MANY + 1);
    let mut epochs_seen = 0;
    let mut last_epoch = 0;
    while let Some(want) = h.pop() {
        assert_eq!(w.pop(), Some(want));
        if want.0 / EPOCH != last_epoch {
            last_epoch = want.0 / EPOCH;
            epochs_seen += 1;
        }
    }
    assert_eq!(epochs_seen, 5);
    assert!(w.is_empty());
    assert_eq!(
        w.stats().deferred,
        MANY,
        "a promotion is not a second deferral"
    );
}
