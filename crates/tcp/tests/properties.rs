//! Property-based tests of the TCP machinery: sequence arithmetic, RTT
//! estimation bounds, receiver reassembly invariants, generational
//! flow-pool handle safety, and RFC 9293 state-machine legality (via
//! the in-tree `propcheck` engine).
//!
//! The pool and lifecycle properties are the safety net for the pool's
//! storage layout:
//!
//! 1. **Generational handle safety.** Random interleavings of
//!    insert/free/op calls never panic, freed handles always come back
//!    `Err(StaleFlowRef)`, and recycled slots carry fresh generations —
//!    the use-after-free class the pool was designed to make loud.
//! 2. **Per-kind rows.** Slots and the sender and receiver row tables
//!    recycle independently, yet every live handle reads exactly the
//!    state a pool holding that flow alone would hold, and the
//!    checkpoint codec reproduces the pool's state digest.
//! 3. **Output lists.** Every slot's staged output, threaded through the
//!    pool-wide packet slab, drains as a FIFO of exactly what that slot
//!    emitted, whether through `take_out` or `drain_out`; packets never
//!    cross slots, and a freed slot's undrained packets are gone.
//! 4. **Forged ACKs.** An ACK beyond `snd_nxt` — for data the sender
//!    never sent — changes nothing, in any state (RFC 9293 §3.10.7.4).
//! 5. **State-machine legality.** A sender/receiver pair driven over a
//!    lossy, reordering, duplicating network only ever moves along the
//!    RFC 9293 transition diagram (or stays put): no path back out of
//!    CLOSED, no jumps the diagram does not connect.

use dui_netsim::packet::{Addr, FlowKey, Packet, TcpFlags};
use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::digest::StateDigest;
use dui_stats::{prop_assert, prop_assert_eq, prop_assert_ne, prop_check};
use dui_tcp::seq::{seq_dist, seq_ge, seq_gt, seq_le, seq_lt};
use dui_tcp::{FlowKind, FlowPool, FlowRef, RttEstimator, TcpSenderConfig, TcpState};
use std::collections::VecDeque;

fn pool_key(sport: u16) -> FlowKey {
    FlowKey::tcp(
        Addr::new(10, 0, 0, 1),
        sport.max(1),
        Addr::new(10, 0, 0, 2),
        80,
    )
}

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

const ALL_STATES: [TcpState; 12] = [
    TcpState::Idle,
    TcpState::Listen,
    TcpState::SynSent,
    TcpState::SynRcvd,
    TcpState::Established,
    TcpState::FinWait1,
    TcpState::FinWait2,
    TcpState::Closing,
    TcpState::CloseWait,
    TcpState::LastAck,
    TcpState::TimeWait,
    TcpState::Closed,
];

/// Direct edges of the RFC 9293 connection-state diagram, plus the
/// model's two openings out of `Idle` (handshake and legacy).
fn legal_edge(a: TcpState, b: TcpState) -> bool {
    use TcpState::*;
    matches!(
        (a, b),
        (Idle, SynSent)
            | (Idle, Established)
            | (Listen, SynRcvd)
            | (SynSent, Established)
            | (SynRcvd, Established)
            | (SynRcvd, FinWait1)
            | (Established, FinWait1)
            | (Established, CloseWait)
            | (FinWait1, FinWait2)
            | (FinWait1, Closing)
            | (FinWait1, TimeWait)
            | (FinWait2, TimeWait)
            | (Closing, TimeWait)
            | (CloseWait, LastAck)
            | (LastAck, Closed)
            | (TimeWait, Closed)
    )
}

/// Is `b` reachable from `a` along legal edges? A single API call may
/// traverse several edges internally (e.g. a FIN+ACK collapsing
/// FIN-WAIT-1 straight into TIME-WAIT), so observed transitions are
/// checked against the closure, not single edges.
fn legal_path(a: TcpState, b: TcpState) -> bool {
    if a == b {
        return true;
    }
    let mut seen = vec![a];
    let mut frontier = vec![a];
    while let Some(x) = frontier.pop() {
        for c in ALL_STATES {
            if legal_edge(x, c) && !seen.contains(&c) {
                if c == b {
                    return true;
                }
                seen.push(c);
                frontier.push(c);
            }
        }
    }
    false
}

prop_check! {
    fn seq_ordering_antisymmetric(g) {
        let (a, b) = (g.any_u32(), g.any_u32());
        if a != b {
            prop_assert_ne!(seq_lt(a, b), seq_lt(b, a));
        } else {
            prop_assert!(!seq_lt(a, b) && !seq_lt(b, a));
        }
    }

    fn seq_le_ge_consistent(g) {
        let (a, b) = (g.any_u32(), g.any_u32());
        prop_assert_eq!(seq_le(a, b), !seq_lt(b, a) || a == b);
        prop_assert_eq!(seq_ge(a, b), seq_le(b, a));
    }

    fn seq_dist_translation_invariant(g) {
        let (a, b, shift) = (g.any_u32(), g.any_u32(), g.any_u32());
        prop_assert_eq!(
            seq_dist(a, b),
            seq_dist(a.wrapping_add(shift), b.wrapping_add(shift))
        );
    }

    fn rto_always_within_bounds(g) {
        let samples = g.vec(0..100, |g| g.u64(1..10_000));
        let mut e = RttEstimator::default();
        for ms in samples {
            e.sample(SimDuration::from_millis(ms));
            prop_assert!(e.rto() >= SimDuration::from_secs(1));
            prop_assert!(e.rto() <= SimDuration::from_secs(60));
        }
    }

    fn rto_backoff_monotone(g) {
        let timeouts = g.usize(1..20);
        let mut e = RttEstimator::default();
        e.sample(SimDuration::from_millis(500));
        let mut prev = e.rto();
        for _ in 0..timeouts {
            e.on_timeout();
            prop_assert!(e.rto() >= prev);
            prev = e.rto();
        }
    }

    fn receiver_delivers_each_byte_once(g) {
        // Deliver 20 segments of 100 B in arbitrary (repeating) order; the
        // receiver must deliver exactly the contiguous prefix it has, and
        // never more than 2000 bytes total.
        let order = g.vec(1..60, |g| g.usize(0..20));
        let key = FlowKey::tcp(Addr::new(1, 0, 0, 1), 1, Addr::new(2, 0, 0, 2), 80);
        let mut p = FlowPool::new();
        let r = p.insert_receiver(key, 1);
        let mut seen = std::collections::HashSet::new();
        for idx in order {
            let seq = 1 + (idx as u32) * 100;
            let pkt = Packet::tcp(key, seq, 0, TcpFlags::default(), 100);
            p.on_segment(r, SimTime::ZERO, &pkt).unwrap();
            seen.insert(idx);
            let delivered = p.receiver_stats(r).unwrap().bytes_delivered;
            prop_assert!(delivered <= 2000);
            // Delivered = length of the contiguous prefix present.
            let mut prefix = 0;
            while seen.contains(&prefix) {
                prefix += 1;
            }
            prop_assert_eq!(delivered, prefix as u64 * 100);
        }
    }

    fn receiver_acks_are_cumulative_and_monotone(g) {
        let order = g.vec(1..40, |g| g.usize(0..15));
        let key = FlowKey::tcp(Addr::new(1, 0, 0, 1), 1, Addr::new(2, 0, 0, 2), 80);
        let mut p = FlowPool::new();
        let r = p.insert_receiver(key, 0);
        let mut prev_ack = 0u32;
        for idx in order {
            let seq = (idx as u32) * 100;
            let pkt = Packet::tcp(key, seq, 0, TcpFlags::default(), 100);
            p.on_segment(r, SimTime::ZERO, &pkt).unwrap();
            for ack_pkt in p.take_out(r).unwrap() {
                if let dui_netsim::packet::Header::Tcp { ack, .. } = ack_pkt.header {
                    prop_assert!(seq_ge(ack, prev_ack), "acks never regress");
                    prev_ack = ack;
                }
            }
        }
    }

    fn pool_ops_on_freed_handles_always_err(g) {
        let mut pool = FlowPool::new();
        let mut live: Vec<(FlowRef, FlowKind)> = Vec::new();
        let mut dead: Vec<FlowRef> = Vec::new();
        let steps = g.usize(1..120);
        for step in 0..steps {
            let now = t(step as u64 * 10);
            match g.u32(0..8) {
                0 => {
                    let r = pool.insert_sender(
                        pool_key(g.any_u16()),
                        TcpSenderConfig::default(),
                        g.any_u32(),
                    );
                    live.push((r, FlowKind::Sender));
                }
                1 => {
                    let r = pool.insert_receiver(pool_key(g.any_u16()), g.any_u32());
                    live.push((r, FlowKind::Receiver));
                }
                2 => {
                    let r = pool.insert_listener(pool_key(g.any_u16()));
                    live.push((r, FlowKind::Receiver));
                }
                3 if !live.is_empty() => {
                    let i = g.usize(0..live.len());
                    let (r, _) = live.swap_remove(i);
                    prop_assert!(pool.free(r).is_ok(), "freeing a live handle");
                    dead.push(r);
                }
                4 if !live.is_empty() => {
                    // Kind-agnostic ops on a live handle all succeed.
                    let (r, kind) = live[g.usize(0..live.len())];
                    prop_assert_eq!(pool.kind(r), Ok(kind));
                    prop_assert!(pool.state(r).is_ok());
                    prop_assert!(pool.key(r).is_ok());
                    prop_assert!(pool.is_done(r).is_ok());
                    prop_assert!(pool.next_event_time(r).is_ok());
                    prop_assert!(pool.take_out(r).is_ok());
                    prop_assert!(pool.on_tick(r, now).is_ok());
                }
                5 if !live.is_empty() => {
                    // Kind-specific ops dispatched by the tracked kind.
                    let (r, kind) = live[g.usize(0..live.len())];
                    match kind {
                        FlowKind::Sender => prop_assert!(pool.sender_stats(r).is_ok()),
                        FlowKind::Receiver => {
                            prop_assert!(pool.receiver_stats(r).is_ok());
                            prop_assert!(pool.set_advertised_window(r, 65535).is_ok());
                        }
                    }
                }
                _ if !dead.is_empty() => {
                    // Every accessor — read, mutate, or re-free — rejects
                    // a freed handle instead of touching the slot.
                    let r = dead[g.usize(0..dead.len())];
                    prop_assert!(pool.state(r).is_err());
                    prop_assert!(pool.kind(r).is_err());
                    prop_assert!(pool.key(r).is_err());
                    prop_assert!(pool.is_done(r).is_err());
                    prop_assert!(pool.take_out(r).is_err());
                    prop_assert!(pool.on_tick(r, now).is_err());
                    prop_assert!(pool.on_start(r, now).is_err());
                    prop_assert!(pool.sender_stats(r).is_err());
                    prop_assert!(pool.free(r).is_err());
                }
                _ => {}
            }
        }
        prop_assert_eq!(pool.live(), live.len());
        prop_assert_eq!(pool.iter_refs().count(), live.len());
        for &(r, _) in &live {
            prop_assert!(pool.state(r).is_ok());
        }
        for &r in &dead {
            prop_assert!(pool.state(r).is_err());
        }
    }

    fn recycled_slots_get_fresh_generations(g) {
        let mut pool = FlowPool::new();
        let n = g.usize(1..40);
        let refs: Vec<FlowRef> =
            (0..n).map(|i| pool.insert_listener(pool_key(i as u16 + 1))).collect();
        // Free a random subset...
        let mut freed: Vec<FlowRef> = Vec::new();
        for &r in &refs {
            if g.bool() {
                prop_assert!(pool.free(r).is_ok());
                freed.push(r);
            }
        }
        // ...then refill. The LIFO free list must hand the freed slots
        // back (capacity unchanged), each under a bumped generation.
        let cap_before = pool.capacity();
        let fresh: Vec<FlowRef> = (0..freed.len())
            .map(|i| {
                pool.insert_sender(pool_key(1000 + i as u16), TcpSenderConfig::default(), 1)
            })
            .collect();
        prop_assert_eq!(pool.capacity(), cap_before, "refill reuses freed slots");
        prop_assert!(pool.recycled() >= freed.len() as u64);
        for f in &fresh {
            for old in &freed {
                if f.index() == old.index() {
                    prop_assert!(
                        f.generation() != old.generation(),
                        "slot {} recycled under the same generation",
                        f.index()
                    );
                }
            }
            prop_assert!(pool.state(*f).is_ok());
        }
        for old in &freed {
            prop_assert!(pool.state(*old).is_err(), "old handle revived by recycling");
        }
        prop_assert_eq!(pool.live(), n);
    }

    fn mixed_kind_recycling_keeps_every_flow_its_own_state(g) {
        // Each live flow also lives alone in a pool of its own, where no
        // slot or row was ever recycled; both copies see the same calls.
        // Senders are admitted with a peer (`pair` names the two ends);
        // freeing either end leaves the other talking to nobody.
        struct Flow {
            r: FlowRef,
            alone: FlowPool,
            a: FlowRef,
            pair: Option<usize>,
        }
        let mut pool = FlowPool::new();
        let mut live: Vec<Flow> = Vec::new();
        let mut now = 0;
        for pair in 0..g.usize(1..200) {
            now += g.u64(1..50);
            let k = pool_key(g.any_u16());
            let isn = g.any_u32();
            match g.u32(0..8) {
                0 | 1 => {
                    let cfg = TcpSenderConfig {
                        total_bytes: Some(g.u64(0..30_000)),
                        handshake: g.bool(),
                        time_wait: SimDuration::from_millis(g.u64(1..100)),
                        ..Default::default()
                    };
                    let peer = |p: &mut FlowPool| {
                        if cfg.handshake {
                            p.insert_listener(k)
                        } else {
                            p.insert_receiver(k, isn)
                        }
                    };
                    let (mut alone_s, mut alone_r) = (FlowPool::new(), FlowPool::new());
                    let (r, a) = (pool.insert_sender(k, cfg.clone(), isn), alone_s.insert_sender(k, cfg.clone(), isn));
                    pool.on_start(r, t(now)).unwrap();
                    alone_s.on_start(a, t(now)).unwrap();
                    live.push(Flow { r, alone: alone_s, a, pair: Some(pair) });
                    let (r, a) = (peer(&mut pool), peer(&mut alone_r));
                    live.push(Flow { r, alone: alone_r, a, pair: Some(pair) });
                }
                2 | 3 => {
                    let mut alone = FlowPool::new();
                    let (r, a) = if g.bool() {
                        (pool.insert_receiver(k, isn), alone.insert_receiver(k, isn))
                    } else {
                        (pool.insert_listener(k), alone.insert_listener(k))
                    };
                    live.push(Flow { r, alone, a, pair: None });
                }
                4 if !live.is_empty() => {
                    let gone = live.swap_remove(g.usize(0..live.len()));
                    pool.free(gone.r).unwrap();
                }
                _ if !live.is_empty() => {
                    // Hand one flow's output to its peer, a segment lost
                    // now and then; a sender without a peer ticks.
                    let from = g.usize(0..live.len());
                    let to = live[from].pair.and_then(|id| {
                        (0..live.len()).find(|&j| j != from && live[j].pair == Some(id))
                    });
                    let f = &mut live[from];
                    let pkts = pool.take_out(f.r).unwrap();
                    prop_assert_eq!(&pkts, &f.alone.take_out(f.a).unwrap());
                    match to {
                        Some(j) => {
                            let f = &mut live[j];
                            for pkt in pkts.iter().filter(|_| g.u32(0..8) != 0) {
                                pool.on_segment(f.r, t(now), pkt).unwrap();
                                f.alone.on_segment(f.a, t(now), pkt).unwrap();
                            }
                        }
                        None => {
                            pool.on_tick(f.r, t(now)).unwrap();
                            f.alone.on_tick(f.a, t(now)).unwrap();
                        }
                    }
                }
                _ => {}
            }
        }
        prop_assert_eq!(pool.live(), live.len());
        for Flow { r, alone, a, .. } in &mut live {
            let kind = pool.kind(*r).unwrap();
            prop_assert_eq!(kind, alone.kind(*a).unwrap());
            prop_assert_eq!(pool.key(*r), alone.key(*a));
            prop_assert_eq!(pool.state(*r), alone.state(*a));
            prop_assert_eq!(pool.is_done(*r), alone.is_done(*a));
            prop_assert_eq!(pool.next_event_time(*r), alone.next_event_time(*a));
            match kind {
                FlowKind::Sender => prop_assert_eq!(pool.sender_stats(*r), alone.sender_stats(*a)),
                FlowKind::Receiver => {
                    prop_assert_eq!(pool.receiver_stats(*r), alone.receiver_stats(*a))
                }
            }
            prop_assert_eq!(pool.take_out(*r).unwrap(), alone.take_out(*a).unwrap());
        }
        let restored = FlowPool::from_bytes(&pool.to_bytes().unwrap()).unwrap();
        let (mut d1, mut d2) = (StateDigest::new(), StateDigest::new());
        pool.state_digest(&mut d1);
        restored.state_digest(&mut d2);
        prop_assert_eq!(d1.finish(), d2.finish(), "checkpoint changed the pool");
    }

    fn output_lists_drain_what_each_slot_emitted(g) {
        // Each flow also lives alone in a pool of its own, drained after
        // every call: what a call emits there is appended to the flow's
        // model queue, and the shared pool must drain exactly that queue.
        struct Flow {
            r: FlowRef,
            alone: FlowPool,
            a: FlowRef,
            key: FlowKey,
            isn: u32,
            started: bool,
            model: VecDeque<Packet>,
        }
        let mut pool = FlowPool::new();
        let mut live: Vec<Flow> = Vec::new();
        let mut freed: Vec<FlowRef> = Vec::new();
        let mut now = 0;
        for _ in 0..g.usize(1..300) {
            now += g.u64(0..400);
            match g.u32(0..10) {
                0 | 1 => {
                    let (key, isn) = (pool_key(g.any_u16()), g.any_u32());
                    let mut alone = FlowPool::new();
                    let (r, a) = match g.u32(0..3) {
                        0 => {
                            let cfg = TcpSenderConfig {
                                total_bytes: Some(g.u64(0..40_000)),
                                handshake: g.bool(),
                                initial_cwnd: g.f64(1.0..12.0),
                                ..Default::default()
                            };
                            let r = pool.insert_sender(key, cfg.clone(), isn);
                            (r, alone.insert_sender(key, cfg, isn))
                        }
                        1 => {
                            let r = pool.insert_receiver(key, isn);
                            (r, alone.insert_receiver(key, isn))
                        }
                        _ => (pool.insert_listener(key), alone.insert_listener(key)),
                    };
                    let model = VecDeque::new();
                    let started = false;
                    live.push(Flow { r, alone, a, key, isn, started, model });
                }
                2..=5 if !live.is_empty() => {
                    // One emitting call, made on both copies.
                    let f = g.usize(0..live.len());
                    let f = &mut live[f];
                    let at = t(now);
                    match pool.kind(f.r).unwrap() {
                        FlowKind::Sender if !f.started => {
                            f.started = true;
                            pool.on_start(f.r, at).unwrap();
                            f.alone.on_start(f.a, at).unwrap();
                        }
                        FlowKind::Sender if g.bool() => {
                            pool.on_tick(f.r, at).unwrap();
                            f.alone.on_tick(f.a, at).unwrap();
                        }
                        FlowKind::Sender => {
                            let ack = f.isn.wrapping_add(g.u32(0..20_000));
                            let flags = TcpFlags {
                                ack: true,
                                syn: g.u32(0..4) == 0,
                                ..TcpFlags::default()
                            };
                            let pkt = Packet::tcp(f.key.reversed(), 0, ack, flags, 0);
                            pool.on_segment(f.r, at, &pkt).unwrap();
                            f.alone.on_segment(f.a, at, &pkt).unwrap();
                        }
                        FlowKind::Receiver => {
                            let seq = f.isn.wrapping_add(g.u32(0..8) * 1_000);
                            let flags = TcpFlags {
                                syn: g.u32(0..4) == 0,
                                fin: g.u32(0..8) == 0,
                                ..TcpFlags::default()
                            };
                            let pkt = Packet::tcp(f.key, seq, 0, flags, g.u32(0..2) * 1_000);
                            pool.on_segment(f.r, at, &pkt).unwrap();
                            f.alone.on_segment(f.a, at, &pkt).unwrap();
                        }
                    }
                    f.model.extend(f.alone.take_out(f.a).unwrap());
                }
                6 | 7 if !live.is_empty() => {
                    let f = g.usize(0..live.len());
                    let f = &mut live[f];
                    let want: Vec<Packet> = f.model.drain(..).collect();
                    let got = if g.bool() {
                        pool.take_out(f.r).unwrap()
                    } else {
                        let mut got = Vec::new();
                        pool.drain_out(f.r, |p| got.push(p)).unwrap();
                        got
                    };
                    prop_assert_eq!(got, want);
                }
                8 if !live.is_empty() => {
                    // Undrained packets go with the flow.
                    let gone = live.swap_remove(g.usize(0..live.len()));
                    pool.free(gone.r).unwrap();
                    freed.push(gone.r);
                }
                9 if !freed.is_empty() => {
                    let r = freed[g.usize(0..freed.len())];
                    prop_assert!(pool.drain_out(r, |_| {}).is_err());
                    prop_assert!(pool.take_out(r).is_err());
                }
                _ => {}
            }
        }
        prop_assert_eq!(pool.live(), live.len());
        for f in &mut live {
            let want = Vec::from(std::mem::take(&mut f.model));
            prop_assert_eq!(pool.take_out(f.r).unwrap(), want);
        }
        prop_assert!(pool.to_bytes().is_ok(), "a drained pool checkpoints");
    }

    fn acks_beyond_snd_nxt_change_nothing(g) {
        let handshake = g.bool();
        let cfg = TcpSenderConfig {
            total_bytes: Some(g.u64(0..20_000)),
            handshake,
            time_wait: SimDuration::from_secs(2),
            ..Default::default()
        };
        let k = pool_key(g.any_u16());
        let isn = g.any_u32();
        let mut p = FlowPool::new();
        let s = p.insert_sender(k, cfg, isn);
        let r = if handshake { p.insert_listener(k) } else { p.insert_receiver(k, isn) };
        let digest = |p: &FlowPool| {
            let mut d = StateDigest::new();
            p.state_digest(&mut d);
            d.finish()
        };
        let mut now = 0u64;
        let mut started = false;
        let mut to_r: Vec<Packet> = Vec::new();
        let mut to_s: Vec<Packet> = Vec::new();
        let mut states = Vec::new();
        for _ in 0..g.usize(20..200) {
            now += g.u64(1..300);
            to_r.extend(p.take_out(s).unwrap());
            to_s.extend(p.take_out(r).unwrap());
            // The forged ACK: any seq, flags and window, an ack 1 to
            // 2³¹ − 1 past snd_nxt.
            let (una, nxt) = p.send_seq(s).unwrap();
            prop_assert!(seq_le(una, nxt), "snd_una {una} past snd_nxt {nxt}");
            let ack = nxt.wrapping_add(g.u32(1..1 << 31));
            prop_assert!(seq_gt(ack, nxt));
            let flags = TcpFlags {
                ack: true,
                syn: g.u32(0..4) == 0,
                fin: g.bool(),
                rst: g.u32(0..4) == 0,
            };
            let mut forged = Packet::tcp(k.reversed(), g.any_u32(), ack, flags, g.u32(0..1460));
            if let dui_netsim::packet::Header::Tcp { window, .. } = &mut forged.header {
                *window = g.any_u32();
            }
            let before = digest(&p);
            p.on_segment(s, t(now), &forged).unwrap();
            prop_assert_eq!(digest(&p), before, "state {:?}", p.state(s).unwrap());
            prop_assert!(p.take_out(s).unwrap().is_empty(), "a forged ACK was answered");
            states.push(p.state(s).unwrap());
            // Then one honest step: start, deliver either way, or tick.
            match g.u32(0..6) {
                _ if !started => {
                    p.on_start(s, t(now)).unwrap();
                    started = true;
                }
                0..=1 if !to_r.is_empty() => {
                    let pkt = to_r.remove(g.usize(0..to_r.len()));
                    p.on_segment(r, t(now), &pkt).unwrap();
                }
                2..=3 if !to_s.is_empty() => {
                    let pkt = to_s.remove(g.usize(0..to_s.len()));
                    p.on_segment(s, t(now), &pkt).unwrap();
                }
                _ => {
                    if let Some(due) = p.next_event_time(s).unwrap() {
                        let fire = due.max(t(now));
                        now = (fire.0 / 1_000_000).max(now);
                        p.on_tick(s, fire).unwrap();
                    }
                }
            }
        }
        prop_assert_eq!(states[0], TcpState::Idle);
    }

    fn lifecycle_transitions_stay_on_rfc9293_edges(g) {
        let cfg = TcpSenderConfig {
            total_bytes: Some(g.u64(0..20_000)),
            handshake: true,
            time_wait: SimDuration::from_secs(2),
            ..Default::default()
        };
        let k = pool_key(g.any_u16());
        let mut p = FlowPool::new();
        let s = p.insert_sender(k, cfg, g.any_u32());
        let r = p.insert_listener(k);
        let mut s_last = p.state(s).unwrap();
        let mut r_last = p.state(r).unwrap();
        prop_assert_eq!(s_last, TcpState::Idle);
        prop_assert_eq!(r_last, TcpState::Listen);
        p.on_start(s, t(0)).unwrap();

        // Two unreliable one-way channels; each step delivers, drops,
        // duplicates or reorders one in-flight segment, or fires the
        // sender's retransmission clock.
        let mut to_r: Vec<Packet> = Vec::new();
        let mut to_s: Vec<Packet> = Vec::new();
        let mut now = 0u64;
        let steps = g.usize(50..400);
        for _ in 0..steps {
            now += g.u64(1..300);
            to_r.extend(p.take_out(s).unwrap());
            to_s.extend(p.take_out(r).unwrap());
            match g.u32(0..10) {
                0..=3 if !to_r.is_empty() => {
                    // Deliver (random index = reordering); occasionally
                    // deliver a copy and keep the original in flight.
                    let i = g.usize(0..to_r.len());
                    let pkt =
                        if g.u32(0..8) == 0 { to_r[i].duplicate() } else { to_r.remove(i) };
                    p.on_segment(r, t(now), &pkt).unwrap();
                }
                4..=6 if !to_s.is_empty() => {
                    let i = g.usize(0..to_s.len());
                    let pkt =
                        if g.u32(0..8) == 0 { to_s[i].duplicate() } else { to_s.remove(i) };
                    p.on_segment(s, t(now), &pkt).unwrap();
                }
                7 if !to_r.is_empty() => {
                    to_r.remove(g.usize(0..to_r.len())); // loss
                }
                8 if !to_s.is_empty() => {
                    to_s.remove(g.usize(0..to_s.len())); // loss
                }
                _ => {
                    if let Some(due) = p.next_event_time(s).unwrap() {
                        let fire = due.max(t(now));
                        now = (fire.0 / 1_000_000).max(now);
                        p.on_tick(s, fire).unwrap();
                    }
                }
            }
            let (s_cur, r_cur) = (p.state(s).unwrap(), p.state(r).unwrap());
            prop_assert!(
                legal_path(s_last, s_cur),
                "illegal sender transition {s_last:?} -> {s_cur:?}"
            );
            prop_assert!(
                legal_path(r_last, r_cur),
                "illegal receiver transition {r_last:?} -> {r_cur:?}"
            );
            if s_last == TcpState::Closed {
                prop_assert_eq!(s_cur, TcpState::Closed, "sender left CLOSED");
            }
            if r_last == TcpState::Closed {
                prop_assert_eq!(r_cur, TcpState::Closed, "receiver left CLOSED");
            }
            s_last = s_cur;
            r_last = r_cur;
        }
    }
}
