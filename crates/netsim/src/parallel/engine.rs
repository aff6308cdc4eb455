//! Split → window loop → join: the parallel engine's orchestration.
//!
//! `run_parallel` checks the preconditions, splits the merged simulator
//! state into per-domain simulators, gives each thread its domains for
//! the whole run (the calling thread leads and owns a share; with one
//! thread it owns them all and meets nobody — the same loop either way),
//! and joins everything back into the merged simulator. All cross-thread
//! state lives behind `std::sync` primitives; the merge and the window
//! schedule are the leader's alone, so nothing observable depends on
//! thread timing or on which thread owns which domain.

use super::barrier::{merge_window, publish, pull, settle, GlobalCursors, Mailbox};
use super::domain::{run_window, DomainExt};
use super::key::initial_key;
use super::partition::{default_lookahead_floor, DomainMap};
use super::sync::{ExitGuard, WindowSync};
use super::{FallbackReason, ParallelReport};
use crate::arena::PacketArena;
use crate::event::{Event, EventQueue};
use crate::link::DirState;
use crate::sim::Simulator;
use crate::time::SimTime;
use crate::topology::NodeId;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, RwLock};
use std::thread::Thread;

/// Run the event loop to `t` under the parallel engine, or report why
/// the sequential engine must be used instead.
pub(crate) fn run_parallel(sim: &mut Simulator, t: SimTime) -> Result<ParallelReport, FallbackReason> {
    let map = match &sim.domain_map {
        Some(m) => Arc::clone(m),
        None => {
            let m = Arc::new(DomainMap::partition(
                &sim.core.topo,
                default_lookahead_floor(),
            ));
            sim.domain_map = Some(Arc::clone(&m));
            m
        }
    };
    preconditions(sim, &map)?;
    let k = map.domain_count();
    let threads = sim.sim_threads.min(k).max(1);
    let mut g = GlobalCursors {
        next_global: 0,
        next_pkt_id: sim.core.next_pkt_id,
    };
    let mut doms = split(sim, &map);
    let owner = assign(&sim.domain_load, k, threads);
    let windows = run_windows(&mut doms, &owner, threads, &map, &mut g, t);
    let load: Vec<u64> = doms.iter().map(|s| domain_ext(s).dispatched).collect();
    let mut per_thread = vec![0u64; threads];
    for (d, n) in load.iter().enumerate() {
        per_thread[owner[d]] += n;
    }
    let events = load.iter().sum();
    if events > 0 {
        sim.domain_load = load;
    }
    join(sim, doms, &g, &map, t);
    Ok(ParallelReport {
        domains: k,
        threads,
        windows,
        lookahead: map.lookahead(),
        events,
        busiest_thread_events: per_thread.into_iter().max().unwrap_or(0),
    })
}

fn domain_ext(s: &Simulator) -> &DomainExt {
    s.core.domain.as_deref().expect("domain simulator without its extension") // lint: allow(panic)
}

/// Thread of each domain: heaviest first (by its dispatches in the
/// previous run), each to the thread carrying least so far — fewest
/// domains among equals, so a first run deals them round-robin. The
/// leader gets an even share: its serial merge idles every other thread
/// too. Deterministic, and unobservable in results.
fn assign(load: &[u64], k: usize, threads: usize) -> Vec<usize> {
    let weight = |d: usize| load.get(d).copied().unwrap_or(0);
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&d| (Reverse(weight(d)), d));
    let mut carried = vec![(0u64, 0usize); threads];
    let mut owner = vec![0; k];
    for d in order {
        let t = (0..threads).min_by_key(|&t| carried[t]).unwrap_or(0);
        carried[t] = (carried[t].0 + weight(d), carried[t].1 + 1);
        owner[d] = t;
    }
    owner
}

/// The parallel preconditions. Each names engine machinery whose
/// sequential semantics a domain cannot reproduce locally: taps and
/// random faults consume the single sequential RNG/interception stream,
/// traces and spans record a single interleaved timeline, and a
/// single-domain partition has nothing to parallelize. Anything else —
/// link up/down state, routing edits, node logic of every kind — is
/// either domain-local or exchanged at barriers.
fn preconditions(sim: &Simulator, map: &DomainMap) -> Result<(), FallbackReason> {
    if map.domain_count() < 2 {
        return Err(FallbackReason::SingleDomain);
    }
    for lr in &sim.core.links {
        if !lr.taps_ab.is_empty() || !lr.taps_ba.is_empty() {
            return Err(FallbackReason::TapsInstalled);
        }
        for st in [&lr.ab, &lr.ba] {
            if st.fault.drop_prob > 0.0 || st.fault.jitter_max.is_some() {
                return Err(FallbackReason::ActiveFaults);
            }
        }
    }
    if sim.core.trace.is_enabled() {
        return Err(FallbackReason::TraceEnabled);
    }
    if sim.core.spans.is_some() {
        return Err(FallbackReason::SpansEnabled);
    }
    Ok(())
}

/// Which domain executes an event: the owning node for deliveries and
/// timers, the *sender-side* endpoint for link events (each link
/// direction — queue, transmitter, stats — is owned by the domain of
/// the node packets depart from).
fn event_domain(ev: &Event, map: &DomainMap, sim: &Simulator) -> usize {
    let node = match *ev {
        Event::Deliver { node, .. } | Event::Timer { node, .. } => node,
        Event::TxComplete { link, dir } | Event::Offer { link, dir, .. } => {
            let info = &sim.core.links[link.0].info;
            match dir {
                crate::link::Dir::AtoB => info.a,
                crate::link::Dir::BtoA => info.b,
            }
        }
    };
    map.domain_of(node) as usize
}

/// Move an event's packet body (if it carries one) from one arena to
/// another, rewriting the handle.
fn move_event_pkt(ev: Event, from: &mut PacketArena, to: &mut PacketArena) -> Event {
    match ev {
        Event::Deliver { node, pkt } => Event::Deliver {
            node,
            pkt: to.insert(from.take(pkt).expect("event holds a stale packet ref")), // lint: allow(panic)
        },
        Event::Offer { link, dir, pkt } => Event::Offer {
            link,
            dir,
            pkt: to.insert(from.take(pkt).expect("event holds a stale packet ref")), // lint: allow(panic)
        },
        other => other,
    }
}

/// Move a link direction's queued / in-flight packet bodies between
/// arenas, rewriting handles in place.
fn move_dir_pkts(st: &mut DirState, from: &mut PacketArena, to: &mut PacketArena) {
    for r in st.queue.iter_mut() {
        *r = to.insert(from.take(*r).expect("link queue holds a stale packet ref")); // lint: allow(panic)
    }
    if let Some(r) = st.in_flight.as_mut() {
        *r = to.insert(from.take(*r).expect("link holds a stale in-flight ref")); // lint: allow(panic)
    }
}

/// Split the merged simulator into per-domain simulators: pending events
/// (keyed by sequential dispatch position), sender-side link state, and
/// node logic move out; topology, routing, and prefixes are shared by
/// clone. The main arena and queue drain completely.
fn split(sim: &mut Simulator, map: &Arc<DomainMap>) -> Vec<Simulator> {
    let mut doms: Vec<Simulator> = (0..map.domain_count() as u32)
        .map(|d| sim.domain_shell(DomainExt::new(d, Arc::clone(map))))
        .collect();
    // Pending events in sequential dispatch order become the domains'
    // initial keys.
    let snap: Vec<(SimTime, Event)> = sim
        .core
        .queue
        .snapshot_refs()
        .into_iter()
        .map(|(t, e)| (t, *e))
        .collect();
    sim.core.queue = EventQueue::new();
    for (i, (time, ev)) in snap.into_iter().enumerate() {
        let d = event_domain(&ev, map, sim);
        let ev = move_event_pkt(ev, &mut sim.core.arena, &mut doms[d].core.arena);
        doms[d]
            .core
            .queue
            .schedule_keyed(time, initial_key(i as u64), ev);
    }
    // Each link direction moves to its sender-side domain; the shared
    // up/down flag is copied to both (read-only during a run).
    for li in 0..sim.core.links.len() {
        let (a, b, up) = {
            let lr = &sim.core.links[li];
            (lr.info.a, lr.info.b, lr.up)
        };
        let (da, db) = (map.domain_of(a) as usize, map.domain_of(b) as usize);
        doms[da].core.links[li].up = up;
        doms[db].core.links[li].up = up;
        let mut ab = std::mem::take(&mut sim.core.links[li].ab);
        move_dir_pkts(&mut ab, &mut sim.core.arena, &mut doms[da].core.arena);
        doms[da].core.links[li].ab = ab;
        doms[da].core.links[li].stats_ab = sim.core.links[li].stats_ab;
        let mut ba = std::mem::take(&mut sim.core.links[li].ba);
        move_dir_pkts(&mut ba, &mut sim.core.arena, &mut doms[db].core.arena);
        doms[db].core.links[li].ba = ba;
        doms[db].core.links[li].stats_ba = sim.core.links[li].stats_ba;
    }
    debug_assert_eq!(sim.core.arena.live(), 0, "split left packets behind");
    for i in 0..sim.logics.len() {
        if let Some(l) = sim.logics[i].take() {
            doms[map.domain_of(NodeId(i)) as usize].logics[i] = Some(l);
        }
    }
    doms
}

/// Join the domains back into the merged simulator: pending events are
/// sorted by `(time, key)` — the sequential dispatch order — and
/// re-scheduled into a fresh counter-ordered queue, link state and
/// logics move home, the packet-id cursor advances to the barrier
/// cursor, and each domain's telemetry snapshot is absorbed in domain
/// order.
fn join(
    sim: &mut Simulator,
    mut doms: Vec<Simulator>,
    g: &GlobalCursors,
    map: &DomainMap,
    t: SimTime,
) {
    let mut all: Vec<(SimTime, u128, Event, usize)> = Vec::new();
    for (d, s) in doms.iter().enumerate() {
        debug_assert!(
            domain_ext(s).fresh.is_empty() && domain_ext(s).outbox.is_empty(),
            "window state leaked past the final barrier"
        );
        for (time, key, ev) in s.core.queue.drain_keyed() {
            all.push((time, key, ev, d));
        }
    }
    all.sort_unstable_by_key(|&(time, key, _, _)| (time.0, key));
    sim.core.arena = PacketArena::new();
    sim.core.queue = EventQueue::new();
    for (time, _, ev, d) in all {
        let ev = move_event_pkt(ev, &mut doms[d].core.arena, &mut sim.core.arena);
        sim.core.queue.schedule(time, ev);
    }
    for li in 0..sim.core.links.len() {
        let (a, b) = {
            let lr = &sim.core.links[li];
            (lr.info.a, lr.info.b)
        };
        let (da, db) = (map.domain_of(a) as usize, map.domain_of(b) as usize);
        let mut ab = std::mem::take(&mut doms[da].core.links[li].ab);
        move_dir_pkts(&mut ab, &mut doms[da].core.arena, &mut sim.core.arena);
        sim.core.links[li].ab = ab;
        sim.core.links[li].stats_ab = doms[da].core.links[li].stats_ab;
        let mut ba = std::mem::take(&mut doms[db].core.links[li].ba);
        move_dir_pkts(&mut ba, &mut doms[db].core.arena, &mut sim.core.arena);
        sim.core.links[li].ba = ba;
        sim.core.links[li].stats_ba = doms[db].core.links[li].stats_ba;
    }
    for i in 0..sim.logics.len() {
        let d = map.domain_of(NodeId(i)) as usize;
        if let Some(l) = doms[d].logics[i].take() {
            sim.logics[i] = Some(l);
        }
    }
    sim.core.next_pkt_id = g.next_pkt_id;
    for s in &doms {
        debug_assert_eq!(s.core.arena.live(), 0, "join left packets behind");
        sim.core.registry.absorb(&s.core.registry.snapshot());
    }
    // Rebuilt queue/arena: re-baseline the structural-delta counters
    // (exactly what `restore` does) before the run-boundary sync.
    sim.core.metrics.last_wheel = sim.core.queue.wheel_stats();
    sim.core.metrics.last_recycled = sim.core.arena.recycled();
    sim.core.now = t;
    sim.core.sync_structural_metrics();
}

/// What the threads of one run share.
struct Shared<'a> {
    sync: WindowSync,
    map: &'a DomainMap,
    target: SimTime,
    mail: Vec<RwLock<Mailbox>>, // one per domain
    /// The earliest time anything is due after the window just run: every
    /// thread folds its domains' in before it arrives, the leader takes it.
    due: AtomicU64,
    /// The end of the next window, or 0 when the run is over (a real end
    /// is a lookahead past zero): stored by the leader before it releases.
    end: AtomicU64,
}

/// Run barrier windows to the target, domain `d` on thread `owner[d]`
/// (the caller is thread 0 and leads); returns the number of windows. A
/// panic in any domain poisons the rendezvous, every thread leaves its
/// loop, and the original payload resurfaces here.
fn run_windows(
    doms: &mut [Simulator],
    owner: &[usize],
    threads: usize,
    map: &DomainMap,
    g: &mut GlobalCursors,
    target: SimTime,
) -> u64 {
    // End (exclusive) of the window starting at `due`, the earliest pending
    // event time anywhere (`u64::MAX`: none); `None` once past the target.
    let window_end = |due: u64| {
        (due < u64::MAX && due <= target.0).then(|| SimTime(due.saturating_add(map.lookahead().0)))
    };
    let first = doms.iter_mut().filter_map(|s| s.core.queue.peek_key()).map(|(w, _)| w.0).min();
    let Some(end) = window_end(first.unwrap_or(u64::MAX)) else {
        return 0;
    };
    let sh = Shared {
        sync: WindowSync::new(threads - 1),
        map,
        target,
        mail: doms.iter().map(|_| RwLock::default()).collect(),
        due: AtomicU64::new(u64::MAX),
        end: AtomicU64::new(0),
    };
    let mut parts: Vec<Vec<&mut Simulator>> = (0..threads).map(|_| Vec::new()).collect();
    for (s, &t) in doms.iter_mut().zip(owner) {
        parts[t].push(s);
    }
    let mut parts = parts.into_iter();
    let mine = parts.next().expect("at least one thread"); // lint: allow(panic)
    let (mut windows, mut panic) = (0, None);
    std::thread::scope(|scope| {
        let sh = &sh;
        let spawn = |part| {
            scope.spawn(move || {
                let _guard = ExitGuard { sync: &sh.sync, wake: &[] };
                own_windows(part, end, sh, || sh.sync.arrive_and_wait());
            })
        };
        let handles: Vec<_> = parts.map(spawn).collect();
        let workers: Vec<Thread> = handles.iter().map(|h| h.thread().clone()).collect();
        let (mut boxes, mut heads) = (Vec::new(), Vec::new());
        let guard = ExitGuard { sync: &sh.sync, wake: &workers };
        own_windows(mine, end, sh, || {
            sh.sync.collect() && {
                merge_window(&sh.mail, g, &mut boxes, &mut heads);
                windows += 1;
                let next = window_end(sh.due.swap(u64::MAX, Relaxed));
                sh.end.store(next.map_or(0, |e| e.0), Relaxed);
                sh.sync.release(&workers);
                true
            }
        });
        drop(guard);
        for h in handles {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    windows
}

/// One thread's whole run: per window, run its domains and publish their
/// outputs; `meet` the others (the leader merges and fixes the next
/// window before it releases the workers; `false`: a thread panicked);
/// do its domains' share of the barrier. Settling and pulling window `n`
/// run straight into window `n + 1` — no second rendezvous, hence the
/// outboxes' two parities. `due` and `end` are ordered by the
/// rendezvous' own Release/Acquire pairs (see `sync`).
fn own_windows(
    mut mine: Vec<&mut Simulator>,
    mut end: SimTime,
    sh: &Shared<'_>,
    mut meet: impl FnMut() -> bool,
) {
    let domain = |s: &Simulator| domain_ext(s).my_domain as usize;
    let mut slot_of = vec![usize::MAX; sh.mail.len()];
    for (i, s) in mine.iter().enumerate() {
        slot_of[domain(s)] = i;
    }
    for parity in [0, 1].into_iter().cycle() {
        for s in mine.iter_mut() {
            run_window(s, end, sh.target);
            sh.due.fetch_min(publish(s, &sh.mail[domain(s)], parity), Relaxed);
        }
        if !meet() {
            return;
        }
        for s in mine.iter_mut() {
            settle(s, &sh.mail[domain(s)]);
        }
        pull(&mut mine, &slot_of, sh.map, &sh.mail, parity);
        match sh.end.load(Relaxed) {
            0 => return,
            e => end = SimTime(e),
        }
    }
}
