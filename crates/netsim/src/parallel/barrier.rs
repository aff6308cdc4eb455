//! The barrier, owner-computes: only the K-way merge of `(time, key)`
//! records and the packet-id renumbering are serial ([`merge_window`],
//! the leader's); the rest runs on the thread that owns the domain —
//! [`publish`] before the merge, [`settle`] and [`pull`] after it. All
//! four are pure functions of the domains' window outputs, so their
//! results are independent of worker count, ownership and thread timing.

use super::domain::{provisional_index, Delivery, PROVISIONAL_ID_BASE};
use super::key::{final_key, resolve_key};
use super::partition::DomainMap;
use crate::event::Event;
use crate::sim::Simulator;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::sync::{RwLock, RwLockWriteGuard};

/// Cross-window global cursors: the global dispatch index (the
/// sequential engine's implicit dispatch counter) and the packet-id
/// allocator, both advanced in merged order.
pub(crate) struct GlobalCursors {
    pub next_global: u64,
    pub next_pkt_id: u64,
}

/// One domain's window outputs and barrier tables — the only state that
/// crosses threads. After the merge it is only read, by its owner and by
/// every thread pulling from it at once, hence the `RwLock`; only the
/// merge holds two guards.
#[derive(Debug, Default)]
pub(crate) struct Mailbox {
    /// Owner → leader: [`DomainExt::records`] and [`DomainExt::id_recs`].
    records: Vec<(SimTime, u128)>,
    id_recs: Vec<u32>,
    /// Leader → owners: global dispatch index of each record, final id
    /// of each provisional id.
    global_of: Vec<u64>,
    id_of: Vec<u64>,
    /// Owner → destination owners, by window parity: a fast thread
    /// publishes window `n + 1` while a slow one still pulls `n`; before
    /// it publishes `n + 2` all have met over `n + 1`, so finished `n`.
    out: [Vec<Delivery>; 2],
}

const POISONED: &str = "a thread panicked holding a mailbox";

/// Owner, after running a window: swap the domain's records, id
/// assignments and outbox into its mailbox (for the buffers of two
/// windows ago) and return the earliest time anything it holds or sent
/// is due, `u64::MAX` if nothing is.
#[expect(
    clippy::expect_used,
    reason = "barriers run only on domain simulators; a poisoned mailbox means a worker thread already panicked"
)]
pub(crate) fn publish(sim: &mut Simulator, mail: &RwLock<Mailbox>, parity: usize) -> u64 {
    let wheel = sim.core.queue.peek_key().map(|(t, _)| t.0);
    let e = sim
        .core
        .domain
        .as_mut()
        .expect("barrier on a non-domain simulator");
    let fresh = e.fresh.peek().map(|Reverse(f)| f.time.0);
    let sent = e.outbox.iter().map(|m| m.time.0).min();
    e.dispatched += e.records.len() as u64;
    {
        let mut mb = mail.write().expect(POISONED);
        std::mem::swap(&mut mb.records, &mut e.records);
        std::mem::swap(&mut mb.id_recs, &mut e.id_recs);
        std::mem::swap(&mut mb.out[parity], &mut e.outbox);
    }
    e.records.clear();
    e.id_recs.clear();
    e.outbox.clear();
    [wheel, fresh, sent]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(u64::MAX)
}

/// Leader, with every thread waiting (so all mailboxes are locked for
/// the whole merge): replay the window's dispatches in global order — a
/// K-way merge of the per-domain record lists by `(time, resolved key)`.
/// Each merged record gets the next global dispatch index, and every
/// packet id handed out during that dispatch is re-numbered from the
/// shared cursor — in exactly the order the sequential engine would have
/// assigned ids (a consumed packet has no surviving body; its id still
/// advances the cursor). A head record's provisional key is always
/// resolvable, once, when it becomes the head: its in-window parent has
/// a smaller record index in the same domain and merged earlier (a
/// parent's resolved key is strictly smaller at an equal time, since the
/// parent was itself scheduled before the child's schedule call).
/// `boxes` and `heads` are scratch, empty between calls.
#[expect(
    clippy::expect_used,
    reason = "a poisoned mailbox means a worker thread already panicked"
)]
pub(crate) fn merge_window<'a>(
    mail: &'a [RwLock<Mailbox>],
    g: &mut GlobalCursors,
    boxes: &mut Vec<RwLockWriteGuard<'a, Mailbox>>,
    heads: &mut Vec<Option<(u64, u128)>>,
) {
    boxes.extend(mail.iter().map(|m| m.write().expect(POISONED)));
    for b in boxes.iter_mut() {
        b.global_of.clear();
        b.id_of.clear();
        heads.push(b.records.first().map(|&(t, raw)| (t.0, raw)));
    }
    loop {
        let best = heads
            .iter()
            .enumerate()
            .filter_map(|(d, h)| h.map(|h| (h, d)))
            .min();
        let Some((_, d)) = best else { break };
        let b = &mut boxes[d];
        let rec = b.global_of.len();
        g.next_global += 1;
        b.global_of.push(g.next_global);
        while b.id_recs.get(b.id_of.len()) == Some(&(rec as u32)) {
            g.next_pkt_id += 1;
            b.id_of.push(g.next_pkt_id);
        }
        heads[d] = b
            .records
            .get(rec + 1)
            .map(|&(t, raw)| (t.0, resolve_key(raw, &b.global_of)));
    }
    boxes.clear();
    heads.clear();
}

/// Owner, after the merge: patch surviving bodies by provisional id —
/// one sweep of the arena, which reaches every live body however often
/// it re-homed since assignment (each forwarding hop re-inserts it at a
/// new handle) — and flush the fresh-heap under resolved final keys.
#[expect(
    clippy::expect_used,
    reason = "barriers run only on domain simulators; a poisoned mailbox means a worker thread already panicked"
)]
pub(crate) fn settle(sim: &mut Simulator, mail: &RwLock<Mailbox>) {
    let (core, mb) = (&mut sim.core, mail.read().expect(POISONED));
    if !mb.id_of.is_empty() {
        for p in core.arena.iter_live_mut() {
            if p.id & PROVISIONAL_ID_BASE != 0 {
                p.id = mb.id_of[provisional_index(p.id)];
            }
        }
    }
    let e = core
        .domain
        .as_mut()
        .expect("barrier on a non-domain simulator");
    for Reverse(f) in e.fresh.drain() {
        let key = resolve_key(f.key, &mb.global_of);
        core.queue.schedule_keyed(f.time, key, f.event);
    }
}

/// Owner, after the merge: copy the deliveries addressed to `mine` out
/// of every outbox, each with its final key and id from the *source*
/// domain's tables. `slot_of[d]` is domain `d`'s index in `mine`, or
/// `usize::MAX`. Sources in domain order, each outbox in push order: an
/// arena or wheel receives its deliveries in one order whoever owns what.
#[expect(
    clippy::expect_used,
    reason = "a poisoned mailbox means a worker thread already panicked"
)]
pub(crate) fn pull(
    mine: &mut [&mut Simulator],
    slot_of: &[usize],
    map: &DomainMap,
    mail: &[RwLock<Mailbox>],
    parity: usize,
) {
    for source in mail {
        let mb = source.read().expect(POISONED);
        for m in &mb.out[parity] {
            let Some(sim) = mine.get_mut(slot_of[map.domain_of(m.dst) as usize]) else {
                continue;
            };
            let mut body = m.body.duplicate();
            if body.id & PROVISIONAL_ID_BASE != 0 {
                body.id = mb.id_of[provisional_index(body.id)];
            }
            let key = final_key(mb.global_of[m.record as usize], m.pos);
            let pkt = sim.core.arena.insert(body);
            sim.core
                .queue
                .schedule_keyed(m.time, key, Event::Deliver { node: m.dst, pkt });
        }
    }
}
