//! Per-domain execution state and the barrier-window runner.
//!
//! While a domain runs a window, everything it schedules is *local by
//! construction* except the propagation hop in `tx_complete`, which may
//! target a remote node and goes to the [`DomainExt::outbox`]. Local
//! events scheduled in-window park in the [`DomainExt::fresh`] heap
//! under provisional keys (the domain's own wheel holds only resolved
//! keys); the next barrier resolves and flushes them.

use super::key::{provisional_key, PROVISIONAL_BIT};
use super::partition::DomainMap;
use crate::event::Event;
use crate::packet::Packet;
use crate::sim::Simulator;
use crate::time::SimTime;
use crate::topology::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Provisional packet ids live far above any real id (real ids count up
/// from 1) so a collision — or an unpatched provisional id leaking into
/// results — is unmistakable.
pub(crate) const PROVISIONAL_ID_BASE: u64 = 1 << 63;

/// An event scheduled during the current window, waiting under a
/// provisional key for barrier resolution.
#[derive(Debug)]
pub(crate) struct FreshEntry {
    pub time: SimTime,
    pub key: u128,
    pub event: Event,
}

impl PartialEq for FreshEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.key) == (other.time, other.key)
    }
}
impl Eq for FreshEntry {}
impl PartialOrd for FreshEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FreshEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.key).cmp(&(other.time, other.key))
    }
}

/// A cross-domain delivery produced this window. The body left the source
/// arena with the packet leaving the link, and may still carry a
/// provisional id: the destination's owner gives it id and key on pulling.
#[derive(Debug)]
pub(crate) struct Delivery {
    pub time: SimTime,
    pub dst: NodeId,
    /// Domain-local record index of the dispatch that scheduled this.
    pub record: u32,
    /// Schedule-call position within that dispatch.
    pub pos: u32,
    pub body: Packet,
}

/// Parallel-engine extension carried by a domain's `SimCore`. Its
/// presence is what switches `assign_id` / `schedule_event` /
/// `tx_complete` onto the provisional paths.
#[derive(Debug)]
pub(crate) struct DomainExt {
    pub my_domain: u32,
    pub map: Arc<DomainMap>,
    /// `(time, key)` of every dispatch this window, in domain-local
    /// execution order. The key may itself be provisional (an in-window
    /// parent); the barrier resolves heads in merge order, and a head's
    /// parent always merges first because its record index is smaller.
    pub records: Vec<(SimTime, u128)>,
    /// Schedule-call counter within the current dispatch.
    pub cur_intra: u32,
    /// In-window-scheduled local events, min-heap by `(time, key)`.
    pub fresh: BinaryHeap<Reverse<FreshEntry>>,
    /// Cross-domain deliveries produced this window.
    pub outbox: Vec<Delivery>,
    /// Record index of the dispatch behind every packet id handed out
    /// this window: the `i`-th entry received provisional id `i + 1`, so
    /// the barrier re-numbers through a dense table.
    pub id_recs: Vec<u32>,
    /// Dispatches since the split.
    pub dispatched: u64,
}

impl DomainExt {
    pub fn new(my_domain: u32, map: Arc<DomainMap>) -> Self {
        DomainExt {
            my_domain,
            map,
            records: Vec::new(),
            cur_intra: 0,
            fresh: BinaryHeap::new(),
            outbox: Vec::new(),
            id_recs: Vec::new(),
            dispatched: 0,
        }
    }

    /// Does `node` live in another domain?
    pub fn is_remote(&self, node: NodeId) -> bool {
        self.map.domain_of(node) != self.my_domain
    }

    /// Hand out the next provisional packet id (unique per domain per
    /// window; never escapes a window because the barrier patches every
    /// surviving body — consumed packets just advance the cursor) and
    /// record it against the current dispatch for barrier re-numbering.
    pub fn next_provisional_id(&mut self) -> u64 {
        debug_assert!(!self.records.is_empty(), "id assigned outside a dispatch");
        self.id_recs.push(self.records.len() as u32 - 1);
        PROVISIONAL_ID_BASE | ((self.my_domain as u64) << 48) | self.id_recs.len() as u64
    }

    /// Schedule a local event from within the current dispatch: it goes
    /// to the fresh-heap under a provisional key.
    pub fn schedule_local(&mut self, time: SimTime, event: Event) {
        debug_assert!(!self.records.is_empty(), "schedule outside a dispatch");
        let key = provisional_key(self.records.len() as u32 - 1, self.cur_intra);
        self.cur_intra += 1;
        self.fresh.push(Reverse(FreshEntry { time, key, event }));
    }

    /// Queue a cross-domain delivery. Consumes a schedule-call position
    /// exactly like a local schedule would — the sequential engine's
    /// sequence counter does not care where the delivery lands.
    pub fn push_outbox(&mut self, time: SimTime, dst: NodeId, body: Packet) {
        debug_assert!(!self.records.is_empty(), "schedule outside a dispatch");
        let record = self.records.len() as u32 - 1;
        let pos = self.cur_intra;
        self.cur_intra += 1;
        self.outbox.push(Delivery {
            time,
            dst,
            record,
            pos,
            body,
        });
    }
}

/// Index into its domain's `id_of` table of a provisional id.
pub(crate) fn provisional_index(id: u64) -> usize {
    (id & ((1 << 48) - 1)) as usize - 1
}

/// Run one domain through the window `[_, end_excl)`, capped at the run
/// target (events at exactly `target` execute; the window may nominally
/// extend past it).
///
/// Each step pops the minimum of the domain's keyed wheel and its
/// fresh-heap. At an equal time the wheel entry wins — its key is
/// resolved (no [`PROVISIONAL_BIT`]) and therefore smaller, matching
/// the sequential fact that pre-window events precede in-window ones.
#[expect(
    clippy::expect_used,
    reason = "a window runs only on a domain simulator, and pops only what it peeked"
)]
pub(crate) fn run_window(sim: &mut Simulator, end_excl: SimTime, target: SimTime) {
    loop {
        let wheel_head = sim.core.queue.peek_key();
        let ext = sim
            .core
            .domain
            .as_ref()
            .expect("run_window outside domain mode");
        let fresh_head = ext.fresh.peek().map(|Reverse(e)| (e.time, e.key));
        let (time, use_fresh) = match (wheel_head, fresh_head) {
            (None, None) => break,
            (Some((wt, _)), None) => (wt, false),
            (None, Some((ft, _))) => (ft, true),
            (Some((wt, wk)), Some((ft, fk))) => {
                if (ft, fk) < (wt, wk) {
                    (ft, true)
                } else {
                    (wt, false)
                }
            }
        };
        if time >= end_excl || time > target {
            break;
        }
        let (key, event) = if use_fresh {
            let Reverse(e) = sim
                .core
                .domain
                .as_mut()
                .expect("checked above")
                .fresh
                .pop()
                .expect("peeked");
            debug_assert!(e.key & PROVISIONAL_BIT != 0);
            (e.key, e.event)
        } else {
            let (_, k, e) = sim.core.queue.pop_keyed().expect("peeked");
            (k, e)
        };
        debug_assert!(time >= sim.core.now, "time went backwards in domain");
        sim.core.now = time;
        let ext = sim.core.domain.as_mut().expect("checked above");
        ext.records.push((time, key));
        ext.cur_intra = 0;
        sim.dispatch(event);
    }
}
