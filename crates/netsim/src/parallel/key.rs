//! 128-bit scheduling keys that reproduce the sequential `(time, seq)`
//! order across domains.
//!
//! The sequential engine orders equal-time events by a global monotone
//! sequence number assigned at schedule time. Schedule calls happen only
//! inside dispatches, and dispatches happen in `(time, seq)` order — so
//! the sequential tie-break order at any timestamp is exactly the
//! lexicographic pair *(global index of the scheduling dispatch, position
//! of the schedule call within that dispatch)*. These keys encode that
//! pair directly, which is what lets per-domain wheels pop in an order
//! that merges back into the sequential order bit-for-bit:
//!
//! * **Initial keys** (`< 2^32`) — events already pending when a run is
//!   split into domains, numbered by their position in the sequential
//!   queue's dispatch order. They sort before every in-run key at an
//!   equal time, which is correct: anything scheduled *during* the run
//!   has a later sequence number than anything pending *before* it.
//! * **Final keys** (`origin << 32 | pos`, `origin >= 1`) — events whose
//!   scheduling dispatch has been assigned its global dispatch index
//!   `origin` at a barrier.
//! * **Provisional keys** (top bit set) — events scheduled during the
//!   current barrier window, keyed by the *domain-local* record index of
//!   the scheduling dispatch. The top bit makes every provisional key
//!   sort after every final key at an equal time — correct, because an
//!   event scheduled in the current window always has a later sequence
//!   number than one scheduled before the window. Two provisional keys
//!   from the *same* domain compare by (record, position), and
//!   domain-local record order is the global dispatch order restricted
//!   to that domain, so the comparison agrees with the sequential order.
//!   Provisional keys never need to compare across domains: they exist
//!   only inside one domain's window and are resolved to final keys at
//!   the barrier.

/// Top bit marking a key as provisional (domain-local, not yet resolved
/// against the global dispatch order).
pub const PROVISIONAL_BIT: u128 = 1 << 127;

/// Key for an event that was already pending when the run was split,
/// from its position `i` in the sequential queue's dispatch order.
///
/// ```
/// use dui_netsim::parallel::key::{final_key, initial_key};
/// // Initial events sort before any in-run event at the same time…
/// assert!(initial_key(999) < final_key(1, 0));
/// // …and among themselves by queue position.
/// assert!(initial_key(0) < initial_key(1));
/// ```
pub fn initial_key(i: u64) -> u128 {
    debug_assert!(i < 1 << 32, "more than 2^32 pending events at split");
    i as u128
}

/// Key for an event scheduled by the dispatch with global index `origin`
/// (1-based) as its `pos`-th schedule call.
///
/// ```
/// use dui_netsim::parallel::key::final_key;
/// // Later dispatches sort later; within a dispatch, schedule order wins.
/// assert!(final_key(1, 1) < final_key(2, 0));
/// assert!(final_key(2, 0) < final_key(2, 1));
/// ```
pub fn final_key(origin: u64, pos: u32) -> u128 {
    debug_assert!(origin >= 1, "global dispatch indices are 1-based");
    ((origin as u128) << 32) | pos as u128
}

/// Provisional key for an event scheduled by the current window's
/// `record`-th domain-local dispatch as its `pos`-th schedule call.
///
/// ```
/// use dui_netsim::parallel::key::{final_key, is_provisional, provisional_key};
/// // Provisional keys sort after every resolved key at the same time.
/// assert!(provisional_key(0, 0) > final_key(u64::MAX, u32::MAX));
/// assert!(is_provisional(provisional_key(3, 1)));
/// assert!(!is_provisional(final_key(3, 1)));
/// ```
pub fn provisional_key(record: u32, pos: u32) -> u128 {
    PROVISIONAL_BIT | ((record as u128) << 32) | pos as u128
}

/// Is this a provisional (unresolved) key?
pub fn is_provisional(key: u128) -> bool {
    key & PROVISIONAL_BIT != 0
}

/// Split a provisional key back into `(record, pos)`.
///
/// ```
/// use dui_netsim::parallel::key::{provisional_key, provisional_parts};
/// assert_eq!(provisional_parts(provisional_key(7, 42)), (7, 42));
/// ```
pub fn provisional_parts(key: u128) -> (u32, u32) {
    debug_assert!(is_provisional(key));
    (
        ((key >> 32) & 0xFFFF_FFFF) as u32,
        (key & 0xFFFF_FFFF) as u32,
    )
}

/// Resolve a key against this window's record→global-index table:
/// provisional keys become final via `global_of[record]`, everything
/// else passes through.
pub(crate) fn resolve_key(raw: u128, global_of: &[u64]) -> u128 {
    if is_provisional(raw) {
        let (rec, pos) = provisional_parts(raw);
        final_key(global_of[rec as usize], pos)
    } else {
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_sequential_contract() {
        // initial < final < provisional at equal time.
        assert!(initial_key((1 << 32) - 1) < final_key(1, 0));
        assert!(final_key(u64::MAX, u32::MAX) < provisional_key(0, 0));
        // Final keys are lexicographic in (origin, pos).
        assert!(final_key(5, 9) < final_key(6, 0));
        // Provisional keys are lexicographic in (record, pos).
        assert!(provisional_key(1, 9) < provisional_key(2, 0));
    }

    #[test]
    fn resolve_rewrites_only_provisionals() {
        let global_of = vec![41, 42];
        assert_eq!(
            resolve_key(provisional_key(1, 3), &global_of),
            final_key(42, 3)
        );
        assert_eq!(resolve_key(final_key(7, 7), &global_of), final_key(7, 7));
        assert_eq!(resolve_key(initial_key(9), &global_of), 9);
    }
}
