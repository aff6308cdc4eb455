//! Stable 64-bit logical-state digests.
//!
//! [`StateDigest`] is the hashing primitive underneath the workspace's
//! record/replay subsystem (`dui-replay`): every simulation component
//! folds its *logical* state — field values, queue contents, counters —
//! into one of these, and the resulting 64-bit digest is what gets
//! recorded, compared across runs, and bisected when two runs diverge.
//!
//! A component exposes its digest as an inherent
//! `state_digest(&self, d: &mut StateDigest)` (and, where it is a whole
//! subject, a domain-labeled `state_hash(&self) -> u64`). The contract
//! every such method keeps — two runs are in the same logical state if
//! and only if their hashes agree, across processes and platforms:
//!
//! * **logical state only** — no memory addresses, capacities or
//!   allocator artifacts;
//! * **no unordered iteration** — a `HashMap`/`HashSet` is digested
//!   through a sorted view or [`StateDigest::write_unordered`];
//! * **no telemetry** — metrics, traces and spans are observations
//!   about a run, not state that influences it.
//!
//! Three properties of the primitive itself matter and are guaranteed
//! here:
//!
//! 1. **Cross-run stability.** The digest is a pure function of the
//!    bytes written. No addresses, no `RandomState`, no allocation
//!    order can leak in: the mixer is the same splitmix64 finalizer
//!    used by [`crate::rng`], seeded from a fixed constant.
//! 2. **Length prefixing.** Variable-length inputs (`bytes`, `str`,
//!    sequences via [`StateDigest::write_len`]) are length-prefixed so
//!    concatenation ambiguities (`"ab" + "c"` vs `"a" + "bc"`) cannot
//!    collide by construction.
//! 3. **Order-insensitive folding** for unordered containers: callers
//!    hashing a `HashMap` must either iterate in a sorted order or
//!    combine independent per-entry digests with
//!    [`StateDigest::write_unordered`], which is commutative. (The
//!    determinism lint additionally greps for raw map iteration inside
//!    `state_digest` implementations.)
//!
//! ```
//! use dui_stats::digest::StateDigest;
//! let mut a = StateDigest::new();
//! a.write_u64(1);
//! a.write_str("link");
//! let mut b = StateDigest::new();
//! b.write_u64(1);
//! b.write_str("link");
//! assert_eq!(a.finish(), b.finish());
//! ```

use crate::rng::mix64;

/// Incremental, deterministic 64-bit digest over logical state.
///
/// Not a cryptographic hash — it is a fast mixing accumulator (the
/// splitmix64 finalizer chained through [`mix64`]) with enough
/// avalanche that a single flipped state bit flips ~half the digest
/// bits, which is what divergence bisection needs.
#[derive(Debug, Clone)]
pub struct StateDigest {
    state: u64,
}

/// Fixed initialization vector so an empty digest is a stable,
/// documented value (spells "dui replay 2019", roughly).
const DIGEST_IV: u64 = 0xD01_CAFE_F00D_2019u64;

impl Default for StateDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl StateDigest {
    /// Fresh digest with the fixed initialization vector.
    pub fn new() -> Self {
        StateDigest { state: DIGEST_IV }
    }

    /// Fresh digest whose stream is domain-separated by `label`
    /// (e.g. a component name), so identical state hashed under
    /// different labels yields different digests.
    pub fn labeled(label: &str) -> Self {
        let mut d = StateDigest::new();
        d.write_str(label);
        d
    }

    /// Fold one 64-bit word into the digest.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.state = mix64(self.state, v);
    }

    /// Fold a `u8`.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        // lint: allow(cast): widening u8 -> u64 is lossless
        self.write_u64(v as u64);
    }

    /// Fold a `u16`.
    #[inline]
    pub fn write_u16(&mut self, v: u16) {
        // lint: allow(cast): widening u16 -> u64 is lossless
        self.write_u64(v as u64);
    }

    /// Fold a `u32`.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        // lint: allow(cast): widening u32 -> u64 is lossless
        self.write_u64(v as u64);
    }

    /// Fold a `usize` (widened to 64 bits; digests are therefore
    /// identical across 32/64-bit targets for values that fit).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        // lint: allow(cast): usize is at most 64 bits on supported targets
        self.write_u64(v as u64);
    }

    /// Fold an `i64` (two's-complement bits).
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        // lint: allow(cast): two's-complement bit reinterpretation, by design
        self.write_u64(v as u64);
    }

    /// Fold a `bool` as 0/1.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        // lint: allow(cast): bool -> 0/1 is exact
        self.write_u64(v as u64);
    }

    /// Fold an `f64` by its IEEE-754 bit pattern.
    ///
    /// `-0.0` and `+0.0` digest differently, and every NaN payload is
    /// distinct — exactly what bit-for-bit replay comparison wants.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Fold an `Option<u64>` with an explicit presence tag.
    #[inline]
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.write_u8(1);
                self.write_u64(x);
            }
            None => self.write_u8(0),
        }
    }

    /// Fold a sequence length (call before hashing the elements of any
    /// variable-length structure).
    #[inline]
    pub fn write_len(&mut self, n: usize) {
        // lint: allow(cast): usize is at most 64 bits on supported targets
        self.write_u64(n as u64);
    }

    /// Fold a byte slice, length-prefixed, 8 bytes at a time.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_len(bytes.len());
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c); // chunks_exact(8) yields exactly 8 bytes
            self.write_u64(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    /// Fold a string (UTF-8 bytes, length-prefixed).
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Commutatively fold an already-finished sub-digest.
    ///
    /// `write_unordered(a); write_unordered(b)` equals
    /// `write_unordered(b); write_unordered(a)`, so unordered
    /// containers (hash maps, sets) can be hashed without sorting:
    /// digest each entry independently (key and value together) and
    /// fold the per-entry digests here. Wrapping addition of mixed
    /// entries keeps collisions unlikely while being order-free.
    #[inline]
    pub fn write_unordered(&mut self, entry_digest: u64) {
        // mix once so raw entry digests are decorrelated before the
        // commutative sum; do NOT chain through `state`.
        self.state = self
            .state
            .wrapping_add(crate::rng::hash64(entry_digest ^ 0xA5A5_5A5A_C3C3_3C3C));
    }

    /// Final 64-bit digest (one extra mixing round so short inputs
    /// still avalanche).
    #[inline]
    pub fn finish(&self) -> u64 {
        crate::rng::hash64(self.state ^ 0x9E37_79B9_7F4A_7C15)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = StateDigest::new();
        let mut b = StateDigest::new();
        for d in [&mut a, &mut b] {
            d.write_u64(42);
            d.write_str("selector");
            d.write_f64(3.25);
            d.write_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn order_sensitive_by_default() {
        let mut a = StateDigest::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StateDigest::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn write_unordered_is_commutative() {
        let (x, y, z) = (0xdead_beef, 0xfeed_face, 7);
        let mut a = StateDigest::new();
        a.write_unordered(x);
        a.write_unordered(y);
        a.write_unordered(z);
        let mut b = StateDigest::new();
        b.write_unordered(z);
        b.write_unordered(x);
        b.write_unordered(y);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_disambiguates_concatenation() {
        let mut a = StateDigest::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = StateDigest::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        for bit in 0..64u64 {
            let mut a = StateDigest::new();
            a.write_u64(0);
            let mut b = StateDigest::new();
            b.write_u64(1 << bit);
            assert_ne!(a.finish(), b.finish(), "bit {bit}");
        }
    }

    #[test]
    fn labeled_domains_separate() {
        let mut a = StateDigest::labeled("rng");
        a.write_u64(5);
        let mut b = StateDigest::labeled("queue");
        b.write_u64(5);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn empty_digest_is_stable() {
        assert_eq!(StateDigest::new().finish(), StateDigest::new().finish());
    }
}
