//! Stable 64-bit logical-state digests.
//!
//! [`StateDigest`] is the hashing primitive underneath the workspace's
//! record/replay subsystem (`dui-replay`): every simulation component
//! folds its *logical* state — field values, queue contents, counters —
//! into one of these, and the resulting 64-bit digest is what gets
//! recorded, compared across runs, and bisected when two runs diverge.
//!
//! A component writes its state through one encoder generic over
//! [`Encoder`] — or, behind an engine trait object, through one
//! `encode(&self, s: &mut Sink)` into the concrete
//! [`Sink`](crate::wire::Sink) — and a whole subject's state hash is
//! its section digests folded in order under its label, all from one
//! [`walk`](crate::wire::walk). The contract every such
//! encoder keeps — two runs are in the same logical state if and only
//! if their hashes agree, across processes and platforms:
//!
//! * **logical state only** — no memory addresses, capacities or
//!   allocator artifacts;
//! * **no unordered iteration** — a `HashMap`/`HashSet` is digested
//!   through a sorted view (clippy's `iter_over_hash_type` refuses a
//!   `for` loop over a hash container anywhere in the workspace);
//! * **no telemetry** — metrics are observations about a run, not
//!   state that influences it.
//!
//! The encoder is also the component's checkpoint form, so the contract
//! holds by construction: run into a digest it folds each primitive as
//! one word, run into bytes it writes them. Equal bytes then mean equal
//! digests, and (up to a 64-bit collision) the converse. A part with no
//! decoder writes the same words into the digest and refuses the bytes.
//!
//! Two properties of the primitive itself matter and are guaranteed
//! here:
//!
//! 1. **Cross-run stability.** The digest is a pure function of the
//!    words written. No addresses, no `RandomState`, no allocation
//!    order can leak in: each word is folded in by the multiply-rotate
//!    step of [`crate::hash::FixedHasher`], starting from a fixed
//!    constant, and [`StateDigest::finish`] applies the splitmix64
//!    finalizer of [`crate::rng`].
//! 2. **Length prefixing.** Variable-length inputs (`bytes`, `str`,
//!    sequences via [`StateDigest::write_len`]) are length-prefixed so
//!    concatenation ambiguities (`"ab" + "c"` vs `"a" + "bc"`) cannot
//!    collide by construction.
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

// A digest input converts losslessly: clippy refuses any cast here
// that could truncate, wrap or drop a sign or precision.
#![deny(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss,
    clippy::cast_possible_wrap
)]

use crate::hash::fold;
use crate::wire::Encoder;

/// Incremental, deterministic 64-bit digest over logical state.
///
/// Each written word `w` updates the state as
/// `h = (h.rotate_left(5) ^ w) * 0x9E37_79B9_7F4A_7C15` — one dependent
/// multiply per word, the fold of [`crate::hash::FixedHasher`] — and
/// [`finish`](StateDigest::finish) runs the result through the
/// splitmix64 finalizer, so a single flipped state bit flips about half
/// the digest bits, which is what divergence bisection needs.
///
/// The step is a bijection of the word for a fixed state and of the
/// state for a fixed word, and the finalizer is a bijection too. So two
/// sequences of equal length that differ in exactly **one** word always
/// digest differently — no probability involved. Sequences that differ
/// in two or more words can collide, as with any 64-bit digest.
///
/// Not a cryptographic hash and not a MAC: it has no key, and anyone
/// can construct two inputs with the same digest. It detects
/// accidental divergence between runs, not tampering.
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
    pub const fn new() -> Self {
        StateDigest { state: DIGEST_IV }
    }

    /// Fresh digest whose stream is domain-separated by `label`
    /// (e.g. a component name), so identical state hashed under
    /// different labels yields different digests.
    ///
    /// A `const fn`: a hot path names its seed once, as
    /// `const SEED: StateDigest = StateDigest::labeled("event");`, and
    /// starts each digest from it without hashing the label again.
    pub const fn labeled(label: &str) -> Self {
        let mut d = StateDigest::new();
        d.write_str(label);
        d
    }

    /// Fold one 64-bit word into the digest.
    #[inline]
    pub const fn write_u64(&mut self, v: u64) {
        self.state = fold(self.state, v);
    }

    /// Fold a `usize` (widened to 64 bits; digests are therefore
    /// identical across 32/64-bit targets for values that fit).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Fold a `bool` as 0/1.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(u64::from(v));
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
                self.write_u64(1);
                self.write_u64(x);
            }
            None => self.write_u64(0),
        }
    }

    /// Fold a sequence length (call before hashing the elements of any
    /// variable-length structure).
    #[inline]
    pub const fn write_len(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Fold a byte slice, length-prefixed, 8 bytes at a time (a short
    /// tail is zero-padded to a word).
    #[expect(
        clippy::disallowed_methods,
        reason = "byte-string hashing, not a decoder: words in, no count read back"
    )]
    pub const fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_len(bytes.len());
        let mut rest = bytes;
        while let Some((word, tail)) = rest.split_first_chunk::<8>() {
            self.write_u64(u64::from_le_bytes(*word));
            rest = tail;
        }
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf.split_at_mut(rest.len()).0.copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    /// Fold a string (UTF-8 bytes, length-prefixed).
    #[inline]
    pub const fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Final 64-bit digest (one extra mixing round so short inputs
    /// still avalanche).
    #[inline]
    pub fn finish(&self) -> u64 {
        crate::rng::hash64(self.state ^ 0x9E37_79B9_7F4A_7C15)
    }
}

/// Each primitive is one word, whatever its width or wire form.
impl Encoder for StateDigest {
    #[inline]
    fn u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        self.write_u64(v);
    }

    #[inline]
    fn varint(&mut self, v: u64) {
        self.write_u64(v);
    }

    #[inline]
    fn bytes(&mut self, bytes: &[u8]) {
        self.write_bytes(bytes);
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
