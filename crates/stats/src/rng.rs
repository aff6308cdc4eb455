//! Deterministic pseudo-random number generation.
//!
//! The generator is xoshiro256++ (Blackman & Vigna, public-domain reference
//! algorithm) seeded through splitmix64, the construction recommended by the
//! authors. It is fast (sub-nanosecond per draw), passes BigCrush, and —
//! crucially for a simulator — its output for a given seed is a stable part
//! of this crate's API: experiments cite seeds and must replay identically.

use crate::wire::{wire_struct, ErrorKind};

/// Advance a splitmix64 state and return the next output.
///
/// Used for seeding and for cheap stateless hashing (e.g. the Blink flow
/// selector hashes 5-tuples with it).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a 64-bit value with one splitmix64 step (stateless convenience).
#[inline]
pub fn hash64(x: u64) -> u64 {
    let mut s = x;
    splitmix64(&mut s)
}

/// Mix two 64-bit values into one (order-sensitive).
#[inline]
pub fn mix64(a: u64, b: u64) -> u64 {
    hash64(a ^ hash64(b).rotate_left(17))
}

/// A seedable xoshiro256++ pseudo-random number generator.
///
/// All stochastic behavior in the workspace flows through this type so that
/// experiments are reproducible from a single `u64` seed.
///
/// ```
/// use dui_stats::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

// The checkpoint form: the four state words, fixed width. The all-zero
// state is refused: xoshiro256++ never reaches it from any other state,
// so no generator wrote it.
wire_struct!(Rng { s: [u64; 4] = "rng" } check(rng, r) {
    if rng.s == [0; 4] {
        return Err(r.error("rng", ErrorKind::Invalid));
    }
});

impl Rng {
    /// Create a generator from a 64-bit seed (expanded via splitmix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Snapshot the raw xoshiro256++ state.
    ///
    /// Checkpoints carry these words (its [`Wire`](crate::wire::Wire)
    /// field list): record/replay (`dui-replay`) captures them mid-run and later resumes the exact stream. The words are the
    /// algorithm's state, not its output — treat them as opaque.
    #[inline]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a [`Rng::state`] snapshot.
    ///
    /// The all-zero state is a fixed point of xoshiro256++ (the stream
    /// would be constant zero), so it is mapped to `Rng::new(0)`'s state;
    /// every snapshot taken from a real generator is non-zero and
    /// round-trips exactly. Bytes from outside go through
    /// [`Rng::take`](crate::wire::Wire::take), which refuses that state instead.
    #[inline]
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            return Rng::new(0);
        }
        Rng { s }
    }

    /// Derive an independent child generator.
    ///
    /// Each `(seed, stream)` pair gives a statistically independent stream;
    /// used to give every simulated entity (flow source, attacker, link) its
    /// own generator without draws in one entity perturbing another.
    pub fn fork(&mut self, stream: u64) -> Self {
        Rng::new(self.next_u64() ^ hash64(stream))
    }

    /// Next raw 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next raw 32 bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `(0, 1]` — safe as the argument of `ln`.
    #[inline]
    pub fn f64_open(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so results are exactly
    /// uniform.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below_usize(items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below_usize(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Wire;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_hash_tracks_logical_state() {
        // How every component folds its generator into a state digest.
        let hash = |r: &Rng| {
            let mut d = crate::digest::StateDigest::labeled("rng");
            for w in r.state() {
                d.write_u64(w);
            }
            d.finish()
        };
        let mut a = Rng::new(42);
        let b = Rng::new(42);
        assert_eq!(hash(&a), hash(&b));
        let _ = a.next_u64();
        assert_ne!(hash(&a), hash(&b), "drawing changes state");
        let restored = Rng::from_state(a.state());
        assert_eq!(hash(&a), hash(&restored));
    }

    #[test]
    fn codec_round_trips_and_refuses_the_zero_state() {
        use crate::wire::{Reader, Writer};
        let mut a = Rng::new(5);
        a.next_u64();
        let mut w = Writer::new();
        a.put(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 32);
        let mut r = Reader::new(&bytes);
        assert_eq!(Rng::take(&mut r), Ok(a));
        let zero = [0u8; 32];
        let err = Rng::take(&mut Reader::new(&zero)).unwrap_err();
        assert_eq!(
            (err.what, err.at, err.kind),
            ("rng", 32, ErrorKind::Invalid)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_open_never_zero() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.f64_open();
            assert!(x > 0.0 && x <= 1.0);
        }
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut r = Rng::new(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn below_roughly_uniform() {
        let mut r = Rng::new(5);
        let n = 10u64;
        let trials = 100_000;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..trials {
            counts[r.below(n) as usize] += 1;
        }
        let expect = trials as f64 / n as f64;
        for c in counts {
            assert!((c as f64 - expect).abs() < 5.0 * expect.sqrt());
        }
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = Rng::new(9);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(13);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle should move things"
        );
    }

    #[test]
    fn fork_streams_are_independent_looking() {
        let mut root = Rng::new(1);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let matches = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn range_u64_bounds() {
        let mut r = Rng::new(17);
        for _ in 0..1000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        Rng::new(0).below(0);
    }

    #[test]
    fn hash64_differs_on_adjacent_inputs() {
        assert_ne!(hash64(1), hash64(2));
        assert_ne!(mix64(1, 2), mix64(2, 1));
    }
}
