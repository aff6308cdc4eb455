//! A fixed-key hasher for lookup-only maps keyed from inside the process.
//!
//! `HashMap`'s default SipHash is keyed per process so that keys chosen
//! by an adversary cannot be made to collide; that protection costs a
//! few dozen nanoseconds per lookup and buys nothing when every key is
//! minted by this program's own seeded generators. [`FixedState`] is the
//! cheap alternative for exactly that case: a multiply-rotate fold of the
//! key's words, finished with the splitmix64 mixer of [`crate::rng`].
//!
//! It has **no key**: anyone who can choose the keys can precompute
//! collisions. Use it only for maps that are never iterated (so the hash
//! cannot leak into output order) and whose keys do not come from a file,
//! a socket or any other input an outsider controls — keep the default
//! `RandomState` everywhere else.

use crate::rng::hash64;
use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` of [`FixedHasher`]: `HashMap<K, V, FixedState>`.
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// Odd multiplier of the fold (2^64 / golden ratio, as in splitmix64).
const FOLD: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-rotate fold with a splitmix64 finish. See the module docs for
/// when a keyless hasher is acceptable.
#[derive(Debug, Default, Clone, Copy)]
pub struct FixedHasher(u64);

impl FixedHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FOLD);
    }
}

impl Hasher for FixedHasher {
    /// The multiply only carries bits upward; the finisher spreads them
    /// over the low bits (bucket index) and the top seven (control byte)
    /// that `HashMap` actually reads.
    #[inline]
    fn finish(&self) -> u64 {
        hash64(self.0)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            self.fold(chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b)));
        }
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn same_words_same_hash_whatever_the_write_width() {
        let h = |f: &dyn Fn(&mut FixedHasher)| {
            let mut s = FixedHasher::default();
            f(&mut s);
            s.finish()
        };
        let want = h(&|s| s.write_u64(0x0807_0605_0403_0201));
        assert_eq!(h(&|s| s.write(&[1, 2, 3, 4, 5, 6, 7, 8])), want);
        assert_ne!(h(&|s| s.write(&[1, 2, 3, 4, 5, 6, 7, 9])), want);
        // Field order matters, and a short tail is its own word.
        assert_ne!(h(&|s| (1u32, 2u32).hash(s)), h(&|s| (2u32, 1u32).hash(s)));
        assert_eq!(
            h(&|s| s.write(&[7; 9])),
            h(&|s| {
                s.write_u64(0x0707_0707_0707_0707);
                s.write_u8(7);
            })
        );
    }

    #[test]
    fn a_map_on_it_behaves_like_a_map() {
        let mut m = std::collections::HashMap::with_hasher(FixedState::default());
        for i in 0..10_000u32 {
            m.insert((i, i as u16), i);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u32).all(|i| m.get(&(i, i as u16)) == Some(&i)));
        assert_eq!(
            FixedState::default().hash_one(5u32),
            FixedState::default().hash_one(5u32)
        );
    }
}
