// CLEAN: explicit seeded RNG — randomness is a function of the seed
// the caller passes, which is the repository's determinism contract.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.0
    }
}

pub fn roll(seed: u64) -> u64 {
    Rng::new(seed).next_u64() % 6
}

// `RandomState::new().build_hasher().finish()` would be a per-process
// random number; named in a comment it is nothing.
