// BAD: ambient (OS-seeded) randomness in library code, with the
// grep-defeating alias rename.
use rand::thread_rng as fresh;

pub fn roll() -> u64 {
    let mut r = fresh();
    r.gen_range(0..6)
}

pub fn seed_from_os() -> [u8; 8] {
    let mut buf = [0u8; 8];
    getrandom(&mut buf);
    buf
}

pub fn per_process() -> u64 { std::collections::hash_map::RandomState::new().build_hasher().finish() }
