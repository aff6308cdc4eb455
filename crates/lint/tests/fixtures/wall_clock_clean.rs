// CLEAN: simulated time only; mentions of Instant in comments and
// strings must not fire. "std::time::Instant" appears right here.
use std::time::Duration;

/// Not a clock read: `Instant::now()` in a doc comment.
pub fn step(now_ns: u64, dt: Duration) -> u64 {
    let msg = "no std::time::Instant here, just a string";
    now_ns + dt.as_nanos() as u64 + msg.len() as u64
}

// Nor is `std::time::UNIX_EPOCH.elapsed()` when it is only a comment.
