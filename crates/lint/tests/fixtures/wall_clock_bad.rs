// BAD: reads the wall clock from library code, through an alias rename
// that the old grep gate (`Instant::now|std::time::Instant`) only half
// caught — the call site `T::now()` matched no pattern at all.
use std::time::Instant as T;

pub fn elapsed_ns() -> u128 {
    let start = T::now();
    start.elapsed().as_nanos()
}

pub fn stamp() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

pub fn epoch_s() -> u64 { std::time::UNIX_EPOCH.elapsed().map_or(0, |d| d.as_secs()) }
