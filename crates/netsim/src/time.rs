//! Simulated time.
//!
//! Time is a `u64` count of **nanoseconds** since simulation start. Using an
//! integer (not `f64`) keeps event ordering exact and the simulation
//! bit-for-bit reproducible: equal timestamps are tie-broken by insertion
//! order, never by floating-point noise.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (panics on negative/NaN).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "time must be non-negative");
        SimTime((s * 1e9).round() as u64)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Duration since an earlier instant (saturating at zero).
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// From milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// From microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// From nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From fractional seconds (panics on negative/NaN).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "duration must be non-negative");
        SimDuration((s * 1e9).round() as u64)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Scale by a non-negative factor.
    pub fn mul_f64(&self, k: f64) -> Self {
        assert!(k.is_finite() && k >= 0.0, "scale must be non-negative");
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(&self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

// Sums saturate at the end of time (~584 years): a deadline computed
// from restored or derived state must not wrap into the past or abort.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, d: SimDuration) -> SimDuration {
        // A negative duration is always a scheduling logic bug; failing
        // loudly here beats wrapping into a ~585-year timer.
        // lint: allow(panic): duration underflow must abort the simulation
        SimDuration(self.0.checked_sub(d.0).expect("duration underflow"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Link bandwidth in bits per second, with a helper to compute serialization
/// delay of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Bits per second.
    pub fn bps(b: u64) -> Self {
        assert!(b > 0, "bandwidth must be positive");
        Bandwidth(b)
    }

    /// Kilobits per second.
    pub fn kbps(k: u64) -> Self {
        Bandwidth::bps(k * 1_000)
    }

    /// Megabits per second.
    pub fn mbps(m: u64) -> Self {
        Bandwidth::bps(m * 1_000_000)
    }

    /// Gigabits per second.
    pub fn gbps(g: u64) -> Self {
        Bandwidth::bps(g * 1_000_000_000)
    }

    /// Time to serialize `bytes` onto the wire.
    pub fn serialization_delay(&self, bytes: u32) -> SimDuration {
        // ns = bytes*8 / (bits/s) * 1e9 — computed in u128 and saturated so
        // pathological (bytes, bandwidth) combinations cannot wrap.
        let ns = (bytes as u128 * 8 * 1_000_000_000) / self.0 as u128;
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }

    /// Raw bits per second.
    pub fn as_bps(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(3).as_secs_f64(), 3.0);
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_secs_f64(0.25).as_nanos(), 250_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_secs_f64(), 1.5);
        assert_eq!(
            t.since(SimTime::from_secs(1)),
            SimDuration::from_millis(500)
        );
        // saturates
        assert_eq!(
            SimTime::from_secs(1).since(SimTime::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn serialization_delay_math() {
        // 1500 B at 100 Mbps = 120 us
        let d = Bandwidth::mbps(100).serialization_delay(1500);
        assert_eq!(d, SimDuration::from_micros(120));
        // 1 GB at 1 bps does not overflow
        let d = Bandwidth::bps(1).serialization_delay(u32::MAX);
        assert!(d.as_secs_f64() > 1e10); // saturates at u64::MAX ns
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_nanos(2)), "2ns");
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(
            SimDuration::from_secs(1).mul_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    #[should_panic]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_nanos(1) - SimDuration::from_nanos(2);
    }
}
