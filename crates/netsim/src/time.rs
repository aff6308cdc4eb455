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

/// Each newtype over an integer is written as its integer (by
/// `dui_stats::wire::{Var, Qty, VarQty}`).
macro_rules! word {
    ($($t:ty: $int:ty),*) => {$(impl dui_stats::wire::Word for $t {
        #[inline] fn word(self) -> u64 { self.0 as u64 }
        #[inline] fn from_word(w: u64) -> Option<Self> { <$int>::try_from(w).ok().map(Self) }
    })*};
}

word!(SimTime: u64, SimDuration: u64, crate::packet::Addr: u32);
word!(crate::topology::NodeId: usize, crate::topology::LinkId: usize);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
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
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
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
    #[expect(
        clippy::expect_used,
        reason = "duration underflow must abort the simulation"
    )]
    fn sub(self, d: SimDuration) -> SimDuration {
        // A negative duration is always a scheduling logic bug; failing
        // loudly here beats wrapping into a ~585-year timer.
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
        // ns = bytes*8 / (bits/s) * 1e9. Every packet-sized count fits
        // the numerator in a u64 (up to 2.3 GB); only a larger one takes
        // the 128-bit division, whose software routine is measurable on
        // the per-packet path.
        match u64::from(bytes).checked_mul(8_000_000_000) {
            Some(bits_ns) => SimDuration(bits_ns / self.0),
            None => self.serialization_delay_wide(bytes),
        }
    }

    /// [`Bandwidth::serialization_delay`] in u128, saturated so
    /// pathological (bytes, bandwidth) combinations cannot wrap.
    fn serialization_delay_wide(&self, bytes: u32) -> SimDuration {
        let ns = (u128::from(bytes) * 8_000_000_000) / u128::from(self.0);
        SimDuration(ns.min(u128::from(u64::MAX)) as u64)
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
        assert_eq!(d, SimDuration(u64::MAX));
    }

    #[test]
    fn serialization_delay_u64_path_agrees_with_u128() {
        let agree = |bytes: u32, bps: u64| {
            let bw = Bandwidth::bps(bps);
            assert_eq!(
                bw.serialization_delay(bytes),
                bw.serialization_delay_wide(bytes),
                "{bytes} B at {bps} bps"
            );
        };
        let edges = [1 << 31, (1 << 31) + 1, u32::MAX];
        for bytes in edges {
            for bps in [1, 7, 1_000_000_007, 1 << 40, u64::MAX] {
                agree(bytes, bps);
            }
        }
        // 2^31 B still takes the u64 path; u32::MAX B does not.
        assert!(u64::from(1u32 << 31).checked_mul(8_000_000_000).is_some());
        assert!(u64::from(u32::MAX).checked_mul(8_000_000_000).is_none());
        let mut rng = dui_stats::Rng::new(11);
        for _ in 0..10_000 {
            let bytes = rng.next_u32() >> rng.below(32);
            let bps = (rng.next_u64() >> rng.below(64)).max(1);
            agree(bytes, bps);
        }
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(2)), "2.000us");
        assert_eq!(format!("{}", SimDuration::from_nanos(2)), "2ns");
    }

    #[test]
    #[should_panic]
    fn duration_sub_underflow_panics() {
        let _ = SimDuration::from_nanos(1) - SimDuration::from_nanos(2);
    }
}
