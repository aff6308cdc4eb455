//! TCP Reno congestion control (slow start, congestion avoidance, fast
//! recovery entry) at segment granularity.
//!
//! This is the "hard-coded rules (e.g., cut rate by half on loss)" control
//! the PCC paper — and the HotNets'19 paper's §4.2 — contrast PCC against.

use dui_stats::wire::{DecodeError, Encoder, Reader};

/// Reno congestion state. `cwnd` is in segments (fractional during
/// congestion avoidance).
#[derive(Debug, Clone)]
pub struct Reno {
    cwnd: f64,
    ssthresh: f64,
}

impl Reno {
    /// New controller with the given initial window (segments).
    pub fn new(initial_cwnd: f64) -> Self {
        assert!(initial_cwnd >= 1.0, "cwnd must be at least one segment");
        Reno {
            cwnd: initial_cwnd,
            ssthresh: f64::INFINITY,
        }
    }

    /// Current congestion window in whole segments (at least 1).
    pub fn cwnd_segments(&self) -> u32 {
        self.cwnd.max(1.0) as u32
    }

    /// Raw fractional window.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Slow-start threshold.
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// In slow start?
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// One (new, non-duplicate) ACK for one segment arrived.
    pub fn on_ack(&mut self) {
        if self.in_slow_start() {
            self.cwnd += 1.0;
        } else {
            self.cwnd += 1.0 / self.cwnd;
        }
    }

    /// Triple-duplicate-ACK loss: halve (fast recovery entry).
    pub fn on_fast_retransmit(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
    }

    /// Retransmission timeout: collapse to one segment (RFC 5681).
    pub fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
    }

    /// The checkpoint form: `cwnd`, then `ssthresh` (which may be
    /// infinite).
    pub fn encode<E: Encoder>(&self, e: &mut E) {
        e.f64(self.cwnd);
        e.f64(self.ssthresh);
    }

    /// Inverse of [`Reno::encode`].
    pub fn decode(r: &mut Reader) -> Result<Reno, DecodeError> {
        Ok(Reno {
            cwnd: r.f64("cwnd")?,
            ssthresh: r.f64("ssthresh")?,
        })
    }
}

impl Default for Reno {
    fn default() -> Self {
        Reno::new(10.0) // RFC 6928 IW10
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut r = Reno::new(2.0);
        // One ACK per in-flight segment => +1 per ACK => doubling per RTT.
        for _ in 0..2 {
            r.on_ack();
        }
        assert_eq!(r.cwnd_segments(), 4);
        for _ in 0..4 {
            r.on_ack();
        }
        assert_eq!(r.cwnd_segments(), 8);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut r = Reno::new(10.0);
        r.on_fast_retransmit(); // ssthresh = 5, cwnd = 5 -> now in CA
        assert!(!r.in_slow_start());
        let start = r.cwnd();
        // cwnd ACKs ≈ one RTT => +1 segment.
        for _ in 0..(start as u32) {
            r.on_ack();
        }
        // cwnd-many ACKs give slightly less than +1 (harmonic sum), ~0.93.
        assert!((r.cwnd() - (start + 1.0)).abs() < 0.15);
    }

    #[test]
    fn fast_retransmit_halves() {
        let mut r = Reno::new(16.0);
        r.on_fast_retransmit();
        assert_eq!(r.cwnd_segments(), 8);
        assert_eq!(r.ssthresh(), 8.0);
    }

    #[test]
    fn timeout_collapses_to_one() {
        let mut r = Reno::new(16.0);
        r.on_timeout();
        assert_eq!(r.cwnd_segments(), 1);
        assert_eq!(r.ssthresh(), 8.0);
        assert!(r.in_slow_start());
    }

    #[test]
    fn ssthresh_floor_is_two() {
        let mut r = Reno::new(1.0);
        r.on_timeout();
        assert_eq!(r.ssthresh(), 2.0);
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        Reno::new(0.0);
    }
}
