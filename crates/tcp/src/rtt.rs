//! RTT estimation and retransmission timeout per RFC 6298 (Jacobson /
//! Karn).
//!
//! The RTO produced here is security-relevant: the paper's §5 Blink
//! countermeasure checks whether observed retransmission timing is
//! *plausible* given the RTT distribution of legitimate flows — attackers
//! emitting fake retransmissions at arbitrary times violate the RTO
//! back-off pattern this module encodes.

use dui_netsim::time::SimDuration;
use dui_stats::wire::{DecodeError, Encoder, ErrorKind, Reader};

/// Jacobson/Karn smoothed RTT estimator with RFC 6298 RTO computation and
/// exponential back-off.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    backoff_exp: u32,
    min_rto: SimDuration,
    max_rto: SimDuration,
}

impl RttEstimator {
    /// New estimator. `min_rto` bounds the computed RTO from below
    /// (RFC 6298 mandates 1 s, the [`RttEstimator::default`]; some modern
    /// stacks use ~200 ms).
    pub fn new(initial_rto: SimDuration, min_rto: SimDuration, max_rto: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: initial_rto,
            backoff_exp: 0,
            min_rto,
            max_rto,
        }
    }

    /// Feed one RTT sample (must be from a never-retransmitted segment —
    /// Karn's rule — which the caller enforces).
    pub fn sample(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = SimDuration::from_nanos(rtt.as_nanos() / 2);
            }
            Some(srtt) => {
                // rttvar = 3/4 rttvar + 1/4 |srtt - rtt|
                let err = if srtt >= rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar =
                    SimDuration::from_nanos((3 * self.rttvar.as_nanos() + err.as_nanos()) / 4);
                // srtt = 7/8 srtt + 1/8 rtt
                self.srtt = Some(SimDuration::from_nanos(
                    (7 * srtt.as_nanos() + rtt.as_nanos()) / 8,
                ));
            }
        }
        self.backoff_exp = 0;
        self.recompute();
    }

    fn recompute(&mut self) {
        let base = match self.srtt {
            Some(srtt) => {
                let var4 = SimDuration::from_nanos(4 * self.rttvar.as_nanos());
                srtt + var4
            }
            None => self.rto,
        };
        let backed_off =
            SimDuration::from_nanos(base.as_nanos().saturating_mul(1u64 << self.backoff_exp));
        self.rto = backed_off.clamp(self.min_rto, self.max_rto);
    }

    /// An RTO expired: double the timeout (bounded by `max_rto`).
    pub fn on_timeout(&mut self) {
        self.backoff_exp = (self.backoff_exp + 1).min(16);
        self.recompute();
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Current smoothed RTT, if any sample was taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// The checkpoint form: `srtt`, `rttvar`, `rto`, the back-off
    /// exponent, `min_rto`, `max_rto`, durations in nanoseconds.
    pub fn encode<E: Encoder>(&self, e: &mut E) {
        e.opt(self.srtt.map(|s| s.as_nanos()), E::u64);
        e.u64(self.rttvar.as_nanos());
        e.u64(self.rto.as_nanos());
        e.u32(self.backoff_exp);
        e.u64(self.min_rto.as_nanos());
        e.u64(self.max_rto.as_nanos());
    }

    /// Inverse of [`RttEstimator::encode`]. Refuses what the estimator
    /// cannot have produced and could not compute on: a back-off exponent
    /// past its cap of 16, or a floor above the ceiling.
    pub fn decode(r: &mut Reader) -> Result<RttEstimator, DecodeError> {
        fn duration(r: &mut Reader, what: &'static str) -> Result<SimDuration, DecodeError> {
            r.quantity(what).map(SimDuration::from_nanos)
        }
        let est = RttEstimator {
            srtt: r.opt("srtt", duration)?,
            rttvar: duration(r, "rttvar")?,
            rto: duration(r, "rto")?,
            backoff_exp: r.u32("rto backoff")?,
            min_rto: duration(r, "min rto")?,
            max_rto: duration(r, "max rto")?,
        };
        if est.backoff_exp > 16 || est.min_rto > est.max_rto {
            return Err(r.error("rtt estimator", ErrorKind::Invalid));
        }
        Ok(est)
    }
}

impl Default for RttEstimator {
    /// 1 s initial RTO and 1 s floor (both per RFC 6298), 60 s ceiling.
    ///
    /// The RFC floor matters for the §5 Blink countermeasure: with it,
    /// genuine failure-driven first retransmissions arrive ≥1 s after the
    /// last delivered segment, clearly separable from an attacker's
    /// sub-second keep-alive cadence.
    fn default() -> Self {
        RttEstimator::new(
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
            SimDuration::from_secs(60),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new(
            SimDuration::from_secs(1),
            SimDuration::from_millis(200),
            SimDuration::from_secs(60),
        );
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
        // rto = srtt + 4*rttvar = 100 + 4*50 = 300ms
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn converges_on_stable_rtt() {
        let mut e = RttEstimator::default();
        for _ in 0..100 {
            e.sample(SimDuration::from_millis(80));
        }
        let srtt = e.srtt().unwrap();
        assert!((srtt.as_secs_f64() - 0.08).abs() < 0.001);
        // With zero variance the RFC 6298 1 s floor dominates.
        assert_eq!(e.rto(), SimDuration::from_secs(1));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = RttEstimator::new(
            SimDuration::from_secs(1),
            SimDuration::from_millis(200),
            SimDuration::from_secs(60),
        );
        e.sample(SimDuration::from_millis(100)); // rto 300ms
        e.on_timeout();
        assert_eq!(e.rto(), SimDuration::from_millis(600));
        e.on_timeout();
        assert_eq!(e.rto(), SimDuration::from_millis(1200));
        for _ in 0..20 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(60), "capped at max");
    }

    #[test]
    fn sample_resets_backoff() {
        let mut e = RttEstimator::default();
        e.sample(SimDuration::from_millis(100));
        e.on_timeout();
        e.on_timeout();
        assert!(e.rto() > SimDuration::from_secs(1));
        e.sample(SimDuration::from_millis(100));
        assert!(e.rto() <= SimDuration::from_secs(1));
    }

    #[test]
    fn variance_raises_rto() {
        let floor = SimDuration::from_millis(50);
        let mut stable =
            RttEstimator::new(SimDuration::from_secs(1), floor, SimDuration::from_secs(60));
        let mut jittery =
            RttEstimator::new(SimDuration::from_secs(1), floor, SimDuration::from_secs(60));
        for i in 0..50 {
            stable.sample(SimDuration::from_millis(100));
            jittery.sample(SimDuration::from_millis(if i % 2 == 0 { 50 } else { 150 }));
        }
        assert!(jittery.rto() > stable.rto());
    }

    #[test]
    fn initial_rto_used_before_samples() {
        let e = RttEstimator::default();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
    }
}
