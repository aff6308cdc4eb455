//! Monitor-interval accounting: attributing sent / delivered packets to
//! MIs and producing per-MI reports.

use dui_netsim::time::{SimDuration, SimTime};
use dui_stats::wire::Encoder;

/// The finalized measurement of one monitor interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiReport {
    /// MI index.
    pub id: u64,
    /// The sending rate used (bytes/second).
    pub rate: f64,
    /// Packets sent in the MI.
    pub sent: u64,
    /// Packets confirmed delivered.
    pub delivered: u64,
    /// Loss fraction (0 when nothing was sent).
    pub loss: f64,
    /// MI start time.
    pub start: SimTime,
    /// MI duration.
    pub duration: SimDuration,
}

impl MiReport {
    /// Achieved goodput in bytes/second given `pkt_size` payload bytes.
    pub fn goodput(&self, pkt_size: u32) -> f64 {
        self.delivered as f64 * pkt_size as f64 / self.duration.as_secs_f64().max(1e-9)
    }
}

#[derive(Debug, Clone)]
struct OpenMi {
    id: u64,
    rate: f64,
    start: SimTime,
    end: SimTime,
    sent: u64,
    delivered: u64,
}

/// Tracks which MI each sequence number belongs to and closes MIs after a
/// grace period (one RTT estimate) so in-flight acknowledgements count.
#[derive(Debug, Clone, Default)]
pub struct MonitorAccounting {
    open: Vec<OpenMi>,
    /// Sequence ranges: (first_seq, last_seq_exclusive, mi_id), append-only
    /// per MI.
    ranges: Vec<(u64, u64, u64)>,
    next_mi: u64,
    finalized: Vec<MiReport>,
}

impl MonitorAccounting {
    /// Empty accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a new MI covering `[start, end)` at `rate`; returns its id.
    pub fn open_mi(&mut self, start: SimTime, end: SimTime, rate: f64) -> u64 {
        let id = self.next_mi;
        self.next_mi += 1;
        self.open.push(OpenMi {
            id,
            rate,
            start,
            end,
            sent: 0,
            delivered: 0,
        });
        self.ranges.push((u64::MAX, u64::MAX, id));
        id
    }

    /// Record a packet with sequence `seq` sent in MI `mi`.
    pub fn on_send(&mut self, mi: u64, seq: u64) {
        if let Some(m) = self.open.iter_mut().find(|m| m.id == mi) {
            m.sent += 1;
        }
        if let Some(r) = self.ranges.iter_mut().find(|r| r.2 == mi) {
            if r.0 == u64::MAX {
                r.0 = seq;
            }
            r.1 = seq + 1;
        }
    }

    /// Record an acknowledgement for sequence `seq`.
    pub fn on_ack(&mut self, seq: u64) {
        let Some(&(_, _, mi)) = self
            .ranges
            .iter()
            .find(|&&(a, b, _)| a != u64::MAX && seq >= a && seq < b)
        else {
            return;
        };
        if let Some(m) = self.open.iter_mut().find(|m| m.id == mi) {
            m.delivered += 1;
        }
    }

    /// Close every MI whose end + grace has passed; returns new reports.
    pub fn finalize_due(&mut self, now: SimTime, grace: SimDuration) -> Vec<MiReport> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.open.len() {
            if now >= self.open[i].end + grace {
                let m = self.open.remove(i);
                let loss = if m.sent == 0 {
                    0.0
                } else {
                    1.0 - m.delivered as f64 / m.sent as f64
                };
                let report = MiReport {
                    id: m.id,
                    rate: m.rate,
                    sent: m.sent,
                    delivered: m.delivered,
                    loss: loss.max(0.0),
                    start: m.start,
                    duration: m.end.since(m.start),
                };
                self.ranges.retain(|r| r.2 != m.id);
                self.finalized.push(report);
                out.push(report);
            } else {
                i += 1;
            }
        }
        out
    }

    /// All finalized reports so far.
    pub fn history(&self) -> &[MiReport] {
        &self.finalized
    }

    /// The accounting state (all containers are `Vec`s in insertion
    /// order, so iteration is already stable).
    pub fn encode<E: Encoder>(&self, e: &mut E) {
        e.seq(&self.open, |e, m| {
            e.u64(m.id);
            e.f64(m.rate);
            e.u64(m.start.0);
            e.u64(m.end.0);
            e.u64(m.sent);
            e.u64(m.delivered);
        });
        e.seq(&self.ranges, |e, &(a, b, id)| {
            e.u64(a);
            e.u64(b);
            e.u64(id);
        });
        e.u64(self.next_mi);
        e.seq(&self.finalized, |e, r| {
            e.u64(r.id);
            e.f64(r.rate);
            e.u64(r.sent);
            e.u64(r.delivered);
            e.f64(r.loss);
            e.u64(r.start.0);
            e.u64(r.duration.as_nanos());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn clean_mi_reports_zero_loss() {
        let mut acc = MonitorAccounting::new();
        let mi = acc.open_mi(t(0), t(100), 1e6);
        for seq in 0..10 {
            acc.on_send(mi, seq);
        }
        for seq in 0..10 {
            acc.on_ack(seq);
        }
        let reports = acc.finalize_due(t(150), SimDuration::from_millis(40));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].sent, 10);
        assert_eq!(reports[0].delivered, 10);
        assert_eq!(reports[0].loss, 0.0);
    }

    #[test]
    fn losses_counted() {
        let mut acc = MonitorAccounting::new();
        let mi = acc.open_mi(t(0), t(100), 1e6);
        for seq in 0..10 {
            acc.on_send(mi, seq);
        }
        for seq in 0..7 {
            acc.on_ack(seq);
        }
        let reports = acc.finalize_due(t(200), SimDuration::ZERO);
        assert!((reports[0].loss - 0.3).abs() < 1e-12);
    }

    #[test]
    fn grace_period_delays_finalization() {
        let mut acc = MonitorAccounting::new();
        acc.open_mi(t(0), t(100), 1e6);
        assert!(acc
            .finalize_due(t(110), SimDuration::from_millis(50))
            .is_empty());
        assert_eq!(
            acc.finalize_due(t(151), SimDuration::from_millis(50)).len(),
            1
        );
    }

    #[test]
    fn acks_attributed_to_correct_mi() {
        let mut acc = MonitorAccounting::new();
        let a = acc.open_mi(t(0), t(100), 1e6);
        let b = acc.open_mi(t(100), t(200), 2e6);
        acc.on_send(a, 0);
        acc.on_send(a, 1);
        acc.on_send(b, 2);
        acc.on_ack(0);
        acc.on_ack(2);
        let reports = acc.finalize_due(t(500), SimDuration::ZERO);
        let ra = reports.iter().find(|r| r.id == a).unwrap();
        let rb = reports.iter().find(|r| r.id == b).unwrap();
        assert_eq!(ra.delivered, 1);
        assert_eq!(ra.sent, 2);
        assert_eq!(rb.delivered, 1);
        assert_eq!(rb.sent, 1);
    }

    #[test]
    fn late_acks_after_finalize_ignored() {
        let mut acc = MonitorAccounting::new();
        let mi = acc.open_mi(t(0), t(100), 1e6);
        acc.on_send(mi, 0);
        let _ = acc.finalize_due(t(500), SimDuration::ZERO);
        acc.on_ack(0); // no panic, no effect
        assert_eq!(acc.history()[0].delivered, 0);
    }

    #[test]
    fn empty_mi_zero_loss() {
        let mut acc = MonitorAccounting::new();
        acc.open_mi(t(0), t(100), 1e6);
        let reports = acc.finalize_due(t(500), SimDuration::ZERO);
        assert_eq!(reports[0].loss, 0.0);
    }

    #[test]
    fn goodput_math() {
        let r = MiReport {
            id: 0,
            rate: 0.0,
            sent: 100,
            delivered: 50,
            loss: 0.5,
            start: t(0),
            duration: SimDuration::from_millis(100),
        };
        assert!((r.goodput(1000) - 500_000.0).abs() < 1.0);
    }
}
