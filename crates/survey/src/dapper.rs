//! DAPPER-style in-network TCP performance diagnosis (Ghasemi, Benson,
//! Rexford — SOSR'17): watching a connection's headers from a vantage
//! point in the network, classify whether its throughput is limited by
//! the **sender** (not enough data offered), the **network** (congestion
//! window / loss bound), or the **receiver** (advertised window bound).
//!
//! The HotNets'19 survey (§3.2): "an attacker can implicate either of
//! these three for performance problems by manipulating TCP packets, and
//! falsely trigger the recourses suggested by the authors." The
//! manipulation is trivially available to a MitM: rewriting the receive
//! window in ACKs (e.g. `dui_attacks::primitives::WindowClamper`) makes a
//! congested path look receiver-limited; injecting duplicate ACKs makes a
//! healthy sender look network-limited.

use dui_netsim::packet::{Header, Packet};
use dui_netsim::time::{SimDuration, SimTime};
use dui_tcp::seq::{seq_dist, seq_gt};

/// DAPPER's diagnosis for one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// The application offers too little data (idle gaps between sends).
    Sender,
    /// Loss / congestion window limits throughput.
    Network,
    /// The advertised receive window limits throughput.
    Receiver,
    /// Not enough evidence yet.
    Unknown,
}

/// Streaming per-connection state for the diagnoser.
#[derive(Debug, Clone)]
pub struct DapperDiagnoser {
    /// Highest data sequence seen (next expected send).
    snd_nxt: Option<u32>,
    /// Highest cumulative ACK seen.
    ack: Option<u32>,
    /// Latest advertised receive window (bytes).
    rwnd: u32,
    /// Retransmission events observed (repeated data sequence).
    pub retransmissions: u64,
    /// Data segments observed.
    pub data_segments: u64,
    /// Duplicate-ACK events observed.
    pub dup_acks: u64,
    last_ack_value: Option<u32>,
    /// Time of the previous data segment.
    last_data_at: Option<SimTime>,
    /// Idle gaps (data-to-data spacing above the idle threshold).
    pub idle_gaps: u64,
    /// Samples of flight-size / rwnd utilization.
    rwnd_pressure: u64,
    rwnd_samples: u64,
    /// A data gap longer than this, while the window is open, implicates
    /// the sender.
    pub idle_threshold: SimDuration,
}

impl Default for DapperDiagnoser {
    fn default() -> Self {
        Self::new()
    }
}

impl DapperDiagnoser {
    /// Fresh diagnoser.
    pub fn new() -> Self {
        DapperDiagnoser {
            snd_nxt: None,
            ack: None,
            rwnd: u32::MAX,
            retransmissions: 0,
            data_segments: 0,
            dup_acks: 0,
            last_ack_value: None,
            last_data_at: None,
            idle_gaps: 0,
            rwnd_pressure: 0,
            rwnd_samples: 0,
            idle_threshold: SimDuration::from_millis(300),
        }
    }

    /// Feed one packet observed at the vantage point. `toward_receiver`
    /// marks the data direction (the caller knows the flow orientation).
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet, toward_receiver: bool) {
        let Header::Tcp {
            seq,
            ack,
            flags,
            window,
        } = pkt.header
        else {
            return;
        };
        if toward_receiver && pkt.payload > 0 {
            self.data_segments += 1;
            if let Some(t) = self.last_data_at {
                if now.since(t) > self.idle_threshold {
                    self.idle_gaps += 1;
                }
            }
            self.last_data_at = Some(now);
            match self.snd_nxt {
                Some(nxt) if !seq_gt(seq.wrapping_add(pkt.payload), nxt) => {
                    // Sequence does not advance the frontier: retransmission.
                    self.retransmissions += 1;
                }
                _ => {
                    self.snd_nxt = Some(seq.wrapping_add(pkt.payload));
                }
            }
            // Flight-size vs advertised window (receiver pressure).
            if let (Some(nxt), Some(acked)) = (self.snd_nxt, self.ack) {
                let flight = seq_dist(acked, nxt);
                self.rwnd_samples += 1;
                if self.rwnd != 0 && flight as u64 * 10 >= self.rwnd as u64 * 8 {
                    self.rwnd_pressure += 1; // ≥80% of the window in flight
                }
            }
        } else if !toward_receiver && flags.ack {
            self.rwnd = window;
            match self.last_ack_value {
                Some(prev) if prev == ack => self.dup_acks += 1,
                _ => {}
            }
            self.last_ack_value = Some(ack);
            match self.ack {
                Some(prev) if !seq_gt(ack, prev) => {}
                _ => self.ack = Some(ack),
            }
        }
    }

    /// Loss rate proxy: retransmitted fraction of data segments.
    fn retx_rate(&self) -> f64 {
        if self.data_segments == 0 {
            0.0
        } else {
            self.retransmissions as f64 / self.data_segments as f64
        }
    }

    /// Fraction of samples where the flight filled ≥80% of the advertised
    /// window.
    fn rwnd_pressure_rate(&self) -> f64 {
        if self.rwnd_samples == 0 {
            0.0
        } else {
            self.rwnd_pressure as f64 / self.rwnd_samples as f64
        }
    }

    /// Idle-gap rate per data segment.
    fn idle_rate(&self) -> f64 {
        if self.data_segments == 0 {
            0.0
        } else {
            self.idle_gaps as f64 / self.data_segments as f64
        }
    }

    /// DAPPER's classification, in its precedence order: receiver-window
    /// pressure first (cheap to check and most actionable), then
    /// network (loss / dup-ACKs), then sender idleness.
    pub fn diagnose(&self) -> Bottleneck {
        if self.data_segments < 20 {
            return Bottleneck::Unknown;
        }
        if self.rwnd_pressure_rate() > 0.5 {
            return Bottleneck::Receiver;
        }
        if self.retx_rate() > 0.01 || self.dup_acks as f64 / self.data_segments as f64 > 0.2 {
            return Bottleneck::Network;
        }
        if self.idle_rate() > 0.05 {
            return Bottleneck::Sender;
        }
        Bottleneck::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dui_netsim::packet::{Addr, FlowKey, TcpFlags};

    fn key() -> FlowKey {
        FlowKey::tcp(Addr::new(1, 1, 1, 1), 100, Addr::new(2, 2, 2, 2), 80)
    }

    fn data(seq: u32) -> Packet {
        Packet::tcp(key(), seq, 0, TcpFlags::default(), 1000)
    }

    fn ack_pkt(ack: u32, window: u32) -> Packet {
        let mut p = Packet::tcp(
            key().reversed(),
            0,
            ack,
            TcpFlags {
                ack: true,
                ..TcpFlags::default()
            },
            0,
        );
        if let Header::Tcp { window: w, .. } = &mut p.header {
            *w = window;
        }
        p
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn smooth_acked_stream_is_unclassified() {
        // Steady pipeline, immediate acks, huge window: nothing to blame.
        let mut d = DapperDiagnoser::new();
        for i in 0..100u32 {
            d.on_packet(t(i as u64 * 10), &data(1 + i * 1000), true);
            d.on_packet(
                t(i as u64 * 10 + 5),
                &ack_pkt(1 + i * 1000 + 1000, 1 << 20),
                false,
            );
        }
        assert_eq!(d.diagnose(), Bottleneck::Unknown);
        assert_eq!(d.retransmissions, 0);
    }

    #[test]
    fn idle_sender_implicated() {
        let mut d = DapperDiagnoser::new();
        for i in 0..40u32 {
            // 400 ms between sends: application-limited.
            d.on_packet(t(i as u64 * 400), &data(1 + i * 1000), true);
            d.on_packet(
                t(i as u64 * 400 + 5),
                &ack_pkt(1 + i * 1000 + 1000, 1 << 20),
                false,
            );
        }
        assert_eq!(d.diagnose(), Bottleneck::Sender);
    }

    #[test]
    fn lossy_path_implicates_network() {
        let mut d = DapperDiagnoser::new();
        let mut seq = 1u32;
        for i in 0..100u32 {
            d.on_packet(t(i as u64 * 10), &data(seq), true);
            if i % 10 == 0 {
                // Retransmit the same segment.
                d.on_packet(t(i as u64 * 10 + 3), &data(seq), true);
            }
            seq = seq.wrapping_add(1000);
            d.on_packet(t(i as u64 * 10 + 5), &ack_pkt(seq, 1 << 20), false);
        }
        assert_eq!(d.diagnose(), Bottleneck::Network);
    }

    #[test]
    fn tiny_advertised_window_implicates_receiver() {
        let mut d = DapperDiagnoser::new();
        let mut seq = 1u32;
        let mut acked = 1u32;
        for i in 0..100u32 {
            d.on_packet(t(i as u64 * 10), &data(seq), true);
            seq = seq.wrapping_add(1000);
            // The receiver acks slowly and advertises a 1-segment window:
            // flight stays pinned at the window.
            if i % 2 == 0 {
                acked = acked.wrapping_add(1000);
            }
            d.on_packet(t(i as u64 * 10 + 5), &ack_pkt(acked, 1200), false);
        }
        assert_eq!(d.diagnose(), Bottleneck::Receiver);
    }

    #[test]
    fn window_clamping_attack_flips_diagnosis() {
        // The §3.2 attack: a healthy, pipelined connection; the MitM
        // rewrites ACK windows down. DAPPER flips from Unknown/healthy to
        // Receiver — implicating an innocent endpoint.
        let run = |clamp: Option<u32>| {
            let mut d = DapperDiagnoser::new();
            let mut seq = 1u32;
            let mut acked = 1u32;
            for i in 0..100u32 {
                d.on_packet(t(i as u64 * 10), &data(seq), true);
                seq = seq.wrapping_add(1000);
                if i % 3 != 0 {
                    acked = acked.wrapping_add(1000);
                }
                let honest_window = 1 << 20;
                let w = clamp.unwrap_or(honest_window);
                d.on_packet(t(i as u64 * 10 + 5), &ack_pkt(acked, w), false);
            }
            d.diagnose()
        };
        assert_ne!(run(None), Bottleneck::Receiver);
        assert_eq!(run(Some(2000)), Bottleneck::Receiver);
    }

    #[test]
    fn dup_ack_injection_implicates_network() {
        // Healthy stream + attacker-injected duplicate ACKs.
        let mut d = DapperDiagnoser::new();
        let mut seq = 1u32;
        for i in 0..100u32 {
            d.on_packet(t(i as u64 * 10), &data(seq), true);
            seq = seq.wrapping_add(1000);
            d.on_packet(t(i as u64 * 10 + 5), &ack_pkt(seq, 1 << 20), false);
            // Injected duplicates of the same cumulative ACK.
            d.on_packet(t(i as u64 * 10 + 6), &ack_pkt(seq, 1 << 20), false);
        }
        assert_eq!(d.diagnose(), Bottleneck::Network);
    }

    #[test]
    fn needs_evidence_before_accusing() {
        let mut d = DapperDiagnoser::new();
        d.on_packet(t(0), &data(1), true);
        assert_eq!(d.diagnose(), Bottleneck::Unknown);
    }
}
