//! Packets, addresses, flows and prefixes.
//!
//! Packets are plain structs rather than byte buffers: the systems under
//! study (Blink, PCC, Pytheas, traceroute) react to *header fields and
//! metadata* — sequence numbers, timing, TTLs, sizes — so modelling those
//! fields directly keeps the simulator fast while preserving every signal
//! the paper's attacks manipulate. Crucially, nothing stops a simulated
//! attacker from forging any field (there is no authentication on the real
//! Internet either); that asymmetry is the paper's whole point.

use crate::time::SimTime;
use dui_stats::wire::{DecodeError, Encoder, ErrorKind, Reader};
use std::fmt;

/// An IPv4-style 32-bit address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u32);

impl Addr {
    /// Dotted-quad constructor.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr(u32::from_be_bytes([a, b, c, d]))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// A CIDR prefix (`addr/len`). Blink monitors and reroutes traffic at prefix
/// granularity; Pytheas groups sessions partly by prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    /// Network address (host bits are masked off by [`Prefix::new`]).
    pub addr: Addr,
    /// Prefix length in bits, `0..=32`.
    pub len: u8,
}

impl Prefix {
    /// Construct, masking off host bits.
    pub const fn new(addr: Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length must be <= 32");
        Prefix {
            addr: Addr(addr.0 & Self::mask(len)),
            len,
        }
    }

    const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// Does this prefix contain `addr`?
    pub fn contains(&self, addr: Addr) -> bool {
        (addr.0 & Self::mask(self.len)) == self.addr.0
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

/// Transport protocol discriminator for the 5-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
    /// Internet Control Message Protocol (no ports; they are zero).
    Icmp,
}

impl Proto {
    /// Stable wire code (IANA protocol numbers), used by digests and
    /// the record/replay byte format.
    pub fn code(self) -> u8 {
        match self {
            Proto::Tcp => 6,
            Proto::Udp => 17,
            Proto::Icmp => 1,
        }
    }

    /// Inverse of [`Proto::code`].
    pub fn from_code(code: u8) -> Option<Proto> {
        match code {
            6 => Some(Proto::Tcp),
            17 => Some(Proto::Udp),
            1 => Some(Proto::Icmp),
            _ => None,
        }
    }

    fn decode(r: &mut Reader) -> Result<Proto, DecodeError> {
        Proto::from_code(r.u8("flow key proto")?)
            .ok_or_else(|| r.error("flow key proto", ErrorKind::Tag))
    }
}

/// A flow 5-tuple. Blink's flow selector hashes this to pick monitored
/// flows; spoofing hosts can fabricate arbitrary 5-tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// Protocol.
    pub proto: Proto,
}

impl FlowKey {
    /// TCP 5-tuple convenience constructor.
    pub fn tcp(src: Addr, sport: u16, dst: Addr, dport: u16) -> Self {
        FlowKey {
            src,
            dst,
            sport,
            dport,
            proto: Proto::Tcp,
        }
    }

    /// UDP 5-tuple convenience constructor.
    pub fn udp(src: Addr, sport: u16, dst: Addr, dport: u16) -> Self {
        FlowKey {
            src,
            dst,
            sport,
            dport,
            proto: Proto::Udp,
        }
    }

    /// Size of the fixed-width form [`FlowKey::encode`] writes.
    pub const WIRE_BYTES: usize = 13;

    /// Fixed width: `src`, `dst` (`u32`), `sport`, `dport` (`u16`), then
    /// the protocol code.
    pub fn encode<E: Encoder>(&self, e: &mut E) {
        e.u32(self.src.0);
        e.u32(self.dst.0);
        e.u16(self.sport);
        e.u16(self.dport);
        e.u8(self.proto.code());
    }

    /// Inverse of [`FlowKey::encode`].
    pub fn decode(r: &mut Reader) -> Result<FlowKey, DecodeError> {
        Ok(FlowKey {
            src: Addr(r.u32("flow key src")?),
            dst: Addr(r.u32("flow key dst")?),
            sport: r.u16("flow key sport")?,
            dport: r.u16("flow key dport")?,
            proto: Proto::decode(r)?,
        })
    }

    /// The reverse direction of this flow.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
            sport: self.dport,
            dport: self.sport,
            proto: self.proto,
        }
    }

    /// Stable 64-bit digest of the 5-tuple, mixed with `salt`.
    ///
    /// This is the hash the Blink flow selector indexes its cell array with;
    /// per Kerckhoff's principle the attacker is assumed to know the function
    /// (but not the switch's secret salt, if one is configured).
    pub fn digest(&self, salt: u64) -> u64 {
        let a = ((self.src.0 as u64) << 32) | self.dst.0 as u64;
        let b = ((self.sport as u64) << 32)
            | ((self.dport as u64) << 16)
            | match self.proto {
                Proto::Tcp => 6,
                Proto::Udp => 17,
                Proto::Icmp => 1,
            };
        dui_stats::rng::mix64(dui_stats::rng::mix64(a, b), salt)
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} {}:{} -> {}:{}",
            self.proto, self.src, self.sport, self.dst, self.dport
        )
    }
}

/// TCP header flags we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Synchronize (connection setup).
    pub syn: bool,
    /// Acknowledgement field valid.
    pub ack: bool,
    /// Finish (graceful close).
    pub fin: bool,
    /// Reset.
    pub rst: bool,
}

/// Protocol headers carried by a packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Header {
    /// TCP segment header: what Blink and DAPPER-style programs inspect.
    Tcp {
        /// Sequence number of the first payload byte.
        seq: u32,
        /// Cumulative acknowledgement number.
        ack: u32,
        /// Flags.
        flags: TcpFlags,
        /// Advertised receive window (bytes).
        window: u32,
    },
    /// UDP datagram (no interesting fields beyond the 5-tuple for us).
    Udp,
    /// ICMP echo request (`ping` / traceroute probe body), carrying the
    /// probe's original TTL so responders can identify which hop expired it.
    IcmpEchoRequest {
        /// Identifier chosen by the prober.
        ident: u16,
        /// Sequence number of the probe.
        seq: u16,
    },
    /// ICMP echo reply.
    IcmpEchoReply {
        /// Identifier echoed from the request.
        ident: u16,
        /// Sequence echoed from the request.
        seq: u16,
    },
    /// ICMP time-exceeded, emitted by the router where a probe's TTL hit
    /// zero. `reported_by` is the *claimed* router address — the paper's
    /// §4.3 point is that nothing authenticates this claim.
    IcmpTimeExceeded {
        /// Source address claimed by the reply (spoofable).
        reported_by: Addr,
        /// Identifier of the expired probe.
        probe_ident: u16,
        /// Sequence of the expired probe.
        probe_seq: u16,
    },
}

/// A simulated packet.
#[derive(Debug, PartialEq)]
pub struct Packet {
    /// Globally unique id (assigned by the simulator at injection).
    pub id: u64,
    /// Flow 5-tuple.
    pub key: FlowKey,
    /// Protocol header.
    pub header: Header,
    /// On-the-wire size in bytes (headers + payload).
    pub size: u32,
    /// Remaining time-to-live in hops.
    pub ttl: u8,
    /// Time the packet entered the network (stamped at injection).
    pub sent_at: SimTime,
    /// Number of payload bytes (for transport accounting).
    pub payload: u32,
}

/// Default initial TTL, matching common OS defaults.
pub const DEFAULT_TTL: u8 = 64;

impl Packet {
    /// A field-for-field copy. `Packet` is deliberately not `Clone`:
    /// packets move through the engine by [`PacketRef`](crate::arena::PacketRef)
    /// handle, and this is the one spelling of a copy, so every site
    /// that makes one (a checkpoint, a cross-domain delivery) is a
    /// call to it.
    pub fn duplicate(&self) -> Packet {
        Packet {
            id: self.id,
            key: self.key,
            header: self.header.clone(),
            size: self.size,
            ttl: self.ttl,
            sent_at: self.sent_at,
            payload: self.payload,
        }
    }

    /// Build a TCP data/ack segment. `size` is payload + 40 B of headers.
    pub fn tcp(key: FlowKey, seq: u32, ack: u32, flags: TcpFlags, payload: u32) -> Self {
        assert_eq!(key.proto, Proto::Tcp, "tcp packet needs a tcp key");
        Packet {
            id: 0,
            key,
            header: Header::Tcp {
                seq,
                ack,
                flags,
                window: 65_535,
            },
            size: payload + 40,
            ttl: DEFAULT_TTL,
            sent_at: SimTime::ZERO,
            payload,
        }
    }

    /// Build a UDP datagram. `size` is payload + 28 B of headers.
    pub fn udp(key: FlowKey, payload: u32) -> Self {
        assert_eq!(key.proto, Proto::Udp, "udp packet needs a udp key");
        Packet {
            id: 0,
            key,
            header: Header::Udp,
            size: payload + 28,
            ttl: DEFAULT_TTL,
            sent_at: SimTime::ZERO,
            payload,
        }
    }

    /// Build a traceroute probe: ICMP echo request with an explicit TTL.
    pub fn probe(src: Addr, dst: Addr, ident: u16, seq: u16, ttl: u8) -> Self {
        Packet {
            id: 0,
            key: FlowKey {
                src,
                dst,
                sport: 0,
                dport: 0,
                proto: Proto::Icmp,
            },
            header: Header::IcmpEchoRequest { ident, seq },
            size: 64,
            ttl,
            sent_at: SimTime::ZERO,
            payload: 0,
        }
    }

    /// The TCP sequence number, if this is a TCP packet.
    pub fn tcp_seq(&self) -> Option<u32> {
        match self.header {
            Header::Tcp { seq, .. } => Some(seq),
            _ => None,
        }
    }

    /// The TCP flags, if this is a TCP packet.
    pub fn tcp_flags(&self) -> Option<TcpFlags> {
        match self.header {
            Header::Tcp { flags, .. } => Some(flags),
            _ => None,
        }
    }

    /// Is this a TCP segment that carries payload (the kind Blink monitors)?
    pub fn is_tcp_data(&self) -> bool {
        matches!(self.header, Header::Tcp { .. }) && self.payload > 0
    }

    /// Smallest encoded packet: the key and one-byte varints around a UDP
    /// header.
    pub const MIN_WIRE_BYTES: usize = 1 + FlowKey::WIRE_BYTES + 1 + 1 + 1 + 1 + 1;

    /// The packet's full content, as checkpoints and the engine's state
    /// digest carry it.
    pub fn encode<E: Encoder>(&self, e: &mut E) {
        e.varint(self.id);
        self.key.encode(e);
        self.header.encode(e);
        e.varint(u64::from(self.size));
        e.u8(self.ttl);
        e.varint(self.sent_at.0);
        e.varint(u64::from(self.payload));
    }

    /// Inverse of [`Packet::encode`].
    pub fn decode(r: &mut Reader) -> Result<Packet, DecodeError> {
        Ok(Packet {
            id: r.varint("packet id")?,
            key: FlowKey::decode(r)?,
            header: Header::decode(r)?,
            size: r.varint_u32("packet size")?,
            ttl: r.u8("packet ttl")?,
            sent_at: SimTime(r.varint_quantity("packet sent_at")?),
            payload: r.varint_u32("packet payload")?,
        })
    }
}

impl TcpFlags {
    /// Pack the four flags into a stable bitfield (`syn` = bit 0).
    pub fn bits(self) -> u8 {
        (self.syn as u8) | (self.ack as u8) << 1 | (self.fin as u8) << 2 | (self.rst as u8) << 3
    }

    /// Inverse of [`TcpFlags::bits`]; `None` if a bit outside the four
    /// is set (the byte is not one `bits` produces).
    pub fn from_bits(b: u8) -> Option<TcpFlags> {
        (b < 16).then_some(TcpFlags {
            syn: b & 1 != 0,
            ack: b & 2 != 0,
            fin: b & 4 != 0,
            rst: b & 8 != 0,
        })
    }
}

impl Header {
    /// The kind tag, then the fields.
    pub fn encode<E: Encoder>(&self, e: &mut E) {
        match self {
            Header::Tcp {
                seq,
                ack,
                flags,
                window,
            } => {
                e.u8(0);
                e.varint(u64::from(*seq));
                e.varint(u64::from(*ack));
                e.u8(flags.bits());
                e.varint(u64::from(*window));
            }
            Header::Udp => e.u8(1),
            Header::IcmpEchoRequest { ident, seq } => {
                e.u8(2);
                e.varint(u64::from(*ident));
                e.varint(u64::from(*seq));
            }
            Header::IcmpEchoReply { ident, seq } => {
                e.u8(3);
                e.varint(u64::from(*ident));
                e.varint(u64::from(*seq));
            }
            Header::IcmpTimeExceeded {
                reported_by,
                probe_ident,
                probe_seq,
            } => {
                e.u8(4);
                e.varint(u64::from(reported_by.0));
                e.varint(u64::from(*probe_ident));
                e.varint(u64::from(*probe_seq));
            }
        }
    }

    /// Inverse of [`Header::encode`].
    pub fn decode(r: &mut Reader) -> Result<Header, DecodeError> {
        Ok(match r.u8("header tag")? {
            0 => Header::Tcp {
                seq: r.varint_u32("tcp seq")?,
                ack: r.varint_u32("tcp ack")?,
                flags: TcpFlags::from_bits(r.u8("tcp flags")?)
                    .ok_or_else(|| r.error("tcp flags", ErrorKind::Tag))?,
                window: r.varint_u32("tcp window")?,
            },
            1 => Header::Udp,
            2 => Header::IcmpEchoRequest {
                ident: r.varint_u16("icmp ident")?,
                seq: r.varint_u16("icmp seq")?,
            },
            3 => Header::IcmpEchoReply {
                ident: r.varint_u16("icmp ident")?,
                seq: r.varint_u16("icmp seq")?,
            },
            4 => Header::IcmpTimeExceeded {
                reported_by: Addr(r.varint_u32("icmp reporter")?),
                probe_ident: r.varint_u16("icmp probe ident")?,
                probe_seq: r.varint_u16("icmp probe seq")?,
            },
            _ => return Err(r.error("header tag", ErrorKind::Tag)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display() {
        assert_eq!(Addr::new(10, 0, 0, 1).to_string(), "10.0.0.1");
    }

    #[test]
    fn prefix_masks_host_bits() {
        let p = Prefix::new(Addr::new(10, 1, 2, 3), 16);
        assert_eq!(p.addr, Addr::new(10, 1, 0, 0));
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn prefix_contains() {
        let p = Prefix::new(Addr::new(192, 168, 0, 0), 24);
        assert!(p.contains(Addr::new(192, 168, 0, 200)));
        assert!(!p.contains(Addr::new(192, 168, 1, 1)));
        let any = Prefix::new(Addr::new(0, 0, 0, 0), 0);
        assert!(any.contains(Addr::new(8, 8, 8, 8)));
        let host = Prefix::new(Addr::new(1, 2, 3, 4), 32);
        assert!(host.contains(Addr::new(1, 2, 3, 4)));
        assert!(!host.contains(Addr::new(1, 2, 3, 5)));
    }

    #[test]
    fn flowkey_reverse_is_involution() {
        let k = FlowKey::tcp(Addr::new(1, 1, 1, 1), 1234, Addr::new(2, 2, 2, 2), 80);
        assert_eq!(k.reversed().reversed(), k);
        assert_ne!(k.reversed(), k);
    }

    #[test]
    fn digest_depends_on_fields_and_salt() {
        let k1 = FlowKey::tcp(Addr::new(1, 1, 1, 1), 1234, Addr::new(2, 2, 2, 2), 80);
        let k2 = FlowKey::tcp(Addr::new(1, 1, 1, 1), 1235, Addr::new(2, 2, 2, 2), 80);
        assert_ne!(k1.digest(0), k2.digest(0));
        assert_ne!(k1.digest(0), k1.digest(1));
        assert_eq!(k1.digest(7), k1.digest(7));
    }

    #[test]
    fn tcp_packet_sizes() {
        let k = FlowKey::tcp(Addr::new(1, 1, 1, 1), 1, Addr::new(2, 2, 2, 2), 2);
        let p = Packet::tcp(k, 100, 0, TcpFlags::default(), 1460);
        assert_eq!(p.size, 1500);
        assert!(p.is_tcp_data());
        let ack = Packet::tcp(
            k,
            100,
            50,
            TcpFlags {
                ack: true,
                ..Default::default()
            },
            0,
        );
        assert!(!ack.is_tcp_data());
        assert_eq!(p.tcp_seq(), Some(100));
    }

    #[test]
    #[should_panic]
    fn tcp_constructor_rejects_udp_key() {
        let k = FlowKey::udp(Addr::new(1, 1, 1, 1), 1, Addr::new(2, 2, 2, 2), 2);
        let _ = Packet::tcp(k, 0, 0, TcpFlags::default(), 0);
    }

    #[test]
    fn packet_codec_round_trips_all_headers() {
        use dui_stats::wire::Writer;
        let key = FlowKey::tcp(Addr::new(10, 0, 0, 1), 443, Addr::new(10, 0, 0, 2), 5001);
        let headers = [
            Header::Tcp {
                seq: 1,
                ack: u32::MAX,
                flags: TcpFlags::from_bits(0b1010).unwrap(),
                window: 65_535,
            },
            Header::Udp,
            Header::IcmpEchoRequest { ident: 1, seq: 2 },
            Header::IcmpEchoReply { ident: 3, seq: 4 },
            Header::IcmpTimeExceeded {
                reported_by: Addr::new(9, 9, 9, 9),
                probe_ident: 5,
                probe_seq: 6,
            },
        ];
        for h in headers {
            let p = Packet {
                id: 77,
                key,
                header: h,
                size: 1500,
                ttl: 63,
                sent_at: SimTime(123_456),
                payload: 1460,
            };
            let mut w = Writer::new();
            p.encode(&mut w);
            let buf = w.into_bytes();
            let mut r = Reader::new(&buf);
            assert_eq!(Packet::decode(&mut r), Ok(p));
            assert_eq!(r.finish("packet"), Ok(()));
        }
    }

    #[test]
    fn probe_has_requested_ttl() {
        let p = Packet::probe(Addr::new(1, 0, 0, 1), Addr::new(9, 0, 0, 9), 7, 3, 2);
        assert_eq!(p.ttl, 2);
        assert_eq!(p.key.proto, Proto::Icmp);
    }
}
