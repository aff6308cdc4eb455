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
use dui_stats::wire::{
    wire_struct, DecodeError, Encoder, Encoding, ErrorKind, Reader, Var, VarQty, Wire,
};
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

/// Fixed width, as keys and prefixes write it ([`Var`] where a header
/// field does).
impl Encoding for Addr {
    type Value = Addr;
    const LEAST: usize = 4;
    #[inline]
    fn write<E: Encoder>(v: &Addr, e: &mut E) {
        e.u32(v.0);
    }
    #[inline]
    fn read(r: &mut Reader, what: &'static str) -> Result<Addr, DecodeError> {
        r.u32(what).map(Addr)
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
    /// Stable code (IANA protocol numbers), as digests and the wire form
    /// below write it.
    pub fn code(self) -> u8 {
        match self {
            Proto::Tcp => 6,
            Proto::Udp => 17,
            Proto::Icmp => 1,
        }
    }
}

// The `Proto::code` byte.
wire_struct!(enum Proto { 6 => Tcp {}, 17 => Udp {}, 1 => Icmp {} });

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

    /// The key of an ICMP message (no ports).
    pub(crate) fn icmp(src: Addr, dst: Addr) -> Self {
        FlowKey {
            src,
            dst,
            sport: 0,
            dport: 0,
            proto: Proto::Icmp,
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

// Fixed width wherever a key is written: `src`, `dst`, the ports, then
// the protocol code.
wire_struct!(FlowKey {
    src: Addr,
    dst: Addr,
    sport: u16,
    dport: u16,
    proto: Proto
});

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

    /// A packet as its sender builds it: unnumbered, unsent, at the
    /// default TTL.
    fn fresh(key: FlowKey, header: Header, size: u32, payload: u32) -> Self {
        Packet {
            id: 0,
            key,
            header,
            size,
            ttl: DEFAULT_TTL,
            sent_at: SimTime::ZERO,
            payload,
        }
    }

    /// Build a TCP data/ack segment. `size` is payload + 40 B of headers.
    pub fn tcp(key: FlowKey, seq: u32, ack: u32, flags: TcpFlags, payload: u32) -> Self {
        assert_eq!(key.proto, Proto::Tcp, "tcp packet needs a tcp key");
        let window = 65_535;
        let header = Header::Tcp {
            seq,
            ack,
            flags,
            window,
        };
        Packet::fresh(key, header, payload + 40, payload)
    }

    /// Build a UDP datagram. `size` is payload + 28 B of headers.
    pub fn udp(key: FlowKey, payload: u32) -> Self {
        assert_eq!(key.proto, Proto::Udp, "udp packet needs a udp key");
        Packet::fresh(key, Header::Udp, payload + 28, payload)
    }

    /// Build a traceroute probe: ICMP echo request with an explicit TTL.
    pub fn probe(src: Addr, dst: Addr, ident: u16, seq: u16, ttl: u8) -> Self {
        let header = Header::IcmpEchoRequest { ident, seq };
        Packet {
            ttl,
            ..Packet::fresh(FlowKey::icmp(src, dst), header, 64, 0)
        }
    }

    /// The echo reply `from` sends back to this packet, if it is an echo
    /// request: the request's flow key reversed, sourced at `from`.
    pub(crate) fn echo_reply(&self, from: Addr) -> Option<Packet> {
        let Header::IcmpEchoRequest { ident, seq } = self.header else {
            return None;
        };
        let key = FlowKey {
            src: from,
            ..self.key.reversed()
        };
        Some(Packet::fresh(
            key,
            Header::IcmpEchoReply { ident, seq },
            64,
            0,
        ))
    }

    /// The ICMP time-exceeded reply to probe (`ident`, `seq`), sent to
    /// `to` by a router claiming to be `reported_by`.
    pub(crate) fn time_exceeded(reported_by: Addr, to: Addr, ident: u16, seq: u16) -> Self {
        let header = Header::IcmpTimeExceeded {
            reported_by,
            probe_ident: ident,
            probe_seq: seq,
        };
        Packet::fresh(FlowKey::icmp(reported_by, to), header, 56, 0)
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
}

// The packet's full content, as checkpoints and the engine's state
// digest carry it.
wire_struct!(Packet {
    id: Var, key: FlowKey, header: Header, size: Var<u32>,
    ttl: u8, sent_at: VarQty<SimTime>, payload: Var<u32>,
});

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

/// The [`TcpFlags::bits`] byte.
impl Wire for TcpFlags {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put<E: Encoder>(&self, e: &mut E) {
        e.u8(self.bits());
    }
    #[inline]
    fn take(r: &mut Reader) -> Result<TcpFlags, DecodeError> {
        TcpFlags::from_bits(r.u8("tcp flags")?).ok_or_else(|| r.error("tcp flags", ErrorKind::Tag))
    }
}

// The kind tag, then the fields.
wire_struct!(enum Header {
    0 => Tcp { seq: Var<u32>, ack: Var<u32>, flags: TcpFlags, window: Var<u32> },
    1 => Udp {},
    2 => IcmpEchoRequest { ident: Var<u16>, seq: Var<u16> },
    3 => IcmpEchoReply { ident: Var<u16>, seq: Var<u16> },
    4 => IcmpTimeExceeded { reported_by: Var<Addr>, probe_ident: Var<u16>, probe_seq: Var<u16> },
});

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
    fn only_an_echo_request_has_an_echo_reply() {
        let (a, b) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
        let reply = Packet::probe(a, b, 7, 3, 5).echo_reply(b).unwrap();
        assert_eq!((reply.key.src, reply.key.dst), (b, a));
        assert_eq!(reply.header, Header::IcmpEchoReply { ident: 7, seq: 3 });
        assert_eq!(reply.ttl, DEFAULT_TTL);
        assert!(reply.echo_reply(a).is_none());
    }

    #[test]
    fn tcp_packet_sizes() {
        let k = FlowKey::tcp(Addr::new(1, 1, 1, 1), 1, Addr::new(2, 2, 2, 2), 2);
        let p = Packet::tcp(k, 100, 0, TcpFlags::default(), 1460);
        assert_eq!(p.size, 1500);
        assert!(matches!(p.header, Header::Tcp { .. }) && p.payload > 0);
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
        assert_eq!((ack.size, ack.payload), (40, 0));
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
            p.put(&mut w);
            let buf = w.into_bytes();
            let mut r = Reader::new(&buf);
            assert_eq!(Packet::take(&mut r), Ok(p));
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
