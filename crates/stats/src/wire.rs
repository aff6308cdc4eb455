//! The one place bytes from outside the process become values.
//!
//! Every binary codec in the workspace — `.duir` recordings, engine and
//! fast-simulation checkpoints, `TcpHost`/`FlowPool`/`SinkHost`/router
//! state blobs — reads through a [`Reader`] and writes through a
//! [`Writer`]. The reader is *bounded*: no read runs past the input, no
//! element count larger than the remaining bytes could hold is accepted
//! ([`Reader::count`]), no value is silently narrowed
//! ([`Reader::narrow`]), and every refusal is one typed [`DecodeError`].
//! It is also *canonical*: of all byte strings that could spell a value
//! it accepts only the one the [`Writer`] emits (shortest-form varints,
//! `0`/`1` booleans and option flags), so an accepted input re-encodes
//! to itself.
//!
//! A state encoder is written once, generic over [`Encoder`]: run into a
//! [`Writer`] it yields a checkpoint's bytes, run into a
//! [`StateDigest`] it yields the component's
//! state digest, so the two cannot cover different state. A component
//! behind a trait object writes into a [`Sink`], the one concrete
//! encoder over either or both at once. A whole subject's encoder is a
//! list of named sections, and [`walk`] runs it once for its section
//! digests, its state hash and, when asked, its bytes.
//!
//! A state shape is described once, too: one [`wire_struct!`] field
//! list, each field with its [`Encoding`], expands to both halves of its
//! [`Wire`] codec — the encoder writes the fields in order, the decoder
//! reads them in the same order and refuses each under the field's name
//! — and to its `MIN_BYTES`, the sum of the fields' least sizes, which
//! bounds every counted [`Seq`] of it before anything is allocated. What
//! no field list can say stays hand-written in the list's one `check`
//! hook: a state the decoded fields spell but no run reaches.
//!
//! ```
//! use dui_stats::wire::{wire_struct, ErrorKind, Reader, Var, Wire, Writer};
//! #[derive(Debug)] struct Hop { node: usize, ttl: u8 }
//! wire_struct!(Hop { node: Var<usize>, ttl: u8 } check(hop, r) {
//!     if hop.ttl == 0 {
//!         return Err(r.error("expired hop", ErrorKind::Invalid));
//!     }
//! });
//! let mut w = Writer::new();
//! Hop { node: 300, ttl: 9 }.put(&mut w);
//! let bytes = w.into_bytes();
//! assert_eq!((bytes.as_slice(), Hop::MIN_BYTES), (&[0xac, 0x02, 9][..], 2));
//! let hop = Hop::take(&mut Reader::new(&bytes)).unwrap();
//! assert_eq!((hop.node, hop.ttl), (300, 9));
//! assert_eq!(Hop::take(&mut Reader::new(&[1, 0])).unwrap_err().kind, ErrorKind::Invalid);
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "the fixed-width primitives every other codec reads and writes through"
)]

use crate::digest::StateDigest;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

/// Why a decode was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input ended inside the value.
    Truncated,
    /// A varint ran past 64 bits or was not in shortest form.
    Varint,
    /// The value does not fit the field's type.
    Range,
    /// An element count larger than the remaining bytes can hold.
    Count,
    /// A tag, flag or code the format does not define.
    Tag,
    /// A string that is not UTF-8.
    Utf8,
    /// Bytes left over after the last field.
    Trailing,
    /// Well-formed bytes describing a state the decoder refuses.
    Invalid,
    /// A checkpoint of another configuration than the one restoring it.
    Config,
}

/// A refused decode: which field (`what`), at which input offset (`at`),
/// and why (`kind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The field or blob being decoded.
    pub what: &'static str,
    /// Byte offset into the input where decoding stopped.
    pub at: usize,
    /// The failure class.
    pub kind: ErrorKind,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let why = match self.kind {
            ErrorKind::Truncated => "unexpected end of input",
            ErrorKind::Varint => "varint overflows u64 or is not shortest-form",
            ErrorKind::Range => "value out of range for its field",
            ErrorKind::Count => "count exceeds what the remaining bytes can hold",
            ErrorKind::Tag => "undefined tag",
            ErrorKind::Utf8 => "invalid utf-8",
            ErrorKind::Trailing => "trailing bytes",
            ErrorKind::Invalid => "inconsistent state",
            ErrorKind::Config => "taken on another configuration",
        };
        write!(f, "{}: {why} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for DecodeError {}

/// Largest clock reading (ns), duration or event count a decoder accepts:
/// 2^60, 36 years of nanoseconds. Restored state is *added to* — a
/// deadline plus a timeout, a smoothed RTT times seven, a counter plus
/// one — and a sixteenth of the `u64` range leaves that arithmetic room.
pub const QUANTITY_MAX: u64 = 1 << 60;

/// A bounded cursor over untrusted bytes. Every method names the field
/// it reads (`what`) for the error it may return.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// An error of `kind` at the current offset.
    pub fn error(&self, what: &'static str, kind: ErrorKind) -> DecodeError {
        DecodeError {
            what,
            at: self.at,
            kind,
        }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, what: &'static str, n: u64) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() as u64 {
            return Err(self.error(what, ErrorKind::Truncated));
        }
        let start = self.at;
        self.at += n as usize;
        Ok(&self.bytes[start..self.at])
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(what, N as u64)?);
        Ok(a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// Fixed-width little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    /// Fixed-width little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// Fixed-width little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// An `f64` stored as its bit pattern in a little-endian `u64`.
    #[inline]
    pub fn f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A one-byte boolean: `0` or `1`, nothing else.
    #[inline]
    pub fn bool(&mut self, what: &'static str) -> Result<bool, DecodeError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.error(what, ErrorKind::Tag)),
        }
    }

    /// An LEB128 varint in shortest form.
    #[inline]
    pub fn varint(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let (mut v, mut shift) = (0u64, 0u32);
        loop {
            let b = self.u8(what)?;
            // The tenth byte holds bit 63 alone; a final zero byte past
            // the first is padding.
            if (shift == 63 && b > 1) || (b == 0 && shift > 0) {
                return Err(self.error(what, ErrorKind::Varint));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Narrow an already-read `v` to the field's type, or refuse it.
    pub fn narrow<T: TryFrom<u64>>(&self, what: &'static str, v: u64) -> Result<T, DecodeError> {
        T::try_from(v).map_err(|_| self.error(what, ErrorKind::Range))
    }

    /// A one-byte presence flag (`0`/`1`), then — if set — the value,
    /// which `read` reads under the same field name.
    pub fn opt<T>(
        &mut self,
        what: &'static str,
        read: impl FnOnce(&mut Self, &'static str) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        Ok(if self.bool(what)? {
            Some(read(self, what)?)
        } else {
            None
        })
    }

    /// An element count, whose prefix `prefix` reads (`Reader::u32`,
    /// `Reader::varint`, …): refused unless that many elements of at
    /// least `min_record_bytes` each fit in the remaining input. The
    /// result may size an allocation — it is at most
    /// `remaining / min_record_bytes`.
    pub fn count<P: Into<u64>>(
        &mut self,
        what: &'static str,
        prefix: impl FnOnce(&mut Self, &'static str) -> Result<P, DecodeError>,
        min_record_bytes: usize,
    ) -> Result<usize, DecodeError> {
        let n: u64 = prefix(self, what)?.into();
        if n > (self.remaining() / min_record_bytes.max(1)) as u64 {
            return Err(self.error(what, ErrorKind::Count));
        }
        Ok(n as usize)
    }

    /// A counted sequence: [`Reader::count`], then that many elements,
    /// each read by `item`, in a `Vec` reserved from the bounded count.
    pub fn seq<T, P: Into<u64>>(
        &mut self,
        what: &'static str,
        prefix: impl FnOnce(&mut Self, &'static str) -> Result<P, DecodeError>,
        min_record_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.count(what, prefix, min_record_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A varint length, then that many bytes.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let len = self.varint(what)?;
        self.take(what, len)
    }

    /// A varint length, then that many bytes of UTF-8.
    pub fn str(&mut self, what: &'static str) -> Result<&'a str, DecodeError> {
        let raw = self.bytes(what)?;
        std::str::from_utf8(raw).map_err(|_| self.error(what, ErrorKind::Utf8))
    }

    /// The literal bytes `tag` (a magic number or version marker).
    pub fn tag(&mut self, what: &'static str, tag: &[u8]) -> Result<(), DecodeError> {
        match self.take(what, tag.len() as u64) {
            Ok(found) if found == tag => Ok(()),
            _ => Err(self.error(what, ErrorKind::Tag)),
        }
    }

    /// End of blob: any byte left over is an error.
    pub fn finish(&self, what: &'static str) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.error(what, ErrorKind::Trailing))
        }
    }
}

/// Where a state encoder writes: the primitives of the wire format.
///
/// [`Writer`] encodes each as bytes. [`StateDigest`]
/// folds each as one 64-bit word — a `bytes` run as its length and then
/// its 8-byte words — so a fixed-width value and a varint of the same
/// value fold alike, and an encoder's digest covers exactly what its
/// bytes carry. Generic methods keep every encoder statically
/// dispatched.
pub trait Encoder {
    /// One byte.
    fn u8(&mut self, v: u8);

    /// Fixed-width `u16`.
    fn u16(&mut self, v: u16);

    /// Fixed-width `u32`.
    fn u32(&mut self, v: u32);

    /// Fixed-width `u64`.
    fn u64(&mut self, v: u64);

    /// An LEB128 varint.
    fn varint(&mut self, v: u64);

    /// A length, then the bytes.
    fn bytes(&mut self, bytes: &[u8]);

    /// An `f64` as its bit pattern in a `u64`.
    #[inline]
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A one-byte boolean.
    #[inline]
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A `usize` length or index as a varint.
    #[inline]
    fn varint_usize(&mut self, v: usize) {
        self.varint(v as u64);
    }

    /// A one-byte presence flag, then the value if present.
    #[inline]
    fn opt<T>(&mut self, v: Option<T>, write: impl FnOnce(&mut Self, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            write(self, v);
        }
    }

    /// A varint element count, then each element as `write` writes it —
    /// the mirror of a [`Reader::seq`] with a `Reader::varint` prefix.
    #[inline]
    fn seq<I>(&mut self, items: I, mut write: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.varint_usize(items.len());
        for item in items {
            write(self, item);
        }
    }
}

/// The mirror of [`Reader`]: appends the [`Encoder`] primitives to a
/// buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(n),
        }
    }

    /// The bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Literal bytes, no prefix (tags, pre-encoded blobs).
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// A varint length, then the UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

impl Encoder for Writer {
    #[inline]
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian.
    #[inline]
    fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    /// Little-endian.
    #[inline]
    fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Little-endian.
    #[inline]
    fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    #[inline]
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// A varint length, then the bytes.
    #[inline]
    fn bytes(&mut self, bytes: &[u8]) {
        self.varint_usize(bytes.len());
        self.raw(bytes);
    }
}

/// The encoder a trait object writes its state into: a state digest,
/// checkpoint bytes, or both at once ([`walk`]).
///
/// [`Encoder`]'s generic methods keep it off `dyn`, so every engine trait
/// (node logics, data-plane programs, ICMP rewriters, link taps, flow
/// sources) takes this one concrete type. A component whose state cannot
/// be read back calls [`Sink::refuse`]: the sink keeps the first refusal
/// and writes no byte after it; its digest goes on.
pub struct Sink<'a> {
    digest: Option<&'a mut StateDigest>,
    bytes: Option<&'a mut Writer>,
    refusal: Option<&'static str>,
}

impl<'a> Sink<'a> {
    fn new(digest: Option<&'a mut StateDigest>, bytes: Option<&'a mut Writer>) -> Self {
        Sink {
            digest,
            bytes,
            refusal: None,
        }
    }

    /// A sink that folds each primitive into `d`.
    pub fn digest(d: &'a mut StateDigest) -> Self {
        Sink::new(Some(d), None)
    }

    /// What is being written cannot be decoded, because `why`. The first
    /// refusal is kept, and the bytes stop there.
    pub fn refuse(&mut self, why: &'static str) {
        self.refusal.get_or_insert(why);
        self.bytes = None;
    }

    /// What `write` writes, as one length-prefixed blob in bytes; a
    /// digest folds it in place, since its words already fix its extent.
    pub fn blob(&mut self, write: impl FnOnce(&mut Sink<'_>)) {
        let Some(w) = self.bytes.as_deref_mut() else {
            return write(self);
        };
        let mut inner = Writer::new();
        let mut s = Sink::new(self.digest.as_deref_mut(), Some(&mut inner));
        write(&mut s);
        match s.refusal {
            None => w.bytes(&inner.into_bytes()),
            Some(why) => self.refuse(why),
        }
    }

    /// The bytes `write` writes, or its first refusal.
    pub fn save(write: impl FnOnce(&mut Sink<'_>)) -> Result<Vec<u8>, &'static str> {
        let mut w = Writer::new();
        let mut s = Sink::new(None, Some(&mut w));
        write(&mut s);
        match s.refusal {
            Some(why) => Err(why),
            None => Ok(w.into_bytes()),
        }
    }
}

/// Each primitive goes on to the digest and the bytes the sink carries.
macro_rules! forward {
    ($($method:ident($t:ty)),*) => {$(
        #[inline]
        fn $method(&mut self, v: $t) {
            if let Some(d) = self.digest.as_deref_mut() {
                d.$method(v);
            }
            if let Some(w) = self.bytes.as_deref_mut() {
                w.$method(v);
            }
        }
    )*};
}

impl Encoder for Sink<'_> {
    forward! { u8(u8), u16(u16), u32(u32), u64(u64), varint(u64), bytes(&[u8]) }
}

/// What one [`walk`] over a sectioned state encoder yields.
#[derive(Debug, Clone, PartialEq)]
pub struct Walk {
    /// The section digests, folded in order under the subject's label.
    pub hash: u64,
    /// Each section's name and digest.
    pub sections: Vec<(&'static str, u64)>,
    /// The writer passed in, every section appended; `None` if none was
    /// passed, or a section refused.
    pub bytes: Option<Writer>,
    /// The first refusal a section wrote.
    pub refusal: Option<&'static str>,
}

/// Run a labelled, sectioned state encoder once: section `i`, as
/// `encode(i, ..)` writes it, folds from the seed of `sections[i]`, the
/// section digests fold in order under `label` into the state hash, and
/// the same primitives go on to `bytes`, if given, until the first
/// refusal, which drops the bytes but no digest.
pub fn walk(
    label: &str,
    sections: &[(&'static str, StateDigest)],
    mut bytes: Option<Writer>,
    mut encode: impl FnMut(usize, &mut Sink<'_>),
) -> Walk {
    let mut hash = StateDigest::labeled(label);
    let mut refusal = None;
    let sections = sections
        .iter()
        .enumerate()
        .map(|(i, (name, seed))| {
            let mut d = seed.clone();
            let mut s = Sink::new(Some(&mut d), bytes.as_mut());
            encode(i, &mut s);
            refusal = refusal.or(s.refusal);
            bytes = bytes.take().filter(|_| refusal.is_none());
            let digest = d.finish();
            hash.write_u64(digest);
            (*name, digest)
        })
        .collect();
    Walk {
        hash: hash.finish(),
        sections,
        bytes,
        refusal,
    }
}

/// How one field is written: the encoding of a `Value` that both halves
/// of a [`wire_struct!`] field list use. The fixed-width primitives
/// (`u8`, `u16`, `u32`, `u64`, `f64`, `bool`) are their own encodings;
/// [`Var`], [`Qty`], [`VarQty`], [`Bytes`], `Option<T>`, [`Seq`],
/// [`Map`], pairs and arrays are the others, and every [`Wire`] shape is
/// its own.
pub trait Encoding {
    /// The field's type.
    type Value;
    /// The fewest bytes an encoded value takes.
    const LEAST: usize;
    /// Write `v`.
    fn write<E: Encoder>(v: &Self::Value, e: &mut E);
    /// Read a value, refused as field `what`.
    fn read(r: &mut Reader, what: &'static str) -> Result<Self::Value, DecodeError>;
}

/// A state shape with one description, its [`wire_struct!`] field list.
pub trait Wire: Sized {
    /// The fewest bytes an encoded value takes: its fields' least sizes.
    const MIN_BYTES: usize;
    /// The encoder: each field in list order.
    fn put<E: Encoder>(&self, e: &mut E);
    /// The decoder: each field in list order, refused under its name,
    /// then the list's `check`.
    fn take(r: &mut Reader) -> Result<Self, DecodeError>;
}

impl<T: Wire> Encoding for T {
    type Value = T;
    const LEAST: usize = T::MIN_BYTES;
    fn write<E: Encoder>(v: &T, e: &mut E) {
        v.put(e);
    }
    fn read(r: &mut Reader, _: &'static str) -> Result<T, DecodeError> {
        <T as Wire>::take(r)
    }
}

/// A value written as one unsigned integer, by [`Var`], [`Qty`] and
/// [`VarQty`].
pub trait Word: Copy {
    /// The integer written.
    fn word(self) -> u64;
    /// The value an integer read back spells, if any.
    fn from_word(w: u64) -> Option<Self>;
}

macro_rules! word {
    ($($t:ty),*) => {$(impl Word for $t {
        #[inline] fn word(self) -> u64 { self as u64 }
        #[inline] fn from_word(w: u64) -> Option<Self> { Self::try_from(w).ok() }
    })*};
}

word!(u16, u32, u64, usize);

/// `w` read as field `what`, refused past `max` or past what a `T` holds.
#[inline]
fn word<T: Word>(r: &Reader, what: &'static str, w: u64, max: u64) -> Result<T, DecodeError> {
    T::from_word(w)
        .filter(|_| w <= max)
        .ok_or_else(|| r.error(what, ErrorKind::Range))
}

/// Encoding: a shortest-form varint, refused unless it fits the field.
pub struct Var<T = u64>(PhantomData<T>);

/// Encoding: a fixed-width `u64` of at most [`QUANTITY_MAX`] — a clock
/// reading, a duration or an event count.
pub struct Qty<T = u64>(PhantomData<T>);

/// Encoding: a varint of at most [`QUANTITY_MAX`].
pub struct VarQty<T = u64>(PhantomData<T>);

/// Encoding: a varint length, then that many bytes.
pub struct Bytes;

/// Encoding: an element count as `N`, then each element as `T`. The
/// count is refused, before anything is allocated, unless that many
/// elements of `T::LEAST` bytes fit in the bytes left ([`Reader::seq`]).
pub struct Seq<T, N = Var>(PhantomData<(T, N)>);

/// Encoding: a count as `N`, then each entry, key `K` then value `V`, in
/// the map's order; a key not above the one before it is refused, since
/// it could only shadow an earlier entry.
pub struct Map<K, V, N = Var>(PhantomData<(K, V, N)>);

/// How a [`Seq`] or a [`Map`] writes its element count: `u32`, `u64`
/// or [`Var`].
pub trait Count: Encoding<Value: Into<u64>> {
    /// An element count as the count's value.
    fn of(n: usize) -> Self::Value;
}

macro_rules! count {
    ($($t:ty => $v:ty),*) => {$(impl Count for $t { #[inline] fn of(n: usize) -> $v { n as $v } })*};
}

count!(u32 => u32, u64 => u64, Var => u64);

/// One [`Encoding`] per row: `[generics] Encoding => Value, least size,
/// |value, encoder| write, |reader, what| read`.
macro_rules! encodings {
    ($([$($g:tt)*] $m:ty => $v:ty, $n:expr,
        |$x:ident, $e:ident| $write:expr, |$r:ident, $what:ident| $read:expr;)*) => {$(
        impl<$($g)*> Encoding for $m {
            type Value = $v;
            const LEAST: usize = $n;
            #[inline] fn write<E: Encoder>($x: &$v, $e: &mut E) { $write; }
            #[inline] fn read($r: &mut Reader, $what: &'static str) -> Result<$v, DecodeError> { $read }
        }
    )*};
}

encodings! {
    [] u8 => u8, 1, |v, e| e.u8(*v), |r, what| r.u8(what);
    [] u16 => u16, 2, |v, e| e.u16(*v), |r, what| r.u16(what);
    [] u32 => u32, 4, |v, e| e.u32(*v), |r, what| r.u32(what);
    [] u64 => u64, 8, |v, e| e.u64(*v), |r, what| r.u64(what);
    [] f64 => f64, 8, |v, e| e.f64(*v), |r, what| r.f64(what);
    [] bool => bool, 1, |v, e| e.bool(*v), |r, what| r.bool(what);
    [T: Word] Var<T> => T, 1, |v, e| e.varint(v.word()),
        |r, what| { let w = r.varint(what)?; word(r, what, w, u64::MAX) };
    [T: Word] Qty<T> => T, 8, |v, e| e.u64(v.word()),
        |r, what| { let w = r.u64(what)?; word(r, what, w, QUANTITY_MAX) };
    [T: Word] VarQty<T> => T, 1, |v, e| e.varint(v.word()),
        |r, what| { let w = r.varint(what)?; word(r, what, w, QUANTITY_MAX) };
    [] Bytes => Vec<u8>, 1, |v, e| e.bytes(v), |r, what| Ok(r.bytes(what)?.to_vec());
    [T: Encoding] Option<T> => Option<T::Value>, 1,
        |v, e| e.opt(v.as_ref(), |e, v| T::write(v, e)), |r, what| r.opt(what, T::read);
    [A: Encoding, B: Encoding] (A, B) => (A::Value, B::Value), A::LEAST + B::LEAST,
        |v, e| { A::write(&v.0, e); B::write(&v.1, e) },
        |r, what| Ok((A::read(r, what)?, B::read(r, what)?));
    [T: Encoding<Value: Copy + Default>, const N: usize] [T; N] => [T::Value; N], N * T::LEAST,
        |v, e| v.iter().for_each(|v| T::write(v, e)),
        |r, what| {
            let mut a = [T::Value::default(); N];
            for v in &mut a {
                *v = T::read(r, what)?;
            }
            Ok(a)
        };
    [T: Encoding, N: Count] Seq<T, N> => Vec<T::Value>, N::LEAST,
        |v, e| { N::write(&N::of(v.len()), e); v.iter().for_each(|v| T::write(v, e)) },
        |r, what| r.seq(what, N::read, T::LEAST, |r| T::read(r, what));
    [K: Encoding<Value: Ord>, V: Encoding, N: Count] Map<K, V, N> => BTreeMap<K::Value, V::Value>,
        N::LEAST,
        |m, e| {
            N::write(&N::of(m.len()), e);
            m.iter().for_each(|(k, v)| { K::write(k, e); V::write(v, e) })
        },
        |r, what| {
            let mut m = BTreeMap::new();
            for _ in 0..r.count(what, N::read, K::LEAST + V::LEAST)? {
                let (k, v) = (K::read(r, what)?, V::read(r, what)?);
                if m.last_key_value().is_some_and(|(last, _)| *last >= k) {
                    return Err(r.error(what, ErrorKind::Invalid));
                }
                m.insert(k, v);
            }
            Ok(m)
        };
}

/// Implements [`Wire`] for a struct from one field list, `name: Encoding`
/// in wire order (`name: Encoding = "what"` refuses under another name
/// than the field's). An optional `check(value, reader) { … }` runs on
/// each decoded value and may refuse it. The `enum` form gives each
/// variant a one-byte tag and a field list, written tag first.
#[macro_export]
macro_rules! wire_struct {
    (@what $f:ident) => { stringify!($f) };
    (@what $f:ident $what:literal) => { $what };
    (enum $ty:ident { $($tag:literal => $var:ident { $($f:ident: $enc:ty),* $(,)? }),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize = 1 + {
                let mut least = usize::MAX;
                $(let n = 0 $(+ <$enc as $crate::wire::Encoding>::LEAST)*;
                if n < least { least = n; })*
                least
            };
            #[inline]
            fn put<E: $crate::wire::Encoder>(&self, e: &mut E) {
                match self {
                    $($ty::$var { $($f),* } => {
                        e.u8($tag);
                        $(<$enc as $crate::wire::Encoding>::write($f, e);)*
                    })*
                }
            }
            #[inline]
            fn take(r: &mut $crate::wire::Reader) -> Result<Self, $crate::wire::DecodeError> {
                const TAG: &str = concat!(stringify!($ty), " tag");
                Ok(match r.u8(TAG)? {
                    $($tag => $ty::$var {
                        $($f: <$enc as $crate::wire::Encoding>::read(r, stringify!($f))?),*
                    },)*
                    _ => return Err(r.error(TAG, $crate::wire::ErrorKind::Tag)),
                })
            }
        }
    };
    ($ty:ident { $($f:ident: $enc:ty $(= $what:literal)?),* $(,)? }
        $(check($v:ident, $r:ident) $check:block)?) => {
        impl $crate::wire::Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$enc as $crate::wire::Encoding>::LEAST)*;
            #[inline]
            fn put<E: $crate::wire::Encoder>(&self, e: &mut E) {
                $(<$enc as $crate::wire::Encoding>::write(&self.$f, e);)*
            }
            #[inline]
            fn take(r: &mut $crate::wire::Reader) -> Result<Self, $crate::wire::DecodeError> {
                let value = $ty {
                    $($f: <$enc as $crate::wire::Encoding>::read(
                        r,
                        $crate::wire_struct!(@what $f $($what)?),
                    )?,)*
                };
                $(let ($v, $r) = (&value, &*r); $check)?
                Ok(value)
            }
        }
    };
}

pub use crate::wire_struct;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prop_assert_eq, prop_check};

    fn varint_bytes(v: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.varint(v);
        w.into_bytes()
    }

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let bytes = varint_bytes(v);
            assert!(bytes.len() <= 10);
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint("v"), Ok(v));
            assert_eq!(r.finish("v"), Ok(()));
        }
    }

    #[test]
    fn varint_rejects_truncation_overflow_and_overlong_forms() {
        let kind = |bytes: &[u8]| Reader::new(bytes).varint("v").unwrap_err().kind;
        assert_eq!(kind(&[]), ErrorKind::Truncated);
        assert_eq!(kind(&[0x80]), ErrorKind::Truncated);
        assert_eq!(kind(&[0xff; 11]), ErrorKind::Varint);
        // 2^64 exactly: nine continuation bytes, then payload 2.
        let mut too_big = vec![0x80; 9];
        too_big.push(0x02);
        assert_eq!(kind(&too_big), ErrorKind::Varint);
        // An eleventh byte can never be reached.
        let mut eleven = vec![0x80; 9];
        eleven.extend_from_slice(&[0x81, 0x00]);
        assert_eq!(kind(&eleven), ErrorKind::Varint);
        // 0 and 1 spelled with a padding byte.
        assert_eq!(kind(&[0x80, 0x00]), ErrorKind::Varint);
        assert_eq!(kind(&[0x81, 0x00]), ErrorKind::Varint);
    }

    #[test]
    fn narrowing_is_checked_at_max_plus_one() {
        let read16 = |v: u64| Var::<u16>::read(&mut Reader::new(&varint_bytes(v)), "port");
        assert_eq!(read16(u64::from(u16::MAX) - 1), Ok(u16::MAX - 1));
        assert_eq!(read16(u64::from(u16::MAX)), Ok(u16::MAX));
        assert_eq!(
            read16(u64::from(u16::MAX) + 1).unwrap_err().kind,
            ErrorKind::Range
        );
        // The value that used to wrap to 4464.
        assert_eq!(read16(70_000).unwrap_err().kind, ErrorKind::Range);
        let read32 = |v: u64| Var::<u32>::read(&mut Reader::new(&varint_bytes(v)), "seq");
        assert_eq!(read32(u64::from(u32::MAX)), Ok(u32::MAX));
        assert_eq!(
            read32(u64::from(u32::MAX) + 1).unwrap_err().kind,
            ErrorKind::Range
        );
        let read_usize = |v: u64| Var::<usize>::read(&mut Reader::new(&varint_bytes(v)), "index");
        assert_eq!(read_usize(usize::MAX as u64), Ok(usize::MAX));
    }

    #[test]
    fn quantities_stop_at_two_to_the_sixty() {
        for (v, ok) in [
            (0, true),
            (QUANTITY_MAX, true),
            (QUANTITY_MAX + 1, false),
            (u64::MAX, false),
        ] {
            let mut w = Writer::new();
            w.u64(v);
            w.varint(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let want = if ok { Ok(v) } else { Err(ErrorKind::Range) };
            assert_eq!(Qty::<u64>::read(&mut r, "clock").map_err(|e| e.kind), want);
            assert_eq!(
                VarQty::<u64>::read(&mut r, "clock").map_err(|e| e.kind),
                want
            );
        }
    }

    #[test]
    fn count_is_bounded_by_the_remaining_bytes() {
        // `n` as a varint prefix, then `rest` bytes of records.
        let count = |n: u64, rest: usize, min: usize| {
            let mut bytes = varint_bytes(n);
            bytes.resize(bytes.len() + rest, 0);
            Reader::new(&bytes)
                .count("slots", Reader::varint, min)
                .map_err(|e| e.kind)
        };
        // 27 bytes, 9 per record: exactly 3 fit.
        assert_eq!(count(2, 27, 9), Ok(2));
        assert_eq!(count(3, 27, 9), Ok(3));
        assert_eq!(count(4, 27, 9), Err(ErrorKind::Count));
        assert_eq!(count(u64::MAX, 27, 9), Err(ErrorKind::Count));
        // One byte fewer remaining, or one byte more per record: 2 fit.
        assert_eq!(count(3, 26, 9), Err(ErrorKind::Count));
        assert_eq!(count(3, 27, 10), Err(ErrorKind::Count));
        assert_eq!(count(2, 26, 13), Ok(2));
        assert_eq!(count(2, 26, 14), Err(ErrorKind::Count));
        // A zero-size record counts as one byte, never a division by zero.
        assert_eq!(count(26, 26, 0), Ok(26));
        assert_eq!(count(27, 26, 0), Err(ErrorKind::Count));
        // Fixed-width prefixes go through the same check.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        assert_eq!(
            Reader::new(&w.into_bytes())
                .count("slots", Reader::u32, 9)
                .unwrap_err()
                .kind,
            ErrorKind::Count
        );
    }

    #[test]
    fn seq_reads_what_count_admits() {
        let mut w = Writer::new();
        w.seq(&[7u16, 8, 9], |w, v| w.u16(*v));
        let bytes = w.into_bytes();
        let read =
            |bytes: &[u8]| Reader::new(bytes).seq("ports", Reader::varint, 2, |r| r.u16("port"));
        assert_eq!(read(&bytes), Ok(vec![7, 8, 9]));
        assert_eq!(read(&bytes[..6]).unwrap_err().kind, ErrorKind::Count);
        assert_eq!(read(&[0]), Ok(vec![]));
    }

    #[test]
    fn errors_carry_field_offset_and_kind() {
        let mut w = Writer::new();
        w.raw(b"DUIR");
        w.u8(2);
        w.str("ok");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.tag("magic", b"DUIR"), Ok(()));
        let e = r.bool("flag").unwrap_err();
        assert_eq!((e.what, e.at, e.kind), ("flag", 5, ErrorKind::Tag));
        assert_eq!(e.to_string(), "flag: undefined tag at byte 5");
        assert_eq!(r.str("name"), Ok("ok"));
        assert_eq!(r.finish("blob"), Ok(()));
        assert_eq!(
            Reader::new(b"DUIX").tag("magic", b"DUIR").unwrap_err().kind,
            ErrorKind::Tag
        );
        assert_eq!(
            Reader::new(b"DU").tag("magic", b"DUIR").unwrap_err().kind,
            ErrorKind::Tag
        );
        assert_eq!(
            Reader::new(&[2, 0xff, 0xfe]).str("s").unwrap_err().kind,
            ErrorKind::Utf8
        );
        assert_eq!(
            Reader::new(&[9, 1]).bytes("b").unwrap_err().kind,
            ErrorKind::Truncated
        );
        assert_eq!(
            Reader::new(&[0]).finish("blob").unwrap_err().kind,
            ErrorKind::Trailing
        );
        assert_eq!(
            Reader::new(&[1, 2, 3]).u32("word").unwrap_err().kind,
            ErrorKind::Truncated
        );
    }

    #[test]
    fn sinks_keep_the_first_refusal_and_frame_blobs_in_bytes_only() {
        let write = |s: &mut Sink<'_>| {
            s.u16(7);
            s.blob(|s| {
                s.varint(300);
                s.refuse("first");
            });
            s.refuse("second");
        };
        assert_eq!(Sink::save(write), Err("first"));
        assert_eq!(
            Sink::save(|s| s.blob(|s| s.varint(300))),
            Ok(vec![2, 0xac, 0x02])
        );
        // A digest keeps the refusal too, and folds a blob's words unframed.
        let mut d = StateDigest::new();
        d.u16(7);
        d.varint(300);
        let mut folded = StateDigest::new();
        let mut s = Sink::digest(&mut folded);
        write(&mut s);
        assert_eq!(s.refusal, Some("first"));
        assert_eq!(folded.finish(), d.finish());
    }

    #[test]
    fn a_walk_folds_its_sections_and_drops_its_bytes_at_a_refusal() {
        const SECTIONS: [(&str, StateDigest); 2] = [
            ("rng", StateDigest::labeled("rng")),
            ("total", StateDigest::labeled("total")),
        ];
        let encode = |refuse: bool| {
            move |i: usize, s: &mut Sink<'_>| {
                s.varint(i as u64 + 1);
                if refuse && i == 0 {
                    s.refuse("no decoder");
                }
                s.u8(9);
            }
        };
        let mut head = Writer::new();
        head.u8(0xee);
        let walk = super::walk("subject", &SECTIONS, Some(head), encode(false));
        assert_eq!(
            walk.bytes.map(Writer::into_bytes),
            Some(vec![0xee, 1, 9, 2, 9])
        );
        let digest = |label: &str, words: &[u64]| {
            let mut d = StateDigest::labeled(label);
            words.iter().for_each(|&w| d.write_u64(w));
            d.finish()
        };
        let sections = [
            ("rng", digest("rng", &[1, 9])),
            ("total", digest("total", &[2, 9])),
        ];
        assert_eq!(walk.sections, sections);
        assert_eq!(
            walk.hash,
            digest("subject", &[sections[0].1, sections[1].1])
        );
        assert_eq!(walk.refusal, None);
        let refused = super::walk("subject", &SECTIONS, Some(Writer::new()), encode(true));
        assert!(refused.bytes.is_none());
        assert_eq!(refused.refusal, Some("no decoder"));
        assert_eq!((refused.hash, refused.sections), (walk.hash, walk.sections));
    }

    /// One field of a random sequence: how it is written, and what reading
    /// it back must yield.
    #[derive(Debug, Clone, PartialEq)]
    enum Field {
        U8(u8),
        U16(u16),
        U32(u32),
        U64(u64),
        F64(u64),
        Bool(bool),
        Varint(u64),
        Opt(Option<u64>),
        Bytes(Vec<u8>),
        Str(String),
    }

    prop_check! {
        cases = 128;

        fn varint_round_trips(g) {
            // Bias toward encoding-boundary values alongside uniform draws.
            let v = match g.u8(0..4) {
                0 => g.u64(0..128),
                1 => g.u64(127..16_400),
                2 => u64::MAX - g.u64(0..3),
                _ => g.any_u64(),
            };
            let bytes = varint_bytes(v);
            let mut r = Reader::new(&bytes);
            prop_assert_eq!(r.varint("v"), Ok(v));
            prop_assert_eq!(r.finish("v"), Ok(()));
        }

        fn random_field_sequences_round_trip(g) {
            let fields = g.vec(0..24, |g| match g.u8(0..10) {
                0 => Field::U8(g.u8(0..255)),
                1 => Field::U16(g.any_u16()),
                2 => Field::U32(g.any_u32()),
                3 => Field::U64(g.any_u64()),
                4 => Field::F64(g.any_u64()),
                5 => Field::Bool(g.bool()),
                6 => Field::Varint(g.any_u64() >> g.u32(0..64)),
                7 => Field::Opt(g.bool().then(|| g.any_u64())),
                8 => Field::Bytes(g.vec(0..20, |g| g.u8(0..255))),
                _ => Field::Str(g.vec(0..8, |g| char::from(g.u8(32..127))).into_iter().collect()),
            });
            let mut w = Writer::new();
            for f in &fields {
                match f {
                    Field::U8(v) => w.u8(*v),
                    Field::U16(v) => w.u16(*v),
                    Field::U32(v) => w.u32(*v),
                    Field::U64(v) => w.u64(*v),
                    Field::F64(v) => w.f64(f64::from_bits(*v)),
                    Field::Bool(v) => w.bool(*v),
                    Field::Varint(v) => w.varint(*v),
                    Field::Opt(v) => w.opt(*v, Writer::u64),
                    Field::Bytes(v) => w.bytes(v),
                    Field::Str(v) => w.str(v),
                }
            }
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            for f in &fields {
                let back = match f {
                    Field::U8(_) => Field::U8(r.u8("f").unwrap()),
                    Field::U16(_) => Field::U16(r.u16("f").unwrap()),
                    Field::U32(_) => Field::U32(r.u32("f").unwrap()),
                    Field::U64(_) => Field::U64(r.u64("f").unwrap()),
                    Field::F64(_) => Field::F64(r.f64("f").unwrap().to_bits()),
                    Field::Bool(_) => Field::Bool(r.bool("f").unwrap()),
                    Field::Varint(_) => Field::Varint(r.varint("f").unwrap()),
                    Field::Opt(_) => Field::Opt(r.opt("f", Reader::u64).unwrap()),
                    Field::Bytes(_) => Field::Bytes(r.bytes("f").unwrap().to_vec()),
                    Field::Str(_) => Field::Str(r.str("f").unwrap().to_string()),
                };
                prop_assert_eq!(&back, f);
            }
            prop_assert_eq!(r.finish("fields"), Ok(()));
            // Every strict prefix of a non-empty encoding is refused somewhere.
            if let Some(cut) = bytes.len().checked_sub(1) {
                let mut r = Reader::new(&bytes[..cut]);
                let all_ok = fields.iter().all(|f| match f {
                    Field::U8(_) => r.u8("f").is_ok(),
                    Field::U16(_) => r.u16("f").is_ok(),
                    Field::U32(_) => r.u32("f").is_ok(),
                    Field::U64(_) | Field::F64(_) => r.u64("f").is_ok(),
                    Field::Bool(_) => r.bool("f").is_ok(),
                    Field::Varint(_) => r.varint("f").is_ok(),
                    Field::Opt(_) => r.opt("f", Reader::u64).is_ok(),
                    Field::Bytes(_) => r.bytes("f").is_ok(),
                    Field::Str(_) => r.str("f").is_ok(),
                });
                prop_assert_eq!(all_ok, false);
            }
        }
    }
}
