//! The binary codec: how a value becomes bytes and back.
//!
//! One encoding for the byte strings the system writes (today: the log
//! store's segment frames). A *frame* is one value's bytes:
//!
//! ```text
//! frame := names body
//! names := varint(n) n × (varint(len) len × u8)   -- UTF-8, in first-use order
//! body  := the value, field by field, in declaration order
//! ```
//!
//! Scalars: unsigned integers are LEB128 varints, signed ones zigzag
//! varints; an `f64` is its raw IEEE bits (8 bytes, little-endian, so `-0.0`
//! and NaN payloads survive); a 64-bit digest (tuple and rule-execution ids,
//! which varints would only lengthen) is 8 bytes little-endian; bytes and
//! strings are a varint length and the bytes. An enum is a tag byte and the
//! variant's fields, an `Option` a tag byte (0 none, 1 some), a sequence or
//! map a varint count and the items.
//!
//! **Names.** A [`Sym`] or [`NodeId`] is a varint index into the frame's name
//! table, which holds each distinct name once, as its string, in the order
//! the encoder first met it. Pool ids never reach the bytes: a frame depends
//! on the value alone, not on what else the process interned, and a reader
//! interns each distinct name once per frame however often the body names it.
//!
//! **Bytes nobody wrote.** [`Reader`] checks every read against the end of
//! the input; a count larger than the bytes left is refused before anything
//! is reserved (every item takes at least one byte); nesting is capped at
//! [`MAX_DEPTH`]; every failure is a [`DecodeError`] saying where and what.
//! Decoding never panics.

use crate::{NodeId, Sym};
use std::collections::BTreeMap;
use std::fmt;

/// How deep [`Reader::enter`] lets values nest (lists of lists).
pub const MAX_DEPTH: usize = 128;

/// Why bytes are not a value: the offset decoding stopped at and what was
/// wrong there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset into the frame.
    pub offset: usize,
    /// What was wrong.
    pub what: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.offset)
    }
}

impl std::error::Error for DecodeError {}

/// A value that writes itself to a [`Writer`].
pub trait Encode {
    /// Append the value's body bytes.
    fn encode(&self, w: &mut Writer);
}

/// A value that reads itself from a [`Reader`].
pub trait Decode: Sized {
    /// Read one value's body bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// The frame of one value: its name table, then its body.
pub fn encode<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    Writer::default().frame(value, &mut out);
    out
}

/// Read a whole frame as one value; bytes left over are an error.
pub fn decode<T: Decode>(frame: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(frame)?;
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Encodes frames. Keep one and reuse it: the body buffer and the name
/// slots keep their capacity from frame to frame.
#[derive(Default)]
pub struct Writer {
    body: Vec<u8>,
    /// The frame's name table, in first-use order.
    names: Vec<Sym>,
    /// Per pool index, 1 + the name's place in `names`; 0 when unused.
    slot: Vec<u32>,
}

// Between frames a writer holds only capacity.
impl fmt::Debug for Writer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Writer")
            .field("body_capacity", &self.body.capacity())
            .finish_non_exhaustive()
    }
}

impl Writer {
    /// Encode `value` and append its frame to `out`.
    pub fn frame<T: Encode + ?Sized>(&mut self, value: &T, out: &mut Vec<u8>) {
        value.encode(self);
        put_varint(out, self.names.len() as u64);
        for name in self.names.drain(..) {
            let s = name.as_str();
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
            self.slot[name.index() as usize] = 0;
        }
        out.extend_from_slice(&self.body);
        self.body.clear();
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.body.push(v);
    }

    /// `false` as 0, `true` as 1.
    pub fn bool(&mut self, v: bool) {
        self.body.push(u8::from(v));
    }

    /// An unsigned LEB128 varint.
    pub fn varint(&mut self, v: u64) {
        put_varint(&mut self.body, v);
    }

    /// A count or a size, as a varint.
    pub fn usize(&mut self, v: usize) {
        self.varint(v as u64);
    }

    /// A signed integer, zigzag-mapped onto a varint.
    pub fn zigzag(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// The raw bits of a double.
    pub fn f64(&mut self, v: f64) {
        self.fixed64(v.to_bits());
    }

    /// Eight bytes, little-endian: for digests, whose varint is longer.
    pub fn fixed64(&mut self, v: u64) {
        self.body.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.body.extend_from_slice(v);
    }

    /// A length-prefixed UTF-8 string (text, not a name).
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// A name: its index in the frame's name table, added at first use.
    pub fn sym(&mut self, name: Sym) {
        let index = name.index() as usize;
        if index >= self.slot.len() {
            self.slot.resize(index + 1, 0);
        }
        if self.slot[index] == 0 {
            self.names.push(name);
            self.slot[index] = self.names.len() as u32;
        }
        self.varint(u64::from(self.slot[index] - 1));
    }

    /// An address, as a name.
    pub fn node(&mut self, node: NodeId) {
        self.sym(node.as_sym());
    }

    /// A name held as a string (a relation key, a topology node).
    pub fn name(&mut self, name: &str) {
        self.sym(Sym::new(name));
    }
}

/// Decodes one frame, bounds-checked throughout.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    names: Vec<Sym>,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// Open a frame: read its name table, interning each name once.
    pub fn new(frame: &'a [u8]) -> Result<Self, DecodeError> {
        let mut r = Reader {
            bytes: frame,
            pos: 0,
            names: Vec::new(),
            depth: 0,
        };
        let n = r.count()?;
        let mut names = Vec::with_capacity(n);
        for _ in 0..n {
            names.push(Sym::new(r.str()?));
        }
        r.names = names;
        Ok(r)
    }

    /// The offset of the next byte to read.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// An error at byte `offset`.
    pub fn error(&self, offset: usize, what: &'static str) -> DecodeError {
        DecodeError { offset, what }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(self.error(self.pos, "input ends early"));
        }
        let taken = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(taken)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// A bool: 0 or 1, nothing else.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.error(self.pos - 1, "a bool that is neither 0 nor 1")),
        }
    }

    /// An unsigned LEB128 varint of at most 64 bits.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let start = self.pos;
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(self.error(start, "a varint longer than 64 bits"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.error(start, "a varint longer than 64 bits"))
    }

    /// A size that must fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let start = self.pos;
        usize::try_from(self.varint()?).map_err(|_| self.error(start, "a size beyond usize"))
    }

    /// The item count of a sequence or map. Every item takes at least one
    /// byte, so a count larger than the bytes left is refused here, before
    /// the caller reserves anything.
    pub fn count(&mut self) -> Result<usize, DecodeError> {
        let start = self.pos;
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(self.error(start, "a count larger than the bytes left"));
        }
        Ok(n)
    }

    /// A zigzag-mapped signed integer.
    pub fn zigzag(&mut self) -> Result<i64, DecodeError> {
        let v = self.varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    /// A double from its raw bits.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.fixed64()?))
    }

    /// Eight bytes, little-endian.
    pub fn fixed64(&mut self) -> Result<u64, DecodeError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("eight bytes")))
    }

    /// Length-prefixed bytes, borrowed from the frame.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string, borrowed from the frame.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let start = self.pos;
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| self.error(start, "a string that is not UTF-8"))
    }

    /// A name: an index into the frame's name table.
    pub fn sym(&mut self) -> Result<Sym, DecodeError> {
        let start = self.pos;
        let index = self.varint()?;
        usize::try_from(index)
            .ok()
            .and_then(|i| self.names.get(i).copied())
            .ok_or_else(|| self.error(start, "a name index outside the name table"))
    }

    /// An address, as a name.
    pub fn node(&mut self) -> Result<NodeId, DecodeError> {
        Ok(self.sym()?.as_node())
    }

    /// A name as its (interned) string.
    pub fn name(&mut self) -> Result<&'static str, DecodeError> {
        Ok(self.sym()?.as_str())
    }

    /// Step one level into a nested value; past [`MAX_DEPTH`] levels this
    /// is an error. Pair with [`Reader::leave`].
    pub fn enter(&mut self) -> Result<(), DecodeError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(self.pos, "values nested deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Step back out of a level [`Reader::enter`] stepped into.
    pub fn leave(&mut self) {
        self.depth -= 1;
    }

    /// End the frame: every byte must have been read.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(self.error(self.pos, "bytes after the value"));
        }
        Ok(())
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.varint(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.varint()
    }
}

impl Encode for i64 {
    fn encode(&self, w: &mut Writer) {
        w.zigzag(*self);
    }
}

impl Decode for i64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.zigzag()
    }
}

impl Encode for Sym {
    fn encode(&self, w: &mut Writer) {
        w.sym(*self);
    }
}

impl Decode for Sym {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.sym()
    }
}

impl Encode for NodeId {
    fn encode(&self, w: &mut Writer) {
        w.node(*self);
    }
}

impl Decode for NodeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.node()
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.count()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(r.error(r.offset() - 1, "an option tag that is neither 0 nor 1")),
        }
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.count()?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            map.insert(k, V::decode(r)?);
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body<T: Encode>(value: &T) -> Vec<u8> {
        let frame = encode(value);
        assert_eq!(frame[0], 0, "no names");
        frame[1..].to_vec()
    }

    #[test]
    fn varints_are_leb128_and_zigzag_keeps_small_magnitudes_short() {
        assert_eq!(body(&0u64), [0]);
        assert_eq!(body(&127u64), [0x7f]);
        assert_eq!(body(&300u64), [0xac, 0x02]);
        assert_eq!(body(&u64::MAX).len(), 10);
        assert_eq!(body(&0i64), [0]);
        assert_eq!(body(&-1i64), [1]);
        assert_eq!(body(&1i64), [2]);
        for v in [0, 1, -1, 63, -64, i64::MIN, i64::MAX] {
            assert_eq!(decode::<i64>(&encode(&v)), Ok(v));
        }
        for v in [0, 1, 127, 128, u64::MAX] {
            assert_eq!(decode::<u64>(&encode(&v)), Ok(v));
        }
    }

    #[test]
    fn a_name_is_written_once_and_indexed_in_first_use_order() {
        let (b, a) = (Sym::new("codec-b"), Sym::new("codec-a"));
        let frame = encode(&vec![b, a, b, b]);
        let mut expected = vec![2, 7];
        expected.extend_from_slice(b"codec-b");
        expected.push(7);
        expected.extend_from_slice(b"codec-a");
        expected.extend_from_slice(&[4, 0, 1, 0, 0]);
        assert_eq!(frame, expected);
        assert_eq!(decode::<Vec<Sym>>(&frame), Ok(vec![b, a, b, b]));
    }

    #[test]
    fn a_reused_writer_starts_every_frame_afresh() {
        let mut w = Writer::default();
        let (mut one, mut two) = (Vec::new(), Vec::new());
        w.frame(&vec![Sym::new("codec-x")], &mut one);
        w.frame(&vec![Sym::new("codec-y"), Sym::new("codec-x")], &mut two);
        assert_eq!(one, encode(&vec![Sym::new("codec-x")]));
        assert_eq!(two, encode(&vec![Sym::new("codec-y"), Sym::new("codec-x")]));
    }

    #[test]
    fn errors_say_where_and_what() {
        let err = |bytes: &[u8]| decode::<Vec<u64>>(bytes).unwrap_err();
        assert_eq!(
            err(&[0, 1, 0x80]),
            DecodeError {
                offset: 3,
                what: "input ends early"
            }
        );
        assert_eq!(err(&[0, 9, 1]).what, "a count larger than the bytes left");
        assert_eq!(err(&[0, 1, 1, 1]).what, "bytes after the value");
        assert_eq!(err(&[0, 1, 0xff, 0xff]).offset, 4);
        let eleven = [0xffu8; 11];
        assert_eq!(
            decode::<u64>(&[&[0u8][..], &eleven].concat())
                .unwrap_err()
                .what,
            "a varint longer than 64 bits"
        );
        assert_eq!(
            decode::<Sym>(&[0, 0]).unwrap_err().what,
            "a name index outside the name table"
        );
        assert_eq!(
            decode::<Sym>(&[1, 1, 0xff, 0]).unwrap_err().what,
            "a string that is not UTF-8"
        );
        assert_eq!(
            decode::<Option<u64>>(&[0, 2]).unwrap_err(),
            DecodeError {
                offset: 1,
                what: "an option tag that is neither 0 nor 1"
            }
        );
        assert_eq!(
            format!("{}", err(&[0, 1, 0x80])),
            "input ends early at byte 3"
        );
    }
}
