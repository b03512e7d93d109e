//! Byte-level building blocks of the binary wire format: LEB128 varints,
//! zigzag signed deltas, IEEE-754 bit-exact floats, length-prefixed byte
//! strings, and per-message symbol tables for repeated tag ids.
//!
//! Every primitive is paired: `Writer::put_*` has exactly one `Reader::get_*`
//! that inverts it, so the codec layer composes round-trip-exact messages out
//! of round-trip-exact pieces.

use crate::WireError;
use rfid_types::TagId;

/// Append-only byte sink for encoding one message.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer with an empty buffer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one raw byte.
    pub fn put_u8(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    /// Append an unsigned LEB128 varint (1 byte for values < 128).
    pub fn put_varint(&mut self, mut value: u64) {
        loop {
            let low = (value & 0x7f) as u8;
            value >>= 7;
            if value == 0 {
                self.buf.push(low);
                return;
            }
            self.buf.push(low | 0x80);
        }
    }

    /// Append a signed value as a zigzag-mapped varint (small magnitudes of
    /// either sign stay short — the workhorse of delta encoding).
    pub fn put_zigzag(&mut self, value: i64) {
        self.put_varint(((value << 1) ^ (value >> 63)) as u64);
    }

    /// Append an `f64` as its 8 raw little-endian IEEE-754 bytes, so decoding
    /// reproduces the value bit for bit (including NaN payloads and -0.0).
    pub fn put_f64(&mut self, value: f64) {
        self.buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor over the bytes of one message being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Read one raw byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let byte = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| WireError::truncated("byte"))?;
        self.pos += 1;
        Ok(byte)
    }

    /// Read an unsigned LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(WireError::new("varint overflows u64"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Read a zigzag-mapped signed varint.
    pub fn get_zigzag(&mut self) -> Result<i64, WireError> {
        let raw = self.get_varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Read an `f64` from its 8 raw little-endian bytes.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        let end = self
            .pos
            .checked_add(8)
            .ok_or_else(|| WireError::length_overflow("f64"))?;
        let raw: [u8; 8] = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| WireError::truncated("f64"))?
            .try_into()
            .map_err(|_| WireError::truncated("f64"))?;
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    /// Read a length-prefixed byte string.
    ///
    /// The length prefix is validated before any allocation or slicing: a
    /// prefix that would wrap `usize` (possible on declared lengths near
    /// `u64::MAX`) is a [`LengthOverflow`](crate::WireErrorKind), not a
    /// wrapped-around bounds check.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = usize::try_from(self.get_varint()?)
            .map_err(|_| WireError::length_overflow("byte string"))?;
        let end = self
            .pos
            .checked_add(len)
            .ok_or_else(|| WireError::length_overflow("byte string"))?;
        let out = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| WireError::truncated("byte string"))?
            .to_vec();
        self.pos = end;
        Ok(out)
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Fail unless the message was consumed exactly.
    pub fn expect_exhausted(&self) -> Result<(), WireError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(WireError::new("trailing bytes after message"))
        }
    }
}

/// Per-message symbol table of distinct [`TagId`]s.
///
/// A migrating payload names the same handful of tags over and over (the
/// object, its candidate containers, the tags of a reading batch). Encoding
/// each mention as a raw 8-byte id wastes most of the message; instead every
/// message carries one sorted table of its distinct tags — itself
/// delta-encoded, since sorted ids are clustered by kind and serial — and
/// every mention is a short varint index into it.
#[derive(Debug, Default)]
pub struct TagTable {
    sorted: Vec<TagId>,
}

impl TagTable {
    /// Build the table from every tag the message will mention.
    pub fn from_tags<I: IntoIterator<Item = TagId>>(tags: I) -> TagTable {
        let mut sorted: Vec<TagId> = tags.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        TagTable { sorted }
    }

    /// Number of distinct tags.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The index of a tag the table was built over.
    ///
    /// # Panics
    /// Panics if the tag was not part of the builder input — that is a codec
    /// bug, not a data error.
    #[expect(
        clippy::expect_used,
        reason = "encode-side lookup over the builder's own input; a miss is a codec bug, documented under # Panics above"
    )]
    pub fn index_of(&self, tag: TagId) -> u64 {
        self.sorted
            .binary_search(&tag)
            .expect("tag was interned when the table was built") as u64
    }

    /// The tag at a decoded index.
    pub fn tag_at(&self, index: u64) -> Result<TagId, WireError> {
        self.sorted
            .get(index as usize)
            .copied()
            .ok_or_else(|| WireError::new("tag index out of table bounds"))
    }

    /// Encode the table: count, then the sorted raw ids delta-encoded.
    pub fn encode(&self, w: &mut Writer) {
        w.put_varint(self.sorted.len() as u64);
        let mut prev = 0u64;
        for tag in &self.sorted {
            let raw = tag.raw();
            w.put_varint(raw - prev);
            prev = raw;
        }
    }

    /// Decode a table encoded by [`Self::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<TagTable, WireError> {
        let count = r.get_varint()? as usize;
        let mut sorted = Vec::with_capacity(count.min(1 << 16));
        let mut prev = 0u64;
        for i in 0..count {
            let delta = r.get_varint()?;
            if i > 0 && delta == 0 {
                return Err(WireError::new("tag table is not strictly ascending"));
            }
            prev = prev
                .checked_add(delta)
                .ok_or_else(|| WireError::new("tag table id overflows u64"))?;
            sorted.push(TagId::from_raw(prev));
        }
        Ok(TagTable { sorted })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_and_zigzag_round_trip_boundaries() {
        let mut w = Writer::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            w.put_varint(v);
        }
        let signed = [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX];
        for &v in &signed {
            w.put_zigzag(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(r.get_zigzag().unwrap(), v);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn small_values_stay_single_byte() {
        let mut w = Writer::new();
        w.put_varint(127);
        w.put_zigzag(-1);
        w.put_zigzag(2);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn f64_is_bit_exact() {
        let mut w = Writer::new();
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, -1e-300] {
            w.put_f64(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in [0.0f64, -0.0, 1.5, f64::NAN, f64::INFINITY, -1e-300] {
            assert_eq!(r.get_f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut r = Reader::new(&[0x80]);
        assert!(r.get_varint().is_err(), "unterminated varint");
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.get_f64().is_err());
        let mut r = Reader::new(&[5, b'a']);
        assert!(r.get_bytes().is_err(), "length prefix exceeds payload");
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes can encode more than 64 bits.
        let bytes = [0xffu8; 10];
        let mut r = Reader::new(&bytes);
        assert!(r.get_varint().is_err());
    }

    #[test]
    fn tag_table_round_trips_and_indexes() {
        let tags = [
            TagId::item(7),
            TagId::case(1),
            TagId::item(7), // duplicate collapses
            TagId::pallet(3),
            TagId::item(8),
        ];
        let table = TagTable::from_tags(tags);
        assert_eq!(table.len(), 4);
        let mut w = Writer::new();
        table.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = TagTable::decode(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.len(), table.len());
        for tag in tags {
            assert_eq!(back.tag_at(table.index_of(tag)).unwrap(), tag);
        }
        assert!(back.tag_at(99).is_err());
    }

    #[test]
    fn clustered_tag_table_is_compact() {
        // 50 items with adjacent serials: ~2 bytes each after the first
        // (the kind bits live in the high bits, so deltas are 1).
        let table = TagTable::from_tags((0..50).map(TagId::item));
        let mut w = Writer::new();
        table.encode(&mut w);
        assert!(w.len() < 60, "50 clustered tags took {} bytes", w.len());
    }
}
