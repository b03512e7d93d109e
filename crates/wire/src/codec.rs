//! The per-payload encoders and decoders of the binary wire format behind
//! the [`WireCodec`] front end.
//!
//! ## Message layout
//!
//! Every message starts with a two-byte header — the format version
//! ([`WIRE_VERSION`]) and a payload-kind byte — followed by the body:
//!
//! | kind | payload | body |
//! |---|---|---|
//! | `0x01` | [`MigrationState`] | variant byte, then a collapsed or readings body |
//! | `0x02` | reading batch | tag table + order-preserving reading sequence |
//! | `0x03` | [`ObjectQueryState`] | query name, tag, automaton |
//! | `0x04` | [`SharedStateBundle`] | centroid payload + per-object deltas |
//! | `0x05` | [`CollapsedState`] | tag table + per-candidate weight bits |
//! | `0x06` | query-state payload | tag-less `(query, automaton)` for sharing |
//! | `0x07` | [`crate::checkpoint::SiteCheckpoint`] | site-wide tag table + engine/processor snapshots + durability bookkeeping |
//! | `0x08` | [`crate::ControlMsg`] | transport control: ack / anti-entropy resync |
//!
//! Bodies are built from the primitives of [`crate::primitives`]: unsigned
//! varints, zigzag varints for deltas, raw IEEE-754 bits for floats, and one
//! sorted per-message [`TagTable`] wherever tags repeat. Epoch sequences are
//! delta-encoded against the previous entry (zigzag, so unsorted sequences
//! still round-trip); sorted sequences — the common case — cost one byte per
//! epoch.
//!
//! All encodings are *bit-exact*: `decode(encode(x))` reproduces `x`
//! including `f64` bit patterns, so routing live state through the codec can
//! never change an inference or query outcome.

use crate::primitives::{Reader, TagTable, Writer};
use crate::{WireError, WireFormat};
use rfid_core::{CollapsedState, MigrationState, ReadingsState};
use rfid_query::{AutomatonState, ObjectQueryState, SharedStateBundle, StateDelta};
use rfid_types::{Epoch, RawReading, ReaderId, TagId};
use std::collections::BTreeMap;

/// Version byte every message starts with.
pub const WIRE_VERSION: u8 = 1;

// Every payload kind carries a corrupted-bytes fuzz case in
// `tests/fuzz.rs::corrupted_byte_zero_is_a_typed_error_for_every_kind`
// (enforced by the `wire-fuzz-coverage` lint rule).
// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind
const KIND_MIGRATION: u8 = 0x01;
// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind
const KIND_READINGS: u8 = 0x02;
// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind
const KIND_QUERY_STATE: u8 = 0x03;
// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind
const KIND_BUNDLE: u8 = 0x04;
// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind
const KIND_COLLAPSED: u8 = 0x05;
// FUZZ: corrupted_byte_zero_is_a_typed_error_for_every_kind
const KIND_STATE_PAYLOAD: u8 = 0x06;

const MIGRATION_NONE: u8 = 0;
const MIGRATION_COLLAPSED: u8 = 1;
const MIGRATION_READINGS: u8 = 2;

const AUTOMATON_IDLE: u8 = 0;
const AUTOMATON_ACCUMULATING: u8 = 1;

/// Encoder/decoder of the binary wire format.
///
/// A zero-sized `Copy` value, so every site worker carries its own.
///
/// # Example
///
/// ```
/// use rfid_core::{CollapsedState, MigrationState};
/// use rfid_types::TagId;
/// use rfid_wire::{WireCodec, WireFormat};
///
/// let state = MigrationState::Collapsed(CollapsedState {
///     object: TagId::item(3),
///     weights: [(TagId::case(1), -12.5)].into_iter().collect(),
///     container: Some(TagId::case(1)),
/// });
/// let codec = WireCodec::new(WireFormat::Binary);
/// let bytes = codec.encode_migration(&state);
/// assert_eq!(codec.decode_migration(&bytes).unwrap(), state);
/// // version, kind, variant, a two-entry tag table, then one weight
/// assert!(bytes.len() < 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCodec;

impl WireCodec {
    /// The codec. [`WireFormat`] has one value, so the argument selects
    /// nothing; the parameter is residue held for the frozen `benchmark/`
    /// package, which spells `WireCodec::new(config.wire_format)`.
    pub fn new(_format: WireFormat) -> WireCodec {
        WireCodec
    }

    /// Encode the inference state migrating with one object.
    pub fn encode_migration(&self, state: &MigrationState) -> Vec<u8> {
        let mut w = header(KIND_MIGRATION);
        match state {
            MigrationState::None => w.put_u8(MIGRATION_NONE),
            MigrationState::Collapsed(collapsed) => {
                w.put_u8(MIGRATION_COLLAPSED);
                encode_collapsed_body(&mut w, collapsed);
            }
            MigrationState::Readings(readings) => {
                w.put_u8(MIGRATION_READINGS);
                encode_readings_state_body(&mut w, readings);
            }
        }
        w.into_bytes()
    }

    /// Decode a [`Self::encode_migration`] message.
    pub fn decode_migration(&self, bytes: &[u8]) -> Result<MigrationState, WireError> {
        let mut r = check_header(bytes, KIND_MIGRATION)?;
        let state = match r.get_u8()? {
            MIGRATION_NONE => MigrationState::None,
            MIGRATION_COLLAPSED => MigrationState::Collapsed(decode_collapsed_body(&mut r)?),
            MIGRATION_READINGS => MigrationState::Readings(decode_readings_state_body(&mut r)?),
            _ => return Err(WireError::new("unknown migration-state variant")),
        };
        r.expect_exhausted()?;
        Ok(state)
    }

    /// Encode one object's collapsed inference state.
    pub fn encode_collapsed(&self, state: &CollapsedState) -> Vec<u8> {
        let mut w = header(KIND_COLLAPSED);
        encode_collapsed_body(&mut w, state);
        w.into_bytes()
    }

    /// Decode a [`Self::encode_collapsed`] message.
    pub fn decode_collapsed(&self, bytes: &[u8]) -> Result<CollapsedState, WireError> {
        let mut r = check_header(bytes, KIND_COLLAPSED)?;
        let state = decode_collapsed_body(&mut r)?;
        r.expect_exhausted()?;
        Ok(state)
    }

    /// Encode a batch of raw readings (the centralized forwarding payload),
    /// preserving their order.
    pub fn encode_readings(&self, readings: &[RawReading]) -> Vec<u8> {
        let mut w = header(KIND_READINGS);
        let table = TagTable::from_tags(readings.iter().map(|r| r.tag));
        table.encode(&mut w);
        encode_reading_seq(&mut w, &table, readings);
        w.into_bytes()
    }

    /// Decode a [`Self::encode_readings`] message.
    pub fn decode_readings(&self, bytes: &[u8]) -> Result<Vec<RawReading>, WireError> {
        let mut r = check_header(bytes, KIND_READINGS)?;
        let table = TagTable::decode(&mut r)?;
        let readings = decode_reading_seq(&mut r, &table)?;
        r.expect_exhausted()?;
        Ok(readings)
    }

    /// Encode one object's query state for one query.
    pub fn encode_query_state(&self, state: &ObjectQueryState) -> Vec<u8> {
        let mut w = header(KIND_QUERY_STATE);
        w.put_bytes(state.query.as_bytes());
        w.put_varint(state.tag.raw());
        encode_automaton(&mut w, &state.automaton);
        w.into_bytes()
    }

    /// Decode a [`Self::encode_query_state`] message.
    pub fn decode_query_state(&self, bytes: &[u8]) -> Result<ObjectQueryState, WireError> {
        let mut r = check_header(bytes, KIND_QUERY_STATE)?;
        let query = get_string(&mut r)?;
        let tag = TagId::from_raw(r.get_varint()?);
        let automaton = decode_automaton(&mut r)?;
        r.expect_exhausted()?;
        Ok(ObjectQueryState {
            query,
            tag,
            automaton,
        })
    }

    /// Encode a centroid-compressed query-state bundle.
    pub fn encode_bundle(&self, bundle: &SharedStateBundle) -> Vec<u8> {
        let mut w = header(KIND_BUNDLE);
        w.put_varint(bundle.centroid_tag.raw());
        w.put_bytes(&bundle.centroid_bytes);
        w.put_varint(bundle.deltas.len() as u64);
        for delta in &bundle.deltas {
            encode_delta(&mut w, delta);
        }
        w.into_bytes()
    }

    /// Decode a [`Self::encode_bundle`] message.
    pub fn decode_bundle(&self, bytes: &[u8]) -> Result<SharedStateBundle, WireError> {
        let mut r = check_header(bytes, KIND_BUNDLE)?;
        let centroid_tag = TagId::from_raw(r.get_varint()?);
        let centroid_bytes = r.get_bytes()?;
        let count = r.get_varint()? as usize;
        let mut deltas = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            deltas.push(decode_delta(&mut r, centroid_bytes.len())?);
        }
        r.expect_exhausted()?;
        Ok(SharedStateBundle {
            centroid_tag,
            centroid_bytes,
            deltas,
        })
    }

    /// The diffable (tag-less) payload of one query state — what
    /// centroid-based sharing diffs against the centroid (plug into
    /// [`rfid_query::share_states_with`]).
    pub fn state_payload(&self, state: &ObjectQueryState) -> Vec<u8> {
        let mut w = header(KIND_STATE_PAYLOAD);
        w.put_bytes(state.query.as_bytes());
        encode_automaton(&mut w, &state.automaton);
        w.into_bytes()
    }

    /// Rebuild an [`ObjectQueryState`] from its tag and a
    /// [`Self::state_payload`] (plug into
    /// [`rfid_query::SharedStateBundle::expand_states_with`]).
    pub fn state_from_payload(
        &self,
        tag: TagId,
        payload: &[u8],
    ) -> Result<ObjectQueryState, WireError> {
        let mut r = check_header(payload, KIND_STATE_PAYLOAD)?;
        let query = get_string(&mut r)?;
        let automaton = decode_automaton(&mut r)?;
        r.expect_exhausted()?;
        Ok(ObjectQueryState {
            query,
            tag,
            automaton,
        })
    }
}

pub(crate) fn header(kind: u8) -> Writer {
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    w.put_u8(kind);
    w
}

pub(crate) fn check_header(bytes: &[u8], kind: u8) -> Result<Reader<'_>, WireError> {
    let mut r = Reader::new(bytes);
    let version = r.get_u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::bad_header(format!(
            "unsupported wire version {version} (this codec speaks {WIRE_VERSION})"
        )));
    }
    let got = r.get_u8()?;
    if got != kind {
        return Err(WireError::bad_header(format!(
            "payload kind mismatch: expected {kind:#04x}, got {got:#04x}"
        )));
    }
    Ok(r)
}

pub(crate) fn get_string(r: &mut Reader<'_>) -> Result<String, WireError> {
    String::from_utf8(r.get_bytes()?).map_err(|_| WireError::new("string is not valid UTF-8"))
}

pub(crate) fn get_epoch(raw: i64) -> Result<Epoch, WireError> {
    u32::try_from(raw)
        .map(Epoch)
        .map_err(|_| WireError::new("epoch out of u32 range"))
}

/// Accumulate one zigzag delta onto a running base without wrapping: a
/// hostile message can place each individual delta in range while their sum
/// overflows `i64` (an abort under `overflow-checks`, silent wrap without).
pub(crate) fn checked_delta(base: i64, delta: i64, what: &str) -> Result<i64, WireError> {
    base.checked_add(delta)
        .ok_or_else(|| WireError::length_overflow(what))
}

/// Optional tag reference against a table: `0` for `None`, `1 + index`
/// otherwise.
pub(crate) fn put_opt_tag(w: &mut Writer, table: &TagTable, tag: Option<TagId>) {
    match tag {
        None => w.put_varint(0),
        Some(t) => w.put_varint(1 + table.index_of(t)),
    }
}

pub(crate) fn get_opt_tag(
    r: &mut Reader<'_>,
    table: &TagTable,
) -> Result<Option<TagId>, WireError> {
    match r.get_varint()? {
        0 => Ok(None),
        n => Ok(Some(table.tag_at(n - 1)?)),
    }
}

fn encode_collapsed_body(w: &mut Writer, state: &CollapsedState) {
    let table = TagTable::from_tags(
        std::iter::once(state.object)
            .chain(state.weights.keys().copied())
            .chain(state.container),
    );
    table.encode(w);
    w.put_varint(table.index_of(state.object));
    put_opt_tag(w, &table, state.container);
    w.put_varint(state.weights.len() as u64);
    for (&tag, &weight) in &state.weights {
        w.put_varint(table.index_of(tag));
        w.put_f64(weight);
    }
}

fn decode_collapsed_body(r: &mut Reader<'_>) -> Result<CollapsedState, WireError> {
    let table = TagTable::decode(r)?;
    let object = table.tag_at(r.get_varint()?)?;
    let container = get_opt_tag(r, &table)?;
    let count = r.get_varint()? as usize;
    let mut weights = BTreeMap::new();
    for _ in 0..count {
        let tag = table.tag_at(r.get_varint()?)?;
        let weight = r.get_f64()?;
        weights.insert(tag, weight);
    }
    if weights.len() != count {
        return Err(WireError::new("duplicate candidate in collapsed weights"));
    }
    Ok(CollapsedState {
        object,
        weights,
        container,
    })
}

fn encode_readings_state_body(w: &mut Writer, state: &ReadingsState) {
    let table = TagTable::from_tags(
        std::iter::once(state.object)
            .chain(state.container)
            .chain(state.readings.iter().map(|r| r.tag)),
    );
    table.encode(w);
    w.put_varint(table.index_of(state.object));
    put_opt_tag(w, &table, state.container);
    encode_reading_seq(w, &table, &state.readings);
}

fn decode_readings_state_body(r: &mut Reader<'_>) -> Result<ReadingsState, WireError> {
    let table = TagTable::decode(r)?;
    let object = table.tag_at(r.get_varint()?)?;
    let container = get_opt_tag(r, &table)?;
    let readings = decode_reading_seq(r, &table)?;
    Ok(ReadingsState {
        object,
        readings,
        container,
    })
}

/// Order-preserving reading sequence: per reading a tag-table index, the
/// epoch as a zigzag delta against the previous reading's epoch, and the
/// reader id. Time-sorted runs — the overwhelmingly common layout — cost one
/// byte of delta per reading; tag-grouped exports pay one longer (negative)
/// delta per group boundary.
fn encode_reading_seq(w: &mut Writer, table: &TagTable, readings: &[RawReading]) {
    w.put_varint(readings.len() as u64);
    let mut prev_epoch = 0i64;
    for reading in readings {
        w.put_varint(table.index_of(reading.tag));
        w.put_zigzag(i64::from(reading.time.0) - prev_epoch);
        prev_epoch = i64::from(reading.time.0);
        w.put_varint(u64::from(reading.reader.0));
    }
}

fn decode_reading_seq(r: &mut Reader<'_>, table: &TagTable) -> Result<Vec<RawReading>, WireError> {
    let count = r.get_varint()? as usize;
    let mut readings = Vec::with_capacity(count.min(1 << 20));
    let mut prev_epoch = 0i64;
    for _ in 0..count {
        let tag = table.tag_at(r.get_varint()?)?;
        let epoch = get_epoch(checked_delta(prev_epoch, r.get_zigzag()?, "reading epoch")?)?;
        prev_epoch = i64::from(epoch.0);
        let reader = r.get_varint()?;
        let reader = u16::try_from(reader)
            .map(ReaderId)
            .map_err(|_| WireError::new("reader id out of u16 range"))?;
        readings.push(RawReading::new(epoch, tag, reader));
    }
    Ok(readings)
}

pub(crate) fn encode_automaton(w: &mut Writer, automaton: &AutomatonState) {
    match automaton {
        AutomatonState::Idle => w.put_u8(AUTOMATON_IDLE),
        AutomatonState::Accumulating {
            since,
            readings,
            fired,
        } => {
            w.put_u8(AUTOMATON_ACCUMULATING);
            w.put_varint(u64::from(since.0));
            w.put_u8(u8::from(*fired));
            w.put_varint(readings.len() as u64);
            // Collected readings are in observation order, almost always
            // ascending from `since`; delta-encode against the previous one.
            let mut prev_epoch = i64::from(since.0);
            for (epoch, value) in readings {
                w.put_zigzag(i64::from(epoch.0) - prev_epoch);
                prev_epoch = i64::from(epoch.0);
                w.put_f64(*value);
            }
        }
    }
}

pub(crate) fn decode_automaton(r: &mut Reader<'_>) -> Result<AutomatonState, WireError> {
    match r.get_u8()? {
        AUTOMATON_IDLE => Ok(AutomatonState::Idle),
        AUTOMATON_ACCUMULATING => {
            let since = get_epoch(r.get_varint()? as i64)?;
            let fired = match r.get_u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::new("invalid fired flag")),
            };
            let count = r.get_varint()? as usize;
            let mut readings = Vec::with_capacity(count.min(1 << 20));
            let mut prev_epoch = i64::from(since.0);
            for _ in 0..count {
                let epoch = get_epoch(checked_delta(
                    prev_epoch,
                    r.get_zigzag()?,
                    "automaton epoch",
                )?)?;
                prev_epoch = i64::from(epoch.0);
                readings.push((epoch, r.get_f64()?));
            }
            Ok(AutomatonState::Accumulating {
                since,
                readings,
                fired,
            })
        }
        _ => Err(WireError::new("unknown automaton variant")),
    }
}

fn encode_delta(w: &mut Writer, delta: &StateDelta) {
    w.put_varint(delta.tag.raw());
    w.put_varint(u64::from(delta.len));
    match &delta.full {
        Some(full) => {
            w.put_u8(1);
            w.put_bytes(full);
        }
        None => {
            w.put_u8(0);
            w.put_varint(delta.edits.len() as u64);
            // Edit positions ascend (they are produced by a forward scan);
            // zigzag deltas keep arbitrary orders decodable all the same.
            let mut prev_pos = 0i64;
            for &(pos, byte) in &delta.edits {
                w.put_zigzag(i64::from(pos) - prev_pos);
                prev_pos = i64::from(pos);
                w.put_u8(byte);
            }
            w.put_bytes(&delta.suffix);
        }
    }
}

/// Decode one delta and check it against the centroid it will be applied
/// to. [`SharedStateBundle::expand`] resizes, indexes and copies on the
/// delta's word, so only the shapes sharing can produce are let through: a
/// full payload of the declared length, or edits inside the common prefix
/// plus exactly the bytes past the centroid's end.
fn decode_delta(r: &mut Reader<'_>, centroid_len: usize) -> Result<StateDelta, WireError> {
    let tag = TagId::from_raw(r.get_varint()?);
    let len = u32::try_from(r.get_varint()?)
        .map_err(|_| WireError::new("delta length out of u32 range"))?;
    let payload_len = len as usize;
    match r.get_u8()? {
        1 => {
            let full = r.get_bytes()?;
            if full.len() != payload_len {
                return Err(WireError::new("full delta disagrees with its length"));
            }
            Ok(StateDelta {
                tag,
                edits: Vec::new(),
                suffix: Vec::new(),
                len,
                full: Some(full),
            })
        }
        0 => {
            let count = r.get_varint()? as usize;
            let mut edits = Vec::with_capacity(count.min(1 << 20));
            let common = payload_len.min(centroid_len) as i64;
            let mut prev_pos = 0i64;
            for _ in 0..count {
                let pos = checked_delta(prev_pos, r.get_zigzag()?, "edit position")?;
                prev_pos = pos;
                if !(0..common).contains(&pos) {
                    return Err(WireError::new("edit position outside the common prefix"));
                }
                edits.push((pos as u32, r.get_u8()?));
            }
            let suffix = r.get_bytes()?;
            if suffix.len() != payload_len.saturating_sub(centroid_len) {
                return Err(WireError::new("delta suffix disagrees with its length"));
            }
            Ok(StateDelta {
                tag,
                edits,
                suffix,
                len,
                full: None,
            })
        }
        _ => Err(WireError::new("invalid delta flag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec() -> WireCodec {
        WireCodec::new(WireFormat::Binary)
    }

    fn collapsed() -> CollapsedState {
        CollapsedState {
            object: TagId::item(3),
            weights: [(TagId::case(1), 0.0), (TagId::case(2), -40.25)]
                .into_iter()
                .collect(),
            container: Some(TagId::case(1)),
        }
    }

    fn readings_state() -> ReadingsState {
        // Tag-grouped export order (object first, then each candidate),
        // exactly as `InferenceEngine::export_readings` produces it.
        let mut readings = Vec::new();
        for tag in [TagId::item(3), TagId::case(1), TagId::case(2)] {
            for t in 100..140u32 {
                readings.push(RawReading::new(Epoch(t), tag, ReaderId(2)));
            }
        }
        ReadingsState {
            object: TagId::item(3),
            readings,
            container: Some(TagId::case(1)),
        }
    }

    #[test]
    fn migration_states_round_trip_in_both_formats() {
        let states = [
            MigrationState::None,
            MigrationState::Collapsed(collapsed()),
            MigrationState::Readings(readings_state()),
        ];
        for state in &states {
            let bytes = codec().encode_migration(state);
            assert_eq!(&codec().decode_migration(&bytes).unwrap(), state);
        }
    }

    #[test]
    fn collapsed_state_beats_the_old_estimate() {
        let state = collapsed();
        let bytes = codec().encode_collapsed(&state);
        assert_eq!(codec().decode_collapsed(&bytes).unwrap(), state);
        // the seed's hand-estimated accounting charged 8 + 9 + 16/candidate
        assert!(bytes.len() < 8 + 9 + 16 * state.weights.len());
    }

    #[test]
    fn binary_reading_batches_cost_a_few_bytes_per_reading() {
        let state = readings_state();
        let bytes = codec().encode_readings(&state.readings);
        assert_eq!(codec().decode_readings(&bytes).unwrap(), state.readings);
        let per_reading = bytes.len() as f64 / state.readings.len() as f64;
        assert!(
            per_reading < 4.0,
            "sorted runs should cost ~3 B/reading, got {per_reading:.1}"
        );
        // the seed charged a flat 14 B/reading; binary must at least halve it
        assert!(bytes.len() * 2 < state.readings.len() * RawReading::WIRE_BYTES);
    }

    #[test]
    fn empty_payloads_round_trip() {
        let codec = codec();
        assert_eq!(
            codec.decode_readings(&codec.encode_readings(&[])).unwrap(),
            []
        );
        let empty = CollapsedState {
            object: TagId::item(1),
            weights: BTreeMap::new(),
            container: None,
        };
        assert_eq!(
            codec
                .decode_collapsed(&codec.encode_collapsed(&empty))
                .unwrap(),
            empty
        );
    }

    #[test]
    fn query_state_and_payload_round_trip() {
        let state = ObjectQueryState {
            query: "Q1".to_string(),
            tag: TagId::item(9),
            automaton: AutomatonState::Accumulating {
                since: Epoch(500),
                readings: (0..20)
                    .map(|i| (Epoch(500 + i * 10), 21.0 + i as f64))
                    .collect(),
                fired: true,
            },
        };
        let codec = codec();
        let bytes = codec.encode_query_state(&state);
        assert_eq!(codec.decode_query_state(&bytes).unwrap(), state);
        let payload = codec.state_payload(&state);
        assert_eq!(
            codec.state_from_payload(state.tag, &payload).unwrap(),
            state
        );
        // Collected readings dominate the state size: an idle state is a
        // few bytes of framing, a run pays eight float bytes per reading.
        let idle = codec.encode_query_state(&ObjectQueryState {
            automaton: AutomatonState::Idle,
            ..state
        });
        assert!(idle.len() < 16 && bytes.len() > idle.len() + 20 * 8);
    }

    #[test]
    fn bundles_round_trip_including_full_fallbacks() {
        let bundle = SharedStateBundle {
            centroid_tag: TagId::item(1),
            centroid_bytes: vec![1, 2, 3, 4, 5],
            deltas: vec![
                StateDelta {
                    tag: TagId::item(2),
                    edits: vec![(0, 9), (3, 7)],
                    suffix: vec![8, 8],
                    len: 7,
                    full: None,
                },
                StateDelta {
                    tag: TagId::item(3),
                    edits: Vec::new(),
                    suffix: Vec::new(),
                    len: 2,
                    full: Some(vec![9, 9]),
                },
            ],
        };
        let bytes = codec().encode_bundle(&bundle);
        assert_eq!(codec().decode_bundle(&bytes).unwrap(), bundle);
    }

    #[test]
    fn corrupted_and_mismatched_headers_are_rejected() {
        let binary = codec();
        let bytes = binary.encode_collapsed(&collapsed());
        assert!(binary.decode_readings(&bytes).is_err(), "kind mismatch");
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert!(binary.decode_collapsed(&wrong_version).is_err());
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 1);
        assert!(binary.decode_collapsed(&truncated).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(binary.decode_collapsed(&trailing).is_err());
        assert!(binary.decode_migration(&[]).is_err());
    }
}
