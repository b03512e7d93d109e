//! The [`WireCodec`] front end: one `encode_*` / `decode_*` pair per payload
//! kind, each a header plus one value of the crate-private `Wire` trait.
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
//! | `0x06` | query-state payload | tag-less `(query, automaton)` for sharing |
//! | `0x07` | [`crate::checkpoint::SiteCheckpoint`] | site-wide tag table + engine/processor snapshots + durability bookkeeping |
//! | `0x08` | [`crate::ControlMsg`] | transport control: ack / anti-entropy resync |
//!
//! ## One declaration per type
//!
//! A type's layout is written down once, as its `Wire` impl (`layout.rs`):
//! `put`, `get` and `tags` (what the message's [`TagTable`] must hold) live
//! together. Leaves (varints, raw-bits `f64`, table-indexed tags) and
//! container shapes (counted sequences, tag-keyed maps that reject a repeated
//! key, flag-byte options, zigzag epoch-delta runs, fixed counter blocks)
//! are implemented once each; a struct is one `wire_struct!` line naming its
//! fields in wire order, from which all three walks are generated.
//! Adding a checkpoint counter is one name appended to a `counters!` list,
//! and `merge` picks it up from the same list. It is also a layout change:
//! a block encodes exactly its declared counters, with no arity to tell an
//! older block apart, so the change bumps [`WIRE_VERSION`] and re-records the
//! golden bytes (`tests/golden_bytes*.rs`).
//!
//! All encodings are *bit-exact*: `decode(encode(x))` reproduces `x`
//! including `f64` bit patterns, so routing live state through the codec can
//! never change an inference or query outcome.

use crate::layout::{
    get_counted, get_run, narrow, put_readings, put_run, wire_struct, Delta, Flag, TagRefs, Wire,
};
use crate::primitives::{Reader, TagTable, Writer};
use crate::{WireError, WireFormat};
use rfid_core::{CollapsedState, MigrationState, ReadingsState};
use rfid_query::{AutomatonState, ObjectQueryState, SharedStateBundle, StateDelta};
use rfid_types::{RawReading, TagId};

/// Version byte every message starts with.
pub const WIRE_VERSION: u8 = 5;

/// Declares the payload-kind bytes (byte 1 of every message) once: the
/// `KIND_*` constants the codecs use, and the [`KINDS`] list that
/// `tests/fuzz.rs::corrupted_byte_zero_is_a_typed_error_for_every_kind`
/// must match entry for entry — a kind added here without a corrupted-bytes
/// case there fails that test.
macro_rules! payload_kinds {
    ($($name:ident = $byte:literal,)*) => {
        $(pub(crate) const $name: u8 = $byte;)*
        /// Every payload kind, in declaration order.
        #[doc(hidden)]
        pub const KINDS: &[(&str, u8)] = &[$((stringify!($name), $byte)),*];
    };
}

payload_kinds! {
    KIND_MIGRATION = 0x01,
    KIND_READINGS = 0x02,
    KIND_QUERY_STATE = 0x03,
    KIND_BUNDLE = 0x04,
    KIND_STATE_PAYLOAD = 0x06,
    KIND_CHECKPOINT = 0x07,
    KIND_CONTROL = 0x08,
}

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
        message(KIND_MIGRATION, state, TagRefs::Raw)
    }

    /// Decode a [`Self::encode_migration`] message.
    pub fn decode_migration(&self, bytes: &[u8]) -> Result<MigrationState, WireError> {
        parse(bytes, KIND_MIGRATION, TagRefs::Raw)
    }

    /// Encode a batch of raw readings (the centralized forwarding payload),
    /// preserving their order.
    pub fn encode_readings(&self, readings: &[RawReading]) -> Vec<u8> {
        let mut w = header(KIND_READINGS);
        let table = TagTable::from_tags(readings.iter().map(|r| r.tag));
        table.encode(&mut w);
        put_readings(readings, &mut w, TagRefs::Table(&table));
        w.into_bytes()
    }

    /// Decode a [`Self::encode_readings`] message.
    pub fn decode_readings(&self, bytes: &[u8]) -> Result<Vec<RawReading>, WireError> {
        let mut r = check_header(bytes, KIND_READINGS)?;
        let table = TagTable::decode(&mut r)?;
        let readings = Wire::<Delta>::get(&mut r, TagRefs::Table(&table))?;
        r.expect_exhausted()?;
        Ok(readings)
    }

    /// Encode one object's query state for one query.
    pub fn encode_query_state(&self, state: &ObjectQueryState) -> Vec<u8> {
        message(KIND_QUERY_STATE, state, TagRefs::Raw)
    }

    /// Decode a [`Self::encode_query_state`] message.
    pub fn decode_query_state(&self, bytes: &[u8]) -> Result<ObjectQueryState, WireError> {
        parse(bytes, KIND_QUERY_STATE, TagRefs::Raw)
    }

    /// Encode a centroid-compressed query-state bundle.
    pub fn encode_bundle(&self, bundle: &SharedStateBundle) -> Vec<u8> {
        message(KIND_BUNDLE, bundle, TagRefs::Raw)
    }

    /// Decode a [`Self::encode_bundle`] message.
    ///
    /// [`SharedStateBundle::expand`] resizes, indexes and copies on each
    /// delta's word, so only the shapes sharing can produce are let through:
    /// a full payload of the declared length, or edits inside the common
    /// prefix plus exactly the bytes past the centroid's end.
    pub fn decode_bundle(&self, bytes: &[u8]) -> Result<SharedStateBundle, WireError> {
        let bundle: SharedStateBundle = parse(bytes, KIND_BUNDLE, TagRefs::Raw)?;
        let centroid_len = bundle.centroid_bytes.len();
        for delta in &bundle.deltas {
            let len = delta.len as usize;
            let fits = match &delta.full {
                Some(full) => full.len() == len,
                None => {
                    let common = len.min(centroid_len);
                    delta.suffix.len() == len.saturating_sub(centroid_len)
                        && delta.edits.iter().all(|&(pos, _)| (pos as usize) < common)
                }
            };
            if !fits {
                return Err(WireError::new("delta does not fit its centroid"));
            }
        }
        Ok(bundle)
    }

    /// The diffable (tag-less) payload of one query state — what
    /// centroid-based sharing diffs against the centroid (plug into
    /// [`rfid_query::share_states_with`]).
    pub fn state_payload(&self, state: &ObjectQueryState) -> Vec<u8> {
        message(KIND_STATE_PAYLOAD, state, TagRefs::Implied(state.tag))
    }

    /// Rebuild an [`ObjectQueryState`] from its tag and a
    /// [`Self::state_payload`] (plug into
    /// [`rfid_query::SharedStateBundle::expand_states_with`]).
    pub fn state_from_payload(
        &self,
        tag: TagId,
        payload: &[u8],
    ) -> Result<ObjectQueryState, WireError> {
        parse(payload, KIND_STATE_PAYLOAD, TagRefs::Implied(tag))
    }
}

fn header(kind: u8) -> Writer {
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    w.put_u8(kind);
    w
}

fn check_header(bytes: &[u8], kind: u8) -> Result<Reader<'_>, WireError> {
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

/// One whole message: the header, then `value`.
pub(crate) fn message(kind: u8, value: &impl Wire, refs: TagRefs<'_>) -> Vec<u8> {
    let mut w = header(kind);
    value.put(&mut w, refs);
    w.into_bytes()
}

/// Read back a [`message`], consuming `bytes` exactly.
pub(crate) fn parse<T: Wire>(bytes: &[u8], kind: u8, refs: TagRefs<'_>) -> Result<T, WireError> {
    let mut r = check_header(bytes, kind)?;
    let value = T::get(&mut r, refs)?;
    r.expect_exhausted()?;
    Ok(value)
}

// Both inference states open with their own tag table (the `;`).
wire_struct!(CollapsedState: ; object, container, weights);
wire_struct!(ReadingsState: ; object, container, readings as Delta);
wire_struct!(ObjectQueryState: query, tag, automaton);
wire_struct!(SharedStateBundle: centroid_tag, centroid_bytes, deltas);

impl Wire for MigrationState {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        match self {
            MigrationState::None => w.put_u8(0),
            MigrationState::Collapsed(collapsed) => {
                w.put_u8(1);
                collapsed.put(w, refs);
            }
            MigrationState::Readings(readings) => {
                w.put_u8(2);
                readings.put(w, refs);
            }
        }
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(MigrationState::None),
            1 => Wire::get(r, refs).map(MigrationState::Collapsed),
            2 => Wire::get(r, refs).map(MigrationState::Readings),
            _ => Err(WireError::new("unknown migration-state variant")),
        }
    }
}

/// `Idle` is a bare variant byte. A run is its start, the fired flag and the
/// collected readings — in observation order, almost always ascending from
/// `since`, so their epoch deltas chain from `since` rather than from zero.
impl Wire for AutomatonState {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        match self {
            AutomatonState::Idle => w.put_u8(0),
            AutomatonState::Accumulating {
                since,
                readings,
                fired,
            } => {
                w.put_u8(1);
                since.put(w, refs);
                fired.put(w, refs);
                let items = readings.iter().map(|(epoch, value)| (*epoch, value));
                put_run(w, *since, readings.len(), items, |v, w| v.put(w, refs));
            }
        }
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(AutomatonState::Idle),
            1 => {
                let since = Wire::get(r, refs)?;
                let fired = Wire::get(r, refs)?;
                let readings = get_run(r, since, |r| f64::get(r, refs))?;
                Ok(AutomatonState::Accumulating {
                    since,
                    readings,
                    fired,
                })
            }
            _ => Err(WireError::new("unknown automaton variant")),
        }
    }
}

/// The declared length, then either the full payload (flag `1`) or, after
/// flag `0`, the byte edits against the centroid and the suffix past its end.
/// Edit positions ascend (a forward scan produces them); zigzag deltas keep
/// arbitrary orders decodable all the same.
impl Wire for StateDelta {
    fn put(&self, w: &mut Writer, refs: TagRefs<'_>) {
        self.tag.put(w, refs);
        self.len.put(w, refs);
        Wire::<Flag>::put(&self.full, w, refs);
        if self.full.is_none() {
            self.edits.len().put(w, refs);
            let mut prev = 0i64;
            for &(pos, byte) in &self.edits {
                w.put_zigzag(i64::from(pos) - prev);
                prev = i64::from(pos);
                w.put_u8(byte);
            }
            self.suffix.put(w, refs);
        }
    }
    fn get(r: &mut Reader<'_>, refs: TagRefs<'_>) -> Result<Self, WireError> {
        let mut delta = StateDelta {
            tag: Wire::get(r, refs)?,
            len: Wire::get(r, refs)?,
            full: Wire::<Flag>::get(r, refs)?,
            edits: Vec::new(),
            suffix: Vec::new(),
        };
        if delta.full.is_none() {
            let mut prev = 0i64;
            delta.edits = get_counted(r, |r| {
                prev = prev
                    .checked_add(r.get_zigzag()?)
                    .ok_or_else(|| WireError::length_overflow("edit position"))?;
                Ok((narrow(prev, "edit position")?, r.get_u8()?))
            })?;
            delta.suffix = Wire::get(r, refs)?;
        }
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_types::{Epoch, ReaderId};
    use std::collections::BTreeMap;

    fn codec() -> WireCodec {
        WireCodec::new(WireFormat::Binary)
    }

    fn collapsed() -> MigrationState {
        MigrationState::Collapsed(CollapsedState {
            object: TagId::item(3),
            weights: [(TagId::case(1), 0.0), (TagId::case(2), -40.25)]
                .into_iter()
                .collect(),
            container: Some(TagId::case(1)),
        })
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
            collapsed(),
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
        let bytes = codec().encode_migration(&state);
        assert_eq!(codec().decode_migration(&bytes).unwrap(), state);
        // the seed's hand-estimated accounting charged 8 + 9 + 16/candidate
        assert!(bytes.len() < 8 + 9 + 16 * 2);
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
        let empty = MigrationState::Collapsed(CollapsedState {
            object: TagId::item(1),
            weights: BTreeMap::new(),
            container: None,
        });
        assert_eq!(
            codec
                .decode_migration(&codec.encode_migration(&empty))
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
        let bytes = binary.encode_migration(&collapsed());
        assert!(binary.decode_readings(&bytes).is_err(), "kind mismatch");
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert!(binary.decode_migration(&wrong_version).is_err());
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 1);
        assert!(binary.decode_migration(&truncated).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(binary.decode_migration(&trailing).is_err());
        assert!(binary.decode_migration(&[]).is_err());
    }
}
