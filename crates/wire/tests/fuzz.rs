//! Adversarial decoding: the wire decoder must treat every byte sequence —
//! truncated, bit-flipped, or outright random — as data, never as a reason
//! to panic. Valid encodings must additionally be *stable*: decoding and
//! re-encoding reproduces the original bytes.
//!
//! This is the runtime half of the `panic-free-decode` invariant; the static
//! half is enforced by `rfid-lint` over `crates/wire/src`.

use proptest::prelude::*;
use rfid_core::{CollapsedState, MigrationState, ReadingsState};
use rfid_query::{AutomatonState, ObjectQueryState, SharedStateBundle};
use rfid_types::{Epoch, RawReading, ReaderId, TagId};
use rfid_wire::primitives::{Reader, TagTable, Writer};
use rfid_wire::{WireCodec, WireErrorKind, WireFormat, WIRE_VERSION};
use std::collections::BTreeMap;

fn codec() -> WireCodec {
    WireCodec::new(WireFormat::Binary)
}

/// Run every decoder over `bytes`; the only acceptable outcomes are `Ok` and
/// `Err` — a panic fails the test by unwinding. A bundle that decodes is also
/// expanded: the decoder's contract is that whatever it lets through can be
/// applied to the centroid without a bounds check.
fn decode_everything(bytes: &[u8]) {
    let codec = codec();
    let _ = codec.decode_readings(bytes);
    let _ = codec.decode_collapsed(bytes);
    let _ = codec.decode_migration(bytes);
    let _ = codec.decode_query_state(bytes);
    if let Ok(bundle) = codec.decode_bundle(bytes) {
        let _ = bundle.expand();
    }
    let _ = codec.decode_checkpoint(bytes);
    let _ = codec.decode_control(bytes);
    let _ = codec.state_from_payload(TagId::item(1), bytes);
}

fn arb_tag() -> impl Strategy<Value = TagId> {
    (0u64..3, prop_oneof![0u64..200, Just((1u64 << 62) - 1)]).prop_map(
        |(kind, serial)| match kind {
            0 => TagId::item(serial),
            1 => TagId::case(serial),
            _ => TagId::pallet(serial),
        },
    )
}

fn arb_epoch() -> impl Strategy<Value = Epoch> {
    prop_oneof![
        (0u32..5000).prop_map(Epoch),
        Just(Epoch(u32::MAX)),
        Just(Epoch(0)),
    ]
}

fn arb_weight() -> impl Strategy<Value = f64> {
    prop_oneof![-1e6f64..1e6, Just(0.0f64), Just(-0.0f64), Just(-1e-300f64)]
}

fn arb_readings() -> impl Strategy<Value = Vec<RawReading>> {
    prop::collection::vec(
        (arb_epoch(), arb_tag(), 0u16..u16::MAX)
            .prop_map(|(time, tag, reader)| RawReading::new(time, tag, ReaderId(reader))),
        0..40,
    )
}

fn arb_collapsed() -> impl Strategy<Value = CollapsedState> {
    (
        arb_tag(),
        prop::collection::btree_map(arb_tag(), arb_weight(), 0..10),
        prop::option::of(arb_tag()),
    )
        .prop_map(|(object, weights, container)| CollapsedState {
            object,
            weights,
            container,
        })
}

fn arb_migration() -> impl Strategy<Value = MigrationState> {
    prop_oneof![
        Just(MigrationState::None),
        arb_collapsed().prop_map(MigrationState::Collapsed),
        (arb_tag(), arb_readings(), prop::option::of(arb_tag())).prop_map(
            |(object, readings, container)| {
                MigrationState::Readings(ReadingsState {
                    object,
                    readings,
                    container,
                })
            }
        ),
    ]
}

fn arb_query_state() -> impl Strategy<Value = ObjectQueryState> {
    (
        0u32..4,
        arb_tag(),
        prop_oneof![
            Just(AutomatonState::Idle),
            (
                arb_epoch(),
                prop::collection::vec((arb_epoch(), arb_weight()), 0..15),
                any::<bool>(),
            )
                .prop_map(|(since, readings, fired)| AutomatonState::Accumulating {
                    since,
                    readings,
                    fired,
                }),
        ],
    )
        .prop_map(|(q, tag, automaton)| ObjectQueryState {
            query: format!("Q{q}"),
            tag,
            automaton,
        })
}

/// Bundles exactly as sharing builds them: every delta is the diff of one
/// payload against the centroid, which is all the decoder accepts. The
/// payloads are variations of one base string — a point edit, a cut, an
/// appended tail — so edit, suffix and full-fallback deltas all occur.
fn arb_bundle() -> impl Strategy<Value = SharedStateBundle> {
    let variation = (
        (0usize..48, any::<u8>()),
        0usize..64,
        prop::collection::vec(any::<u8>(), 0..12),
    );
    (
        prop::collection::vec(any::<u8>(), 0..48),
        prop::collection::btree_map(arb_tag(), variation, 1..9),
    )
        .prop_map(|(base, variations)| {
            let mut states = Vec::new();
            let mut payloads = BTreeMap::new();
            for (tag, ((at, byte), keep, tail)) in variations {
                let mut bytes = base.clone();
                if let Some(slot) = bytes.get_mut(at) {
                    *slot = byte;
                }
                bytes.truncate(keep);
                bytes.extend(tail);
                payloads.insert(tag, bytes);
                states.push(ObjectQueryState {
                    query: String::new(),
                    tag,
                    automaton: AutomatonState::Idle,
                });
            }
            rfid_query::share_states_with(&states, |s| payloads[&s.tag].clone())
                .expect("at least one state")
        })
}

/// A small but fully-populated checkpoint: every section non-empty, so
/// truncation and bit-flip sweeps cross section boundaries.
fn arb_checkpoint() -> impl Strategy<Value = rfid_wire::SiteCheckpoint> {
    use rfid_core::{
        CachedVariant, DirtySet, EngineSnapshot, EvidenceCache, Observations, PriorWeights,
    };
    use rfid_query::ProcessorSnapshot;
    use rfid_types::{ContainmentMap, LocationId, SensorReading};
    (
        arb_readings(),
        prop::collection::vec((arb_tag(), arb_tag(), arb_weight()), 0..6),
        prop::collection::vec((arb_tag(), arb_epoch()), 0..6),
        arb_query_state(),
        (arb_epoch(), 0u16..16, arb_tag(), arb_epoch()),
    )
        .prop_map(
            |(readings, priors, records, state, (depart, to, tag, arrive))| {
                let mut store = Observations::new();
                for reading in &readings {
                    store.insert(*reading);
                }
                let mut prior = PriorWeights::empty();
                let mut containment = ContainmentMap::new();
                for (object, container, weight) in priors {
                    prior.set(object, container, weight);
                    containment.set(object, container);
                }
                let mut dirty = DirtySet::new();
                for (dirty_tag, epoch) in records {
                    dirty.record(dirty_tag, epoch);
                }
                let mut cache = EvidenceCache::new();
                cache.set_variants(
                    tag,
                    vec![CachedVariant {
                        members: vec![tag],
                        epochs: vec![depart],
                        qrows: vec![0.5, -0.5],
                        evidence: [(tag, vec![(depart, 1.0)])].into_iter().collect(),
                    }],
                );
                rfid_wire::SiteCheckpoint {
                    site: 3,
                    at: arrive,
                    engine: EngineSnapshot {
                        store,
                        prior,
                        containment,
                        detected: Vec::new(),
                        last_outcome: None,
                        last_inference_at: Some(arrive),
                        threshold: Some(4.5),
                        dirty,
                        cache,
                    },
                    processor: ProcessorSnapshot {
                        temperatures: vec![SensorReading::new(depart, LocationId(1), 20.5)],
                        automata: vec![state.clone()],
                        alerts: Vec::new(),
                    },
                    reading_cursor: readings.len() as u64,
                    sensor_cursor: 1,
                    departure_cursor: 0,
                    inbox: vec![rfid_wire::PendingShipment {
                        depart,
                        from: 0,
                        to,
                        tag,
                        arrive,
                        seq: 9,
                        physical: arrive,
                        inference: Some(vec![7, 7, 7]),
                        query: vec![state],
                    }],
                    comm_bytes: [1, 2, 3, 4, 5],
                    comm_messages: [1, 1, 1, 1, 1],
                    shared_bytes: 10,
                    unshared_bytes: 20,
                    inference_runs: 2,
                    stats: Default::default(),
                    inbox_seqs: vec![rfid_wire::EdgeSeqs {
                        peer: to,
                        watermark: 4,
                        extras: vec![6, 9],
                    }],
                    transport: rfid_wire::TransportStats {
                        envelopes: 3,
                        transmissions: 5,
                        retransmissions: 2,
                        acks: 3,
                        duplicates_dropped: 1,
                        reconciled: 1,
                        stale_dropped: 0,
                        abandoned: 0,
                        resyncs: 1,
                        quarantined: 1,
                    },
                    quarantine: vec![rfid_wire::QuarantineEntry {
                        from: 0,
                        seq: 9,
                        physical: arrive,
                    }],
                    memory: rfid_core::MemoryStats {
                        high_water: 12,
                        compactions: 1,
                        compacted_observations: 4,
                        evicted_cache_entries: 1,
                    },
                    ledgers: vec![rfid_wire::EdgeLedger {
                        from: 0,
                        to,
                        envelopes: 3,
                        abandoned: 0,
                        sent_copies: 4,
                        sent_bytes: 64,
                        recv_copies: 4,
                        recv_bytes: 64,
                        accepted: 3,
                        imported: 2,
                        stale: 0,
                        quarantined: 1,
                        undelivered: 1,
                        undelivered_bytes: 16,
                        dark_envelopes: 0,
                    }],
                }
            },
        )
}

/// Valid binary encodings of every payload family, for mutation.
fn arb_control() -> impl Strategy<Value = rfid_wire::ControlMsg> {
    prop_oneof![
        (0u16..64, 0u16..64, any::<u64>()).prop_map(|(from, to, seq)| rfid_wire::ControlMsg::Ack {
            from,
            to,
            seq
        }),
        (0u16..64, 0u16..64, arb_epoch())
            .prop_map(|(site, peer, since)| rfid_wire::ControlMsg::Resync { site, peer, since }),
    ]
}

fn arb_encoding() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_readings().prop_map(|r| codec().encode_readings(&r)),
        arb_collapsed().prop_map(|s| codec().encode_collapsed(&s)),
        arb_migration().prop_map(|s| codec().encode_migration(&s)),
        arb_query_state().prop_map(|s| codec().encode_query_state(&s)),
        arb_bundle().prop_map(|b| codec().encode_bundle(&b)),
        arb_checkpoint().prop_map(|c| codec().encode_checkpoint(&c)),
        arb_control().prop_map(|m| codec().encode_control(&m)),
    ]
}

proptest! {
    #[test]
    fn every_strict_prefix_errs_and_never_panics(bytes in arb_encoding()) {
        // Binary messages either promise more bytes (truncation mid-field)
        // or fail `expect_exhausted`; either way a strict prefix is an error,
        // and crucially never an abort.
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            prop_assert!(codec().decode_readings(prefix).is_err());
            prop_assert!(codec().decode_collapsed(prefix).is_err());
            prop_assert!(codec().decode_migration(prefix).is_err());
            prop_assert!(codec().decode_query_state(prefix).is_err());
            prop_assert!(codec().decode_bundle(prefix).is_err());
            prop_assert!(codec().decode_checkpoint(prefix).is_err());
            prop_assert!(codec().decode_control(prefix).is_err());
        }
    }

    #[test]
    fn bit_flips_never_panic(bytes in arb_encoding(), idx in any::<u16>(), bit in 0u8..8) {
        // A single flipped bit may still decode (payload bits), may change
        // the message meaning, or may corrupt structure — all fine, as long
        // as no decoder panics.
        let mut mutated = bytes;
        if !mutated.is_empty() {
            let at = idx as usize % mutated.len();
            mutated[at] ^= 1 << bit;
        }
        decode_everything(&mutated);
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        decode_everything(&bytes);
    }

    #[test]
    fn decoding_then_reencoding_is_stable(state in arb_collapsed()) {
        let codec = codec();
        let bytes = codec.encode_collapsed(&state);
        let back = codec.decode_collapsed(&bytes).unwrap();
        prop_assert_eq!(codec.encode_collapsed(&back), bytes.clone());
    }

    #[test]
    fn reading_batches_reencode_stably(readings in arb_readings()) {
        let codec = codec();
        let bytes = codec.encode_readings(&readings);
        let back = codec.decode_readings(&bytes).unwrap();
        prop_assert_eq!(codec.encode_readings(&back), bytes.clone());
    }
}

/// Each epoch delta below is individually a legal zigzag varint, but their
/// running sum overflows `i64` — exactly the shape a hostile peer would send
/// to abort a site built with `overflow-checks`. Must be a clean error.
#[test]
fn zigzag_delta_sum_overflow_is_an_error_not_an_abort() {
    let tag = TagId::item(1);
    let table = TagTable::from_tags([tag]);
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    w.put_u8(0x02); // KIND_READINGS
    table.encode(&mut w);
    w.put_varint(2); // two readings
    w.put_varint(0); // reading 1: tag index
    w.put_zigzag(i64::from(u32::MAX)); // epoch u32::MAX (valid)
    w.put_varint(0); // reader id
    w.put_varint(0); // reading 2: tag index
    w.put_zigzag(i64::MAX); // prev + delta wraps i64
    w.put_varint(0); // reader id
    let err = codec()
        .decode_readings(&w.into_bytes())
        .expect_err("overflowing epoch delta must be rejected");
    assert_eq!(err.kind(), WireErrorKind::LengthOverflow);
}

/// A declared byte-string length near `u64::MAX` used to wrap the
/// `pos + len` bounds check in release builds and panic on the slice; it is
/// now a typed `LengthOverflow`.
#[test]
fn huge_length_prefixes_are_length_overflow_errors() {
    let mut w = Writer::new();
    w.put_varint(u64::MAX);
    let bytes = w.into_bytes();
    let mut r = Reader::new(&bytes);
    let err = r.get_bytes().expect_err("length prefix exceeds any buffer");
    assert_eq!(err.kind(), WireErrorKind::LengthOverflow);
}

/// A bundle message with one hand-written delta against a three-byte
/// centroid: `len`, then either the full payload or `(edits, suffix)`.
fn bundle_with_delta(len: u64, full: Option<&[u8]>, edits: &[(i64, u8)], suffix: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    w.put_u8(0x04); // KIND_BUNDLE
    w.put_varint(TagId::item(1).raw());
    w.put_bytes(&[1, 2, 3]); // centroid
    w.put_varint(1); // one delta
    w.put_varint(TagId::item(2).raw());
    w.put_varint(len);
    match full {
        Some(full) => {
            w.put_u8(1);
            w.put_bytes(full);
        }
        None => {
            w.put_u8(0);
            w.put_varint(edits.len() as u64);
            let mut prev = 0;
            for &(pos, byte) in edits {
                w.put_zigzag(pos - prev);
                prev = pos;
                w.put_u8(byte);
            }
            w.put_bytes(suffix);
        }
    }
    w.into_bytes()
}

/// `SharedStateBundle::expand` resizes to `len`, indexes at every edit
/// position and copies the suffix into the tail without checking any of
/// them, so a delta the centroid cannot take has to die in the decoder: a
/// ten-byte message must not be able to allocate 4 GiB or panic a site.
#[test]
fn deltas_the_centroid_cannot_take_are_malformed() {
    let rejected = [
        (
            "a length with no bytes behind it",
            bundle_with_delta(u64::from(u32::MAX), None, &[], &[]),
        ),
        (
            "an edit past the reconstructed length",
            bundle_with_delta(2, None, &[(2, 9)], &[]),
        ),
        (
            "an edit past the centroid",
            bundle_with_delta(5, None, &[(3, 9)], &[7, 7]),
        ),
        (
            "an edit before the start",
            bundle_with_delta(3, None, &[(-1, 9)], &[]),
        ),
        (
            "a suffix longer than the payload",
            bundle_with_delta(2, None, &[], &[7, 7, 7]),
        ),
        (
            "a full payload of another length",
            bundle_with_delta(4, Some(&[9, 9]), &[], &[]),
        ),
    ];
    for (what, bytes) in rejected {
        let err = codec().decode_bundle(&bytes).expect_err(what);
        assert_eq!(err.kind(), WireErrorKind::Malformed, "{what}");
    }
    // The same builder with consistent fields decodes and expands.
    let bundle = codec()
        .decode_bundle(&bundle_with_delta(5, None, &[(0, 9), (2, 8)], &[7, 7]))
        .unwrap();
    assert_eq!(bundle.expand()[1], (TagId::item(2), vec![9, 2, 8, 7, 7]));
}

/// The chaos fault plan corrupts a poisoned envelope by flipping the high
/// bit of byte 0, which ruins the version byte. Every payload kind must turn
/// that into a typed [`WireError`] (quarantine input), never a panic and
/// never a silent mis-decode. One case per wire payload kind, referenced by the `// FUZZ:`
/// annotations next to the `KIND_*` constants (lint rule
/// `wire-fuzz-coverage`).
#[test]
fn corrupted_byte_zero_is_a_typed_error_for_every_kind() {
    let state = ObjectQueryState {
        query: "Q1".to_string(),
        tag: TagId::item(1),
        automaton: AutomatonState::Idle,
    };
    let codec = codec();
    let encodings: Vec<(&str, Vec<u8>)> = vec![
        (
            "KIND_MIGRATION",
            codec.encode_migration(&MigrationState::None),
        ),
        (
            "KIND_READINGS",
            codec.encode_readings(&[RawReading::new(Epoch(1), TagId::item(1), ReaderId(0))]),
        ),
        ("KIND_QUERY_STATE", codec.encode_query_state(&state)),
        (
            "KIND_BUNDLE",
            codec.encode_bundle(&SharedStateBundle {
                centroid_tag: TagId::item(1),
                centroid_bytes: vec![1, 2, 3],
                deltas: Vec::new(),
            }),
        ),
        (
            "KIND_COLLAPSED",
            codec.encode_collapsed(&CollapsedState {
                object: TagId::item(1),
                weights: [(TagId::case(1), 0.0)].into_iter().collect(),
                container: Some(TagId::case(1)),
            }),
        ),
        ("KIND_STATE_PAYLOAD", codec.state_payload(&state)),
        (
            "KIND_CONTROL",
            codec.encode_control(&rfid_wire::ControlMsg::Ack {
                from: 0,
                to: 1,
                seq: 4,
            }),
        ),
    ];
    for (kind, bytes) in &encodings {
        let mut poisoned = bytes.clone();
        poisoned[0] ^= 0x80;
        decode_everything(&poisoned);
        assert!(
            codec.decode_migration(&poisoned).is_err()
                && codec.decode_readings(&poisoned).is_err()
                && codec.decode_query_state(&poisoned).is_err()
                && codec.decode_bundle(&poisoned).is_err()
                && codec.decode_collapsed(&poisoned).is_err()
                && codec.state_from_payload(TagId::item(1), &poisoned).is_err()
                && codec.decode_control(&poisoned).is_err(),
            "poisoned {kind} must not decode as any payload"
        );
    }
    // KIND_CHECKPOINT travels through its own codec entry point.
    let checkpoint = codec.encode_checkpoint(&{
        use rfid_core::{DirtySet, EngineSnapshot, EvidenceCache, Observations, PriorWeights};
        use rfid_query::ProcessorSnapshot;
        use rfid_types::ContainmentMap;
        rfid_wire::SiteCheckpoint {
            site: 0,
            at: Epoch(0),
            engine: EngineSnapshot {
                store: Observations::new(),
                prior: PriorWeights::empty(),
                containment: ContainmentMap::new(),
                detected: Vec::new(),
                last_outcome: None,
                last_inference_at: None,
                threshold: None,
                dirty: DirtySet::new(),
                cache: EvidenceCache::new(),
            },
            processor: ProcessorSnapshot {
                temperatures: Vec::new(),
                automata: Vec::new(),
                alerts: Vec::new(),
            },
            reading_cursor: 0,
            sensor_cursor: 0,
            departure_cursor: 0,
            inbox: Vec::new(),
            comm_bytes: [0; 5],
            comm_messages: [0; 5],
            shared_bytes: 0,
            unshared_bytes: 0,
            inference_runs: 0,
            stats: Default::default(),
            inbox_seqs: Vec::new(),
            transport: Default::default(),
            quarantine: Vec::new(),
            memory: Default::default(),
            ledgers: Vec::new(),
        }
    });
    let mut poisoned = checkpoint;
    poisoned[0] ^= 0x80;
    decode_everything(&poisoned);
    assert!(
        codec.decode_checkpoint(&poisoned).is_err(),
        "poisoned KIND_CHECKPOINT must not decode"
    );
}

/// Truncation and bad headers surface as their own machine-matchable kinds.
#[test]
fn error_kinds_classify_truncation_and_headers() {
    let valid = codec().encode_readings(&[RawReading::new(Epoch(3), TagId::item(1), ReaderId(0))]);
    let err = codec().decode_readings(&valid[..1]).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::Truncated);
    let mut wrong_version = valid.clone();
    wrong_version[0] = WIRE_VERSION + 1;
    let err = codec().decode_readings(&wrong_version).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::BadHeader);
    // Valid header of the wrong payload kind.
    let err = codec().decode_collapsed(&valid).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::BadHeader);
    // Checkpoints classify the same way: a readings payload is the wrong
    // kind, a truncated checkpoint is Truncated, a corrupted version byte is
    // BadHeader.
    let err = codec().decode_checkpoint(&valid).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::BadHeader);
    let err = codec().decode_checkpoint(&valid[..1]).unwrap_err();
    assert_eq!(err.kind(), WireErrorKind::Truncated);
}
