//! Golden bytes: one fixed, fully-populated value per payload kind
//! (`0x01`–`0x04`, `0x06`–`0x08`) with its binary encoding pinned as a literal.
//!
//! The round-trip proptests prove `decode(encode(x)) == x`; they cannot see a
//! change that moves bytes on *both* sides at once (a reordered field, a
//! different varint width, one more counter). This file can: every byte a site
//! ships or checkpoints is written down here, so a codec refactor that is
//! meant to be byte-preserving has to leave the literals untouched (the code
//! that builds a pinned value may change with the types it builds).
//!
//! To re-record after a deliberate format change (which also needs a
//! `WIRE_VERSION` bump), run with `--nocapture`: a mismatch prints the actual
//! encoding in the layout the literals use.

use rfid_core::{
    CacheKeys, CollapsedState, DetectedChange, DirtySet, EngineSnapshot, InferenceOutcome,
    InferenceStats, MemoryStats, MigrationState, Observations, PriorWeights, ReadingsState,
    VariantKey,
};
use rfid_query::{
    Alert, AutomatonState, ObjectQueryState, ProcessorSnapshot, SharedStateBundle, StateDelta,
};
use rfid_types::{ContainmentMap, Epoch, LocationId, RawReading, ReaderId, SensorReading, TagId};
use rfid_wire::{
    ControlMsg, EdgeLedger, EdgeSeqs, PendingShipment, QuarantineEntry, SiteCheckpoint,
    TransportStats, WireCodec, WireFormat,
};
use std::fmt::Debug;

fn codec() -> WireCodec {
    WireCodec::new(WireFormat::Binary)
}

/// Lower-case hex, 32 bytes per line — the layout of the literals below.
fn to_hex(bytes: &[u8]) -> String {
    bytes
        .chunks(32)
        .map(|line| line.iter().map(|b| format!("{b:02x}")).collect::<String>())
        .collect::<Vec<_>>()
        .join("\n")
}

fn from_hex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .map(|b| match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            other => panic!("non-hex byte {other:#04x} in a golden literal"),
        })
        .collect();
    assert!(digits.len().is_multiple_of(2), "odd number of hex digits");
    digits.chunks(2).map(|d| d[0] << 4 | d[1]).collect()
}

/// `encode(value) == golden` and `decode(golden) == value`.
fn pin<T: PartialEq + Debug>(
    what: &str,
    value: &T,
    golden: &str,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> T,
) {
    let golden = from_hex(golden);
    let actual = encode(value);
    assert!(
        actual == golden,
        "{what}: the encoding moved; it is now\n{}",
        to_hex(&actual)
    );
    assert_eq!(&decode(&golden), value, "{what}: golden bytes decode");
}

fn collapsed() -> CollapsedState {
    CollapsedState {
        object: TagId::item(3),
        weights: [
            (TagId::case(1), -12.5),
            (TagId::case(2), -40.25),
            (TagId::pallet(300), 0.0),
        ]
        .into_iter()
        .collect(),
        container: Some(TagId::case(1)),
    }
}

/// Tag-grouped export order with one backward epoch jump per group, as
/// `InferenceEngine::export_readings` produces it.
fn readings() -> Vec<RawReading> {
    let mut readings = Vec::new();
    for (tag, reader) in [
        (TagId::item(3), 2),
        (TagId::case(1), 2),
        (TagId::case(2), 700),
    ] {
        for t in [100u32, 101, 105, 4000] {
            readings.push(RawReading::new(Epoch(t), tag, ReaderId(reader)));
        }
    }
    readings
}

fn accumulating() -> ObjectQueryState {
    ObjectQueryState {
        query: "Q1".to_string(),
        tag: TagId::item(9),
        automaton: AutomatonState::Accumulating {
            since: Epoch(500),
            readings: vec![(Epoch(500), 21.5), (Epoch(510), 22.0), (Epoch(505), -0.0)],
            fired: true,
        },
    }
}

fn idle() -> ObjectQueryState {
    ObjectQueryState {
        query: "Q2".to_string(),
        tag: TagId::item(9),
        automaton: AutomatonState::Idle,
    }
}

#[test]
fn kind_01_migration_state() {
    pin(
        "MigrationState::None",
        &MigrationState::None,
        "050100",
        |s| codec().encode_migration(s),
        |b| codec().decode_migration(b).unwrap(),
    );
    pin(
        "MigrationState::Collapsed",
        &MigrationState::Collapsed(collapsed()),
        "0501010403feffffffffffffff3f01aa82808080808080400002030100000000 \
         000029c00200000000002044c0030000000000000000",
        |s| codec().encode_migration(s),
        |b| codec().decode_migration(b).unwrap(),
    );
    pin(
        "MigrationState::Readings",
        &MigrationState::Readings(ReadingsState {
            object: TagId::item(3),
            readings: readings(),
            container: Some(TagId::case(1)),
        }),
        "0501020303feffffffffffffff3f0100020c00c8010200020200080200ee3c02 \
         01f73c0201020201080201ee3c0202f73cbc050202bc050208bc0502ee3cbc05",
        |s| codec().encode_migration(s),
        |b| codec().decode_migration(b).unwrap(),
    );
}

#[test]
fn kind_02_reading_batch() {
    pin(
        "reading batch",
        &readings(),
        "05020303feffffffffffffff3f010c00c8010200020200080200ee3c0201f73c \
         0201020201080201ee3c0202f73cbc050202bc050208bc0502ee3cbc05",
        |r| codec().encode_readings(r),
        |b| codec().decode_readings(b).unwrap(),
    );
}

#[test]
fn kind_03_query_state() {
    pin(
        "ObjectQueryState",
        &accumulating(),
        "05030251310901f4030103000000000000803540140000000000003640090000 \
         000000000080",
        |s| codec().encode_query_state(s),
        |b| codec().decode_query_state(b).unwrap(),
    );
}

#[test]
fn kind_04_bundle() {
    // One delta of each shape against a five-byte centroid: edits inside the
    // common prefix, a suffix past the centroid's end, and the full-payload
    // fallback.
    let bundle = SharedStateBundle {
        centroid_tag: TagId::item(1),
        centroid_bytes: vec![1, 2, 3, 4, 5],
        deltas: vec![
            StateDelta {
                tag: TagId::item(2),
                edits: vec![(0, 9), (3, 7)],
                suffix: Vec::new(),
                len: 4,
                full: None,
            },
            StateDelta {
                tag: TagId::item(3),
                edits: vec![(4, 0xff)],
                suffix: vec![8, 8, 6],
                len: 8,
                full: None,
            },
            StateDelta {
                tag: TagId::case(4),
                edits: Vec::new(),
                suffix: Vec::new(),
                len: 2,
                full: Some(vec![9, 9]),
            },
        ],
    };
    pin(
        "SharedStateBundle",
        &bundle,
        "050401050102030405030204000200090607000308000108ff03080806848080 \
         8080808080400201020909",
        |b| codec().encode_bundle(b),
        |b| codec().decode_bundle(b).unwrap(),
    );
    assert_eq!(
        bundle.expand(),
        vec![
            (TagId::item(1), vec![1, 2, 3, 4, 5]),
            (TagId::item(2), vec![9, 2, 3, 7]),
            (TagId::item(3), vec![1, 2, 3, 4, 0xff, 8, 8, 6]),
            (TagId::case(4), vec![9, 9]),
        ]
    );
}

#[test]
fn kind_06_state_payload() {
    let state = accumulating();
    pin(
        "state payload",
        &state,
        "050602513101f403010300000000000080354014000000000000364009000000 \
         0000000080",
        |s| codec().state_payload(s),
        |b| codec().state_from_payload(state.tag, b).unwrap(),
    );
}

/// Every section non-empty, every `Option` a `Some`.
fn checkpoint() -> SiteCheckpoint {
    let mut store = Observations::new();
    for t in 0..3u32 {
        store.insert(RawReading::new(Epoch(t), TagId::item(1), ReaderId(0)));
        store.insert(RawReading::new(Epoch(t), TagId::case(1), ReaderId(0)));
    }
    store.insert(RawReading::new(Epoch(2), TagId::case(1), ReaderId(1)));
    let mut prior = PriorWeights::empty();
    prior.set(TagId::item(1), TagId::case(1), -0.5);
    prior.set(TagId::item(1), TagId::case(2), -40.25);
    let mut containment = ContainmentMap::new();
    containment.set(TagId::item(1), TagId::case(1));
    let mut dirty = DirtySet::new();
    dirty.mark(TagId::item(2));
    dirty.record(TagId::item(1), Epoch(2));
    let mut cache = CacheKeys::new();
    cache
        .insert(
            TagId::case(1),
            vec![VariantKey {
                members: vec![TagId::item(1)],
                epochs: vec![Epoch(1), Epoch(3)],
                objects: vec![TagId::item(1)],
            }],
        )
        .unwrap();
    let mut outcome = InferenceOutcome::new(3, 4);
    outcome
        .push_object(
            TagId::item(1),
            Some(TagId::case(1)),
            Some(TagId::case(1)),
            &[],
            &[(TagId::case(1), 4.5, &[]), (TagId::case(2), -1e-300, &[])],
        )
        .unwrap();
    outcome
        .push_locations(
            TagId::case(1),
            &[(Epoch(0), LocationId(0)), (Epoch(2), LocationId(1))],
        )
        .unwrap();
    SiteCheckpoint {
        site: 2,
        at: Epoch(4),
        engine: EngineSnapshot {
            store,
            prior,
            containment,
            detected: vec![DetectedChange {
                object: TagId::item(1),
                change_at: Epoch(3),
                old_container: Some(TagId::case(2)),
                new_container: Some(TagId::case(1)),
                statistic: 7.25,
            }],
            last_outcome: Some(outcome),
            last_inference_at: Some(Epoch(4)),
            dirty,
            cache,
        },
        processor: ProcessorSnapshot {
            temperatures: vec![SensorReading::new(Epoch(2), LocationId(1), 21.5)],
            automata: vec![accumulating()],
            alerts: vec![Alert {
                query: "Q1".to_string(),
                tag: TagId::item(7),
                since: Epoch(0),
                at: Epoch(3),
                readings: vec![(Epoch(0), 20.0), (Epoch(3), 24.0)],
            }],
        },
        reading_cursor: 10,
        sensor_cursor: 1,
        departure_cursor: 300,
        inbox: vec![PendingShipment {
            depart: Epoch(3),
            from: 1,
            to: 2,
            tag: TagId::item(9),
            arrive: Epoch(5),
            seq: 17,
            physical: Epoch(4),
            inference: Some(codec().encode_migration(&MigrationState::Collapsed(collapsed()))),
            query: vec![idle()],
        }],
        comm_bytes: [1000, 120, 30, 8, 6],
        comm_messages: [3, 2, 1, 1, 1],
        shared_bytes: 30,
        unshared_bytes: 45,
        inference_runs: 2,
        stats: InferenceStats {
            dirty_tags: 2,
            posteriors_reused: 5,
            posteriors_computed: 7,
            evidence_reused: 11,
            evidence_computed: 13,
        },
        inbox_seqs: vec![
            EdgeSeqs {
                peer: 0,
                watermark: 4,
                extras: vec![6, 9],
            },
            EdgeSeqs {
                peer: 1,
                watermark: 17,
                extras: Vec::new(),
            },
        ],
        transport: TransportStats {
            envelopes: 12,
            transmissions: 15,
            retransmissions: 3,
            acks: 14,
            duplicates_dropped: 2,
            reconciled: 1,
            stale_dropped: 4,
            abandoned: 1,
            resyncs: 1,
            quarantined: 1,
        },
        quarantine: vec![QuarantineEntry {
            from: 1,
            seq: 9,
            physical: Epoch(3),
        }],
        memory: MemoryStats {
            high_water: 40,
            compactions: 2,
            compacted_observations: 17,
            evicted_cache_entries: 3,
        },
        ledgers: vec![
            EdgeLedger {
                from: 1,
                to: 2,
                envelopes: 12,
                transmissions: 15,
                abandoned: 1,
                sent_copies: 13,
                sent_bytes: 260,
                recv_copies: 13,
                recv_bytes: 260,
                accepted: 11,
                imported: 9,
                reconciled: 1,
                stale: 1,
                quarantined: 1,
                undelivered: 1,
                undelivered_bytes: 20,
                dark_envelopes: 1,
            },
            EdgeLedger::new(2, 0),
        ],
    }
}

#[test]
fn kind_07_site_checkpoint() {
    pin(
        "SiteCheckpoint",
        &checkpoint(),
        "050702040601010502f8ffffffffffffff3f0102000300010002010002010004 \
         030001000201000202000101000204000000000000e0bf0500000000002044c0 \
         01000401000306050000000000001d4001010004010002040502040000000000 \
         0012400559f3f8c21f6ea5810501040200000401030401040200010401000104 \
         01010002020401000102010000000000803540010251310301f4030103000000 \
         0000008035401400000000000036400900000000000000800102513102000302 \
         0000000000000034400600000000000038400a01ac0201030102030511040136 \
         0501010403feffffffffffffff3f01aa82808080808080400002030100000000 \
         000029c00200000000002044c0030000000000000000010251320300e807781e \
         080603020101011e2d020205070b0d0200040206090111000c0f030e02010401 \
         010101010903280211030201020c0f010d84020d84020b090101010114010200 \
         000000000000000000000000000000",
        |c| codec().encode_checkpoint(c),
        |b| codec().decode_checkpoint(b).unwrap(),
    );
}

#[test]
fn kind_08_control() {
    pin(
        "ControlMsg::Ack",
        &ControlMsg::Ack {
            from: 2,
            to: 300,
            seq: 1 << 40,
        },
        "05080002ac02808080808020",
        |m| codec().encode_control(m),
        |b| codec().decode_control(b).unwrap(),
    );
    pin(
        "ControlMsg::Resync",
        &ControlMsg::Resync {
            site: 7,
            peer: 0,
            since: Epoch(u32::MAX),
        },
        "0508010700ffffffff0f",
        |m| codec().encode_control(m),
        |b| codec().decode_control(b).unwrap(),
    );
}
