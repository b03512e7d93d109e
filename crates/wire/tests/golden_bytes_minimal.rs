//! Golden bytes, the other half: `golden_bytes.rs` pins one fully-populated
//! value per payload kind, so every `Option` there is a `Some`, every
//! collection non-empty and every counter non-zero. This file pins the
//! branches that leaves dark — `None` flag bytes, zero counts, all-zero
//! counter blocks, the variants that carry no body — as literal bytes, so a
//! codec refactor cannot move them unnoticed either.
//!
//! Same contract as `golden_bytes.rs`: a byte-preserving change leaves this
//! file untouched; a deliberate format change re-records it (a mismatch
//! prints the actual encoding) and bumps `WIRE_VERSION`.

use rfid_core::{
    CacheKeys, DirtySet, EngineSnapshot, InferenceStats, MemoryStats, MigrationState, Observations,
    PriorWeights,
};
use rfid_query::{AutomatonState, ObjectQueryState, ProcessorSnapshot, SharedStateBundle};
use rfid_types::{ContainmentMap, Epoch, TagId};
use rfid_wire::{SiteCheckpoint, TransportStats, WireCodec, WireFormat};
use std::fmt::Debug;

fn codec() -> WireCodec {
    WireCodec::new(WireFormat::Binary)
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `encode(value) == golden` and `decode(golden) == value`.
fn pin<T: PartialEq + Debug>(
    what: &str,
    value: &T,
    golden: &str,
    encode: impl Fn(&T) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> T,
) {
    let actual = encode(value);
    assert!(
        to_hex(&actual) == golden,
        "{what}: the encoding moved; it is now\n{}",
        to_hex(&actual)
    );
    assert_eq!(&decode(&actual), value, "{what}: golden bytes decode");
}

#[test]
fn migration_none_is_a_bare_variant_byte() {
    pin(
        "MigrationState::None",
        &MigrationState::None,
        "050100",
        |s| codec().encode_migration(s),
        |b| codec().decode_migration(b).unwrap(),
    );
}

#[test]
fn empty_reading_batch_is_an_empty_table_and_a_zero_count() {
    pin(
        "empty reading batch",
        &Vec::new(),
        "05020000",
        |r| codec().encode_readings(r),
        |b| codec().decode_readings(b).unwrap(),
    );
}

#[test]
fn idle_query_state_carries_no_automaton_body() {
    let idle = ObjectQueryState {
        query: String::new(),
        tag: TagId::item(0),
        automaton: AutomatonState::Idle,
    };
    pin(
        "idle ObjectQueryState",
        &idle,
        "0503000000",
        |s| codec().encode_query_state(s),
        |b| codec().decode_query_state(b).unwrap(),
    );
    pin(
        "idle state payload",
        &idle,
        "05060000",
        |s| codec().state_payload(s),
        |b| codec().state_from_payload(idle.tag, b).unwrap(),
    );
}

#[test]
fn bundle_without_deltas_is_the_centroid_alone() {
    pin(
        "SharedStateBundle without deltas",
        &SharedStateBundle {
            centroid_tag: TagId::item(1),
            centroid_bytes: Vec::new(),
            deltas: Vec::new(),
        },
        "0504010000",
        |b| codec().encode_bundle(b),
        |b| codec().decode_bundle(b).unwrap(),
    );
}

/// Every `Option` a `None`, every collection empty, every counter zero.
#[test]
fn empty_checkpoint_is_flags_counts_and_zero_counters() {
    let checkpoint = SiteCheckpoint {
        site: 0,
        at: Epoch(0),
        engine: EngineSnapshot {
            store: Observations::new(),
            prior: PriorWeights::empty(),
            containment: ContainmentMap::new(),
            detected: Vec::new(),
            last_outcome: None,
            last_inference_at: None,
            dirty: DirtySet::new(),
            cache: CacheKeys::new(),
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
        stats: InferenceStats::default(),
        inbox_seqs: Vec::new(),
        transport: TransportStats::default(),
        quarantine: Vec::new(),
        memory: MemoryStats::default(),
        ledgers: Vec::new(),
    };
    pin(
        "empty SiteCheckpoint",
        &checkpoint,
        "0507000000000000000000000000000000000000000000000000000000000000\
         0000000000000000000000000000000000000000000000",
        |c| codec().encode_checkpoint(c),
        |b| codec().decode_checkpoint(b).unwrap(),
    );
}
