//! Property tests: `decode(encode(x)) == x` for every payload type over
//! arbitrary inputs — including empty payloads, single-entry payloads, and
//! epochs at the `u32` wraparound boundary.

mod common;

use common::*;
use proptest::prelude::*;
use rfid_core::{
    CacheKeys, CollapsedState, DirtySet, EngineSnapshot, InferenceStats, MigrationState,
    Observations, PriorWeights, ReaderSet,
};
use rfid_query::ProcessorSnapshot;
use rfid_types::{ContainmentMap, Epoch, RawReading, ReaderId, TagId};
use rfid_wire::{EdgeSeqs, PendingShipment, SiteCheckpoint, TransportStats};
use std::collections::BTreeMap;

/// Bit-exact equality for collapsed weights: `PartialEq` on `f64` already
/// distinguishes everything we generate except the -0.0/0.0 pair, which the
/// codec must also preserve.
fn collapsed_bits_equal(a: &CollapsedState, b: &CollapsedState) -> bool {
    a.object == b.object
        && a.container == b.container
        && a.weights.len() == b.weights.len()
        && a.weights
            .iter()
            .zip(&b.weights)
            .all(|((ta, wa), (tb, wb))| ta == tb && wa.to_bits() == wb.to_bits())
}

proptest! {
    #[test]
    fn readings_round_trip(readings in arb_readings()) {
        let codec = codec();
        let bytes = codec.encode_readings(&readings);
        prop_assert_eq!(codec.decode_readings(&bytes).unwrap(), readings.clone());
    }

    #[test]
    fn collapsed_round_trips_bitwise(state in arb_collapsed()) {
        let codec = codec();
        let bytes = codec.encode_migration(&MigrationState::Collapsed(state.clone()));
        let MigrationState::Collapsed(back) = codec.decode_migration(&bytes).unwrap() else {
            panic!("a collapsed state decodes as one");
        };
        prop_assert!(collapsed_bits_equal(&back, &state));
    }

    #[test]
    fn migration_state_round_trips(state in arb_migration()) {
        let codec = codec();
        let bytes = codec.encode_migration(&state);
        prop_assert_eq!(codec.decode_migration(&bytes).unwrap(), state.clone());
    }

    #[test]
    fn query_state_round_trips(state in arb_query_state()) {
        let codec = codec();
        let bytes = codec.encode_query_state(&state);
        prop_assert_eq!(codec.decode_query_state(&bytes).unwrap(), state.clone());
        let payload = codec.state_payload(&state);
        prop_assert_eq!(codec.state_from_payload(state.tag, &payload).unwrap(), state.clone());
    }

    #[test]
    fn bundle_round_trips(bundle in arb_bundle()) {
        let codec = codec();
        let bytes = codec.encode_bundle(&bundle);
        prop_assert_eq!(codec.decode_bundle(&bytes).unwrap(), bundle.clone());
    }

    #[test]
    fn sharing_composes_with_binary_payloads(states in prop::collection::vec(arb_query_state(), 1..10)) {
        // Centroid-based sharing over binary payloads must reconstruct every
        // state exactly, whichever payload codec built the bundle. One state
        // per (tag, query) key, as the processor exports them.
        let mut states = states;
        states.sort_by(|a, b| (a.tag, &a.query).cmp(&(b.tag, &b.query)));
        states.dedup_by(|a, b| (a.tag, &a.query) == (b.tag, &b.query));
        let codec = codec();
        let bundle = rfid_query::share_states_with(&states, |s| codec.state_payload(s)).unwrap();
        let encoded = codec.encode_bundle(&bundle);
        let decoded = codec.decode_bundle(&encoded).unwrap();
        let expanded = decoded
            .expand_states_with(|tag, payload| codec.state_from_payload(tag, payload))
            .unwrap();
        prop_assert_eq!(expanded.len(), states.len());
        for original in &states {
            let recovered = expanded.iter().find(|s| s.tag == original.tag && s.query == original.query).unwrap();
            prop_assert_eq!(recovered, original);
        }
    }
}

proptest! {
    #[test]
    fn control_messages_round_trip(msg in arb_control()) {
        let codec = codec();
        let bytes = codec.encode_control(&msg);
        prop_assert_eq!(codec.decode_control(&bytes).unwrap(), msg);
        // Byte-stable: decode then re-encode reproduces the wire bytes.
        prop_assert_eq!(codec.encode_control(&codec.decode_control(&bytes).unwrap()), bytes);
    }
}

proptest! {
    #[test]
    fn checkpoints_round_trip_bitwise(checkpoint in arb_checkpoint()) {
        let codec = codec();
        let bytes = codec.encode_checkpoint(&checkpoint);
        let back = codec.decode_checkpoint(&bytes).unwrap();
        prop_assert_eq!(&back, &checkpoint);
        // Bit-exactness beyond `PartialEq` (which conflates 0.0 and
        // -0.0): re-encoding the decoded checkpoint must reproduce the
        // original bytes, so every f64 bit pattern survived.
        prop_assert_eq!(codec.encode_checkpoint(&back), bytes);
    }
}

#[test]
fn checkpoint_epochs_survive_the_wraparound_boundary() {
    // Epoch u32::MAX everywhere a delta chain starts or ends: observation
    // epochs, the checkpoint cut, dirty records and a pending shipment.
    let mut store = Observations::new();
    store.insert(RawReading::new(
        Epoch(u32::MAX),
        TagId::item(1),
        ReaderId(0),
    ));
    store.insert(RawReading::new(Epoch(0), TagId::item(1), ReaderId(1)));
    let mut dirty = DirtySet::new();
    dirty.record(TagId::item(1), Epoch(u32::MAX));
    dirty.record(TagId::item(1), Epoch(0));
    let checkpoint = SiteCheckpoint {
        site: u16::MAX,
        at: Epoch(u32::MAX),
        engine: EngineSnapshot {
            store,
            prior: PriorWeights::empty(),
            containment: ContainmentMap::new(),
            detected: Vec::new(),
            last_outcome: None,
            last_inference_at: Some(Epoch(u32::MAX)),
            dirty,
            cache: CacheKeys::new(),
        },
        processor: ProcessorSnapshot {
            temperatures: Vec::new(),
            automata: Vec::new(),
            alerts: Vec::new(),
        },
        reading_cursor: u64::from(u32::MAX),
        sensor_cursor: 0,
        departure_cursor: 0,
        inbox: vec![PendingShipment {
            depart: Epoch(u32::MAX),
            from: 0,
            to: 1,
            tag: TagId::item(1),
            arrive: Epoch(u32::MAX),
            seq: u64::MAX,
            physical: Epoch(u32::MAX),
            inference: None,
            query: Vec::new(),
        }],
        comm_bytes: [u64::from(u32::MAX); 5],
        comm_messages: [0; 5],
        shared_bytes: 0,
        unshared_bytes: 0,
        inference_runs: 0,
        stats: InferenceStats::default(),
        inbox_seqs: vec![EdgeSeqs {
            peer: u16::MAX,
            watermark: u64::MAX,
            extras: Vec::new(),
        }],
        transport: TransportStats::default(),
        quarantine: vec![rfid_wire::QuarantineEntry {
            from: u16::MAX,
            seq: u64::MAX,
            physical: Epoch(u32::MAX),
        }],
        memory: rfid_core::MemoryStats {
            high_water: u64::MAX,
            compactions: 0,
            compacted_observations: 0,
            evicted_cache_entries: 0,
        },
        ledgers: vec![rfid_wire::EdgeLedger::new(u16::MAX, 0)],
    };
    let codec = codec();
    let bytes = codec.encode_checkpoint(&checkpoint);
    assert_eq!(codec.decode_checkpoint(&bytes).unwrap(), checkpoint);
}

/// A store holding a reader set past its inline capacity (spilled to the
/// heap), built in descending reader order, round-trips and re-encodes to
/// the same bytes.
#[test]
fn checkpoint_round_trips_a_spilled_reader_set() {
    let wide = ReaderSet::INLINE as u16 + 2;
    let mut store = Observations::new();
    for reader in (0..wide).rev() {
        store.insert(RawReading::new(Epoch(9), TagId::item(1), ReaderId(reader)));
    }
    store.insert(RawReading::new(Epoch(4), TagId::item(1), ReaderId(3)));
    assert_eq!(
        store.readers_at(TagId::item(1), Epoch(9)).map(<[_]>::len),
        Some(usize::from(wide))
    );
    let mut checkpoint = empty_checkpoint();
    checkpoint.engine.store = store;
    let codec = codec();
    let bytes = codec.encode_checkpoint(&checkpoint);
    let back = codec.decode_checkpoint(&bytes).unwrap();
    assert_eq!(back, checkpoint);
    assert_eq!(codec.encode_checkpoint(&back), bytes);
}

/// A checkpoint's store and journal encode to the same bytes whatever
/// order they were built in: tags inserted descending or ascending, a tag
/// removed and inserted again (its slot freed and reused), a journal
/// cleared and refilled. The codec walks both in ascending tag order, never
/// in the order their slots were given.
#[test]
fn checkpoint_bytes_do_not_depend_on_the_build_order() {
    let tags = [
        TagId::pallet(2),
        TagId::case(7),
        TagId::item(40),
        TagId::item(3),
        TagId::case(1),
    ];
    let readings: Vec<RawReading> = (0..30u32)
        .map(|k| {
            let tag = tags[k as usize % tags.len()];
            RawReading::new(Epoch(100 + k / 3), tag, ReaderId((k % 4) as u16))
        })
        .collect();
    let build = |order: &[RawReading], churn: &[TagId]| {
        let mut checkpoint = empty_checkpoint();
        let (store, dirty) = (&mut checkpoint.engine.store, &mut checkpoint.engine.dirty);
        let mut removed = Vec::new();
        for &tag in churn {
            store.insert(RawReading::new(Epoch(1), tag, ReaderId(9)));
            dirty.record(tag, Epoch(1));
        }
        for &tag in churn {
            store.remove_tag(tag, &mut removed);
        }
        dirty.clear();
        for r in order {
            store.insert(*r);
            dirty.record(r.tag, r.time);
        }
        dirty.mark(TagId::item(99));
        checkpoint
    };
    let reversed: Vec<RawReading> = readings.iter().rev().copied().collect();
    let codec = codec();
    let reference = build(&readings, &[]);
    let bytes = codec.encode_checkpoint(&reference);
    for (order, churn) in [
        (&reversed, &[][..]),
        (&readings, &tags[..]),
        (&reversed, &[TagId::item(3), TagId::item(77)][..]),
    ] {
        let checkpoint = build(order, churn);
        assert_eq!(checkpoint, reference);
        assert_eq!(codec.encode_checkpoint(&checkpoint), bytes);
    }
    assert_eq!(codec.decode_checkpoint(&bytes).unwrap(), reference);
}

#[test]
fn single_entry_and_empty_edge_cases() {
    let codec = codec();
    // Single reading at the epoch wraparound boundary.
    let one = vec![RawReading::new(
        Epoch(u32::MAX),
        TagId::item(1),
        ReaderId(0),
    )];
    assert_eq!(
        codec.decode_readings(&codec.encode_readings(&one)).unwrap(),
        one
    );
    // Empty batch.
    assert_eq!(
        codec.decode_readings(&codec.encode_readings(&[])).unwrap(),
        vec![]
    );
    // Collapsed state with a single candidate and no container.
    let single = MigrationState::Collapsed(CollapsedState {
        object: TagId::item(1),
        weights: BTreeMap::from([(TagId::case(1), -1.0)]),
        container: None,
    });
    assert_eq!(
        codec
            .decode_migration(&codec.encode_migration(&single))
            .unwrap(),
        single
    );
    // MigrationState::None is a couple of bytes, not a payload.
    let none = codec.encode_migration(&MigrationState::None);
    assert!(none.len() <= 8);
    assert_eq!(codec.decode_migration(&none).unwrap(), MigrationState::None);
}

#[test]
fn epoch_wraparound_deltas_survive_unsorted_sequences() {
    // Maximal negative and positive deltas back to back.
    let readings = vec![
        RawReading::new(Epoch(u32::MAX), TagId::item(1), ReaderId(0)),
        RawReading::new(Epoch(0), TagId::item(1), ReaderId(1)),
        RawReading::new(Epoch(u32::MAX), TagId::case(1), ReaderId(u16::MAX)),
    ];
    let codec = codec();
    let bytes = codec.encode_readings(&readings);
    assert_eq!(codec.decode_readings(&bytes).unwrap(), readings);
}
