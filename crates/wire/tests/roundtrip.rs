//! Property tests: `decode(encode(x)) == x` for every payload type over
//! arbitrary inputs — including empty payloads, single-entry payloads, and
//! epochs at the `u32` wraparound boundary.

use proptest::prelude::*;
use rfid_core::{
    CachedVariant, CollapsedState, DetectedChange, DirtySet, EngineSnapshot, EvidenceCache,
    InferenceOutcome, InferenceStats, MigrationState, ObjectEvidence, Observations, PriorWeights,
    ReadingsState,
};
use rfid_query::{Alert, AutomatonState, ObjectQueryState, ProcessorSnapshot, SharedStateBundle};
use rfid_types::{ContainmentMap, Epoch, LocationId, RawReading, ReaderId, SensorReading, TagId};
use rfid_wire::{
    ControlMsg, EdgeSeqs, PendingShipment, SiteCheckpoint, TransportStats, WireCodec, WireFormat,
};
use std::collections::BTreeMap;

fn codec() -> WireCodec {
    WireCodec::new(WireFormat::Binary)
}

/// Any tag id: all three kinds, serials spanning the full 62-bit range.
fn arb_tag() -> impl Strategy<Value = TagId> {
    (0u64..3, prop_oneof![0u64..200, Just((1u64 << 62) - 1)]).prop_map(
        |(kind, serial)| match kind {
            0 => TagId::item(serial),
            1 => TagId::case(serial),
            _ => TagId::pallet(serial),
        },
    )
}

/// Any epoch, biased toward small values but covering the u32 wraparound
/// boundary (`u32::MAX`), where delta encoding is most easily broken.
fn arb_epoch() -> impl Strategy<Value = Epoch> {
    prop_oneof![
        (0u32..5000).prop_map(Epoch),
        (u32::MAX - 10..u32::MAX).prop_map(Epoch),
        Just(Epoch(u32::MAX)),
        Just(Epoch(0)),
    ]
}

/// Finite weights with exactly representable and irrational-looking values.
fn arb_weight() -> impl Strategy<Value = f64> {
    prop_oneof![-1e6f64..1e6, Just(0.0f64), Just(-0.0f64), Just(-1e-300f64),]
}

fn arb_reading() -> impl Strategy<Value = RawReading> {
    (arb_epoch(), arb_tag(), 0u16..u16::MAX)
        .prop_map(|(time, tag, reader)| RawReading::new(time, tag, ReaderId(reader)))
}

fn arb_readings() -> impl Strategy<Value = Vec<RawReading>> {
    // Unsorted on purpose: the codec must preserve arbitrary order bitwise.
    prop::collection::vec(arb_reading(), 0..60)
}

fn arb_collapsed() -> impl Strategy<Value = CollapsedState> {
    (
        arb_tag(),
        prop::collection::btree_map(arb_tag(), arb_weight(), 0..12),
        prop::option::of(arb_tag()),
    )
        .prop_map(|(object, weights, container)| CollapsedState {
            object,
            weights,
            container,
        })
}

fn arb_automaton() -> impl Strategy<Value = AutomatonState> {
    prop_oneof![
        Just(AutomatonState::Idle),
        (
            arb_epoch(),
            prop::collection::vec((arb_epoch(), arb_weight()), 0..25),
            any::<bool>(),
        )
            .prop_map(|(since, readings, fired)| AutomatonState::Accumulating {
                since,
                readings,
                fired,
            }),
    ]
}

fn arb_query_state() -> impl Strategy<Value = ObjectQueryState> {
    ((0u32..4), arb_tag(), arb_automaton()).prop_map(|(q, tag, automaton)| ObjectQueryState {
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
        let bytes = codec.encode_collapsed(&state);
        let back = codec.decode_collapsed(&bytes).unwrap();
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

/// An `(epoch, value)` series in arbitrary order — the codec must preserve
/// order and duplicates bitwise.
fn arb_series() -> impl Strategy<Value = Vec<(Epoch, f64)>> {
    prop::collection::vec((arb_epoch(), arb_weight()), 0..6)
}

fn arb_observations() -> impl Strategy<Value = Observations> {
    prop::collection::vec(arb_reading(), 0..25).prop_map(|readings| {
        let mut store = Observations::new();
        for reading in readings {
            store.insert(reading);
        }
        store
    })
}

fn arb_prior() -> impl Strategy<Value = PriorWeights> {
    prop::collection::vec((arb_tag(), arb_tag(), arb_weight()), 0..8).prop_map(|entries| {
        let mut prior = PriorWeights::empty();
        for (object, container, weight) in entries {
            prior.set(object, container, weight);
        }
        prior
    })
}

fn arb_containment() -> impl Strategy<Value = ContainmentMap> {
    prop::collection::btree_map(arb_tag(), arb_tag(), 0..8).prop_map(|pairs| {
        let mut map = ContainmentMap::new();
        for (object, container) in pairs {
            map.set(object, container);
        }
        map
    })
}

fn arb_dirty() -> impl Strategy<Value = DirtySet> {
    (
        prop::collection::vec(arb_tag(), 0..4),
        prop::collection::vec((arb_tag(), arb_epoch()), 0..10),
    )
        .prop_map(|(marks, records)| {
            let mut dirty = DirtySet::new();
            for tag in marks {
                dirty.mark(tag);
            }
            for (tag, epoch) in records {
                dirty.record(tag, epoch);
            }
            dirty
        })
}

fn arb_cache() -> impl Strategy<Value = EvidenceCache> {
    let variant = (
        prop::collection::vec(arb_tag(), 0..4),
        prop::collection::vec(arb_epoch(), 0..5),
        prop::collection::vec(arb_weight(), 0..8),
        prop::collection::btree_map(arb_tag(), arb_series(), 0..3),
    )
        .prop_map(|(members, epochs, qrows, evidence)| CachedVariant {
            members,
            epochs,
            qrows,
            evidence,
        });
    prop::collection::btree_map(arb_tag(), prop::collection::vec(variant, 0..3), 0..3).prop_map(
        |containers| {
            let mut cache = EvidenceCache::new();
            for (container, variants) in containers {
                cache.set_variants(container, variants);
            }
            cache
        },
    )
}

fn arb_outcome() -> impl Strategy<Value = InferenceOutcome> {
    let evidence = (
        prop::collection::vec(arb_tag(), 0..5),
        prop::collection::btree_map(arb_tag(), arb_weight(), 0..5),
        prop::collection::btree_map(arb_tag(), arb_series(), 0..3),
        prop::option::of(arb_tag()),
    )
        .prop_map(
            |(candidates, weights, point_evidence, assigned)| ObjectEvidence {
                candidates,
                weights,
                point_evidence,
                assigned,
            },
        );
    (
        arb_containment(),
        prop::collection::btree_map(arb_tag(), evidence, 0..4),
        prop::collection::btree_map(
            arb_tag(),
            prop::collection::vec((arb_epoch(), (0u16..300).prop_map(LocationId)), 0..5),
            0..4,
        ),
        0usize..20,
        0usize..64,
    )
        .prop_map(
            |(containment, objects, tag_locations, iterations, num_locations)| InferenceOutcome {
                containment,
                objects,
                tag_locations,
                iterations,
                num_locations,
            },
        )
}

fn arb_engine() -> impl Strategy<Value = EngineSnapshot> {
    let detected = (
        arb_tag(),
        arb_epoch(),
        prop::option::of(arb_tag()),
        prop::option::of(arb_tag()),
        arb_weight(),
    )
        .prop_map(
            |(object, change_at, old_container, new_container, statistic)| DetectedChange {
                object,
                change_at,
                old_container,
                new_container,
                statistic,
            },
        );
    (
        arb_observations(),
        arb_prior(),
        arb_containment(),
        prop::collection::vec(detected, 0..3),
        prop::option::of(arb_outcome()),
        prop::option::of(arb_epoch()),
        prop::option::of(arb_weight()),
        arb_dirty(),
        arb_cache(),
    )
        .prop_map(
            |(
                store,
                prior,
                containment,
                detected,
                last_outcome,
                last_inference_at,
                threshold,
                dirty,
                cache,
            )| {
                EngineSnapshot {
                    store,
                    prior,
                    containment,
                    detected,
                    last_outcome,
                    last_inference_at,
                    threshold,
                    dirty,
                    cache,
                }
            },
        )
}

fn arb_processor() -> impl Strategy<Value = ProcessorSnapshot> {
    let alert = ((0u32..4), arb_tag(), arb_epoch(), arb_epoch(), arb_series()).prop_map(
        |(q, tag, since, at, readings)| Alert {
            query: format!("Q{q}"),
            tag,
            since,
            at,
            readings,
        },
    );
    (
        prop::collection::vec(
            (arb_epoch(), 0u16..300, arb_weight())
                .prop_map(|(time, loc, value)| SensorReading::new(time, LocationId(loc), value)),
            0..5,
        ),
        prop::collection::vec(arb_query_state(), 0..5),
        prop::collection::vec(alert, 0..4),
    )
        .prop_map(|(temperatures, automata, alerts)| ProcessorSnapshot {
            temperatures,
            automata,
            alerts,
        })
}

fn arb_pending() -> impl Strategy<Value = PendingShipment> {
    (
        arb_epoch(),
        0u16..16,
        0u16..16,
        arb_tag(),
        arb_epoch(),
        (any::<u64>(), arb_epoch()),
        prop::option::of(prop::collection::vec(any::<u8>(), 0..24)),
        prop::collection::vec(arb_query_state(), 0..3),
    )
        .prop_map(
            |(depart, from, to, tag, arrive, (seq, physical), inference, query)| PendingShipment {
                depart,
                from,
                to,
                tag,
                arrive,
                seq,
                physical,
                inference,
                query,
            },
        )
}

fn arb_edge_seqs() -> impl Strategy<Value = Vec<EdgeSeqs>> {
    prop::collection::vec(
        (
            0u16..64,
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..5),
        )
            .prop_map(|(peer, watermark, extras)| EdgeSeqs {
                peer,
                watermark,
                extras,
            }),
        0..4,
    )
}

fn arb_transport_stats() -> impl Strategy<Value = TransportStats> {
    prop::collection::vec(0u64..1 << 40, 10).prop_map(|v| TransportStats {
        envelopes: v[0],
        transmissions: v[1],
        retransmissions: v[2],
        acks: v[3],
        duplicates_dropped: v[4],
        reconciled: v[5],
        stale_dropped: v[6],
        abandoned: v[7],
        resyncs: v[8],
        quarantined: v[9],
    })
}

fn arb_quarantine() -> impl Strategy<Value = Vec<rfid_wire::QuarantineEntry>> {
    prop::collection::vec(
        (0u16..64, any::<u64>(), arb_epoch()).prop_map(|(from, seq, physical)| {
            rfid_wire::QuarantineEntry {
                from,
                seq,
                physical,
            }
        }),
        0..4,
    )
}

fn arb_memory() -> impl Strategy<Value = rfid_core::MemoryStats> {
    prop::collection::vec(0u64..1 << 40, 4).prop_map(|v| rfid_core::MemoryStats {
        high_water: v[0],
        compactions: v[1],
        compacted_observations: v[2],
        evicted_cache_entries: v[3],
    })
}

fn arb_ledgers() -> impl Strategy<Value = Vec<rfid_wire::EdgeLedger>> {
    prop::collection::vec(
        (
            (0u16..64, 0u16..64),
            prop::collection::vec(0u64..1 << 40, 13),
        )
            .prop_map(|((from, to), v)| rfid_wire::EdgeLedger {
                from,
                to,
                envelopes: v[0],
                abandoned: v[1],
                sent_copies: v[2],
                sent_bytes: v[3],
                recv_copies: v[4],
                recv_bytes: v[5],
                accepted: v[6],
                imported: v[7],
                stale: v[8],
                quarantined: v[9],
                undelivered: v[10],
                undelivered_bytes: v[11],
                dark_envelopes: v[12],
            }),
        0..4,
    )
}

fn arb_checkpoint() -> impl Strategy<Value = SiteCheckpoint> {
    let accounting = (
        prop::collection::vec(0u64..1 << 40, 5),
        prop::collection::vec(0u64..1 << 20, 5),
        0u64..1 << 40,
        0u64..1 << 40,
        0u64..10_000,
        prop::collection::vec(0usize..100_000, 5),
    );
    (
        (0u16..64, arb_epoch(), arb_engine(), arb_processor()),
        (0u64..1 << 32, 0u64..1 << 32, 0u64..1 << 32),
        prop::collection::vec(arb_pending(), 0..4),
        accounting,
        (
            arb_edge_seqs(),
            arb_transport_stats(),
            arb_quarantine(),
            arb_memory(),
            arb_ledgers(),
        ),
    )
        .prop_map(
            |(
                (site, at, engine, processor),
                (reading_cursor, sensor_cursor, departure_cursor),
                inbox,
                (bytes, messages, shared_bytes, unshared_bytes, inference_runs, stats),
                (inbox_seqs, transport, quarantine, memory, ledgers),
            )| SiteCheckpoint {
                site,
                at,
                engine,
                processor,
                reading_cursor,
                sensor_cursor,
                departure_cursor,
                inbox,
                comm_bytes: [bytes[0], bytes[1], bytes[2], bytes[3], bytes[4]],
                comm_messages: [
                    messages[0],
                    messages[1],
                    messages[2],
                    messages[3],
                    messages[4],
                ],
                shared_bytes,
                unshared_bytes,
                inference_runs,
                stats: InferenceStats {
                    dirty_tags: stats[0],
                    posteriors_reused: stats[1],
                    posteriors_computed: stats[2],
                    evidence_reused: stats[3],
                    evidence_computed: stats[4],
                },
                inbox_seqs,
                transport,
                quarantine,
                memory,
                ledgers,
            },
        )
}

fn arb_control() -> impl Strategy<Value = ControlMsg> {
    prop_oneof![
        (any::<u16>(), any::<u16>(), any::<u64>()).prop_map(|(from, to, seq)| ControlMsg::Ack {
            from,
            to,
            seq
        }),
        (any::<u16>(), any::<u16>(), arb_epoch())
            .prop_map(|(site, peer, since)| ControlMsg::Resync { site, peer, since }),
    ]
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
            threshold: None,
            dirty,
            cache: EvidenceCache::new(),
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

/// Arbitrary migration state across all three variants.
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
    let single = CollapsedState {
        object: TagId::item(1),
        weights: BTreeMap::from([(TagId::case(1), -1.0)]),
        container: None,
    };
    assert_eq!(
        codec
            .decode_collapsed(&codec.encode_collapsed(&single))
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
