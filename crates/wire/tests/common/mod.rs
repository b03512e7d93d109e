//! Generators shared by the round-trip (`roundtrip.rs`) and adversarial
//! (`fuzz.rs`) suites: arbitrary values of every payload type, covering all
//! tag kinds, the `u32` epoch wraparound boundary, `-0.0` and unsorted
//! sequences.
#![allow(dead_code)]

use proptest::prelude::*;
use rfid_core::{
    CacheKeys, CollapsedState, DetectedChange, DirtySet, EngineSnapshot, InferenceOutcome,
    InferenceStats, MigrationState, Observations, PriorWeights, ReadingsState, VariantKey,
};
use rfid_query::{Alert, AutomatonState, ObjectQueryState, ProcessorSnapshot, SharedStateBundle};
use rfid_types::{ContainmentMap, Epoch, LocationId, RawReading, ReaderId, SensorReading, TagId};
use rfid_wire::{
    ControlMsg, EdgeSeqs, PendingShipment, SiteCheckpoint, TransportStats, WireCodec, WireFormat,
};
use std::collections::BTreeMap;

pub fn codec() -> WireCodec {
    WireCodec::new(WireFormat::Binary)
}

/// Any tag id: all three kinds, serials spanning the full 62-bit range.
pub fn arb_tag() -> impl Strategy<Value = TagId> {
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
pub fn arb_epoch() -> impl Strategy<Value = Epoch> {
    prop_oneof![
        (0u32..5000).prop_map(Epoch),
        (u32::MAX - 10..u32::MAX).prop_map(Epoch),
        Just(Epoch(u32::MAX)),
        Just(Epoch(0)),
    ]
}

/// Finite weights with exactly representable and irrational-looking values.
pub fn arb_weight() -> impl Strategy<Value = f64> {
    prop_oneof![-1e6f64..1e6, Just(0.0f64), Just(-0.0f64), Just(-1e-300f64),]
}

pub fn arb_reading() -> impl Strategy<Value = RawReading> {
    (arb_epoch(), arb_tag(), 0u16..u16::MAX)
        .prop_map(|(time, tag, reader)| RawReading::new(time, tag, ReaderId(reader)))
}

pub fn arb_readings() -> impl Strategy<Value = Vec<RawReading>> {
    // Unsorted on purpose: the codec must preserve arbitrary order bitwise.
    prop::collection::vec(arb_reading(), 0..60)
}

pub fn arb_collapsed() -> impl Strategy<Value = CollapsedState> {
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

pub fn arb_automaton() -> impl Strategy<Value = AutomatonState> {
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

pub fn arb_query_state() -> impl Strategy<Value = ObjectQueryState> {
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
pub fn arb_bundle() -> impl Strategy<Value = SharedStateBundle> {
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

/// An `(epoch, value)` series in arbitrary order — the codec must preserve
/// order and duplicates bitwise.
pub fn arb_series() -> impl Strategy<Value = Vec<(Epoch, f64)>> {
    prop::collection::vec((arb_epoch(), arb_weight()), 0..6)
}

pub fn arb_observations() -> impl Strategy<Value = Observations> {
    prop::collection::vec(arb_reading(), 0..25).prop_map(|readings| {
        let mut store = Observations::new();
        for reading in readings {
            store.insert(reading);
        }
        store
    })
}

pub fn arb_prior() -> impl Strategy<Value = PriorWeights> {
    prop::collection::vec((arb_tag(), arb_tag(), arb_weight()), 0..8).prop_map(|entries| {
        let mut prior = PriorWeights::empty();
        for (object, container, weight) in entries {
            prior.set(object, container, weight);
        }
        prior
    })
}

pub fn arb_containment() -> impl Strategy<Value = ContainmentMap> {
    prop::collection::btree_map(arb_tag(), arb_tag(), 0..8).prop_map(|pairs| {
        let mut map = ContainmentMap::new();
        for (object, container) in pairs {
            map.set(object, container);
        }
        map
    })
}

pub fn arb_dirty() -> impl Strategy<Value = DirtySet> {
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

/// Cache keys as runs leave them: per container up to four variants, each
/// with ascending, distinct members, epochs and series objects.
pub fn arb_cache() -> impl Strategy<Value = CacheKeys> {
    fn ascending<T: Ord>(mut items: Vec<T>) -> Vec<T> {
        items.sort();
        items.dedup();
        items
    }
    let variant = (
        prop::collection::vec(arb_tag(), 0..4),
        prop::collection::vec(arb_epoch(), 0..5),
        prop::collection::vec(arb_tag(), 0..3),
    )
        .prop_map(|(members, epochs, objects)| VariantKey {
            members: ascending(members),
            epochs: ascending(epochs),
            objects: ascending(objects),
        });
    prop::collection::btree_map(arb_tag(), prop::collection::vec(variant, 0..5), 0..3).prop_map(
        |containers| {
            let mut cache = CacheKeys::new();
            for (container, variants) in containers {
                cache
                    .insert(container, variants)
                    .expect("keys a run caches");
            }
            cache
        },
    )
}

/// Outcomes as a checkpoint holds them: object rows with distinct
/// candidates listed in an arbitrary ranked order, each with a weight and no
/// point evidence, an arbitrary containment estimate and assigned container
/// per row, and non-empty location runs.
pub fn arb_outcome() -> impl Strategy<Value = InferenceOutcome> {
    let row = (
        prop::collection::btree_map(arb_tag(), arb_weight(), 0..5),
        prop::collection::vec(any::<u32>(), 5),
        prop::option::of(arb_tag()),
        prop::option::of(arb_tag()),
    );
    let run = prop::collection::vec((arb_epoch(), (0u16..300).prop_map(LocationId)), 1..5);
    (
        prop::collection::btree_map(arb_tag(), row, 0..4),
        prop::collection::btree_map(arb_tag(), run, 0..4),
        0usize..20,
        0usize..64,
    )
        .prop_map(|(rows, runs, iterations, num_locations)| {
            let mut outcome = InferenceOutcome::new(iterations, num_locations);
            for (object, (candidates, rank, container, assigned)) in rows {
                let mut ranked: Vec<_> =
                    candidates.iter().map(|(c, w)| (*c, *w, &[][..])).collect();
                let key = |c: &TagId| rank[c.serial() as usize % rank.len()] ^ c.raw() as u32;
                ranked.sort_by_key(|(c, _, _)| (key(c), *c));
                outcome
                    .push_object(object, container, assigned, &[], &ranked)
                    .expect("distinct candidates, ascending objects");
            }
            for (tag, run) in runs {
                outcome
                    .push_locations(tag, &run)
                    .expect("ascending, non-empty");
            }
            outcome
        })
}

pub fn arb_engine() -> impl Strategy<Value = EngineSnapshot> {
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
                    dirty,
                    cache,
                }
            },
        )
}

pub fn arb_processor() -> impl Strategy<Value = ProcessorSnapshot> {
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

pub fn arb_pending() -> impl Strategy<Value = PendingShipment> {
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

pub fn arb_edge_seqs() -> impl Strategy<Value = Vec<EdgeSeqs>> {
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

pub fn arb_transport_stats() -> impl Strategy<Value = TransportStats> {
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

pub fn arb_quarantine() -> impl Strategy<Value = Vec<rfid_wire::QuarantineEntry>> {
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

pub fn arb_memory() -> impl Strategy<Value = rfid_core::MemoryStats> {
    prop::collection::vec(0u64..1 << 40, 4).prop_map(|v| rfid_core::MemoryStats {
        high_water: v[0],
        compactions: v[1],
        compacted_observations: v[2],
        evicted_cache_entries: v[3],
    })
}

pub fn arb_ledgers() -> impl Strategy<Value = Vec<rfid_wire::EdgeLedger>> {
    prop::collection::vec(
        (
            (0u16..64, 0u16..64),
            prop::collection::vec(0u64..1 << 40, 15),
        )
            .prop_map(|((from, to), v)| rfid_wire::EdgeLedger {
                from,
                to,
                envelopes: v[0],
                transmissions: v[1],
                abandoned: v[2],
                sent_copies: v[3],
                sent_bytes: v[4],
                recv_copies: v[5],
                recv_bytes: v[6],
                accepted: v[7],
                imported: v[8],
                reconciled: v[9],
                stale: v[10],
                quarantined: v[11],
                undelivered: v[12],
                undelivered_bytes: v[13],
                dark_envelopes: v[14],
            }),
        0..4,
    )
}

pub fn arb_checkpoint() -> impl Strategy<Value = SiteCheckpoint> {
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

pub fn arb_control() -> impl Strategy<Value = ControlMsg> {
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

/// Arbitrary migration state across all three variants.
pub fn arb_migration() -> impl Strategy<Value = MigrationState> {
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

/// A checkpoint with every `Option` a `None`, every collection empty and
/// every counter zero.
pub fn empty_checkpoint() -> SiteCheckpoint {
    SiteCheckpoint {
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
        memory: Default::default(),
        ledgers: Vec::new(),
    }
}
