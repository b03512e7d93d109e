//! Golden outcome of the Centralized baseline.
//!
//! Every other suite compares Centralized only with itself at another worker
//! count, which is trivially equal (the strategy has one engine). These
//! literals pin its outcome across refactors of the driver: the exact bytes
//! and message counts per [`MessageKind`], the transport and memory
//! counters, each site's uplink ledger, the inference-run and alert counts,
//! and a hash of the final containment map — fault-free, and under the full
//! chaos soak (reader outages, rogue readers, lossy uplink) with a memory
//! budget.
//!
//! The constants were recorded on the commit *before* the driver was rebuilt
//! around one execution core; a change that moves any of them changed what
//! Centralized computes or ships, not just how the code is arranged.

use rfid_core::{InferenceConfig, InferenceStats, MemoryBudget, MemoryStats};
use rfid_dist::{
    DistributedConfig, DistributedDriver, DistributedOutcome, MessageKind, MigrationStrategy,
    TransportStats,
};
use rfid_query::ExposureQuery;
use rfid_sim::{presets, ChainTrace, FaultPlan, TemperatureModel};
use std::collections::BTreeMap;

const HORIZON: u32 = 1800;
const SITES: u32 = 3;

fn config(chain: &ChainTrace) -> DistributedConfig {
    let mut properties = BTreeMap::new();
    for object in chain.objects() {
        properties.insert(object, "temperature-sensitive".to_string());
    }
    DistributedConfig {
        strategy: MigrationStrategy::Centralized,
        inference: InferenceConfig::default().without_change_detection(),
        queries: vec![ExposureQuery {
            duration_secs: 600,
            ..ExposureQuery::q1([])
        }],
        product_properties: properties,
        temperature: Some(TemperatureModel::new([])),
        ..Default::default()
    }
}

/// FNV-1a over the `(object, container)` pairs in map order.
fn containment_hash(outcome: &DistributedOutcome) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (object, container) in outcome.containment.iter() {
        for byte in [object.raw(), container.raw()]
            .into_iter()
            .flat_map(u64::to_le_bytes)
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Everything deterministic a Centralized run reports.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `(bytes, messages)` per [`MessageKind::ALL`] entry, in that order.
    comm: [(usize, usize); 5],
    transport: TransportStats,
    /// `(site, envelopes, abandoned)` of each site → server uplink ledger.
    uplinks: Vec<(u16, u64, u64)>,
    memory: MemoryStats,
    inference_runs: usize,
    inference_stats: InferenceStats,
    alerts: usize,
    containment_len: usize,
    containment_hash: u64,
}

fn observe(outcome: &DistributedOutcome) -> Golden {
    assert!(outcome.quarantine.is_empty());
    assert!(outcome.ledgers.iter().all(|l| l.to == SITES as u16));
    assert_eq!(outcome.query_state_shared_bytes, 0);
    assert_eq!(outcome.query_state_unshared_bytes, 0);
    Golden {
        comm: MessageKind::ALL.map(|kind| {
            (
                outcome.comm.bytes_of_kind(kind),
                outcome.comm.messages_of_kind(kind),
            )
        }),
        transport: outcome.transport,
        uplinks: outcome
            .ledgers
            .iter()
            .map(|l| (l.from, l.envelopes, l.abandoned))
            .collect(),
        memory: outcome.memory,
        inference_runs: outcome.inference_runs,
        inference_stats: outcome.inference_stats,
        alerts: outcome.alerts.len(),
        containment_len: outcome.containment.len(),
        containment_hash: containment_hash(outcome),
    }
}

#[test]
fn fault_free_centralized_outcome_is_pinned() {
    let chain = presets::smoke_chain(HORIZON, SITES, None);
    let outcome = DistributedDriver::new(config(&chain)).run(&chain);
    let expected = Golden {
        comm: [(234_277, 2_541), (0, 0), (0, 0), (0, 0), (0, 0)],
        transport: TransportStats {
            envelopes: 2_541,
            transmissions: 2_541,
            ..TransportStats::default()
        },
        uplinks: vec![(0, 1_638, 0), (1, 513, 0), (2, 390, 0)],
        // The default budget is unbounded: nothing compacts, but the global
        // engine's high-water mark is still tracked.
        memory: MemoryStats {
            high_water: 29_595,
            ..MemoryStats::default()
        },
        inference_runs: 7,
        inference_stats: InferenceStats {
            dirty_tags: 1_084,
            posteriors_reused: 27_419,
            posteriors_computed: 29_289,
            evidence_reused: 533_137,
            evidence_computed: 205_373,
        },
        alerts: 126,
        containment_len: 240,
        containment_hash: 10_851_169_561_054_814_373,
    };
    assert_eq!(observe(&outcome), expected);
}

#[test]
fn chaos_soak_centralized_outcome_is_pinned() {
    let chain = presets::smoke_chain(HORIZON, SITES, None);
    let plan = FaultPlan::soak(19, SITES as u16, HORIZON);
    // The schedule must hit every fault family Centralized honours, or the
    // constants below would pin nothing about them.
    let readings = || {
        chain.sites.iter().enumerate().flat_map(|(s, site)| {
            site.readings
                .readings_unordered()
                .iter()
                .map(move |r| (s, r))
        })
    };
    assert!(readings().any(|(s, r)| plan.reading_dropped(s as u16, r.time)));
    assert!(readings().any(|(s, r)| {
        let slots = chain.sites[s].meta.num_locations as u16;
        plan.rogue_reader_slot(s as u16, r.time, r.tag, slots)
            .is_some()
    }));
    let outcome = DistributedDriver::new(
        config(&chain)
            .with_faults(plan)
            .with_memory_budget(MemoryBudget::capped(128)),
    )
    .run(&chain);
    let expected = Golden {
        comm: [(255_434, 2_702), (0, 0), (0, 0), (0, 0), (16_535, 2_417)],
        transport: TransportStats {
            envelopes: 2_427,
            transmissions: 2_702,
            retransmissions: 275,
            acks: 2_417,
            abandoned: 10,
            ..TransportStats::default()
        },
        uplinks: vec![(0, 1_638, 5), (1, 399, 3), (2, 390, 2)],
        memory: MemoryStats {
            high_water: 453,
            compactions: 566,
            compacted_observations: 39_961,
            evicted_cache_entries: 157,
        },
        inference_runs: 7,
        inference_stats: InferenceStats {
            dirty_tags: 1_069,
            posteriors_reused: 0,
            posteriors_computed: 1_869,
            evidence_reused: 13_065,
            evidence_computed: 15_527,
        },
        alerts: 116,
        containment_len: 204,
        containment_hash: 9_637_953_434_824_914_400,
    };
    assert_eq!(observe(&outcome), expected);
}
