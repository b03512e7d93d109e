//! Golden outcome of the two federated migration strategies.
//!
//! The bit-identity suites compare a federated run with itself under another
//! executor, worker count or crash schedule, so a change that moves what every
//! engine computes in the same way passes them all. These literals pin the
//! fault-free smoke chain under CollapsedWeights and under
//! CriticalRegionReadings: the summed [`InferenceStats`] and inference-run
//! count, the bytes and messages per [`MessageKind`], and a hash of the final
//! containment map. A change that moves any of them changed what the sites
//! infer or ship, not just how the code is arranged.

use rfid_core::{InferenceConfig, InferenceStats};
use rfid_dist::{
    DistributedConfig, DistributedDriver, DistributedOutcome, MessageKind, MigrationStrategy,
};
use rfid_query::ExposureQuery;
use rfid_sim::{presets, ChainTrace, TemperatureModel};
use std::collections::BTreeMap;

const HORIZON: u32 = 1800;
const SITES: u32 = 3;

fn config(chain: &ChainTrace, strategy: MigrationStrategy) -> DistributedConfig {
    let mut properties = BTreeMap::new();
    for object in chain.objects() {
        properties.insert(object, "temperature-sensitive".to_string());
    }
    DistributedConfig {
        strategy,
        inference: InferenceConfig::default(),
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

/// Everything this file pins of a federated run.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// `(bytes, messages)` per [`MessageKind::ALL`] entry, in that order.
    comm: [(usize, usize); 5],
    inference_runs: usize,
    inference_stats: InferenceStats,
    containment_len: usize,
    containment_hash: u64,
}

fn observe(outcome: &DistributedOutcome) -> Golden {
    assert!(outcome.quarantine.is_empty());
    Golden {
        comm: MessageKind::ALL.map(|kind| {
            (
                outcome.comm.bytes_of_kind(kind),
                outcome.comm.messages_of_kind(kind),
            )
        }),
        inference_runs: outcome.inference_runs,
        inference_stats: outcome.inference_stats,
        containment_len: outcome.containment.len(),
        containment_hash: containment_hash(outcome),
    }
}

fn run(strategy: MigrationStrategy) -> Golden {
    let chain = presets::smoke_chain(HORIZON, SITES, None);
    observe(&DistributedDriver::new(config(&chain, strategy)).run(&chain))
}

#[test]
fn fault_free_collapsed_weights_outcome_is_pinned() {
    let expected = Golden {
        comm: [(0, 0), (7_920, 120), (43_795, 15), (1_500, 150), (0, 0)],
        inference_runs: 18,
        inference_stats: InferenceStats {
            dirty_tags: 1_518,
            posteriors_reused: 43_304,
            posteriors_computed: 47_609,
            evidence_reused: 839_381,
            evidence_computed: 333_482,
        },
        containment_len: 240,
        containment_hash: 10_851_169_561_054_814_373,
    };
    assert_eq!(run(MigrationStrategy::CollapsedWeights), expected);
}

#[test]
fn fault_free_critical_region_outcome_is_pinned() {
    let expected = Golden {
        comm: [(0, 0), (68_215, 120), (43_795, 15), (1_500, 150), (0, 0)],
        inference_runs: 18,
        inference_stats: InferenceStats {
            dirty_tags: 1_631,
            posteriors_reused: 33_152,
            posteriors_computed: 45_569,
            evidence_reused: 639_468,
            evidence_computed: 268_692,
        },
        containment_len: 240,
        containment_hash: 10_851_169_561_054_814_373,
    };
    assert_eq!(run(MigrationStrategy::CriticalRegionReadings), expected);
}
