//! The scheduler must produce a *bit-identical* outcome at every worker
//! count: same containment, same per-kind communication bytes and message
//! counts, same alerts, same query-state sizes, same ONS, same inference,
//! transport and memory counters — across every migration strategy. One
//! worker (the loop on the calling thread) is the reference only by
//! convention; `1 == N` is a property of one function. That includes the
//! cache-reuse accounting of incremental inference (that incremental equals
//! a full recompute is pinned where the solver lives: the `rfid-core`
//! equivalence proptests and `solver_equivalence.rs`).

mod common;

use common::assert_identical;
use rfid_core::InferenceConfig;
use rfid_dist::{DistributedConfig, DistributedDriver, MigrationStrategy};
use rfid_query::ExposureQuery;
use rfid_sim::{presets, ChainTrace, TemperatureModel};
use std::collections::BTreeMap;

fn smoke_chain() -> ChainTrace {
    presets::smoke_chain(1800, 3, None)
}

fn config(chain: &ChainTrace, strategy: MigrationStrategy, workers: usize) -> DistributedConfig {
    let mut properties = BTreeMap::new();
    for object in chain.objects() {
        properties.insert(object, "temperature-sensitive".to_string());
    }
    DistributedConfig {
        strategy,
        inference: InferenceConfig::default().without_change_detection(),
        queries: vec![ExposureQuery {
            duration_secs: 600,
            ..ExposureQuery::q1([])
        }],
        product_properties: properties,
        temperature: Some(TemperatureModel::new([])),
        ..Default::default()
    }
    .with_workers(workers)
}

#[test]
fn incremental_inference_is_bit_identical_to_full_recompute() {
    let chain = smoke_chain();
    assert!(!chain.transfers.is_empty(), "the chain must see migrations");
    for strategy in [
        MigrationStrategy::None,
        MigrationStrategy::CriticalRegionReadings,
        MigrationStrategy::CollapsedWeights,
        MigrationStrategy::Centralized,
    ] {
        let incremental = DistributedDriver::new(config(&chain, strategy, 1)).run(&chain);
        assert!(
            incremental.inference_stats.posteriors_reused > 0,
            "{strategy:?}: periodic runs must actually reuse cached posteriors"
        );
        // One worker per site: the reuse accounting is part of the strict
        // comparison.
        let parallel =
            DistributedDriver::new(config(&chain, strategy, chain.sites.len())).run(&chain);
        assert_identical(
            &incremental,
            &parallel,
            &format!("{strategy:?} incremental, 1 vs N workers"),
        );
    }
}

#[test]
fn parallel_outcome_is_bit_identical_for_every_strategy() {
    let chain = smoke_chain();
    assert!(!chain.transfers.is_empty(), "the chain must see migrations");
    for strategy in [
        MigrationStrategy::None,
        MigrationStrategy::CriticalRegionReadings,
        MigrationStrategy::CollapsedWeights,
        MigrationStrategy::Centralized,
    ] {
        let one = DistributedDriver::new(config(&chain, strategy, 1)).run(&chain);
        // 0 is clamped up to one worker, not a zero-step shard loop.
        for workers in [0, chain.sites.len()] {
            let other = DistributedDriver::new(config(&chain, strategy, workers)).run(&chain);
            assert_identical(
                &one,
                &other,
                &format!("{strategy:?}, 1 vs {workers} workers"),
            );
        }
    }
}

#[test]
fn uneven_shards_and_oversized_worker_counts_change_nothing() {
    let run = |chain: &ChainTrace, workers: usize| {
        DistributedDriver::new(config(chain, MigrationStrategy::CollapsedWeights, workers))
            .run(chain)
    };
    let chain = smoke_chain();
    let one = run(&chain, 1);
    // 2 workers over 3 sites: worker 0 owns sites {0, 2}, worker 1 owns {1}.
    assert_identical(&one, &run(&chain, 2), "2 workers / 3 sites");
    // More workers than sites is one worker per site, exactly.
    let per_site = run(&chain, chain.sites.len());
    assert_identical(&per_site, &run(&chain, 64), "64 workers / 3 sites");
    assert_identical(&one, &per_site, "1 vs 3 workers / 3 sites");
    // A single site has nobody to exchange with, at any worker count.
    let lone = presets::smoke_chain(1800, 1, None);
    assert_identical(&run(&lone, 1), &run(&lone, 4), "4 workers / 1 site");
}
