//! The scheduler must produce a *bit-identical* outcome at every worker
//! count: same containment, same per-kind communication bytes and message
//! counts, same alerts, same query-state sizes, same ONS, same inference,
//! transport and memory counters — across every migration strategy. One
//! worker (the loop on the calling thread) is the reference only by
//! convention; `1 == N` is a property of one function. That includes the
//! cache-reuse accounting of incremental inference (that incremental equals
//! a full recompute is pinned where the solver lives: the `rfid-core`
//! equivalence proptests and `solver_equivalence.rs`).
//!
//! The schedules that could deadlock or reorder a site's work — edges both
//! ways with zero transit, transit-1 edges under checkpoints, many more
//! sites than workers — each run under a watchdog, so a stalled schedule
//! fails its test instead of hanging the suite.

use rfid_core::InferenceConfig;
use rfid_dist::{assert_identical, DistributedConfig, DistributedDriver, MigrationStrategy};
use rfid_query::ExposureQuery;
use rfid_sim::{
    presets, ChainConfig, ChainTrace, FaultPlan, ObjectTransfer, SupplyChainSimulator,
    TemperatureModel, WarehouseConfig,
};
use rfid_types::{Epoch, SiteId};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

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
        // 0 is clamped up to one worker, not a loop with no worker.
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
    // 2 workers over 3 sites: some worker runs slices of several sites.
    assert_identical(&one, &run(&chain, 2), "2 workers / 3 sites");
    // More workers than sites is one worker per site, exactly.
    let per_site = run(&chain, chain.sites.len());
    assert_identical(&per_site, &run(&chain, 64), "64 workers / 3 sites");
    assert_identical(&one, &per_site, "1 vs 3 workers / 3 sites");
    // A single site has nobody to exchange with, at any worker count.
    let lone = presets::smoke_chain(1800, 1, None);
    assert_identical(&run(&lone, 1), &run(&lone, 4), "4 workers / 1 site");
}

/// Run `chain` at 1, 2 and one-per-site workers under `config` and compare
/// every outcome strictly with the one-worker run, on a thread of its own
/// that must finish within a minute: a schedule that deadlocks fails the
/// test instead of hanging it.
fn assert_worker_counts_agree(
    label: &'static str,
    chain: ChainTrace,
    config: impl Fn(&ChainTrace, usize) -> DistributedConfig + Send + 'static,
) {
    let (done, finished) = channel();
    let runner = std::thread::spawn(move || {
        let run = |workers| DistributedDriver::new(config(&chain, workers)).run(&chain);
        let one = run(1);
        for workers in [2, chain.sites.len()] {
            assert_identical(
                &one,
                &run(workers),
                &format!("{label}: 1 vs {workers} workers"),
            );
        }
        done.send(()).expect("the watchdog waits for the verdict");
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => runner.join().expect("the runner finished"),
        Err(RecvTimeoutError::Disconnected) => match runner.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the runner reports before it returns"),
        },
        Err(RecvTimeoutError::Timeout) => panic!("{label}: the schedule did not finish in 60 s"),
    }
}

/// `chain` with its site ids reversed, so every shipment travels from a
/// higher id to a lower one. One worker breaks ties toward the lowest id, so
/// it then runs each receiver as far ahead of its senders as the schedule's
/// rules allow: a rule that lets a receiver run too far shows even without
/// a racing second worker.
fn reversed(mut chain: ChainTrace) -> ChainTrace {
    let last = chain.sites.len() as u16 - 1;
    chain.sites.reverse();
    for tr in &mut chain.transfers {
        tr.from_site = SiteId(last - tr.from_site.0);
        tr.to_site = SiteId(last - tr.to_site.0);
    }
    chain
}

/// Two sites shipping to each other with zero transit both ways: every
/// dispatch from site 0 lands at site 1 in its own epoch, and every other
/// dispatched tag goes back 45 s later, again in no time. Site 1 checkpoints every
/// 7 s and crashes with downtime. A zero-transit edge that waited a whole
/// epoch would deadlock this cycle.
#[test]
fn zero_transit_both_ways_with_checkpoints_and_a_lossy_crash() {
    let mut chain = presets::smoke_chain(1800, 2, None);
    let horizon = chain.sites[0].meta.length;
    let mut transfers = Vec::new();
    for (i, tr) in chain.transfers.iter().enumerate() {
        transfers.push(ObjectTransfer {
            arrive: tr.depart,
            ..*tr
        });
        let back = Epoch(tr.depart.0 + 45);
        if i % 2 == 0 && back.0 <= horizon {
            transfers.push(ObjectTransfer {
                from_site: tr.to_site,
                to_site: tr.from_site,
                depart: back,
                arrive: back,
                ..*tr
            });
        }
    }
    transfers.sort_by_key(|tr| tr.depart);
    chain.transfers = transfers;
    let crash = FaultPlan::quiet(2).with_crash(1, Epoch(1000), 60);
    assert_worker_counts_agree("zero transit both ways", chain, move |chain, workers| {
        config(chain, MigrationStrategy::CollapsedWeights, workers)
            .with_checkpoints(7)
            .with_faults(crash.clone())
    });
}

/// A four-site fanout-2 chain whose shipments take one second, reversed so
/// every receiver has a lower id than its senders, checkpointing every 5 s:
/// a checkpoint cut before a sender's same-epoch departures, or a lookahead
/// one epoch too long, lets a receiver pass a shipment it has not received.
#[test]
fn transit_one_chain_with_checkpoints() {
    let mut warehouse = WarehouseConfig::default()
        .with_length(1800)
        .with_items_per_case(4)
        .with_cases_per_pallet(2)
        .with_seed(presets::SMOKE_SEED);
    warehouse.shelf_dwell_min = 60;
    warehouse.shelf_dwell_max = 180;
    let chain = SupplyChainSimulator::new(ChainConfig {
        warehouse,
        num_warehouses: 4,
        transit_secs: 1,
        fanout: 2,
    })
    .generate();
    assert!(chain
        .transfers
        .iter()
        .all(|tr| tr.arrive.0 == tr.depart.0 + 1));
    assert!(chain.transfers.len() > 100, "the chain must carry traffic");
    assert_worker_counts_agree("transit 1", reversed(chain), |chain, workers| {
        config(chain, MigrationStrategy::CriticalRegionReadings, workers).with_checkpoints(5)
    });
}

/// The smoke chain with its first pallet shipped in 30 s instead of 90 s,
/// reversed so every receiver has a lower id than its senders: that edge's
/// lookahead is its minimum transit, and a lookahead taken from the slower
/// shipments lets the receiver pass the fast pallet before it arrives.
#[test]
fn an_edge_with_two_transits() {
    let mut chain = smoke_chain();
    let first = chain.transfers[0];
    for tr in &mut chain.transfers {
        if (tr.from_site, tr.to_site, tr.depart) == (first.from_site, first.to_site, first.depart) {
            tr.arrive = tr.depart.plus(30);
        }
    }
    assert!(chain.transfers.iter().any(|tr| {
        (tr.from_site, tr.to_site) == (first.from_site, first.to_site)
            && tr.arrive.since(tr.depart) == 90
    }));
    assert_worker_counts_agree(
        "two transits on one edge",
        reversed(chain),
        |chain, workers| config(chain, MigrationStrategy::CollapsedWeights, workers),
    );
}

/// The short-dwell reference chain at 64 sites: 2 workers run all of them,
/// far from one thread per site.
#[test]
fn sixty_four_sites_on_two_workers() {
    let chain = presets::short_dwell_chain(1800, 64, 4, 2);
    assert_eq!(chain.sites.len(), 64);
    assert_worker_counts_agree("64 sites", chain, |chain, workers| {
        config(chain, MigrationStrategy::CollapsedWeights, workers)
    });
}
