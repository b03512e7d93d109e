//! Crash-consistency harness for the checkpoint/restore durability layer.
//!
//! The headline invariant: a run in which a site crashes and restores from
//! its last [`SiteCheckpoint`](rfid_wire::SiteCheckpoint) (replaying the
//! journaled trace tail) finishes **bit-identical** to the uninterrupted
//! run — same containment, same per-kind communication bytes and message
//! counts, same alerts, same query-state sizes, same ONS custody, same
//! inference-run count. This must hold at *every* checkpoint boundary, for
//! every migration strategy and both executors.
//!
//! Lossy faults (reader outages, delivery delays/duplicates, crash downtime)
//! intentionally change the outcome; for those the contract is weaker but
//! still strict: the same [`FaultPlan`] produces the identical outcome across
//! worker counts.

use rfid_core::InferenceConfig;
use rfid_dist::{
    assert_identical, DistributedConfig, DistributedDriver, DistributedOutcome, MigrationStrategy,
};
use rfid_query::ExposureQuery;
use rfid_sim::{presets, ChainTrace, FaultPlan, FaultPlanConfig};
use rfid_types::Epoch;
use std::collections::BTreeMap;

const HORIZON: u32 = 900;
const SITES: u32 = 3;
const CHECKPOINT_EVERY: u32 = 120;

fn smoke_chain() -> ChainTrace {
    presets::smoke_chain(HORIZON, SITES, None)
}

/// The full-featured configuration: queries, temperatures and product
/// properties, so a checkpoint carries engine state *and* query state.
fn config(chain: &ChainTrace, strategy: MigrationStrategy) -> DistributedConfig {
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
        temperature: Some(rfid_sim::TemperatureModel::new([])),
        ..Default::default()
    }
}

fn run(chain: &ChainTrace, config: DistributedConfig) -> DistributedOutcome {
    DistributedDriver::new(config).run(chain)
}

#[test]
fn checkpoints_alone_never_change_the_outcome() {
    let chain = smoke_chain();
    let plain = run(&chain, config(&chain, MigrationStrategy::CollapsedWeights));
    let checkpointed = run(
        &chain,
        config(&chain, MigrationStrategy::CollapsedWeights).with_checkpoints(CHECKPOINT_EVERY),
    );
    assert_identical(&plain, &checkpointed, "checkpoints without faults");
}

/// Crash a rotating site at every checkpoint boundary of `chain` under
/// `config` (with checkpoints every [`CHECKPOINT_EVERY`] epochs) and check
/// each run against the uninterrupted one. The crash epochs: before the first
/// checkpoint exists (restore from scratch, full replay), then every boundary
/// up to the horizon (restore from the previous boundary, maximal replay).
/// The crash site rotates so sources, interior sites and sinks all get
/// exercised.
fn assert_lossless_at_every_boundary(chain: &ChainTrace, config: DistributedConfig) {
    let config = config.with_checkpoints(CHECKPOINT_EVERY);
    let reference = run(chain, config.clone());
    let mut crash_epochs = vec![CHECKPOINT_EVERY / 2];
    crash_epochs.extend((CHECKPOINT_EVERY..HORIZON).step_by(CHECKPOINT_EVERY as usize));
    for (i, at) in crash_epochs.into_iter().enumerate() {
        let site = (i as u16) % SITES as u16;
        let crashed = run(
            chain,
            config
                .clone()
                .with_faults(FaultPlan::quiet(SITES as u16).with_crash(site, Epoch(at), 0)),
        );
        assert_identical(
            &reference,
            &crashed,
            &format!("site {site} crashed at epoch {at}"),
        );
    }
}

#[test]
fn crash_at_every_checkpoint_boundary_is_lossless() {
    let chain = smoke_chain();
    assert_lossless_at_every_boundary(&chain, config(&chain, MigrationStrategy::CollapsedWeights));
}

/// The same boundaries under the product's default inference — calibrated
/// change detection and critical-region truncation — on a chain whose
/// objects change containers, so restores precede runs that apply change
/// points and cut history back to them.
#[test]
fn crash_at_every_checkpoint_boundary_is_lossless_under_the_default_inference() {
    let chain = presets::smoke_chain(HORIZON, SITES, Some(60));
    assert!(
        !chain.containment.changes().is_empty(),
        "the chain must move objects between containers"
    );
    let config = DistributedConfig {
        inference: InferenceConfig::default(),
        ..config(&chain, MigrationStrategy::CollapsedWeights)
    };
    assert_lossless_at_every_boundary(&chain, config);
}

#[test]
fn crash_recovery_is_lossless_for_every_strategy_format_and_executor() {
    let chain = smoke_chain();
    // Mid-period crash: the last checkpoint is 90 epochs old, so restore
    // exercises a real replay tail, under every strategy and both executors.
    let crash = FaultPlan::quiet(SITES as u16).with_crash(1, Epoch(450), 0);
    for strategy in [
        MigrationStrategy::None,
        MigrationStrategy::CriticalRegionReadings,
        MigrationStrategy::CollapsedWeights,
        MigrationStrategy::Centralized,
    ] {
        let label = format!("{strategy:?}");
        let reference = run(&chain, config(&chain, strategy));
        let crashed_sequential = run(
            &chain,
            config(&chain, strategy)
                .with_checkpoints(CHECKPOINT_EVERY)
                .with_faults(crash.clone()),
        );
        assert_identical(
            &reference,
            &crashed_sequential,
            &format!("{label}/sequential"),
        );
        let crashed_parallel = run(
            &chain,
            config(&chain, strategy)
                .with_checkpoints(CHECKPOINT_EVERY)
                .with_faults(crash.clone())
                .with_workers(SITES as usize),
        );
        assert_identical(&reference, &crashed_parallel, &format!("{label}/parallel"));
    }
}

#[test]
fn stale_checkpoint_with_journaled_arrivals_converges() {
    let chain = smoke_chain();
    // A single checkpoint at epoch 600, then a crash at 840: every shipment
    // the site received in between lives only in its journal, so the restore
    // must re-enqueue it and replay 239 epochs to converge.
    let checkpoint_at = 600;
    let crash_at = 840;
    let site = 1u16;
    assert!(
        chain.transfers.iter().any(|t| {
            t.to_site.0 == site && t.arrive.0 > checkpoint_at && t.arrive.0 < crash_at
        }),
        "the chain must deliver shipments to site {site} between the \
         checkpoint and the crash, or the journal path goes untested"
    );
    let reference = run(&chain, config(&chain, MigrationStrategy::CollapsedWeights));
    let crashed = run(
        &chain,
        config(&chain, MigrationStrategy::CollapsedWeights)
            .with_checkpoints(checkpoint_at)
            .with_faults(FaultPlan::quiet(SITES as u16).with_crash(site, Epoch(crash_at), 0)),
    );
    assert_identical(&reference, &crashed, "stale checkpoint + journal replay");
}

#[test]
fn lossy_fault_runs_are_identical_across_worker_counts() {
    let chain = smoke_chain();
    // Everything at once: crashes with downtime, reader outages, delayed and
    // duplicated deliveries. The outcome differs from the fault-free run by
    // design, but it must not depend on the executor.
    let plan = FaultPlan::generate(&FaultPlanConfig {
        crash_probability: 1.0,
        max_downtime_secs: 150,
        ..FaultPlanConfig::lossy(23, SITES as u16, HORIZON)
    });
    assert!(!plan.is_quiet());
    let sequential = run(
        &chain,
        config(&chain, MigrationStrategy::CollapsedWeights)
            .with_checkpoints(CHECKPOINT_EVERY)
            .with_faults(plan.clone()),
    );
    let parallel = run(
        &chain,
        config(&chain, MigrationStrategy::CollapsedWeights)
            .with_checkpoints(CHECKPOINT_EVERY)
            .with_faults(plan.clone())
            .with_workers(SITES as usize),
    );
    assert_identical(&sequential, &parallel, "lossy plan, 1 vs 3 workers");
    let uneven = run(
        &chain,
        config(&chain, MigrationStrategy::CollapsedWeights)
            .with_checkpoints(CHECKPOINT_EVERY)
            .with_faults(plan)
            .with_workers(2),
    );
    assert_identical(&sequential, &uneven, "lossy plan, 1 vs 2 workers");
}

#[test]
fn downtime_degrades_but_does_not_destroy_accuracy() {
    let chain = smoke_chain();
    let end = Epoch(chain.sites[0].meta.length);
    let objects = chain.objects();
    let accuracy = |outcome: &DistributedOutcome| {
        objects
            .iter()
            .filter(|&&o| outcome.container_of(o) == chain.containment.container_at(o, end))
            .count() as f64
            / objects.len().max(1) as f64
    };
    let reference = run(&chain, config(&chain, MigrationStrategy::CollapsedWeights));
    let lossy = run(
        &chain,
        config(&chain, MigrationStrategy::CollapsedWeights)
            .with_checkpoints(CHECKPOINT_EVERY)
            .with_faults(FaultPlan::quiet(SITES as u16).with_crash(1, Epoch(450), 120)),
    );
    let (reference_acc, lossy_acc) = (accuracy(&reference), accuracy(&lossy));
    assert!(
        lossy_acc <= reference_acc + 1e-12,
        "losing 120 s of a site cannot improve accuracy \
         ({lossy_acc:.3} vs {reference_acc:.3})"
    );
    assert!(
        lossy_acc >= reference_acc - 0.3,
        "a 120 s outage of one of three sites should not wipe out accuracy \
         ({lossy_acc:.3} vs {reference_acc:.3})"
    );
}
