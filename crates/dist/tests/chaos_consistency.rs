//! Crash-at-every-boundary sweep over a *chaos* schedule: the durability
//! contract of `crash_consistency.rs` extended to runs where the network is
//! actively hostile while the site goes down.
//!
//! A zero-downtime crash-restore must be bit-identical to the uncrashed run
//! even when the schedule is corrupting wire bytes (so the crashed site holds
//! a non-empty quarantine ledger), compacting history under a memory budget
//! (so the checkpoint carries live compaction counters) and losing payloads
//! (so per-edge conservation ledgers are mid-flight). That proves the
//! [`SiteCheckpoint`](rfid_wire::SiteCheckpoint) chaos sections — quarantine
//! entries, memory counters, edge ledgers — really round-trip through
//! restore; if any of them were dropped or double-counted on replay, the
//! merged outcome would diverge from the reference.
//!
//! With real downtime the outcome legitimately changes, but it must stay
//! identical across executors and pass every invariant oracle.

mod common;

use common::assert_identical;
use rfid_core::{InferenceConfig, MemoryBudget};
use rfid_dist::{assert_audit, DistributedConfig, DistributedDriver, MigrationStrategy};
use rfid_sim::{presets, ChainTrace, FaultPlan, FaultPlanConfig};
use rfid_types::Epoch;

const HORIZON: u32 = 900;
const SITES: u32 = 3;
const CHECKPOINT_EVERY: u32 = 120;

fn smoke_chain() -> ChainTrace {
    presets::smoke_chain(HORIZON, SITES, None)
}

/// Every chaos family except crashes (the sweep scripts its own): corrupted
/// wire bytes heavy enough that quarantines happen early, loss and
/// partitions so the conservation ledgers see retransmission and
/// abandonment, delay/duplication, reader outages, rogue readings and
/// per-site clock skew.
fn chaos_without_crashes(seed: u64) -> FaultPlan {
    FaultPlan::generate(&FaultPlanConfig {
        outage_probability: 0.3,
        outage_max_secs: 90,
        delay_probability: 0.2,
        delay_max_secs: 60,
        duplicate_probability: 0.1,
        loss_probability: 0.1,
        ack_loss_probability: 0.05,
        partition_probability: 0.2,
        partition_max_secs: 120,
        corruption_probability: 0.35,
        rogue_probability: 0.05,
        clock_skew_max_secs: 30,
        ..FaultPlanConfig::quiet(seed, SITES as u16, HORIZON)
    })
}

/// Checkpointed, memory-budgeted configuration. The budget is tight enough
/// that compaction fires well before the horizon, so mid-run checkpoints
/// carry non-zero memory counters.
fn config(workers: usize) -> DistributedConfig {
    DistributedConfig {
        strategy: MigrationStrategy::CollapsedWeights,
        inference: InferenceConfig::default().without_change_detection(),
        ..Default::default()
    }
    .with_checkpoints(CHECKPOINT_EVERY)
    .with_memory_budget(MemoryBudget::capped(128))
    .with_workers(workers)
}

#[test]
fn a_zero_downtime_crash_at_every_boundary_preserves_the_chaos_ledgers() {
    let chain = smoke_chain();
    let chaos = chaos_without_crashes(19);
    let reference = DistributedDriver::new(config(1).with_faults(chaos.clone())).run(&chain);
    // The schedule must actually exercise the state the sweep claims to
    // protect: quarantines on the books, compaction already fired, ledgers
    // live — otherwise a restore that dropped them would pass vacuously.
    assert!(
        reference.transport.quarantined > 0,
        "the chaos schedule must quarantine at least one envelope"
    );
    assert!(
        reference.memory.compactions > 0,
        "the memory budget must force at least one compaction pass"
    );
    assert!(
        !reference.ledgers.is_empty(),
        "a chaotic run books per-edge ledgers"
    );
    assert_audit(&chain, &reference);
    // Crash epochs: mid-first-period (restore from scratch) plus every
    // checkpoint boundary, rotating the crash site so sources, interior
    // sites and sinks all restore mid-quarantine and mid-compaction.
    let mut crash_epochs = vec![CHECKPOINT_EVERY / 2];
    crash_epochs.extend((CHECKPOINT_EVERY..HORIZON).step_by(CHECKPOINT_EVERY as usize));
    for (i, at) in crash_epochs.into_iter().enumerate() {
        let site = (i as u16) % SITES as u16;
        let plan = chaos.clone().with_crash(site, Epoch(at), 0);
        let crashed = DistributedDriver::new(config(1).with_faults(plan)).run(&chain);
        assert_identical(
            &reference,
            &crashed,
            &format!("site {site} crashed at epoch {at} mid-chaos"),
        );
        assert_audit(&chain, &crashed);
    }
}

#[test]
fn a_downtime_crash_mid_chaos_stays_accountable_across_executors() {
    let chain = smoke_chain();
    // Real downtime on top of the full chaos schedule: the outcome may
    // legitimately degrade, but it must be executor-independent and every
    // conservation oracle must still balance.
    let plan = chaos_without_crashes(19).with_crash(1, Epoch(450), 120);
    let sequential = DistributedDriver::new(config(1).with_faults(plan.clone())).run(&chain);
    let parallel = DistributedDriver::new(config(chain.sites.len()).with_faults(plan)).run(&chain);
    assert_identical(&sequential, &parallel, "downtime crash, 1 vs 3 workers");
    assert_audit(&chain, &sequential);
    assert_audit(&chain, &parallel);
    assert!(
        sequential.transport.quarantined > 0,
        "corruption must survive the crash window"
    );
    assert!(
        sequential.memory.high_water > 0,
        "the budget tracker must have seen the observation store"
    );
}
