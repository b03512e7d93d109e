//! Property tests for the reliable transport under *faulty* networks:
//!
//! * under an arbitrary seeded loss schedule the transport's accounting
//!   proves every payload reached the engine at most once — every arrived
//!   copy was acked, and every copy beyond the first accepted one was
//!   dropped by the receiver's dedup window;
//! * with an unlimited retry budget and partitions shorter than the horizon,
//!   degraded-mode cold starts plus late-state reconciliation converge to
//!   the *fault-free* final containment and custody — losing messages (but
//!   never giving up on them) costs bytes and latency, not accuracy;
//! * lossy runs are bit-identical across the sequential and parallel
//!   executors — the loss/ack/partition draws are pure functions of message
//!   keys, never of executor scheduling;
//! * a partition outliving the horizon forces degraded mode: envelopes are
//!   abandoned, the destination cold-starts, and the run still completes.

mod common;

use proptest::prelude::*;
use rfid_core::InferenceConfig;
use rfid_dist::{
    DistributedConfig, DistributedDriver, DistributedOutcome, MessageKind, MigrationStrategy,
    TransportConfig,
};
use rfid_sim::{presets, ChainTrace, FaultPlan};
use std::sync::OnceLock;

const HORIZON: u32 = 1800;
const SITES: u32 = 3;

fn chain() -> &'static ChainTrace {
    static CHAIN: OnceLock<ChainTrace> = OnceLock::new();
    CHAIN.get_or_init(|| {
        let chain = presets::smoke_chain(HORIZON, SITES, None);
        assert!(!chain.transfers.is_empty(), "the chain must see migrations");
        chain
    })
}

fn config(strategy: MigrationStrategy, workers: usize) -> DistributedConfig {
    DistributedConfig {
        strategy,
        inference: InferenceConfig::default().without_change_detection(),
        ..Default::default()
    }
    .with_workers(workers)
}

/// The fault-free reference outcome per strategy (computed once).
fn fault_free(strategy: MigrationStrategy) -> &'static DistributedOutcome {
    static COLLAPSED: OnceLock<DistributedOutcome> = OnceLock::new();
    static READINGS: OnceLock<DistributedOutcome> = OnceLock::new();
    let cell = match strategy {
        MigrationStrategy::CollapsedWeights => &COLLAPSED,
        MigrationStrategy::CriticalRegionReadings => &READINGS,
        other => panic!("no fault-free reference cached for {other:?}"),
    };
    cell.get_or_init(|| DistributedDriver::new(config(strategy, 1)).run(chain()))
}

/// A loss-only plan (no crashes, outages, delays or duplicates) whose
/// partition windows are bounded well below the horizon.
fn lossy_network(seed: u64) -> FaultPlan {
    presets::lossy_network_plan(seed, SITES as u16, HORIZON, 0.25, 0.25, 0.3, HORIZON / 4)
}

/// A gentler loss schedule for the reconciliation property: light enough
/// that a useful fraction of seeds lose no envelope to the end of the run,
/// yet heavy enough that retransmission, dedup and late-state reconciliation
/// all fire.
fn reconcilable_network(seed: u64) -> FaultPlan {
    presets::lossy_network_plan(seed, SITES as u16, HORIZON, 0.1, 0.1, 0.2, HORIZON / 4)
}

/// The at-most-once ledger: every copy that arrived was acked, and the
/// acked copies split exactly into first-accepted deliveries
/// (`envelopes - abandoned`) plus dedup-dropped duplicates.
fn assert_at_most_once(outcome: &DistributedOutcome, label: &str) {
    let t = outcome.transport;
    assert_eq!(
        t.acks,
        (t.envelopes - t.abandoned) + t.duplicates_dropped,
        "{label}: ack ledger does not match at-most-once delivery \
         (envelopes {}, abandoned {}, duplicates {})",
        t.envelopes,
        t.abandoned,
        t.duplicates_dropped
    );
    assert_eq!(
        t.transmissions,
        t.envelopes + t.retransmissions,
        "{label}: transmissions must decompose into first sends + retries"
    );
    assert_eq!(
        outcome.comm.messages_of_kind(MessageKind::Control) as u64,
        t.acks + t.resyncs,
        "{label}: control-plane message count diverged from the ack ledger"
    );
}

proptest! {
    #[test]
    /// Retry budget ∞, partitions shorter than the horizon: whenever no
    /// envelope was abandoned or superseded (the tag moved on before its
    /// state caught up), the final containment and custody are bit-identical
    /// to the fault-free run — late arrivals reconcile through the dirty-set
    /// journal instead of corrupting state.
    fn unlimited_retries_reconcile_to_the_fault_free_outcome(seed in any::<u64>()) {
        let strategy = if seed % 2 == 0 {
            MigrationStrategy::CollapsedWeights
        } else {
            MigrationStrategy::CriticalRegionReadings
        };
        let faulted = DistributedDriver::new(
            config(strategy, 1)
                .with_faults(reconcilable_network(seed))
                .with_transport(TransportConfig::persistent()),
        )
        .run(chain());
        assert_at_most_once(&faulted, &format!("seed {seed} {strategy:?}"));
        // An attempt lost close enough to the horizon can run out of *time*
        // (never out of budget), and a copy can still lose the race against
        // the object's next departure; those runs legitimately degrade, so
        // only the clean ones are held to bit-identity.
        if faulted.transport.abandoned == 0 && faulted.transport.stale_dropped == 0 {
            let reference = fault_free(strategy);
            prop_assert_eq!(&faulted.containment, &reference.containment,
                "seed {} {:?}: containment diverged from fault-free", seed, strategy);
            prop_assert_eq!(&faulted.ons, &reference.ons,
                "seed {} {:?}: ONS custody diverged from fault-free", seed, strategy);
            prop_assert_eq!(faulted.inference_runs, reference.inference_runs,
                "seed {} {:?}: inference cadence diverged", seed, strategy);
        }
    }
}

proptest! {
    #[test]
    /// The loss/ack/partition draws are pure functions of message keys, so a
    /// lossy run — retransmissions, dedup drops, degraded-mode abandonments
    /// and all — is bit-identical across executors.
    fn lossy_runs_are_bit_identical_across_executors(seed in any::<u64>()) {
        let plan = lossy_network(seed);
        let sequential = DistributedDriver::new(
            config(MigrationStrategy::CollapsedWeights, 1).with_faults(plan.clone()),
        )
        .run(chain());
        let parallel = DistributedDriver::new(
            config(MigrationStrategy::CollapsedWeights, chain().sites.len())
                .with_faults(plan),
        )
        .run(chain());
        common::assert_identical(&sequential, &parallel, &format!("seed {seed}, 1 vs N workers"));
        assert_at_most_once(&sequential, &format!("seed {seed}"));
    }
}

#[test]
fn a_partition_outliving_the_horizon_forces_degraded_mode() {
    // Sever 0 → 1 (and back) for the whole run: every envelope on that edge
    // exhausts its budget, the destinations cold-start the arriving objects,
    // and the run still completes with full custody.
    let plan = FaultPlan::quiet(SITES as u16).with_partition(
        0,
        1,
        rfid_types::Epoch(0),
        rfid_types::Epoch(HORIZON),
    );
    let sequential = DistributedDriver::new(
        config(MigrationStrategy::CollapsedWeights, 1).with_faults(plan.clone()),
    )
    .run(chain());
    let parallel = DistributedDriver::new(
        config(MigrationStrategy::CollapsedWeights, chain().sites.len()).with_faults(plan),
    )
    .run(chain());
    assert!(
        sequential.transport.abandoned > 0,
        "a permanent partition must abandon envelopes"
    );
    assert_eq!(sequential.transport, parallel.transport);
    assert_eq!(sequential.containment, parallel.containment);
    assert_eq!(
        sequential.ons,
        fault_free(MigrationStrategy::CollapsedWeights).ons,
        "custody follows the physical goods, not the state messages"
    );
    assert!(
        sequential.comm.bytes_of_kind(MessageKind::Control) > 0,
        "the surviving edges still ack their deliveries"
    );
}

#[test]
fn late_state_reconciliation_happens_under_lossy_acks() {
    // Scan a few seeds for a run where a retransmitted copy arrives *after*
    // the physical object (a lost first attempt), i.e. the destination
    // cold-started and then merged the late state.
    let mut seen_reconciled = 0u64;
    let mut seen_duplicates = 0u64;
    for seed in 0..10u64 {
        let outcome = DistributedDriver::new(
            config(MigrationStrategy::CollapsedWeights, 1)
                .with_faults(lossy_network(seed))
                .with_transport(TransportConfig::persistent()),
        )
        .run(chain());
        assert_at_most_once(&outcome, &format!("seed {seed}"));
        seen_reconciled += outcome.transport.reconciled;
        seen_duplicates += outcome.transport.duplicates_dropped;
        if seen_reconciled > 0 && seen_duplicates > 0 {
            return;
        }
    }
    panic!(
        "10 lossy seeds produced no reconciliation ({seen_reconciled}) \
         or no dedup drops ({seen_duplicates}) — the degraded path never ran"
    );
}
