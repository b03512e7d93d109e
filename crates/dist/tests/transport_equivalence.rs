//! What the one delivery path guarantees when the network loses nothing:
//!
//! * a loss-free run sequences every envelope, delivers each exactly once on
//!   the first attempt and puts no `Control` byte on the wire;
//! * a fault plan that injects nothing (a quiet `FaultPlan`) is the no-plan
//!   run, field for field — bookkeeping included;
//! * duplicated and delayed deliveries are absorbed by the receiver: a
//!   duplicate never reaches the engine a second time (migrated weights are
//!   *added*, so it would double them), a late copy is reconciled and
//!   counted — across every migration strategy and worker count.

mod common;

use common::{assert_identical, assert_identical_except, Field};
use rfid_core::InferenceConfig;
use rfid_dist::{
    audit, DistributedConfig, DistributedDriver, DistributedOutcome, MessageKind, MigrationStrategy,
};
use rfid_query::ExposureQuery;
use rfid_sim::{presets, ChainTrace, FaultPlan, FaultPlanConfig, TemperatureModel};
use std::collections::BTreeMap;

fn smoke_chain() -> ChainTrace {
    let chain = presets::smoke_chain(1800, 3, None);
    assert!(!chain.transfers.is_empty(), "the chain must see migrations");
    chain
}

const STRATEGIES: [MigrationStrategy; 4] = [
    MigrationStrategy::None,
    MigrationStrategy::CriticalRegionReadings,
    MigrationStrategy::CollapsedWeights,
    MigrationStrategy::Centralized,
];

/// The strategies whose envelopes cross federated edges.
fn migrates(strategy: MigrationStrategy) -> bool {
    matches!(
        strategy,
        MigrationStrategy::CriticalRegionReadings | MigrationStrategy::CollapsedWeights
    )
}

fn run(
    chain: &ChainTrace,
    strategy: MigrationStrategy,
    workers: usize,
    plan: Option<&FaultPlan>,
) -> DistributedOutcome {
    let mut properties = BTreeMap::new();
    for object in chain.objects() {
        properties.insert(object, "temperature-sensitive".to_string());
    }
    let config = DistributedConfig {
        strategy,
        inference: InferenceConfig::default().without_change_detection(),
        queries: vec![ExposureQuery {
            duration_secs: 600,
            ..ExposureQuery::q1([])
        }],
        product_properties: properties,
        temperature: Some(TemperatureModel::new([])),
        faults: plan.cloned(),
        ..Default::default()
    }
    .with_workers(workers);
    DistributedDriver::new(config).run(chain)
}

fn quiet(chain: &ChainTrace) -> FaultPlanConfig {
    FaultPlanConfig::quiet(7, chain.sites.len() as u16, chain.sites[0].meta.length)
}

fn assert_audited(chain: &ChainTrace, outcome: &DistributedOutcome, label: &str) {
    audit(chain, outcome).unwrap_or_else(|violation| panic!("{label}: {violation}"));
}

#[test]
fn a_loss_free_run_delivers_every_envelope_once_and_sends_no_acks() {
    let chain = smoke_chain();
    for strategy in STRATEGIES {
        let sequential = run(&chain, strategy, 1, None);
        let parallel = run(&chain, strategy, chain.sites.len(), None);
        assert_identical(
            &sequential,
            &parallel,
            &format!("{strategy:?}, 1 vs N workers"),
        );
        // Payloads were sequenced and each was delivered exactly once on the
        // first attempt — no acks on the wire (Control stays silent),
        // nothing retransmitted, dropped, reconciled or abandoned.
        let t = sequential.transport;
        if strategy == MigrationStrategy::None {
            // Nothing migrates: the transport has nothing to guard.
            assert_eq!(t.envelopes, 0, "{strategy:?}");
        } else {
            assert!(t.envelopes > 0, "{strategy:?}: no envelopes were sequenced");
        }
        assert_eq!(t.transmissions, t.envelopes, "{strategy:?}");
        assert_eq!(t.retransmissions, 0, "{strategy:?}");
        assert_eq!(t.acks, 0, "{strategy:?}");
        assert_eq!(t.duplicates_dropped, 0, "{strategy:?}");
        assert_eq!(t.abandoned, 0, "{strategy:?}");
        assert_eq!(t.stale_dropped, 0, "{strategy:?}");
        assert_eq!(t.reconciled, 0, "{strategy:?}");
        assert_eq!(
            sequential.comm.bytes_of_kind(MessageKind::Control),
            0,
            "{strategy:?}: a loss-free run must put no control bytes on the wire"
        );
        if migrates(strategy) {
            let imported: u64 = sequential.ledgers.iter().map(|l| l.imported).sum();
            assert_eq!(imported, t.envelopes, "{strategy:?}");
        }
        assert_audited(&chain, &sequential, &format!("{strategy:?}"));
    }
}

/// A plan that injects nothing is the no-plan run: every field equal —
/// transport counters and ledgers included — and not one ack sent.
fn assert_no_op_plan(chain: &ChainTrace, plan: &FaultPlan, label: &str) {
    assert!(plan.is_quiet(), "{label}: the plan carries no faults");
    for strategy in STRATEGIES {
        let baseline = run(chain, strategy, 1, None);
        let planned = run(chain, strategy, 1, Some(plan));
        assert_identical(&baseline, &planned, &format!("{strategy:?} {label}"));
        assert_eq!(planned.transport.acks, 0, "{strategy:?} {label}");
        assert!(planned.quarantine.is_empty(), "{strategy:?} {label}");
        assert_audited(chain, &planned, &format!("{strategy:?} {label}"));
    }
}

#[test]
fn a_quiet_fault_plan_is_identical_to_no_plan() {
    let chain = smoke_chain();
    let plan = FaultPlan::generate(&quiet(&chain));
    assert_no_op_plan(&chain, &plan, "quiet plan");
}

#[test]
fn duplicate_delivery_is_invisible_to_inference() {
    let chain = smoke_chain();
    let plan = FaultPlan::generate(&FaultPlanConfig {
        duplicate_probability: 1.0,
        ..quiet(&chain)
    });
    for strategy in STRATEGIES {
        let baseline = run(&chain, strategy, 1, None);
        for workers in [1, chain.sites.len()] {
            let label = format!("{strategy:?}, every delivery duplicated, {workers} workers");
            let duplicated = run(&chain, strategy, workers, Some(&plan));
            assert_identical_except(
                &baseline,
                &duplicated,
                &label,
                &[
                    (Field::Transport, "the dropped duplicates are counted"),
                    (Field::Ledgers, "the second copies are booked as sent"),
                ],
            );
            let t = duplicated.transport;
            assert_eq!(t.envelopes, baseline.transport.envelopes, "{label}");
            if migrates(strategy) {
                assert!(t.envelopes > 0, "{label}");
                assert_eq!(t.duplicates_dropped, t.envelopes, "{label}");
            } else {
                assert_eq!(t.duplicates_dropped, 0, "{label}");
            }
            assert_audited(&chain, &duplicated, &label);
        }
    }
}

#[test]
fn delayed_delivery_is_reconciled_and_accounted() {
    let chain = smoke_chain();
    let plan = FaultPlan::generate(&FaultPlanConfig {
        delay_probability: 1.0,
        delay_max_secs: 120,
        ..quiet(&chain)
    });
    for strategy in STRATEGIES {
        let sequential = run(&chain, strategy, 1, Some(&plan));
        let parallel = run(&chain, strategy, chain.sites.len(), Some(&plan));
        let label = format!("{strategy:?}, every delivery delayed");
        assert_identical(&sequential, &parallel, &format!("{label}, 1 vs N workers"));
        assert_eq!(
            sequential.transport.reconciled > 0,
            migrates(strategy),
            "{label}: state landing after its object is a counted reconciliation"
        );
        assert_audited(&chain, &sequential, &label);
    }
}
