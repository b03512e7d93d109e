//! The headline transport invariant: a loss-free run through the reliable
//! transport (sequence numbers assigned, receiver-side dedup active) is
//! *bit-identical* to legacy direct delivery — same containment, same
//! per-kind communication bytes, same alerts, same ONS — across every
//! migration strategy and both executors. Sequencing and dedup are pure
//! bookkeeping until the network actually misbehaves.

mod common;

use common::{assert_identical, assert_identical_except, Field};
use rfid_core::InferenceConfig;
use rfid_dist::{
    audit, DistributedConfig, DistributedDriver, MessageKind, MigrationStrategy, TransportConfig,
};
use rfid_query::ExposureQuery;
use rfid_sim::{presets, ChainTrace, ChaosPlan, FaultPlan, FaultPlanConfig, TemperatureModel};
use std::collections::BTreeMap;

fn smoke_chain() -> ChainTrace {
    presets::smoke_chain(1800, 3, None)
}

const STRATEGIES: [MigrationStrategy; 4] = [
    MigrationStrategy::None,
    MigrationStrategy::CriticalRegionReadings,
    MigrationStrategy::CollapsedWeights,
    MigrationStrategy::Centralized,
];

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
fn loss_free_transport_is_bit_identical_to_direct_delivery() {
    let chain = smoke_chain();
    assert!(!chain.transfers.is_empty(), "the chain must see migrations");
    let on = TransportConfig {
        always_on: true,
        ..TransportConfig::default()
    };
    for strategy in STRATEGIES {
        let baseline = DistributedDriver::new(config(&chain, strategy, 1)).run(&chain);
        assert_eq!(
            baseline.transport,
            Default::default(),
            "{strategy:?}: the transport must stay Off by default"
        );
        let sequential =
            DistributedDriver::new(config(&chain, strategy, 1).with_transport(on)).run(&chain);
        let parallel =
            DistributedDriver::new(config(&chain, strategy, chain.sites.len()).with_transport(on))
                .run(&chain);
        // What must not change is everything observable — accuracy,
        // bytes, alerts, custody; the bookkeeping itself is new.
        assert_identical_except(
            &baseline,
            &sequential,
            &format!("{strategy:?}, direct vs sequenced"),
            &[
                (Field::Transport, "the sequenced run counts its envelopes"),
                (
                    Field::Ledgers,
                    "only sequenced envelopes are booked per edge",
                ),
            ],
        );
        assert_identical(
            &sequential,
            &parallel,
            &format!("{strategy:?} sequenced, 1 vs N workers"),
        );
        // The transport really ran: payloads were sequenced and each was
        // delivered exactly once on the first attempt — no acks on the
        // wire (Control stays silent), nothing retransmitted, dropped,
        // reconciled or abandoned.
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
    }
}

#[test]
fn a_calm_chaos_plan_is_bit_identical_to_direct_delivery() {
    // The chaos orchestrator with every fault family disabled is the
    // identity schedule: outcomes match the no-plan run field by field, the
    // transport stays asleep, no per-edge ledgers or quarantine entries are
    // booked — and the run still clears the full invariant-oracle battery.
    let chain = smoke_chain();
    let horizon = chain.sites[0].meta.length;
    let calm = ChaosPlan::calm(11, chain.sites.len() as u16, horizon);
    assert!(calm.plan().is_quiet(), "calm schedules carry no faults");
    for strategy in STRATEGIES {
        let baseline = DistributedDriver::new(config(&chain, strategy, 1)).run(&chain);
        let calmed = DistributedDriver::new(
            config(&chain, strategy, 1).with_faults(calm.clone().into_plan()),
        )
        .run(&chain);
        assert_identical(&baseline, &calmed, &format!("{strategy:?} calm chaos"));
        assert_eq!(
            calmed.transport,
            Default::default(),
            "{strategy:?}: a calm chaos plan must not wake the transport"
        );
        assert!(
            calmed.ledgers.is_empty(),
            "{strategy:?}: the direct path keeps no per-edge ledgers"
        );
        assert!(
            calmed.quarantine.is_empty(),
            "{strategy:?}: nothing to quarantine on a calm run"
        );
        audit(&chain, &calmed).unwrap_or_else(|violation| {
            panic!("{strategy:?}: calm chaos run failed an oracle: {violation}")
        });
    }
}

#[test]
fn a_quiet_fault_plan_keeps_the_transport_off() {
    // A plan with no loss, no ack loss and no partitions — even combined
    // with `always_on: false` — must leave the legacy direct-delivery path
    // byte-exact (this is what keeps the `faults` benchmark stable).
    let chain = smoke_chain();
    let horizon = chain.sites[0].meta.length;
    let plan = FaultPlan::generate(&FaultPlanConfig::quiet(
        7,
        chain.sites.len() as u16,
        horizon,
    ));
    for strategy in STRATEGIES {
        let baseline = DistributedDriver::new(config(&chain, strategy, 1)).run(&chain);
        let quieted = DistributedDriver::new(config(&chain, strategy, 1).with_faults(plan.clone()))
            .run(&chain);
        assert_identical(&baseline, &quieted, &format!("{strategy:?} quiet plan"));
        assert_eq!(
            quieted.transport,
            Default::default(),
            "{strategy:?}: a quiet plan must not wake the transport"
        );
    }
}
