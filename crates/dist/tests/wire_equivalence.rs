//! Cross-format determinism and compression of the wire codec.
//!
//! The wire format is pure representation: switching
//! [`DistributedConfig::wire_format`] between `Json` and `Binary` must leave
//! containment, alerts, custody and run counts bit-identical — only the bytes
//! charged to [`CommCost`] (and the number of bytes on the wire) change. On
//! top of that, the binary codec must deliver the headline win: at the
//! 8-site short-dwell reference scale (seed 97, the CHANGES.md benchmark
//! chain) every shipping strategy's total communication bill must drop by at
//! least 2x versus JSON.

mod common;

use rfid_core::InferenceConfig;
use rfid_dist::{
    CommCost, DistributedConfig, DistributedDriver, DistributedOutcome, MessageKind,
    MigrationStrategy, WireFormat,
};
use rfid_query::ExposureQuery;
use rfid_sim::{
    presets, ChainConfig, ChainTrace, SupplyChainSimulator, TemperatureModel, WarehouseConfig,
};
use std::collections::BTreeMap;

/// The CHANGES.md reference chain: 8 warehouses, short shelf dwells
/// (60–180 s), fast injection cadence, 2400 s horizon, seed 97.
fn reference_chain() -> ChainTrace {
    presets::short_dwell_chain(2400, 8, 20, 3)
}

/// A small two-site chain for the query-state comparison.
fn small_chain() -> ChainTrace {
    SupplyChainSimulator::new(ChainConfig {
        warehouse: WarehouseConfig::default()
            .with_length(1800)
            .with_items_per_case(4)
            .with_cases_per_pallet(2)
            .with_seed(11),
        num_warehouses: 2,
        transit_secs: 90,
        fanout: 1,
    })
    .generate()
}

fn run(chain: &ChainTrace, strategy: MigrationStrategy, format: WireFormat) -> DistributedOutcome {
    DistributedDriver::new(DistributedConfig {
        strategy,
        inference: InferenceConfig::default().without_change_detection(),
        wire_format: format,
        ..Default::default()
    })
    .run(chain)
}

/// Everything but bytes must be bit-identical across formats.
fn assert_formats_agree(json: &DistributedOutcome, binary: &DistributedOutcome, label: &str) {
    assert_eq!(
        json.containment, binary.containment,
        "{label}: containment must not depend on the wire format"
    );
    assert_eq!(json.alerts, binary.alerts, "{label}: alerts");
    assert_eq!(json.ons, binary.ons, "{label}: ONS custody");
    assert_eq!(
        json.inference_runs, binary.inference_runs,
        "{label}: inference-run count"
    );
    for kind in MessageKind::ALL {
        assert_eq!(
            json.comm.messages_of_kind(kind),
            binary.comm.messages_of_kind(kind),
            "{label}: same messages cross the network under {kind:?}, only their size differs"
        );
    }
}

fn total(comm: &CommCost) -> usize {
    comm.total_bytes()
}

#[test]
fn binary_halves_every_shipping_strategy_at_the_reference_scale() {
    let chain = reference_chain();
    assert!(
        chain.transfers.len() > 2000,
        "the reference chain must be migration-heavy ({} transfers)",
        chain.transfers.len()
    );
    for strategy in [
        MigrationStrategy::CollapsedWeights,
        MigrationStrategy::CriticalRegionReadings,
        MigrationStrategy::Centralized,
    ] {
        let json = run(&chain, strategy, WireFormat::Json);
        let binary = run(&chain, strategy, WireFormat::Binary);
        assert_formats_agree(&json, &binary, &format!("{strategy:?}"));
        let (j, b) = (total(&json.comm), total(&binary.comm));
        assert!(b > 0, "{strategy:?} must ship state");
        assert!(
            b * 2 <= j,
            "{strategy:?}: binary ({b} B) must at least halve JSON ({j} B)"
        );
    }
}

#[test]
fn none_strategy_is_silent_in_both_formats() {
    let chain = small_chain();
    for format in [WireFormat::Json, WireFormat::Binary] {
        let outcome = run(&chain, MigrationStrategy::None, format);
        assert_eq!(
            outcome.comm.total_bytes(),
            0,
            "{format}: None sends nothing"
        );
        assert_eq!(outcome.comm.total_messages(), 0);
    }
}

#[test]
fn query_state_bundles_agree_across_formats_and_binary_is_smaller() {
    let chain = small_chain();
    let mut properties = BTreeMap::new();
    for object in chain.objects() {
        properties.insert(object, "temperature-sensitive".to_string());
    }
    let config = |format| DistributedConfig {
        strategy: MigrationStrategy::CollapsedWeights,
        inference: InferenceConfig::default().without_change_detection(),
        queries: vec![ExposureQuery {
            duration_secs: 600,
            ..ExposureQuery::q1([])
        }],
        product_properties: properties.clone(),
        temperature: Some(TemperatureModel::new([])),
        wire_format: format,
        ..Default::default()
    };
    let json = DistributedDriver::new(config(WireFormat::Json)).run(&chain);
    let binary = DistributedDriver::new(config(WireFormat::Binary)).run(&chain);
    assert_formats_agree(&json, &binary, "CollapsedWeights+queries");
    assert!(
        !binary.alerts.is_empty(),
        "exposure alerts must fire regardless of format"
    );
    // Sharing stays profitable in both representations, and the charged
    // query-state bytes are the shared (bundle-encoded) bytes.
    for (label, outcome) in [("json", &json), ("binary", &binary)] {
        assert!(
            outcome.query_state_shared_bytes <= outcome.query_state_unshared_bytes,
            "{label}: sharing must never inflate the state"
        );
        assert_eq!(
            outcome.query_state_shared_bytes,
            outcome.comm.bytes_of_kind(MessageKind::QueryState)
        );
    }
    assert!(
        binary.comm.bytes_of_kind(MessageKind::QueryState)
            < json.comm.bytes_of_kind(MessageKind::QueryState),
        "binary bundles ({} B) must undercut JSON bundles ({} B)",
        binary.comm.bytes_of_kind(MessageKind::QueryState),
        json.comm.bytes_of_kind(MessageKind::QueryState)
    );
    assert!(
        binary.comm.bytes_of_kind(MessageKind::InferenceState)
            < json.comm.bytes_of_kind(MessageKind::InferenceState)
    );
}

#[test]
fn parallel_execution_agrees_with_sequential_in_both_formats() {
    let chain = small_chain();
    for format in [WireFormat::Json, WireFormat::Binary] {
        let sequential = DistributedDriver::new(DistributedConfig {
            strategy: MigrationStrategy::CriticalRegionReadings,
            inference: InferenceConfig::default().without_change_detection(),
            wire_format: format,
            ..Default::default()
        })
        .run(&chain);
        let parallel = DistributedDriver::new(DistributedConfig {
            strategy: MigrationStrategy::CriticalRegionReadings,
            inference: InferenceConfig::default().without_change_detection(),
            wire_format: format,
            num_workers: 2,
            ..Default::default()
        })
        .run(&chain);
        common::assert_identical(&sequential, &parallel, &format!("{format}, 1 vs 2 workers"));
    }
}
