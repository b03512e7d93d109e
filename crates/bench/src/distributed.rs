//! Distributed experiments: Figures 5(e)–5(f), Table 5, the query-state
//! table of Section 5.4 and the scalability study of Section 5.3.

use crate::Scale;
use rfid_core::{InferenceConfig, MemoryBudget};
use rfid_dist::{
    assert_audit, DistributedConfig, DistributedDriver, DistributedOutcome, MessageKind,
    MigrationStrategy,
};
use rfid_eval::{Series, Table};
use rfid_query::{Alert, ExposureQuery, QueryProcessor};
use rfid_sim::{
    presets, ChainConfig, ChainTrace, ChaosPlan, FaultPlan, FaultPlanConfig, SupplyChainSimulator,
    TemperatureModel, WarehouseConfig,
};
use rfid_types::{Epoch, LocationId, ObjectEvent, TagId};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

fn chain_config(scale: Scale, read_rate: f64, anomaly: Option<u32>) -> ChainConfig {
    let mut warehouse = WarehouseConfig::default()
        .with_length(scale.change_trace_secs())
        .with_read_rate(read_rate)
        .with_items_per_case(scale.items_per_case())
        .with_cases_per_pallet(scale.cases_per_pallet())
        .with_seed(97);
    warehouse.anomaly_interval = anomaly;
    ChainConfig {
        warehouse,
        num_warehouses: scale.num_warehouses(),
        transit_secs: 120,
        fanout: 2,
    }
}

fn dist_config(strategy: MigrationStrategy) -> DistributedConfig {
    DistributedConfig {
        strategy,
        inference: InferenceConfig::default(),
        ..Default::default()
    }
}

/// Containment error rate (%) of a distributed outcome against the chain's
/// ground truth, evaluated at the end of the trace.
pub fn chain_containment_error(chain: &ChainTrace, outcome: &DistributedOutcome) -> f64 {
    let end = Epoch(chain.sites[0].meta.length);
    let objects = chain.objects();
    if objects.is_empty() {
        return 0.0;
    }
    let wrong = objects
        .iter()
        .filter(|&&o| outcome.container_of(o) != chain.containment.container_at(o, end))
        .count();
    100.0 * wrong as f64 / objects.len() as f64
}

/// Figure 5(e): distributed inference error versus read rate for the None /
/// CR (critical-region state migration) / Centralized strategies.
pub fn fig5e(scale: Scale) -> Vec<Series> {
    let mut none = Series::new("None");
    let mut cr = Series::new("CR");
    let mut central = Series::new("Centralized");
    let rates: &[f64] = match scale {
        Scale::Smoke => &[0.7, 0.9],
        _ => &[0.6, 0.7, 0.8, 0.9, 1.0],
    };
    for &rr in rates {
        let chain = SupplyChainSimulator::new(chain_config(scale, rr, Some(60))).generate();
        for (series, strategy) in [
            (&mut none, MigrationStrategy::None),
            (&mut cr, MigrationStrategy::CriticalRegionReadings),
            (&mut central, MigrationStrategy::Centralized),
        ] {
            let outcome = DistributedDriver::new(dist_config(strategy)).run(&chain);
            series.push(rr, chain_containment_error(&chain, &outcome));
        }
    }
    vec![none, cr, central]
}

/// Figure 5(f): distributed inference error versus the containment-change
/// interval.
pub fn fig5f(scale: Scale) -> Vec<Series> {
    let mut none = Series::new("None");
    let mut cr = Series::new("CR");
    let mut central = Series::new("Centralized");
    let intervals: &[u32] = match scale {
        Scale::Smoke => &[60, 120],
        _ => &[20, 40, 60, 80, 100, 120],
    };
    for &interval in intervals {
        let chain = SupplyChainSimulator::new(chain_config(scale, 0.8, Some(interval))).generate();
        for (series, strategy) in [
            (&mut none, MigrationStrategy::None),
            (&mut cr, MigrationStrategy::CriticalRegionReadings),
            (&mut central, MigrationStrategy::Centralized),
        ] {
            let outcome = DistributedDriver::new(dist_config(strategy)).run(&chain);
            series.push(interval as f64, chain_containment_error(&chain, &outcome));
        }
    }
    vec![none, cr, central]
}

/// Table 5: communication cost (bytes) of the centralized approach and of the
/// None / CR migration methods, across read rates.
pub fn table5(scale: Scale) -> Table {
    let mut table = Table::new(
        "Table 5: communication cost (bytes)",
        &[
            "read rate",
            "Centralized",
            "None",
            "CR (collapsed)",
            "CR (readings)",
        ],
    );
    let rates: &[f64] = match scale {
        Scale::Smoke => &[0.8],
        _ => &[0.6, 0.7, 0.8, 0.9],
    };
    for &rr in rates {
        let chain = SupplyChainSimulator::new(chain_config(scale, rr, None)).generate();
        let central =
            DistributedDriver::new(dist_config(MigrationStrategy::Centralized)).run(&chain);
        let none = DistributedDriver::new(dist_config(MigrationStrategy::None)).run(&chain);
        let collapsed =
            DistributedDriver::new(dist_config(MigrationStrategy::CollapsedWeights)).run(&chain);
        let readings =
            DistributedDriver::new(dist_config(MigrationStrategy::CriticalRegionReadings))
                .run(&chain);
        table.push_row(&[
            format!("{rr:.1}"),
            central.comm.total_bytes().to_string(),
            none.comm.total_bytes().to_string(),
            collapsed.comm.total_bytes().to_string(),
            readings.comm.total_bytes().to_string(),
        ]);
    }
    table
}

/// Ground-truth alerts for a chain: run the query processor over the *true*
/// object events (true location and containment) so inferred results can be
/// scored with an F-measure.
pub fn ground_truth_alerts(
    chain: &ChainTrace,
    queries: &[ExposureQuery],
    temperature: &TemperatureModel,
    properties: &BTreeMap<TagId, String>,
    stride: u32,
) -> Vec<Alert> {
    let horizon = chain.sites[0].meta.length;
    let mut processor = QueryProcessor::new();
    for q in queries {
        processor.register(q.clone());
    }
    // one shared temperature stream (all sites use the same model)
    for reading in temperature.generate(chain.sites[0].meta.num_locations, Epoch(horizon)) {
        processor.on_sensor(reading);
    }
    let objects = chain.objects();
    let mut t = 0;
    while t <= horizon {
        let now = Epoch(t);
        for &object in &objects {
            // the true location of the object at its current site
            let location: Option<LocationId> = chain
                .sites
                .iter()
                .find_map(|site| site.truth.location_at(object, now));
            let Some(location) = location else { continue };
            let container = chain.containment.container_at(object, now);
            let mut event = ObjectEvent::new(now, object, location, container);
            if let Some(prop) = properties.get(&object) {
                event.property = Some(prop.clone());
            }
            processor.on_event(&event);
        }
        t += stride;
    }
    processor.alerts().to_vec()
}

/// F-measure between two alert sets: an inferred alert matches a true alert
/// on the same object for the same query.
pub fn alert_f_measure(truth: &[Alert], inferred: &[Alert]) -> f64 {
    let truth_keys: BTreeSet<(String, TagId)> =
        truth.iter().map(|a| (a.query.clone(), a.tag)).collect();
    let inferred_keys: BTreeSet<(String, TagId)> =
        inferred.iter().map(|a| (a.query.clone(), a.tag)).collect();
    if truth_keys.is_empty() && inferred_keys.is_empty() {
        return 100.0;
    }
    let matched = truth_keys.intersection(&inferred_keys).count() as f64;
    let precision = if inferred_keys.is_empty() {
        0.0
    } else {
        matched / inferred_keys.len() as f64
    };
    let recall = if truth_keys.is_empty() {
        1.0
    } else {
        matched / truth_keys.len() as f64
    };
    if precision + recall == 0.0 {
        0.0
    } else {
        100.0 * 2.0 * precision * recall / (precision + recall)
    }
}

/// The Section 5.4 table: F-measure and query-state size (with and without
/// centroid-based sharing) for Q1 and Q2 across read rates.
pub fn table_query(scale: Scale) -> Table {
    let mut table = Table::new(
        "Section 5.4: query accuracy and state size",
        &[
            "query",
            "read rate",
            "F-measure (%)",
            "state w/o share (bytes)",
            "state w/ share (bytes)",
        ],
    );
    let rates: &[f64] = match scale {
        Scale::Smoke => &[0.8],
        _ => &[0.6, 0.7, 0.8, 0.9],
    };
    // Freezer shelves: the first shelf location of every warehouse is a
    // freezer; everything else is at room temperature. Exposure windows are
    // scaled down so alerts fire within the simulated horizon.
    let temperature = TemperatureModel::new([LocationId(2)]);
    for &rr in rates {
        let chain = SupplyChainSimulator::new(chain_config(scale, rr, None)).generate();
        let mut properties = BTreeMap::new();
        for object in chain.objects() {
            let class = if object.serial() % 2 == 0 {
                "temperature-sensitive"
            } else {
                "frozen-food"
            };
            properties.insert(object, class.to_string());
        }
        let queries = vec![
            ExposureQuery {
                duration_secs: 900,
                ..ExposureQuery::q1([])
            },
            ExposureQuery {
                duration_secs: 1200,
                temp_threshold: 10.0,
                ..ExposureQuery::q2()
            },
        ];
        let truth_alerts = ground_truth_alerts(&chain, &queries, &temperature, &properties, 10);

        let mut config = dist_config(MigrationStrategy::CollapsedWeights);
        config.queries = queries.clone();
        config.product_properties = properties;
        config.temperature = Some(temperature.clone());
        let outcome = DistributedDriver::new(config).run(&chain);

        for query in ["Q1", "Q2"] {
            let truth: Vec<Alert> = truth_alerts
                .iter()
                .filter(|a| a.query == query)
                .cloned()
                .collect();
            let inferred: Vec<Alert> = outcome
                .alerts
                .iter()
                .filter(|a| a.query == query)
                .cloned()
                .collect();
            table.push_row(&[
                query.to_string(),
                format!("{rr:.1}"),
                format!("{:.1}", alert_f_measure(&truth, &inferred)),
                outcome.query_state_unshared_bytes.to_string(),
                outcome.query_state_shared_bytes.to_string(),
            ]);
        }
    }
    table
}

/// The wide short-dwell chain of the `parallel_scaling`, `wire`, `faults`,
/// `degraded` and `chaos` experiments: `sites` warehouses with short shelf
/// dwells (60–180 s) and a fast injection cadence (120 s), so pallets reach
/// the deep sites of the DAG within the horizon and every site stays busy.
/// At `Scale::Default` with 8 sites this is the CHANGES.md reference scale:
/// 2400 s, 20 items/case, 3 cases/pallet, seed 97 — 286,534 readings,
/// 2,394 transfers, 1,200 objects.
pub fn short_dwell_chain(scale: Scale, sites: u32) -> ChainTrace {
    presets::short_dwell_chain(
        match scale {
            Scale::Smoke => 1500,
            _ => 2400,
        },
        sites,
        scale.items_per_case() * 2,
        scale.cases_per_pallet(),
    )
}

/// Parallel scale-out: sequential vs sharded thread-per-site wall-clock of
/// the federated driver on a wide chain — 8–16 sites with short shelf dwells
/// and a fast injection cadence, so pallets reach the deep sites of the DAG
/// within the horizon and every site stays busy.
///
/// Both runs produce bit-identical outcomes (asserted here on containment
/// and communication totals; the full field-by-field guarantee is pinned by
/// `crates/dist/tests/parallel_determinism.rs`), so the table isolates pure
/// execution-model cost: coordination overhead on one core, scale-out on
/// many.
pub fn parallel_scaling(scale: Scale) -> Table {
    let mut table = Table::new(
        "Parallel scale-out: sequential vs thread-per-site federated driver",
        &[
            "sites",
            "readings",
            "transfers",
            "sequential (s)",
            "parallel (s)",
            "speedup",
        ],
    );
    let site_counts: &[u32] = match scale {
        Scale::Smoke => &[8],
        _ => &[8, 12, 16],
    };
    for &sites in site_counts {
        let chain = short_dwell_chain(scale, sites);
        let config = |workers: usize| DistributedConfig {
            strategy: MigrationStrategy::CollapsedWeights,
            inference: InferenceConfig::default().without_change_detection(),
            num_workers: workers,
            ..Default::default()
        };
        let started = Instant::now();
        let sequential = DistributedDriver::new(config(1)).run(&chain);
        let seq_secs = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let parallel = DistributedDriver::new(config(sites as usize)).run(&chain);
        let par_secs = started.elapsed().as_secs_f64();
        assert_eq!(
            sequential.containment, parallel.containment,
            "parallel execution must not change the outcome"
        );
        assert_eq!(sequential.comm, parallel.comm);
        table.push_row(&[
            sites.to_string(),
            chain.total_readings().to_string(),
            chain.transfers.len().to_string(),
            format!("{seq_secs:.2}"),
            format!("{par_secs:.2}"),
            format!("{:.2}x", seq_secs / par_secs.max(1e-9)),
        ]);
    }
    table
}

/// One per-strategy measurement of the wire-cost table.
#[derive(Debug, Clone)]
pub struct WireMeasurement {
    /// Migration strategy name.
    pub strategy: &'static str,
    /// Total bytes across all message kinds.
    pub total_bytes: usize,
    /// Bytes of migrated inference state.
    pub inference_bytes: usize,
    /// Bytes of forwarded raw readings (Centralized only).
    pub raw_bytes: usize,
    /// Bytes of migrated query state.
    pub query_bytes: usize,
    /// Total inter-site messages.
    pub messages: usize,
    /// Whole-run wall-clock, seconds.
    pub wall_secs: f64,
    /// Containment accuracy (%) against ground truth.
    pub accuracy: f64,
}

/// Wire cost at the 8-site short-dwell reference scale: for every migration
/// strategy, the full communication bill in encoded bytes and the whole-run
/// wall-clock.
pub fn wire_measurements(scale: Scale) -> Vec<WireMeasurement> {
    let chain = short_dwell_chain(scale, 8);
    let mut rows = Vec::new();
    for (name, strategy) in [
        ("None", MigrationStrategy::None),
        ("CR-readings", MigrationStrategy::CriticalRegionReadings),
        ("CollapsedWeights", MigrationStrategy::CollapsedWeights),
        ("Centralized", MigrationStrategy::Centralized),
    ] {
        let config = DistributedConfig {
            strategy,
            inference: InferenceConfig::default().without_change_detection(),
            ..Default::default()
        };
        let started = Instant::now();
        let outcome = DistributedDriver::new(config).run(&chain);
        let wall_secs = started.elapsed().as_secs_f64();
        rows.push(WireMeasurement {
            strategy: name,
            total_bytes: outcome.comm.total_bytes(),
            inference_bytes: outcome.comm.bytes_of_kind(MessageKind::InferenceState),
            raw_bytes: outcome.comm.bytes_of_kind(MessageKind::RawReadings),
            query_bytes: outcome.comm.bytes_of_kind(MessageKind::QueryState),
            messages: outcome.comm.total_messages(),
            wall_secs,
            accuracy: 100.0 - chain_containment_error(&chain, &outcome),
        });
    }
    rows
}

/// Render pre-computed measurements as the wire-cost table (so one
/// measurement pass can feed both the table and `BENCH_wire.json`).
pub fn wire_table(measurements: &[WireMeasurement]) -> Table {
    let mut table = Table::new(
        "Wire cost: encoded bytes of all cross-site traffic per strategy",
        &[
            "strategy",
            "accuracy (%)",
            "total bytes",
            "inference",
            "raw readings",
            "query state",
            "messages",
            "run wall (s)",
        ],
    );
    for m in measurements {
        table.push_row(&[
            m.strategy.to_string(),
            format!("{:.1}", m.accuracy),
            m.total_bytes.to_string(),
            m.inference_bytes.to_string(),
            m.raw_bytes.to_string(),
            m.query_bytes.to_string(),
            m.messages.to_string(),
            format!("{:.2}", m.wall_secs),
        ]);
    }
    table
}

/// The machine-readable companion of [`wire_table`] — the contents of
/// `BENCH_wire.json`, tracked across PRs so the perf trajectory stays
/// visible. Hand-rendered (stable key order, one row object per strategy);
/// the constant `"format": "binary"` key keeps the rows comparable with the
/// file's history, which also carried `json` rows.
pub fn wire_json(scale: Scale, measurements: &[WireMeasurement]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str("  \"reference\": \"8-site short-dwell chain, seed 97, 2400 s\",\n");
    out.push_str("  \"rows\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"format\": \"binary\", \"accuracy_pct\": {:.2}, \
             \"total_bytes\": {}, \"inference_bytes\": {}, \"raw_bytes\": {}, \
             \"query_bytes\": {}, \"messages\": {}, \"wall_secs\": {:.3}}}{}\n",
            m.strategy,
            m.accuracy,
            m.total_bytes,
            m.inference_bytes,
            m.raw_bytes,
            m.query_bytes,
            m.messages,
            m.wall_secs,
            if i + 1 == measurements.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One per-strategy measurement of the fault-degradation study.
#[derive(Debug, Clone)]
pub struct FaultMeasurement {
    /// Migration strategy name.
    pub strategy: &'static str,
    /// Containment accuracy (%) of the fault-free run.
    pub baseline_accuracy: f64,
    /// Containment accuracy (%) under the lossy fault plan.
    pub faulted_accuracy: f64,
    /// Total bytes on the wire without faults.
    pub baseline_bytes: usize,
    /// Total bytes on the wire under the fault plan (duplicated deliveries
    /// are charged once; outage-dropped readings never ship).
    pub faulted_bytes: usize,
    /// Inter-site messages without faults.
    pub baseline_messages: usize,
    /// Inter-site messages under the fault plan.
    pub faulted_messages: usize,
}

impl FaultMeasurement {
    /// Accuracy lost to the faults, in percentage points.
    pub fn degradation(&self) -> f64 {
        self.baseline_accuracy - self.faulted_accuracy
    }
}

/// The full fault-degradation study: the plan that was injected plus one
/// [`FaultMeasurement`] per migration strategy.
#[derive(Debug, Clone)]
pub struct FaultStudy {
    /// Seed of the generated [`FaultPlan`].
    pub seed: u64,
    /// Checkpoint cadence of the faulted runs, seconds.
    pub checkpoint_every_secs: u32,
    /// Scheduled site crashes in the plan.
    pub crashes: usize,
    /// Scheduled reader-outage bursts in the plan.
    pub outages: usize,
    /// Per-shipment delivery-delay probability.
    pub delay_probability: f64,
    /// Per-shipment duplicate-delivery probability.
    pub duplicate_probability: f64,
    /// One row per migration strategy.
    pub measurements: Vec<FaultMeasurement>,
}

/// Fault-degradation study at the 8-site short-dwell reference scale: for
/// every migration strategy, containment accuracy and communication cost of
/// the fault-free run versus a run under a seeded lossy [`FaultPlan`] —
/// reader-outage bursts, delayed and duplicated deliveries, and site crashes
/// with real downtime, restored from periodic checkpoints.
///
/// Every faulted run is executed both sequentially and with one worker per
/// site and asserted bit-identical (containment, communication, custody), so
/// the table measures the *faults*, never the executor. Zero-downtime crashes
/// would not show up at all — the crash-consistency suite pins that recovery
/// from a checkpoint plus journal replay is lossless — so the plan uses
/// crashes with downtime, which lose the down window's readings. The
/// `Centralized` baseline runs on a single engine with no per-site volatile
/// state, so only reader outages (not crashes or delivery faults) degrade it.
pub fn fault_measurements(scale: Scale) -> FaultStudy {
    let chain = short_dwell_chain(scale, 8);
    let horizon = chain.sites[0].meta.length;
    let fault_config = FaultPlanConfig {
        crash_probability: 0.5,
        max_downtime_secs: 180,
        ..FaultPlanConfig::lossy(presets::REFERENCE_SEED, 8, horizon)
    };
    let plan = FaultPlan::generate(&fault_config);
    let checkpoint_every = 300;
    let (crashes, outages) = plan.events().iter().fold((0, 0), |(c, o), e| match e {
        rfid_sim::FaultEvent::Crash { .. } => (c + 1, o),
        rfid_sim::FaultEvent::Outage { .. } => (c, o + 1),
        _ => (c, o),
    });
    let mut measurements = Vec::new();
    for (name, strategy) in [
        ("None", MigrationStrategy::None),
        ("CR-readings", MigrationStrategy::CriticalRegionReadings),
        ("CollapsedWeights", MigrationStrategy::CollapsedWeights),
        ("Centralized", MigrationStrategy::Centralized),
    ] {
        let base_config = |workers: usize| DistributedConfig {
            strategy,
            inference: InferenceConfig::default().without_change_detection(),
            num_workers: workers,
            ..Default::default()
        };
        let faulted_config = |workers: usize| {
            base_config(workers)
                .with_checkpoints(checkpoint_every)
                .with_faults(plan.clone())
        };
        let baseline = DistributedDriver::new(base_config(1)).run(&chain);
        let faulted = DistributedDriver::new(faulted_config(1)).run(&chain);
        let faulted_parallel = DistributedDriver::new(faulted_config(8)).run(&chain);
        assert_eq!(
            faulted.containment, faulted_parallel.containment,
            "{name}: the fault plan must injure both executors identically"
        );
        assert_eq!(faulted.comm, faulted_parallel.comm);
        assert_eq!(faulted.ons, faulted_parallel.ons);
        measurements.push(FaultMeasurement {
            strategy: name,
            baseline_accuracy: 100.0 - chain_containment_error(&chain, &baseline),
            faulted_accuracy: 100.0 - chain_containment_error(&chain, &faulted),
            baseline_bytes: baseline.comm.total_bytes(),
            faulted_bytes: faulted.comm.total_bytes(),
            baseline_messages: baseline.comm.total_messages(),
            faulted_messages: faulted.comm.total_messages(),
        });
    }
    FaultStudy {
        seed: fault_config.seed,
        checkpoint_every_secs: checkpoint_every,
        crashes,
        outages,
        delay_probability: fault_config.delay_probability,
        duplicate_probability: fault_config.duplicate_probability,
        measurements,
    }
}

/// The human-readable table of [`fault_measurements`].
pub fn faults(scale: Scale) -> Table {
    faults_table(&fault_measurements(scale))
}

/// Render a pre-computed study as the degradation table (so one measurement
/// pass can feed both the table and `BENCH_faults.json`).
pub fn faults_table(study: &FaultStudy) -> Table {
    let mut table = Table::new(
        "Fault degradation: accuracy and communication under a seeded lossy fault plan",
        &[
            "strategy",
            "baseline acc (%)",
            "faulted acc (%)",
            "degradation (pp)",
            "baseline bytes",
            "faulted bytes",
            "baseline msgs",
            "faulted msgs",
        ],
    );
    for m in &study.measurements {
        table.push_row(&[
            m.strategy.to_string(),
            format!("{:.1}", m.baseline_accuracy),
            format!("{:.1}", m.faulted_accuracy),
            format!("{:.1}", m.degradation()),
            m.baseline_bytes.to_string(),
            m.faulted_bytes.to_string(),
            m.baseline_messages.to_string(),
            m.faulted_messages.to_string(),
        ]);
    }
    table
}

/// The machine-readable companion of [`faults`] — the contents of
/// `BENCH_faults.json`, tracked across PRs alongside `BENCH_wire.json`.
/// Hand-rendered JSON (stable key order, one row object per strategy).
pub fn faults_json(scale: Scale, study: &FaultStudy) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str("  \"reference\": \"8-site short-dwell chain, seed 97, 2400 s\",\n");
    out.push_str(
        "  \"metric\": \"containment accuracy (%) and comm cost, fault-free vs lossy plan\",\n",
    );
    out.push_str(&format!(
        "  \"plan\": {{\"seed\": {}, \"checkpoint_every_secs\": {}, \"crashes\": {}, \
         \"outages\": {}, \"delay_probability\": {:.3}, \"duplicate_probability\": {:.3}}},\n",
        study.seed,
        study.checkpoint_every_secs,
        study.crashes,
        study.outages,
        study.delay_probability,
        study.duplicate_probability,
    ));
    out.push_str("  \"rows\": [\n");
    for (i, m) in study.measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"baseline_accuracy_pct\": {:.2}, \
             \"faulted_accuracy_pct\": {:.2}, \"degradation_pp\": {:.2}, \
             \"baseline_bytes\": {}, \"faulted_bytes\": {}, \"baseline_messages\": {}, \
             \"faulted_messages\": {}}}{}\n",
            m.strategy,
            m.baseline_accuracy,
            m.faulted_accuracy,
            m.degradation(),
            m.baseline_bytes,
            m.faulted_bytes,
            m.baseline_messages,
            m.faulted_messages,
            if i + 1 == study.measurements.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One scenario × strategy row of the transport-degradation study.
#[derive(Debug, Clone)]
pub struct DegradedMeasurement {
    /// Fault scenario label (`loss 0.00` … `loss 0.30`, `partition 0<->1`).
    pub scenario: String,
    /// Migration strategy name.
    pub strategy: &'static str,
    /// Containment accuracy (%) under the scenario.
    pub accuracy: f64,
    /// Total bytes on the wire, *including* the Control overhead of acks,
    /// retransmissions and resyncs.
    pub total_bytes: usize,
    /// Bytes charged to [`MessageKind::Control`] alone.
    pub control_bytes: usize,
    /// Payload copies sent beyond each envelope's first attempt.
    pub retransmissions: u64,
    /// Duplicate copies discarded by receiver-side dedup.
    pub duplicates_dropped: u64,
    /// Late state messages merged into an already-cold-started engine.
    pub reconciled: u64,
    /// Envelopes given up on — the destination stayed in degraded mode.
    pub abandoned: u64,
}

/// The full transport-degradation study: one row per scenario × strategy.
#[derive(Debug, Clone)]
pub struct DegradedStudy {
    /// Seed of the generated loss plans.
    pub seed: u64,
    /// The swept per-attempt loss rates.
    pub loss_rates: Vec<f64>,
    /// All measurements, scenario-major.
    pub rows: Vec<DegradedMeasurement>,
}

/// Transport-degradation study at the 8-site short-dwell reference scale:
/// containment accuracy and total communication (now including the Control
/// bytes of acks and the payload bytes of retransmissions) for every
/// migration strategy, as the per-attempt loss rate sweeps {0, 0.05, 0.15,
/// 0.30} (ack losses at half the payload rate), plus one scripted scenario
/// that partitions the 0 ↔ 1 link for the entire horizon so the destination
/// demonstrably runs in degraded mode.
///
/// As with [`fault_measurements`], every faulted run is executed both
/// sequentially and with one worker per site and asserted bit-identical —
/// the loss/ack/partition draws are pure functions of message keys, so the
/// table measures the *network*, never the executor.
pub fn degraded_measurements(scale: Scale) -> DegradedStudy {
    let chain = short_dwell_chain(scale, 8);
    let horizon = chain.sites[0].meta.length;
    let loss_rates = vec![0.0, 0.05, 0.15, 0.30];
    let mut scenarios: Vec<(String, FaultPlan)> = loss_rates
        .iter()
        .map(|&rate| {
            let plan = presets::lossy_network_plan(
                presets::REFERENCE_SEED,
                8,
                horizon,
                rate,
                rate / 2.0,
                0.0,
                0,
            );
            (format!("loss {rate:.2}"), plan)
        })
        .collect();
    scenarios.push((
        "partition 0<->1".to_string(),
        FaultPlan::scripted_partition(8, 0, 1, Epoch(0), Epoch(horizon)),
    ));
    let mut rows = Vec::new();
    for (scenario, plan) in &scenarios {
        for (name, strategy) in [
            ("None", MigrationStrategy::None),
            ("CR-readings", MigrationStrategy::CriticalRegionReadings),
            ("CollapsedWeights", MigrationStrategy::CollapsedWeights),
            ("Centralized", MigrationStrategy::Centralized),
        ] {
            let config = |workers: usize| {
                DistributedConfig {
                    strategy,
                    inference: InferenceConfig::default().without_change_detection(),
                    num_workers: workers,
                    ..Default::default()
                }
                .with_faults(plan.clone())
            };
            let faulted = DistributedDriver::new(config(1)).run(&chain);
            let faulted_parallel = DistributedDriver::new(config(8)).run(&chain);
            assert_eq!(
                faulted.containment, faulted_parallel.containment,
                "{scenario}/{name}: the loss schedule must injure both executors identically"
            );
            assert_eq!(faulted.comm, faulted_parallel.comm, "{scenario}/{name}");
            assert_eq!(faulted.ons, faulted_parallel.ons, "{scenario}/{name}");
            assert_eq!(
                faulted.transport, faulted_parallel.transport,
                "{scenario}/{name}"
            );
            rows.push(DegradedMeasurement {
                scenario: scenario.clone(),
                strategy: name,
                accuracy: 100.0 - chain_containment_error(&chain, &faulted),
                total_bytes: faulted.comm.total_bytes(),
                control_bytes: faulted.comm.bytes_of_kind(MessageKind::Control),
                retransmissions: faulted.transport.retransmissions,
                duplicates_dropped: faulted.transport.duplicates_dropped,
                reconciled: faulted.transport.reconciled,
                abandoned: faulted.transport.abandoned,
            });
        }
    }
    DegradedStudy {
        seed: presets::REFERENCE_SEED,
        loss_rates,
        rows,
    }
}

/// The human-readable table of [`degraded_measurements`].
pub fn degraded(scale: Scale) -> Table {
    degraded_table(&degraded_measurements(scale))
}

/// Render a pre-computed study as the degradation table (so one measurement
/// pass can feed both the table and `BENCH_degraded.json`).
pub fn degraded_table(study: &DegradedStudy) -> Table {
    let mut table = Table::new(
        "Transport degradation: accuracy and communication under message loss and partitions",
        &[
            "scenario",
            "strategy",
            "accuracy (%)",
            "total bytes",
            "control bytes",
            "retx",
            "dedup drops",
            "reconciled",
            "abandoned",
        ],
    );
    for m in &study.rows {
        table.push_row(&[
            m.scenario.clone(),
            m.strategy.to_string(),
            format!("{:.1}", m.accuracy),
            m.total_bytes.to_string(),
            m.control_bytes.to_string(),
            m.retransmissions.to_string(),
            m.duplicates_dropped.to_string(),
            m.reconciled.to_string(),
            m.abandoned.to_string(),
        ]);
    }
    table
}

/// The machine-readable companion of [`degraded`] — the contents of
/// `BENCH_degraded.json`, tracked across PRs alongside `BENCH_faults.json`.
/// Hand-rendered JSON (stable key order, one row object per scenario ×
/// strategy).
pub fn degraded_json(scale: Scale, study: &DegradedStudy) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str("  \"reference\": \"8-site short-dwell chain, seed 97, 2400 s\",\n");
    out.push_str(
        "  \"metric\": \"containment accuracy (%) and comm cost (incl. Control) under \
         transport loss and partitions\",\n",
    );
    out.push_str(&format!(
        "  \"plan\": {{\"seed\": {}, \"loss_rates\": [{}], \
         \"partition\": \"0<->1 for the whole horizon\"}},\n",
        study.seed,
        study
            .loss_rates
            .iter()
            .map(|r| format!("{r:.2}"))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    out.push_str("  \"rows\": [\n");
    for (i, m) in study.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"strategy\": \"{}\", \"accuracy_pct\": {:.2}, \
             \"total_bytes\": {}, \"control_bytes\": {}, \"retransmissions\": {}, \
             \"duplicates_dropped\": {}, \"reconciled\": {}, \"abandoned\": {}}}{}\n",
            m.scenario,
            m.strategy,
            m.accuracy,
            m.total_bytes,
            m.control_bytes,
            m.retransmissions,
            m.duplicates_dropped,
            m.reconciled,
            m.abandoned,
            if i + 1 == study.rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One schedule × strategy row of the chaos soak.
#[derive(Debug, Clone)]
pub struct ChaosMeasurement {
    /// Index of the schedule within the soak sweep.
    pub schedule: usize,
    /// Per-schedule derived seed.
    pub seed: u64,
    /// Migration strategy name.
    pub strategy: &'static str,
    /// Containment accuracy (%) under the chaos schedule.
    pub accuracy: f64,
    /// Total bytes on the wire, including Control overhead.
    pub total_bytes: usize,
    /// Poisoned envelopes diverted into the quarantine ledger.
    pub quarantined: u64,
    /// Anti-entropy resync requests sent after quarantines.
    pub resyncs: u64,
    /// Envelopes given up on (degraded-mode cold starts).
    pub abandoned: u64,
    /// Duplicate copies discarded by receiver-side dedup.
    pub duplicates_dropped: u64,
    /// High-water mark of the per-site observation stores.
    pub memory_high_water: u64,
}

/// One budget row of the accuracy-vs-memory-budget sweep.
#[derive(Debug, Clone)]
pub struct ChaosMemoryMeasurement {
    /// Budget label (`unbounded` or the observation cap).
    pub budget: String,
    /// Containment accuracy (%) under the budget.
    pub accuracy: f64,
    /// High-water mark of the observation stores.
    pub high_water: u64,
    /// Budget-driven compaction passes.
    pub compactions: u64,
    /// Observation entries collapsed into summary priors.
    pub compacted_observations: u64,
    /// Cold evidence-cache containers evicted.
    pub evicted_cache_entries: u64,
}

/// The full chaos soak: schedule × strategy rows plus the memory sweep.
#[derive(Debug, Clone)]
pub struct ChaosStudy {
    /// Master seed the per-schedule seeds derive from.
    pub master_seed: u64,
    /// Checkpoint cadence of every run, seconds.
    pub checkpoint_every_secs: u32,
    /// One row per schedule × strategy.
    pub soak: Vec<ChaosMeasurement>,
    /// Accuracy-vs-budget rows (schedule 0, `CollapsedWeights`).
    pub memory: Vec<ChaosMemoryMeasurement>,
}

/// Chaos soak at the 8-site short-dwell reference scale: a
/// [`ChaosPlan::schedule`](rfid_sim::ChaosPlan::schedule) of seeded
/// schedules — crashes with downtime restored from checkpoints, reader
/// outages, delivery delay/duplication, transmission and ack loss, link
/// partitions, corrupted wire bytes, rogue tag readings and per-site clock
/// skew, all at once — driven through every migration strategy.
///
/// Every run is executed both sequentially and with one worker per site and
/// asserted bit-identical *including* the chaos bookkeeping (quarantine
/// entries, memory counters, per-edge conservation ledgers), and every
/// outcome must pass the full invariant-oracle battery of
/// [`rfid_dist::audit`] — a soak that cannot account for every envelope
/// aborts instead of producing a table. A second sweep holds the schedule
/// fixed and tightens the per-site memory budget, measuring what graceful
/// degradation under memory pressure costs in accuracy.
pub fn chaos_measurements(scale: Scale) -> ChaosStudy {
    let chain = short_dwell_chain(scale, 8);
    let horizon = chain.sites[0].meta.length;
    let schedules = match scale {
        Scale::Smoke => 2,
        _ => 3,
    };
    let checkpoint_every = 300;
    let plans = ChaosPlan::schedule(presets::REFERENCE_SEED, schedules, 8, horizon);
    let mut soak = Vec::new();
    for (i, chaos) in plans.iter().enumerate() {
        for (name, strategy) in [
            ("None", MigrationStrategy::None),
            ("CR-readings", MigrationStrategy::CriticalRegionReadings),
            ("CollapsedWeights", MigrationStrategy::CollapsedWeights),
            ("Centralized", MigrationStrategy::Centralized),
        ] {
            let config = |workers: usize| {
                DistributedConfig {
                    strategy,
                    inference: InferenceConfig::default().without_change_detection(),
                    num_workers: workers,
                    ..Default::default()
                }
                .with_checkpoints(checkpoint_every)
                // An unbounded budget never compacts but does track the
                // high-water observation count, so the soak table can report
                // peak memory pressure per strategy.
                .with_memory_budget(MemoryBudget::unbounded())
                .with_faults(chaos.plan().clone())
            };
            let sequential = DistributedDriver::new(config(1)).run(&chain);
            let parallel = DistributedDriver::new(config(8)).run(&chain);
            let label = format!("schedule {i}/{name}");
            assert_eq!(
                sequential.containment, parallel.containment,
                "{label}: the chaos schedule must injure both executors identically"
            );
            assert_eq!(sequential.comm, parallel.comm, "{label}");
            assert_eq!(sequential.ons, parallel.ons, "{label}");
            assert_eq!(sequential.transport, parallel.transport, "{label}");
            assert_eq!(sequential.quarantine, parallel.quarantine, "{label}");
            assert_eq!(sequential.memory, parallel.memory, "{label}");
            assert_eq!(sequential.ledgers, parallel.ledgers, "{label}");
            assert_audit(&chain, &sequential);
            assert_audit(&chain, &parallel);
            soak.push(ChaosMeasurement {
                schedule: i,
                seed: chaos.config().seed,
                strategy: name,
                accuracy: 100.0 - chain_containment_error(&chain, &sequential),
                total_bytes: sequential.comm.total_bytes(),
                quarantined: sequential.transport.quarantined,
                resyncs: sequential.transport.resyncs,
                abandoned: sequential.transport.abandoned,
                duplicates_dropped: sequential.transport.duplicates_dropped,
                memory_high_water: sequential.memory.high_water,
            });
        }
    }
    let budgets = [
        ("unbounded".to_string(), MemoryBudget::unbounded()),
        ("4096".to_string(), MemoryBudget::capped(4096)),
        ("1024".to_string(), MemoryBudget::capped(1024)),
        ("256".to_string(), MemoryBudget::capped(256)),
    ];
    let mut memory = Vec::new();
    for (label, budget) in budgets {
        let outcome = DistributedDriver::new(
            DistributedConfig {
                strategy: MigrationStrategy::CollapsedWeights,
                inference: InferenceConfig::default().without_change_detection(),
                ..Default::default()
            }
            .with_checkpoints(checkpoint_every)
            .with_faults(plans[0].plan().clone())
            .with_memory_budget(budget),
        )
        .run(&chain);
        assert_audit(&chain, &outcome);
        memory.push(ChaosMemoryMeasurement {
            budget: label,
            accuracy: 100.0 - chain_containment_error(&chain, &outcome),
            high_water: outcome.memory.high_water,
            compactions: outcome.memory.compactions,
            compacted_observations: outcome.memory.compacted_observations,
            evicted_cache_entries: outcome.memory.evicted_cache_entries,
        });
    }
    ChaosStudy {
        master_seed: presets::REFERENCE_SEED,
        checkpoint_every_secs: checkpoint_every,
        soak,
        memory,
    }
}

/// The human-readable tables of [`chaos_measurements`].
pub fn chaos(scale: Scale) -> (Table, Table) {
    let study = chaos_measurements(scale);
    (chaos_table(&study), chaos_memory_table(&study))
}

/// Render the soak rows (so one measurement pass can feed both tables and
/// `BENCH_chaos.json`).
pub fn chaos_table(study: &ChaosStudy) -> Table {
    let mut table = Table::new(
        "Chaos soak: every fault family at once, all invariant oracles asserted",
        &[
            "schedule",
            "strategy",
            "accuracy (%)",
            "total bytes",
            "quarantined",
            "resyncs",
            "abandoned",
            "dedup drops",
            "mem high-water",
        ],
    );
    for m in &study.soak {
        table.push_row(&[
            m.schedule.to_string(),
            m.strategy.to_string(),
            format!("{:.1}", m.accuracy),
            m.total_bytes.to_string(),
            m.quarantined.to_string(),
            m.resyncs.to_string(),
            m.abandoned.to_string(),
            m.duplicates_dropped.to_string(),
            m.memory_high_water.to_string(),
        ]);
    }
    table
}

/// Render the accuracy-vs-memory-budget sweep of [`chaos_measurements`].
pub fn chaos_memory_table(study: &ChaosStudy) -> Table {
    let mut table = Table::new(
        "Graceful degradation: accuracy vs per-site memory budget (schedule 0, CollapsedWeights)",
        &[
            "budget (obs)",
            "accuracy (%)",
            "high-water",
            "compactions",
            "compacted obs",
            "evicted cache",
        ],
    );
    for m in &study.memory {
        table.push_row(&[
            m.budget.clone(),
            format!("{:.1}", m.accuracy),
            m.high_water.to_string(),
            m.compactions.to_string(),
            m.compacted_observations.to_string(),
            m.evicted_cache_entries.to_string(),
        ]);
    }
    table
}

/// The machine-readable companion of [`chaos`] — the contents of
/// `BENCH_chaos.json`, tracked across PRs alongside `BENCH_degraded.json`.
/// Hand-rendered JSON (stable key order).
pub fn chaos_json(scale: Scale, study: &ChaosStudy) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    out.push_str("  \"reference\": \"8-site short-dwell chain, seed 97, 2400 s\",\n");
    out.push_str(
        "  \"metric\": \"containment accuracy (%) and degradation counters under full-fault \
         chaos schedules, all invariant oracles asserted\",\n",
    );
    out.push_str(&format!(
        "  \"plan\": {{\"master_seed\": {}, \"schedules\": {}, \
         \"checkpoint_every_secs\": {}}},\n",
        study.master_seed,
        study.soak.len() / 4,
        study.checkpoint_every_secs,
    ));
    out.push_str("  \"soak\": [\n");
    for (i, m) in study.soak.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"schedule\": {}, \"seed\": {}, \"strategy\": \"{}\", \
             \"accuracy_pct\": {:.2}, \"total_bytes\": {}, \"quarantined\": {}, \
             \"resyncs\": {}, \"abandoned\": {}, \"duplicates_dropped\": {}, \
             \"memory_high_water\": {}}}{}\n",
            m.schedule,
            m.seed,
            m.strategy,
            m.accuracy,
            m.total_bytes,
            m.quarantined,
            m.resyncs,
            m.abandoned,
            m.duplicates_dropped,
            m.memory_high_water,
            if i + 1 == study.soak.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"memory\": [\n");
    for (i, m) in study.memory.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"budget\": \"{}\", \"accuracy_pct\": {:.2}, \"high_water\": {}, \
             \"compactions\": {}, \"compacted_observations\": {}, \
             \"evicted_cache_entries\": {}}}{}\n",
            m.budget,
            m.accuracy,
            m.high_water,
            m.compactions,
            m.compacted_observations,
            m.evicted_cache_entries,
            if i + 1 == study.memory.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Section 5.3 scalability: wall-clock time of distributed inference as the
/// number of items per warehouse grows, with static and mobile shelf readers.
pub fn scalability(scale: Scale) -> Table {
    let mut table = Table::new(
        "Section 5.3: scalability (distributed inference wall-clock)",
        &[
            "items per warehouse",
            "shelf readers",
            "total items",
            "inference time (s)",
        ],
    );
    let multipliers: &[u32] = match scale {
        Scale::Smoke => &[1, 2],
        _ => &[1, 2, 4],
    };
    for &m in multipliers {
        for mobile in [false, true] {
            let mut config = chain_config(scale, 0.8, None);
            config.warehouse.items_per_case = scale.items_per_case() * m;
            if mobile {
                config.warehouse.shelf_scan = rfid_sim::ShelfScanMode::Mobile {
                    dwell_secs: 10,
                    shelves_per_aisle: config.warehouse.num_shelves,
                };
            }
            let chain = SupplyChainSimulator::new(config.clone()).generate();
            let total_items = chain.objects().len();
            let started = Instant::now();
            let _ = DistributedDriver::new(dist_config(MigrationStrategy::CollapsedWeights))
                .run(&chain);
            let elapsed = started.elapsed();
            let per_site = total_items / config.num_warehouses.max(1) as usize;
            table.push_row(&[
                per_site.to_string(),
                if mobile {
                    "mobile".to_string()
                } else {
                    "static".to_string()
                },
                total_items.to_string(),
                format!("{:.2}", elapsed.as_secs_f64()),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5e_cr_tracks_centralized_and_beats_none_on_average() {
        let series = fig5e(Scale::Smoke);
        let none = &series[0];
        let cr = &series[1];
        let central = &series[2];
        let mean =
            |s: &Series| s.points.iter().map(|(_, y)| y).sum::<f64>() / s.points.len() as f64;
        assert!(
            mean(cr) <= mean(none) + 5.0,
            "CR should not be much worse than None"
        );
        assert!(
            mean(cr) <= mean(central) + 10.0,
            "CR should approximate centralized"
        );
        assert!(!central.points.is_empty());
    }

    #[test]
    fn table5_centralized_dwarfs_cr_costs() {
        let table = table5(Scale::Smoke);
        assert_eq!(table.headers.len(), 5);
        for row in &table.rows {
            let central: f64 = row[1].parse().unwrap();
            let none: f64 = row[2].parse().unwrap();
            let collapsed: f64 = row[3].parse().unwrap();
            assert_eq!(none, 0.0);
            // At smoke scale the gap is tens of times; at the paper's scale
            // (32k items per warehouse) it reaches three orders of magnitude.
            assert!(
                central > 20.0 * collapsed,
                "centralized ({central}) should dwarf collapsed-weight migration ({collapsed})"
            );
        }
    }

    #[test]
    fn parallel_scaling_reports_identical_outcomes_per_row() {
        // the function itself asserts sequential == parallel on every row
        let table = parallel_scaling(Scale::Smoke);
        assert_eq!(table.headers.len(), 6);
        assert_eq!(table.rows.len(), 1);
        let row = &table.rows[0];
        assert_eq!(row[0], "8");
        assert!(row[1].parse::<usize>().unwrap() > 0, "sites must read tags");
        assert!(
            row[2].parse::<usize>().unwrap() > 0,
            "short dwells must produce transfers"
        );
        assert!(row[3].parse::<f64>().unwrap() > 0.0);
        assert!(row[4].parse::<f64>().unwrap() > 0.0);
    }

    #[test]
    fn wire_cost_orders_the_strategies_and_is_tracked() {
        let rows = wire_measurements(Scale::Smoke);
        let bytes: Vec<usize> = rows.iter().map(|r| r.total_bytes).collect();
        assert_eq!(
            rows.iter().map(|r| r.strategy).collect::<Vec<_>>(),
            ["None", "CR-readings", "CollapsedWeights", "Centralized"]
        );
        assert_eq!(bytes[0], 0, "None ships nothing");
        assert!(
            0 < bytes[2] && bytes[2] < bytes[1],
            "collapsed weights undercut CR readings ({bytes:?})"
        );
        assert_eq!(rows[0].messages, 0);
        assert_eq!(rows[1].messages, rows[2].messages);
        assert_eq!(wire_table(&rows).rows.len(), 4);
        let json_doc = wire_json(Scale::Smoke, &rows);
        assert!(json_doc.contains("\"rows\": ["));
        assert!(json_doc.contains("\"strategy\": \"Centralized\", \"format\": \"binary\""));
        assert!(json_doc.trim_end().ends_with('}'));
    }

    #[test]
    fn fault_study_is_executor_deterministic_and_tracked() {
        // the function itself asserts sequential == parallel on every
        // faulted row
        let study = fault_measurements(Scale::Smoke);
        assert_eq!(study.measurements.len(), 4, "one row per strategy");
        assert!(
            study.crashes + study.outages > 0,
            "the lossy preset must schedule site-level faults"
        );
        for m in &study.measurements {
            assert!((0.0..=100.0).contains(&m.baseline_accuracy), "{m:?}");
            assert!((0.0..=100.0).contains(&m.faulted_accuracy), "{m:?}");
            if m.strategy == "None" {
                assert_eq!(m.baseline_bytes, 0);
            } else {
                assert!(m.baseline_bytes > 0, "{}: strategies must ship", m.strategy);
            }
        }
        let table = faults_table(&study);
        assert_eq!(table.headers.len(), 8);
        assert_eq!(table.rows.len(), 4);
        let json = faults_json(Scale::Smoke, &study);
        assert!(json.contains("\"plan\": {"));
        assert!(json.contains("\"strategy\": \"Centralized\""));
        assert!(json.contains("\"degradation_pp\""));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn alert_f_measure_edge_cases() {
        assert_eq!(alert_f_measure(&[], &[]), 100.0);
        let alert = Alert {
            query: "Q1".to_string(),
            tag: TagId::item(1),
            since: Epoch(0),
            at: Epoch(10),
            readings: vec![],
        };
        assert_eq!(alert_f_measure(std::slice::from_ref(&alert), &[]), 0.0);
        assert_eq!(
            alert_f_measure(std::slice::from_ref(&alert), std::slice::from_ref(&alert)),
            100.0
        );
        let other = Alert {
            tag: TagId::item(2),
            ..alert.clone()
        };
        assert!(
            (alert_f_measure(std::slice::from_ref(&alert), &[alert.clone(), other]) - 66.66).abs()
                < 1.0
        );
    }
}
