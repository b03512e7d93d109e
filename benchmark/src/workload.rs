//! The six benchmark workloads. All share one supply chain — the ROADMAP
//! reference scale: 8 sites, fanout 2, short shelf dwells, 2400 s — generated
//! from `--seed`; they differ only in the `DistributedConfig` the driver is
//! given. The product only ever sees the generated `ChainTrace` and config.

use crate::calib::splitmix;
use rfid::core::{InferenceConfig, MemoryBudget};
use rfid::dist::{DistributedConfig, MigrationStrategy, WireFormat};
use rfid::query::{Alert, ExposureQuery, QueryProcessor};
use rfid::sim::{ChainConfig, ChainTrace, SupplyChainSimulator, TemperatureModel, WarehouseConfig};
use rfid::types::{Epoch, LocationId, ObjectEvent, TagId};
use rfid::ChaosPlan;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Sites in the reference chain.
pub const SITES: u32 = 8;
/// Horizon of the reference chain, in seconds of simulated time.
pub const REFERENCE_HORIZON: u32 = 2400;
/// The seed whose outcome the checked-in `BENCH_wire.json` records.
pub const REFERENCE_SEED: u64 = 97;
/// Checkpoint period of `chaos_durable`, in seconds of simulated time.
pub const CHECKPOINT_EVERY: u32 = 300;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SteadyCollapsed,
    ReadingsHeavy,
    CentralizedUplink,
    MonitoringQueries,
    ChaosDurable,
    ParallelCollapsed,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::SteadyCollapsed,
        Workload::ReadingsHeavy,
        Workload::CentralizedUplink,
        Workload::MonitoringQueries,
        Workload::ChaosDurable,
        Workload::ParallelCollapsed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyCollapsed => "steady_collapsed",
            Workload::ReadingsHeavy => "readings_heavy",
            Workload::CentralizedUplink => "centralized_uplink",
            Workload::MonitoringQueries => "monitoring_queries",
            Workload::ChaosDurable => "chaos_durable",
            Workload::ParallelCollapsed => "parallel_collapsed",
        }
    }

    /// Why the workload exists: which layers it loads that the others do not.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SteadyCollapsed => {
                "headline CollapsedWeights method: RFINFER dominates, wire and transport idle, so a core gain shows and a codec gain must not"
            }
            Workload::ReadingsHeavy => {
                "CR-readings ships ~1 MB in thousands of small payloads and re-ingests them: export, codec, import and dirty-set work show here"
            }
            Workload::CentralizedUplink => {
                "separate run_centralized path: bulk raw-reading batches into one global engine with few huge inference runs"
            }
            Workload::MonitoringQueries => {
                "full monitoring pipeline: events_at, query processor, centroid sharing, bundle codec and GLR change-point detection"
            }
            Workload::ChaosDurable => {
                "checkpoints, crash restore, retransmits, quarantine and resync under a seeded chaos plan; supplies the abandoned-envelope share"
            }
            Workload::ParallelCollapsed => {
                "steady_collapsed on the thread-per-site executor: same work and outcome, so the ratio is pure coordination cost"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether `DistributedConfig::num_workers` is 1, so that allocation
    /// counts repeat exactly.
    pub fn single_worker(self) -> bool {
        self != Workload::ParallelCollapsed
    }

    /// Whether the run injects faults (the replay is then not held to the
    /// fidelity rule).
    pub fn fault_free(self) -> bool {
        self != Workload::ChaosDurable
    }
}

/// Worker threads of `parallel_collapsed`: never more than the cores.
pub fn parallel_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

/// Everything a run needs, generated from the seed, plus how long each part
/// of the set-up took.
pub struct Prepared {
    pub chain: ChainTrace,
    pub config: DistributedConfig,
    /// Ground-truth alerts (empty unless the workload registers queries).
    pub truth_alerts: Vec<Alert>,
    pub chain_gen_s: f64,
    pub fault_plan_gen_s: f64,
    pub setup_s: f64,
}

/// The reference chain for `seed` over `horizon` seconds.
pub fn generate_chain(seed: u64, horizon: u32, anomaly_interval: Option<u32>) -> ChainTrace {
    let mut warehouse = WarehouseConfig::default()
        .with_length(horizon)
        .with_items_per_case(20)
        .with_cases_per_pallet(3)
        .with_seed(seed);
    warehouse.shelf_dwell_min = 60;
    warehouse.shelf_dwell_max = 180;
    warehouse.pallet_injection_interval = 120;
    warehouse.anomaly_interval = anomaly_interval;
    SupplyChainSimulator::new(ChainConfig {
        warehouse,
        num_warehouses: SITES,
        transit_secs: 60,
        fanout: 2,
    })
    .generate()
}

/// `steady_collapsed`'s configuration: the sequential executor that
/// `parallel_collapsed` must agree with and is compared to.
pub fn steady_config() -> DistributedConfig {
    base_config(MigrationStrategy::CollapsedWeights)
}

/// The steady configuration every workload starts from.
fn base_config(strategy: MigrationStrategy) -> DistributedConfig {
    DistributedConfig {
        strategy,
        inference: InferenceConfig::default().without_change_detection(),
        wire_format: WireFormat::Binary,
        ..Default::default()
    }
}

/// Build the chain, fault plan, query ground truth and driver config of
/// `workload` from `seed`. This whole function is what `setup_s` times.
pub fn prepare(workload: Workload, seed: u64, horizon: u32) -> Prepared {
    let started = Instant::now();
    let anomaly = (workload == Workload::MonitoringQueries).then_some(600);
    let chain = generate_chain(seed, horizon, anomaly);
    let chain_gen_s = started.elapsed().as_secs_f64();

    let mut fault_plan_gen_s = 0.0;
    let mut truth_alerts = Vec::new();
    let config = match workload {
        Workload::SteadyCollapsed => steady_config(),
        Workload::ReadingsHeavy => base_config(MigrationStrategy::CriticalRegionReadings),
        Workload::CentralizedUplink => base_config(MigrationStrategy::Centralized),
        Workload::ParallelCollapsed => steady_config().with_workers(parallel_workers()),
        Workload::ChaosDurable => {
            let plan_started = Instant::now();
            // Derived, not shared: the fault stream must not correlate with
            // the chain's own dwell and reading draws.
            let plan = ChaosPlan::soak(splitmix(seed ^ 0xc4a0_5bad), SITES as u16, horizon);
            fault_plan_gen_s = plan_started.elapsed().as_secs_f64();
            base_config(MigrationStrategy::CollapsedWeights)
                .with_checkpoints(CHECKPOINT_EVERY)
                .with_memory_budget(MemoryBudget::unbounded())
                .with_faults(plan.into_plan())
        }
        Workload::MonitoringQueries => {
            let temperature = TemperatureModel::new([LocationId(2)]);
            let properties: BTreeMap<TagId, String> = chain
                .objects()
                .into_iter()
                .map(|object| {
                    let class = if object.serial() % 2 == 0 {
                        "temperature-sensitive"
                    } else {
                        "frozen-food"
                    };
                    (object, class.to_string())
                })
                .collect();
            let queries = vec![
                ExposureQuery {
                    duration_secs: 300,
                    ..ExposureQuery::q1([])
                },
                ExposureQuery {
                    duration_secs: 400,
                    temp_threshold: 10.0,
                    ..ExposureQuery::q2()
                },
            ];
            let mut config = base_config(MigrationStrategy::CollapsedWeights);
            config.inference = InferenceConfig::default();
            truth_alerts = ground_truth_alerts(
                &chain,
                &queries,
                &temperature,
                &properties,
                config.event_stride_secs,
            );
            config.queries = queries;
            config.product_properties = properties;
            config.temperature = Some(temperature);
            config
        }
    };
    Prepared {
        chain,
        config,
        truth_alerts,
        chain_gen_s,
        fault_plan_gen_s,
        setup_s: started.elapsed().as_secs_f64(),
    }
}

/// Alerts the queries raise over the *true* object events (true location and
/// containment), against which the inferred alerts are scored.
fn ground_truth_alerts(
    chain: &ChainTrace,
    queries: &[ExposureQuery],
    temperature: &TemperatureModel,
    properties: &BTreeMap<TagId, String>,
    stride: u32,
) -> Vec<Alert> {
    let horizon = chain.sites[0].meta.length;
    let mut processor = QueryProcessor::new();
    for query in queries {
        processor.register(query.clone());
    }
    for reading in temperature.generate(chain.sites[0].meta.num_locations, Epoch(horizon)) {
        processor.on_sensor(reading);
    }
    let objects = chain.objects();
    for t in (0..=horizon).step_by(stride.max(1) as usize) {
        let now = Epoch(t);
        for &object in &objects {
            let Some(location) = chain
                .sites
                .iter()
                .find_map(|site| site.truth.location_at(object, now))
            else {
                continue;
            };
            let mut event = ObjectEvent::new(
                now,
                object,
                location,
                chain.containment.container_at(object, now),
            );
            event.property = properties.get(&object).cloned();
            processor.on_event(&event);
        }
    }
    processor.alerts().to_vec()
}

/// Share (%) of objects whose inferred container equals the true one at the
/// horizon.
pub fn containment_accuracy_pct(
    chain: &ChainTrace,
    container_of: impl Fn(TagId) -> Option<TagId>,
) -> f64 {
    let end = Epoch(chain.sites[0].meta.length);
    let objects = chain.objects();
    if objects.is_empty() {
        return 100.0;
    }
    let right = objects
        .iter()
        .filter(|&&o| container_of(o) == chain.containment.container_at(o, end))
        .count();
    100.0 * right as f64 / objects.len() as f64
}

/// F-measure (%) of inferred against true alerts, matched on (query, object).
/// 100 when neither side raised any — no queries registered.
pub fn alert_f1_pct(truth: &[Alert], inferred: &[Alert]) -> f64 {
    let keys = |alerts: &[Alert]| -> BTreeSet<(String, TagId)> {
        alerts.iter().map(|a| (a.query.clone(), a.tag)).collect()
    };
    let (truth, inferred) = (keys(truth), keys(inferred));
    if truth.is_empty() && inferred.is_empty() {
        return 100.0;
    }
    let matched = truth.intersection(&inferred).count() as f64;
    if matched == 0.0 {
        return 0.0;
    }
    let precision = matched / inferred.len() as f64;
    let recall = matched / truth.len() as f64;
    100.0 * 2.0 * precision * recall / (precision + recall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_chain() {
        let a = generate_chain(5, 400, None);
        let b = generate_chain(5, 400, None);
        let c = generate_chain(6, 400, None);
        assert_eq!(a.total_readings(), b.total_readings());
        assert_eq!(a.transfers, b.transfers);
        assert_eq!(a.objects(), b.objects());
        assert!(
            a.total_readings() != c.total_readings() || a.transfers != c.transfers,
            "another seed must give another chain"
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
            assert!(workload.why().len() <= 200);
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn alert_f1_handles_the_empty_cases() {
        let alert = |query: &str, serial: u64| Alert {
            query: query.to_string(),
            tag: TagId::item(serial),
            since: Epoch(0),
            at: Epoch(10),
            readings: Vec::new(),
        };
        assert_eq!(alert_f1_pct(&[], &[]), 100.0);
        assert_eq!(alert_f1_pct(&[alert("Q1", 1)], &[]), 0.0);
        assert_eq!(alert_f1_pct(&[alert("Q1", 1)], &[alert("Q1", 1)]), 100.0);
        let half = alert_f1_pct(&[alert("Q1", 1), alert("Q1", 2)], &[alert("Q1", 1)]);
        assert!((half - 200.0 / 3.0).abs() < 1e-9);
    }
}
