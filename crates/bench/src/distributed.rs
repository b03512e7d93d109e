//! Distributed experiments: Figures 5(e)–5(f) (one strategy × chain sweep),
//! Table 5, the query-state table of Section 5.4, the scalability study of
//! Section 5.3 and the four tracked extension studies.

use crate::report::{
    Field,
    Kind::{self, Int, Text},
    Report, Section,
};
use crate::{figures, Scale, MILLI, PCT, RATE};
use rfid_core::{InferenceConfig, MemoryBudget};
use rfid_dist::{
    assert_audit, assert_identical, DistributedConfig, DistributedDriver, DistributedOutcome,
    MessageKind, MigrationStrategy,
};
use rfid_eval::PrecisionRecall;
use rfid_query::{Alert, ExposureQuery, QueryProcessor};
use rfid_sim::{
    presets, ChainConfig, ChainTrace, FaultPlan, FaultPlanConfig, SupplyChainSimulator,
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
        ..Default::default()
    }
}

/// Containment error rate (%) of a distributed outcome against the chain's
/// ground truth, evaluated at the end of the trace.
pub fn chain_containment_error(chain: &ChainTrace, outcome: &DistributedOutcome) -> f64 {
    let end = Epoch(chain.sites[0].meta.length);
    let estimate = |object| outcome.container_of(object);
    rfid_eval::containment_error(&chain.containment, estimate, &chain.objects(), end)
}

/// Figures 5(e) and 5(f) from one sweep: distributed inference error of the
/// None / CR (critical-region state migration) / Centralized strategies
/// versus read rate (a change every 60 s) and versus the containment-change
/// interval (read rate 0.8). The point the two figures share is run once.
pub fn fig5e_fig5f(scale: Scale) -> Report {
    let (rates, intervals): (&[f64], &[u32]) = match scale {
        Scale::Smoke => (&[0.7, 0.9], &[60, 120]),
        _ => (&[0.6, 0.7, 0.8, 0.9, 1.0], &[20, 40, 60, 80, 100, 120]),
    };
    let mut measured: Vec<((f64, u32), [f64; 3])> = Vec::new();
    let mut row = |x: Field, rr: f64, interval: u32| -> Vec<Field> {
        let known = measured.iter().find(|(point, _)| *point == (rr, interval));
        let [none, cr, central] = known.map(|(_, errors)| *errors).unwrap_or_else(|| {
            let chain = SupplyChainSimulator::new(chain_config(scale, rr, Some(interval)));
            let chain = chain.generate();
            let errors = [
                MigrationStrategy::None,
                MigrationStrategy::CriticalRegionReadings,
                MigrationStrategy::Centralized,
            ]
            .map(|strategy| {
                let outcome = DistributedDriver::new(dist_config(strategy)).run(&chain);
                chain_containment_error(&chain, &outcome)
            });
            measured.push(((rr, interval), errors));
            errors
        });
        vec![
            x,
            Field::new("None", "none_error_pct", MILLI, none),
            Field::new("CR", "cr_error_pct", MILLI, cr),
            Field::new("Centralized", "centralized_error_pct", MILLI, central),
        ]
    };
    let mut fig5e = Section::new(
        "fig5e",
        "Figure 5(e): distributed error (%) vs read rate — None / CR / Centralized",
    );
    for &rr in rates {
        fig5e.push(row(Field::new("read rate", "read_rate", RATE, rr), rr, 60));
    }
    let mut fig5f = Section::new(
        "fig5f",
        "Figure 5(f): distributed error (%) vs change interval — None / CR / Centralized",
    );
    for &interval in intervals {
        let x = Field::new("interval (s)", "interval_secs", Int, interval);
        fig5f.push(row(x, 0.8, interval));
    }
    figures("fig5e_fig5f", scale, vec![fig5e, fig5f])
}

/// Table 5: communication cost (bytes) of the centralized approach and of the
/// None / CR migration methods, across read rates.
pub fn table5(scale: Scale) -> Report {
    let mut section = Section::new("table5", "Table 5: communication cost (bytes)");
    let rates: &[f64] = match scale {
        Scale::Smoke => &[0.8],
        _ => &[0.6, 0.7, 0.8, 0.9],
    };
    for &rr in rates {
        let chain = SupplyChainSimulator::new(chain_config(scale, rr, None)).generate();
        let bytes = |strategy| {
            let outcome = DistributedDriver::new(dist_config(strategy)).run(&chain);
            outcome.comm.total_bytes()
        };
        #[rustfmt::skip] // one column per line: header, JSON key, kind, value
        section.push(vec![
            Field::new("read rate",      "read_rate",         RATE, rr),
            Field::new("Centralized",    "centralized_bytes", Int,  bytes(MigrationStrategy::Centralized)),
            Field::new("None",           "none_bytes",        Int,  bytes(MigrationStrategy::None)),
            Field::new("CR (collapsed)", "collapsed_bytes",   Int,  bytes(MigrationStrategy::CollapsedWeights)),
            Field::new("CR (readings)",  "readings_bytes",    Int,  bytes(MigrationStrategy::CriticalRegionReadings)),
        ]);
    }
    figures("table5", scale, vec![section])
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
    PrecisionRecall { precision, recall }.f_measure()
}

/// The Section 5.4 table: F-measure and query-state size (with and without
/// centroid-based sharing) for Q1 and Q2 across read rates.
pub fn table_query(scale: Scale) -> Report {
    let mut section = Section::new("table_query", "Section 5.4: query accuracy and state size");
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
            let of_query = |alerts: &[Alert]| -> Vec<Alert> {
                let matching = alerts.iter().filter(|alert| alert.query == query);
                matching.cloned().collect()
            };
            let f_measure = alert_f_measure(&of_query(&truth_alerts), &of_query(&outcome.alerts));
            #[rustfmt::skip] // one column per line: header, JSON key, kind, value
            section.push(vec![
                Field::new("query",                   "query",                Text, query),
                Field::new("read rate",               "read_rate",            RATE, rr),
                Field::new("F-measure (%)",           "f_pct",                PCT,  f_measure),
                Field::new("state w/o share (bytes)", "unshared_state_bytes", Int,  outcome.query_state_unshared_bytes),
                Field::new("state w/ share (bytes)",  "shared_state_bytes",   Int,  outcome.query_state_shared_bytes),
            ]);
        }
    }
    figures("table_query", scale, vec![section])
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

/// The migration strategies every tracked experiment sweeps, in row order.
const STRATEGIES: [(&str, MigrationStrategy); 4] = [
    ("None", MigrationStrategy::None),
    ("CR-readings", MigrationStrategy::CriticalRegionReadings),
    ("CollapsedWeights", MigrationStrategy::CollapsedWeights),
    ("Centralized", MigrationStrategy::Centralized),
];

/// What every tracked file records as its workload: [`short_dwell_chain`]
/// with 8 sites.
const REFERENCE: &str = "8-site short-dwell chain, seed 97, 2400 s";

/// `strategy` on `workers` workers without change detection — the config
/// every run on the [`short_dwell_chain`] starts from.
fn reference_config(strategy: MigrationStrategy, workers: usize) -> DistributedConfig {
    DistributedConfig {
        strategy,
        inference: InferenceConfig::default().without_change_detection(),
        num_workers: workers,
        ..Default::default()
    }
}

/// Containment accuracy (%) of `outcome` against the chain's ground truth.
fn accuracy(chain: &ChainTrace, outcome: &DistributedOutcome) -> f64 {
    100.0 - chain_containment_error(chain, outcome)
}

/// Run `config(workers)` sequentially and on eight workers and require the
/// two outcomes identical in every deterministic field
/// ([`rfid_dist::assert_identical`]), so a tracked table measures the
/// injected faults, never the executor. Both outcomes must also pass the
/// full invariant-oracle battery of [`rfid_dist::audit`]: a run that cannot
/// account for every envelope aborts instead of producing a row. Returns
/// `[sequential, parallel]`.
fn run_on_both_executors(
    chain: &ChainTrace,
    label: &str,
    config: impl Fn(usize) -> DistributedConfig,
) -> [DistributedOutcome; 2] {
    let sequential = DistributedDriver::new(config(1)).run(chain);
    let parallel = DistributedDriver::new(config(8)).run(chain);
    assert_identical(&sequential, &parallel, label);
    assert_audit(chain, &sequential);
    assert_audit(chain, &parallel);
    [sequential, parallel]
}

/// Parallel scale-out: wall-clock of the federated driver at 1, 2 and one
/// worker per site on a wide chain — 8–16 sites with short shelf dwells and
/// a fast injection cadence, so pallets reach the deep sites of the DAG
/// within the horizon and every site stays busy — plus a 64-site chain at 1
/// and 2 workers, which shows the scheduler running many more sites than it
/// has threads.
///
/// Every row's outcome equals its chain's one-worker outcome in every
/// deterministic field ([`rfid_dist::assert_identical`]), so the table
/// isolates pure execution-model cost: coordination overhead on one core,
/// scale-out on many.
pub fn parallel_scaling(scale: Scale) -> Report {
    let mut section = Section::new(
        "parallel_scaling",
        "Parallel scale-out: the federated driver at 1, 2 and one-per-site workers",
    );
    let site_counts: &[u32] = match scale {
        Scale::Smoke => &[8, 64],
        _ => &[8, 12, 16, 64],
    };
    for &sites in site_counts {
        let chain = short_dwell_chain(scale, sites);
        let timed = |workers| {
            let config = reference_config(MigrationStrategy::CollapsedWeights, workers);
            let started = Instant::now();
            let outcome = DistributedDriver::new(config).run(&chain);
            (outcome, started.elapsed().as_secs_f64())
        };
        let (one, one_secs) = timed(1);
        // One thread per site is the point only while sites are few.
        let worker_counts = if sites > 16 {
            vec![1, 2]
        } else {
            vec![1, 2, sites as usize]
        };
        for workers in worker_counts {
            let secs = if workers == 1 {
                one_secs
            } else {
                let (outcome, secs) = timed(workers);
                let label = format!("{sites} sites on {workers} workers");
                assert_identical(&one, &outcome, &label);
                secs
            };
            #[rustfmt::skip] // a wall-clock study: printed, never written
            section.push(vec![
                Field::new("sites",       None, Int,   sites),
                Field::new("workers",     None, Int,   workers),
                Field::new("readings",    None, Int,   chain.total_readings()),
                Field::new("transfers",   None, Int,   chain.transfers.len()),
                Field::new("wall (s)",    None, MILLI, secs),
                Field::new("speedup (x)", None, MILLI, one_secs / secs.max(1e-9)),
            ]);
        }
    }
    figures("parallel_scaling", scale, vec![section])
}

/// Wire cost at the 8-site short-dwell reference scale: for every migration
/// strategy, the full communication bill in encoded bytes — the contents of
/// `BENCH_wire.json`. The constant `"format": "binary"` key keeps the rows
/// comparable with the file's history, which also carried `json` rows.
/// Wall-clock of the same runs is `benchmark/`'s `run_wall_cu`, not a column
/// here, so the file is a pure function of the seed.
pub fn wire(scale: Scale) -> Report {
    let chain = short_dwell_chain(scale, 8);
    let mut rows = Section::new(
        "rows",
        "Wire cost: encoded bytes of all cross-site traffic per strategy",
    );
    for (name, strategy) in STRATEGIES {
        let outcome = DistributedDriver::new(reference_config(strategy, 1)).run(&chain);
        let comm = &outcome.comm;
        let bytes = |kind| comm.bytes_of_kind(kind);
        #[rustfmt::skip] // one column per line: header, JSON key, kind, value
        rows.push(vec![
            Field::new("strategy",     "strategy",        Text, name),
            Field::new(None,           "format",          Text, "binary"),
            Field::new("accuracy (%)", "accuracy_pct",    PCT,  accuracy(&chain, &outcome)),
            Field::new("total bytes",  "total_bytes",     Int,  comm.total_bytes()),
            Field::new("inference",    "inference_bytes", Int,  bytes(MessageKind::InferenceState)),
            Field::new("raw readings", "raw_bytes",       Int,  bytes(MessageKind::RawReadings)),
            Field::new("query state",  "query_bytes",     Int,  bytes(MessageKind::QueryState)),
            Field::new("messages",     "messages",        Int,  comm.total_messages()),
        ]);
    }
    Report {
        experiment: "wire",
        scale,
        reference: REFERENCE,
        metric: None,
        plan: None,
        sections: vec![rows],
    }
}

/// Fault-degradation study at the 8-site short-dwell reference scale: for
/// every migration strategy, containment accuracy and communication cost of
/// the fault-free run versus a run under a seeded lossy [`FaultPlan`] —
/// reader-outage bursts, delayed and duplicated deliveries, and site crashes
/// with real downtime, restored from periodic checkpoints. The contents of
/// `BENCH_faults.json`.
///
/// Every faulted run is executed both sequentially and with one worker per
/// site and asserted bit-identical, so the table measures the *faults*,
/// never the executor. Zero-downtime crashes would not show up at all — the
/// crash-consistency suite pins that recovery from a checkpoint plus journal
/// replay is lossless — so the plan uses crashes with downtime, which lose
/// the down window's readings. Faulted bytes charge duplicated deliveries
/// once — the receiver's dedup drops the second copy (`dedup drops`), and
/// state delayed past its object is merged late (`reconciled`) — and
/// outage-dropped readings never ship. The `Centralized` baseline
/// runs on a single engine with no per-site volatile state, so only reader
/// outages (not crashes or delivery faults) degrade it.
pub fn faults(scale: Scale) -> Report {
    let chain = short_dwell_chain(scale, 8);
    let horizon = chain.sites[0].meta.length;
    let fault_config = FaultPlanConfig {
        crash_probability: 0.5,
        max_downtime_secs: 180,
        ..FaultPlanConfig::lossy(presets::REFERENCE_SEED, 8, horizon)
    };
    let plan = FaultPlan::generate(&fault_config);
    let checkpoint_every: u32 = 300;
    let crashes = plan.sites().iter().filter(|f| f.crash.is_some()).count();
    let outages: usize = plan.sites().iter().map(|f| f.outages.len()).sum();
    let mut rows = Section::new(
        "rows",
        "Fault degradation: accuracy and communication under a seeded lossy fault plan",
    );
    for (name, strategy) in STRATEGIES {
        let baseline = DistributedDriver::new(reference_config(strategy, 1)).run(&chain);
        let [faulted, _] = run_on_both_executors(&chain, name, |workers| {
            reference_config(strategy, workers)
                .with_checkpoints(checkpoint_every)
                .with_faults(plan.clone())
        });
        let (base_acc, fault_acc) = (accuracy(&chain, &baseline), accuracy(&chain, &faulted));
        let (base, fault) = (&baseline.comm, &faulted.comm);
        let stats = faulted.transport;
        #[rustfmt::skip] // one column per line: header, JSON key, kind, value
        rows.push(vec![
            Field::new("strategy",         "strategy",              Text, name),
            Field::new("baseline acc (%)", "baseline_accuracy_pct", PCT,  base_acc),
            Field::new("faulted acc (%)",  "faulted_accuracy_pct",  PCT,  fault_acc),
            Field::new("degradation (pp)", "degradation_pp",        PCT,  base_acc - fault_acc),
            Field::new("baseline bytes",   "baseline_bytes",        Int,  base.total_bytes()),
            Field::new("faulted bytes",    "faulted_bytes",         Int,  fault.total_bytes()),
            Field::new("baseline msgs",    "baseline_messages",     Int,  base.total_messages()),
            Field::new("faulted msgs",     "faulted_messages",      Int,  fault.total_messages()),
            Field::new("dedup drops",      "faulted_duplicates_dropped", Int, stats.duplicates_dropped),
            Field::new("reconciled",       "faulted_reconciled",    Int,  stats.reconciled),
        ]);
    }
    let probability = Kind::Float(3, 3);
    #[rustfmt::skip] // one plan member per line: JSON key, kind, value
    let recorded_plan = vec![
        Field::new(None, "seed",                  Int,         fault_config.seed),
        Field::new(None, "checkpoint_every_secs", Int,         checkpoint_every),
        Field::new(None, "crashes",               Int,         crashes),
        Field::new(None, "outages",               Int,         outages),
        Field::new(None, "delay_probability",     probability, fault_config.delay_probability),
        Field::new(None, "duplicate_probability", probability, fault_config.duplicate_probability),
    ];
    Report {
        experiment: "faults",
        scale,
        reference: REFERENCE,
        metric: Some("containment accuracy (%) and comm cost, fault-free vs lossy plan"),
        plan: Some(recorded_plan),
        sections: vec![rows],
    }
}

/// Transport-degradation study at the 8-site short-dwell reference scale:
/// containment accuracy and total communication (including the Control
/// bytes of acks and resyncs and the payload bytes of retransmissions) for
/// every migration strategy, as the per-attempt loss rate sweeps {0, 0.05,
/// 0.15, 0.30} (ack losses at half the payload rate), plus one scripted
/// scenario that partitions the 0 ↔ 1 link for the entire horizon so the
/// destination demonstrably runs in degraded mode. The contents of
/// `BENCH_degraded.json`.
///
/// As with [`faults`], every run is executed on both executors and asserted
/// bit-identical — the loss/ack/partition draws are pure functions of
/// message keys, so the table measures the *network*, never the executor.
pub fn degraded(scale: Scale) -> Report {
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
        FaultPlan::quiet(8).with_partition(0, 1, Epoch(0), Epoch(horizon)),
    ));
    let mut rows = Section::new(
        "rows",
        "Transport degradation: accuracy and communication under message loss and partitions",
    );
    for (scenario, plan) in &scenarios {
        for (name, strategy) in STRATEGIES {
            let label = format!("{scenario}/{name}");
            let [run, _] = run_on_both_executors(&chain, &label, |workers| {
                reference_config(strategy, workers).with_faults(plan.clone())
            });
            let (comm, stats) = (&run.comm, run.transport);
            let control = comm.bytes_of_kind(MessageKind::Control);
            #[rustfmt::skip] // one column per line: header, JSON key, kind, value
            rows.push(vec![
                Field::new("scenario",      "scenario",           Text, scenario.as_str()),
                Field::new("strategy",      "strategy",           Text, name),
                Field::new("accuracy (%)",  "accuracy_pct",       PCT,  accuracy(&chain, &run)),
                Field::new("total bytes",   "total_bytes",        Int,  comm.total_bytes()),
                Field::new("control bytes", "control_bytes",      Int,  control),
                Field::new("retx",          "retransmissions",    Int,  stats.retransmissions),
                Field::new("dedup drops",   "duplicates_dropped", Int,  stats.duplicates_dropped),
                Field::new("reconciled",    "reconciled",         Int,  stats.reconciled),
                Field::new("abandoned",     "abandoned",          Int,  stats.abandoned),
            ]);
        }
    }
    Report {
        experiment: "degraded",
        scale,
        reference: REFERENCE,
        metric: Some(
            "containment accuracy (%) and comm cost (incl. Control) under transport loss \
             and partitions",
        ),
        plan: Some(vec![
            Field::new(None, "seed", Int, presets::REFERENCE_SEED),
            Field::new(None, "loss_rates", Kind::Float(2, 2), loss_rates),
            Field::new(None, "partition", Text, "0<->1 for the whole horizon"),
        ]),
        sections: vec![rows],
    }
}

/// Chaos soak at the 8-site short-dwell reference scale: a
/// [`FaultPlan::soak_schedule`] of seeded schedules — crashes with downtime
/// restored from checkpoints, reader outages, delivery delay/duplication,
/// transmission and ack loss, link partitions, corrupted wire bytes, rogue
/// tag readings and per-site clock skew, all at once — driven through every
/// migration strategy. The contents of `BENCH_chaos.json`.
///
/// Every soak run is executed on both executors and asserted bit-identical
/// *including* the chaos bookkeeping (quarantine entries, memory counters,
/// per-edge conservation ledgers), and every outcome must pass the full
/// invariant-oracle battery of [`rfid_dist::audit`] — a soak that cannot
/// account for every envelope aborts instead of producing a table. A second
/// section holds schedule 0 fixed and tightens the per-site memory budget
/// under `CollapsedWeights`, measuring what graceful degradation under
/// memory pressure costs in accuracy.
pub fn chaos(scale: Scale) -> Report {
    let chain = short_dwell_chain(scale, 8);
    let horizon = chain.sites[0].meta.length;
    let schedules = match scale {
        Scale::Smoke => 2,
        _ => 3,
    };
    let checkpoint_every: u32 = 300;
    let plans = FaultPlan::soak_schedule(presets::REFERENCE_SEED, schedules, 8, horizon);
    let mut soak = Section::new(
        "soak",
        "Chaos soak: every fault family at once, all invariant oracles asserted",
    );
    for (i, chaos) in plans.iter().enumerate() {
        for (name, strategy) in STRATEGIES {
            let label = format!("schedule {i}/{name}");
            let [run, _] = run_on_both_executors(&chain, &label, |workers| {
                reference_config(strategy, workers)
                    .with_checkpoints(checkpoint_every)
                    .with_faults(chaos.clone())
            });
            let stats = run.transport;
            #[rustfmt::skip] // one column per line: header, JSON key, kind, value
            soak.push(vec![
                Field::new("schedule",       "schedule",           Int,  i),
                Field::new(None,             "seed",               Int,  chaos.config().seed),
                Field::new("strategy",       "strategy",           Text, name),
                Field::new("accuracy (%)",   "accuracy_pct",       PCT,  accuracy(&chain, &run)),
                Field::new("total bytes",    "total_bytes",        Int,  run.comm.total_bytes()),
                Field::new("quarantined",    "quarantined",        Int,  stats.quarantined),
                Field::new("resyncs",        "resyncs",            Int,  stats.resyncs),
                Field::new("abandoned",      "abandoned",          Int,  stats.abandoned),
                Field::new("dedup drops",    "duplicates_dropped", Int,  stats.duplicates_dropped),
                Field::new("mem high-water", "memory_high_water",  Int,  run.memory.high_water),
            ]);
        }
    }
    let mut memory = Section::new(
        "memory",
        "Graceful degradation: accuracy vs per-site memory budget (schedule 0, CollapsedWeights)",
    );
    for (label, budget) in [
        ("unbounded", MemoryBudget::unbounded()),
        ("4096", MemoryBudget::capped(4096)),
        ("1024", MemoryBudget::capped(1024)),
        ("256", MemoryBudget::capped(256)),
    ] {
        let config = reference_config(MigrationStrategy::CollapsedWeights, 1)
            .with_checkpoints(checkpoint_every)
            .with_faults(plans[0].clone())
            .with_memory_budget(budget);
        let outcome = DistributedDriver::new(config).run(&chain);
        assert_audit(&chain, &outcome);
        let mem = outcome.memory;
        #[rustfmt::skip] // one column per line: header, JSON key, kind, value
        memory.push(vec![
            Field::new("budget (obs)",  "budget",                 Text, label),
            Field::new("accuracy (%)",  "accuracy_pct",           PCT,  accuracy(&chain, &outcome)),
            Field::new("high-water",    "high_water",             Int,  mem.high_water),
            Field::new("compactions",   "compactions",            Int,  mem.compactions),
            Field::new("compacted obs", "compacted_observations", Int,  mem.compacted_observations),
            Field::new("evicted cache", "evicted_cache_entries",  Int,  mem.evicted_cache_entries),
        ]);
    }
    let total = |section: &Section, key| section.ints(key).iter().sum::<u64>();
    eprintln!(
        "[chaos soak: {} runs, {} envelopes quarantined, {} resyncs, \
         {} cache entries evicted under budget; every run passed all invariant oracles]",
        soak.rows().len() * 2 + memory.rows().len(),
        total(&soak, "quarantined"),
        total(&soak, "resyncs"),
        total(&memory, "evicted_cache_entries"),
    );
    Report {
        experiment: "chaos",
        scale,
        reference: REFERENCE,
        metric: Some(
            "containment accuracy (%) and degradation counters under full-fault chaos \
             schedules, all invariant oracles asserted",
        ),
        plan: Some(vec![
            Field::new(None, "master_seed", Int, presets::REFERENCE_SEED),
            Field::new(None, "schedules", Int, plans.len()),
            Field::new(None, "checkpoint_every_secs", Int, checkpoint_every),
        ]),
        sections: vec![soak, memory],
    }
}

/// Section 5.3 scalability: wall-clock time of distributed inference as the
/// number of items per warehouse grows, with static and mobile shelf readers.
pub fn scalability(scale: Scale) -> Report {
    let mut section = Section::new(
        "scalability",
        "Section 5.3: scalability (distributed inference wall-clock)",
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
            let elapsed = started.elapsed().as_secs_f64();
            let per_site = total_items / config.num_warehouses.max(1) as usize;
            let readers = if mobile { "mobile" } else { "static" };
            #[rustfmt::skip] // a wall-clock study: printed, never written
            section.push(vec![
                Field::new("items per warehouse", None, Int,   per_site),
                Field::new("shelf readers",       None, Text,  readers),
                Field::new("total items",         None, Int,   total_items),
                Field::new("inference time (s)",  None, MILLI, elapsed),
            ]);
        }
    }
    figures("scalability", scale, vec![section])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{cell, tests::by_header, Cell};

    #[test]
    fn fig5e_cr_mean_error_within_5pp_of_none_and_10pp_of_centralized() {
        let report = fig5e_fig5f(Scale::Smoke);
        let fig5e = report.section("fig5e");
        assert_eq!(fig5e.floats("read_rate"), [0.7, 0.9]);
        let mean = |key| {
            let errors = fig5e.floats(key);
            errors.iter().sum::<f64>() / errors.len() as f64
        };
        assert!(
            mean("cr_error_pct") <= mean("none_error_pct") + 5.0,
            "CR should not be much worse than None"
        );
        assert!(
            mean("cr_error_pct") <= mean("centralized_error_pct") + 10.0,
            "CR should approximate centralized"
        );
        assert_eq!(report.section("fig5f").ints("interval_secs"), [60, 120]);
    }

    #[test]
    fn table5_centralized_dwarfs_cr_costs() {
        let report = table5(Scale::Smoke);
        let table = report.section("table5");
        assert_eq!(table.table().headers.len(), 5);
        assert!(table.ints("none_bytes").iter().all(|&bytes| bytes == 0));
        let (central, collapsed) = (
            table.ints("centralized_bytes"),
            table.ints("collapsed_bytes"),
        );
        for (central, collapsed) in central.into_iter().zip(collapsed) {
            // The ratio that holds at both scales: 24× at smoke, 11–17× at
            // `--scale default` (read rates 0.6–0.9) — not the paper's three
            // orders of magnitude.
            assert!(
                0 < collapsed && collapsed * 10 <= central,
                "collapsed-weight migration ({collapsed}) should stay within 10 % of \
                 centralized ({central})"
            );
        }
    }

    #[test]
    fn parallel_scaling_reports_identical_outcomes_per_row() {
        // the function itself asserts every row's outcome == its 1-worker one
        let report = parallel_scaling(Scale::Smoke);
        let section = report.section("parallel_scaling");
        assert_eq!(section.table().headers.len(), 6);
        let ints = |header| -> Vec<usize> {
            by_header(section, header)
                .iter()
                .map(|cell| match cell {
                    Cell::Int(n) => *n as usize,
                    other => panic!("{header}: an exact count per row, not {other:?}"),
                })
                .collect()
        };
        assert_eq!(ints("sites"), [8, 8, 8, 64, 64]);
        // 64 sites run on 2 workers, not on one thread per site.
        assert_eq!(ints("workers"), [1, 2, 8, 1, 2]);
        assert!(
            ints("readings").iter().all(|&n| n > 0),
            "sites must read tags"
        );
        assert!(
            ints("transfers").iter().all(|&n| n > 0),
            "short dwells must produce transfers"
        );
        for cell in by_header(section, "wall (s)") {
            assert!(matches!(cell, Cell::Float(secs) if secs > 0.0));
        }
        assert!(!section.is_tracked(), "a wall-clock study writes no file");
    }

    fn assert_percentages(section: &Section, key: &str) {
        for value in section.column(key) {
            let Cell::Float(pct) = value else {
                panic!("{key}: {value:?} is not a float")
            };
            assert!((0.0..=100.0).contains(&pct), "{key}: {pct}");
        }
    }

    #[test]
    fn wire_cost_orders_the_strategies_and_is_tracked() {
        let report = wire(Scale::Smoke);
        let rows = &report.sections[0];
        let bytes = rows.ints("total_bytes");
        assert_eq!(
            rows.column("strategy"),
            ["None", "CR-readings", "CollapsedWeights", "Centralized"].map(Cell::from)
        );
        assert_eq!(bytes[0], 0, "None ships nothing");
        assert!(
            0 < bytes[2] && bytes[2] < bytes[1],
            "collapsed weights undercut CR readings ({bytes:?})"
        );
        let messages = rows.ints("messages");
        assert_eq!(messages[0], 0);
        assert_eq!(messages[1], messages[2]);
        assert_eq!(rows.table().rows.len(), 4);
        let json_doc = report.json();
        assert!(json_doc.contains("\"rows\": ["));
        assert!(json_doc.contains("\"strategy\": \"Centralized\", \"format\": \"binary\""));
        assert!(json_doc.trim_end().ends_with('}'));
        assert!(
            !json_doc.contains("wall"),
            "the tracked file is a pure function of the seed"
        );
    }

    #[test]
    fn fault_study_is_executor_deterministic_and_tracked() {
        // the function itself asserts sequential == parallel on every
        // faulted row
        let report = faults(Scale::Smoke);
        let rows = &report.sections[0];
        assert_eq!(rows.rows().len(), STRATEGIES.len(), "one row per strategy");
        let plan = report.plan.as_ref().expect("the injected plan is recorded");
        assert!(
            [cell(plan, "crashes"), cell(plan, "outages")] != [&Cell::Int(0); 2],
            "the lossy preset must schedule site-level faults"
        );
        assert_percentages(rows, "baseline_accuracy_pct");
        assert_percentages(rows, "faulted_accuracy_pct");
        let baseline_bytes = rows.ints("baseline_bytes");
        let absorbed = [
            rows.ints("faulted_duplicates_dropped"),
            rows.ints("faulted_reconciled"),
        ];
        for (i, (strategy, _)) in STRATEGIES.into_iter().enumerate() {
            if strategy == "None" {
                assert_eq!(baseline_bytes[i], 0);
            } else {
                assert!(baseline_bytes[i] > 0, "{strategy}: strategies must ship");
            }
            // Only envelopes crossing a federated edge can be duplicated or
            // delayed, and the receiver must be seen absorbing both.
            let federated = strategy == "CR-readings" || strategy == "CollapsedWeights";
            for counts in &absorbed {
                assert_eq!(counts[i] > 0, federated, "{strategy}");
            }
        }
        let table = rows.table();
        assert_eq!(table.headers.len(), 10);
        assert_eq!(table.rows.len(), 4);
        let json = report.json();
        assert!(json.contains("\"plan\": {"));
        assert!(json.contains("\"strategy\": \"Centralized\""));
        assert!(json.contains("\"degradation_pp\""));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn degraded_study_sweeps_every_scenario_and_is_tracked() {
        // the function itself asserts sequential == parallel on every row
        let report = degraded(Scale::Smoke);
        let rows = &report.sections[0];
        let scenario = rows.column("scenario");
        let mut scenarios = scenario.clone();
        scenarios.dedup();
        assert_eq!(scenarios.len(), 5, "four loss rates plus the partition");
        assert_eq!(rows.rows().len(), scenarios.len() * STRATEGIES.len());
        assert_percentages(rows, "accuracy_pct");
        let total = rows.ints("total_bytes");
        let control = rows.ints("control_bytes");
        let retransmissions = rows.ints("retransmissions");
        let abandoned = rows.ints("abandoned");
        for (i, strategy) in rows.column("strategy").into_iter().enumerate() {
            let name = STRATEGIES[i % STRATEGIES.len()].0;
            assert_eq!(strategy, name.into());
            let label = format!("{:?}/{name}", scenario[i]);
            assert!(
                control[i] <= total[i],
                "{label}: Control is part of the total"
            );
            if name == "None" {
                assert_eq!(total[i], 0, "{label}: None ships nothing to lose");
            } else if scenario[i] == "loss 0.00".into() {
                assert_eq!((control[i], retransmissions[i]), (0, 0), "{label}");
            } else if scenario[i] == "loss 0.30".into() {
                assert!(retransmissions[i] > 0 && control[i] > 0, "{label}");
            } else if scenario[i] == "partition 0<->1".into() && name != "Centralized" {
                // Centralized uplinks go site -> server, never over 0 <-> 1
                assert!(abandoned[i] > 0, "{label}: the cut link must give up");
            }
        }
        assert_eq!(rows.table().headers.len(), 9);
        let json = report.json();
        assert!(json.contains("\"loss_rates\": [0.00, 0.05, 0.15, 0.30]"));
        assert!(json.contains("\"scenario\": \"partition 0<->1\", \"strategy\": \"None\""));
    }

    #[test]
    fn chaos_soak_is_audited_and_tracked() {
        // the function itself asserts sequential == parallel and runs the
        // invariant oracles on every soak row
        let report = chaos(Scale::Smoke);
        let soak = &report.sections[0];
        let plan = report.plan.as_ref().expect("the soak plan is recorded");
        assert_eq!(cell(plan, "schedules"), &Cell::Int(2));
        assert_eq!(soak.rows().len(), 2 * STRATEGIES.len());
        let mut seeds = soak.ints("seed");
        seeds.dedup();
        assert_eq!(seeds.len(), 2, "one derived seed per schedule");
        assert_percentages(soak, "accuracy_pct");
        let bytes = soak.ints("total_bytes");
        let (schedule, high_water) = (soak.ints("schedule"), soak.ints("memory_high_water"));
        for (i, strategy) in soak.column("strategy").into_iter().enumerate() {
            let name = STRATEGIES[i % STRATEGIES.len()].0;
            assert_eq!(strategy, name.into());
            assert_eq!(schedule[i] as usize, i / STRATEGIES.len());
            assert!(high_water[i] > 0, "{name}");
            if name == "None" {
                // no inference state ships, so there is no payload envelope
                // to poison, give up on or deduplicate — only resync requests
                let envelopes = ["quarantined", "abandoned", "duplicates_dropped"];
                assert!(envelopes.iter().all(|key| soak.ints(key)[i] == 0));
                assert!(bytes[i] < bytes[i + 2], "None undercuts CollapsedWeights");
            }
        }
        assert!(
            soak.ints("quarantined").iter().sum::<u64>() > 0,
            "the soak must corrupt at least one envelope"
        );
        assert_eq!(soak.table().headers.len(), 9, "the seed is JSON-only");

        let memory = &report.sections[1];
        assert_eq!(
            memory.column("budget"),
            ["unbounded", "4096", "1024", "256"].map(Cell::from)
        );
        assert_percentages(memory, "accuracy_pct");
        let high_water = memory.ints("high_water");
        assert!(
            high_water.windows(2).all(|w| w[1] <= w[0]),
            "{high_water:?}"
        );
        let compactions = memory.ints("compactions");
        assert_eq!(compactions[0], 0, "unbounded never compacts");
        assert!(compactions[3] > 0, "256 must compact");
        let json = report.json();
        assert!(json.contains("\"soak\": [") && json.contains("\"memory\": ["));
        assert!(json.contains("\"plan\": {\"master_seed\": 97, \"schedules\": 2, "));
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
