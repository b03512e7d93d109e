//! The metric registry: every metric the benchmark emits, with its unit,
//! direction, regression bound (end-to-end metrics only) and the layer it
//! belongs to. `list` prints this table; `BENCHMARK.json` mirrors it and
//! `ci.sh` checks the two against each other.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Definition of one metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline median by which the metric
    /// may get worse before `agree` (and the pipeline) call it a regression.
    pub bound: Option<f64>,
    /// Whether two runs of one commit with one seed must report the very
    /// same value.
    pub exact: bool,
    /// What the metric measures and which end-to-end metric it should move.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        note,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports all of them. A run
/// measures several chains derived from its seed: counted metrics are their
/// mean, timed ones their median. Bounds are at least three times the
/// quartile spread seen over ten seeds on the noisiest workload (README.md,
/// "Noise study"): the pipeline draws a new seed for every run, so a bound
/// has to clear seed-to-seed variation, not just the clock's.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, false,
        "median of the set-up repetitions, in calibrated seconds (wall / calibration wall x 35 ms): chain generation + fault plan + query ground truth + config build; work moved out of the run shows here"),
    e2e("run_wall_cu", "cu", Lower, 0.25, false,
        "per chain, median over the timed reps of DistributedDriver::run wall / mean of the bracketing calibration walls; then the median over chains"),
    e2e("comm_bytes", "B", Lower, 0.20, true,
        "outcome.comm.total_bytes(), mean over chains: the paper's Table 5 cost"),
    e2e("comm_messages", "count", Lower, 0.08, true,
        "outcome.comm.total_messages(), mean over chains"),
    e2e("containment_acc_pct", "%", Higher, 0.07, true,
        "objects whose inferred container equals ground truth at the horizon, over all chains"),
    e2e("alert_f1_pct", "%", Higher, 0.07, true,
        "F-measure of outcome.alerts against ground-truth alerts, mean over chains (monitoring_queries; 100 elsewhere by convention, no queries registered)"),
    e2e("envelopes_delivered_pct", "%", Higher, 0.03, true,
        "100 - transport.abandoned / transport.envelopes, mean over chains: the share of migrating state that arrived; 100 on fault-free workloads"),
    e2e("peak_rss_mb", "MiB", Lower, 0.20, false,
        "VmHWM of the workload's process after the timed reps"),
];

/// Single-layer metrics, named `<layer>.<metric>` after the module they
/// measure. Counters come from the traced driver run's public outcome,
/// `_s` times from the replay trace (self time of the layer's spans).
pub const PER_LAYER: &[MetricDef] = &[
    // sim: set-up cost and input size -> setup_s everywhere.
    layer("sim.chain_gen_s", "s", Lower, "SupplyChainSimulator::generate -> setup_s"),
    layer("sim.fault_plan_gen_s", "s", Lower, "ChaosPlan::soak -> setup_s on chaos_durable; 0 elsewhere"),
    layer("sim.readings", "count", Lower, "raw readings in the chain (input size)"),
    layer("sim.transfers", "count", Lower, "inter-site object transfers (input size)"),
    layer("sim.objects", "count", Lower, "distinct objects (input size)"),
    // core: RFINFER and the engine's state handling -> run_wall_cu.
    layer("core.observe_s", "s", Lower, "InferenceEngine::observe, all readings -> run_wall_cu everywhere"),
    layer("core.observe_ns_per_reading", "ns", Lower, "core.observe_s / readings observed"),
    layer("core.infer_s", "s", Lower, "driver outcome.inference_wall, median over the reps -> run_wall_cu: ~2/3 of steady_collapsed, ~3/4 of centralized_uplink, ~2/5 of chaos_durable"),
    layer("core.infer_runs", "count", Lower, "driver outcome.inference_runs"),
    layer("core.infer_ms_per_run", "ms", Lower, "core.infer_s / core.infer_runs; a higher reuse ratio must show here or it is not a gain"),
    layer("core.infer_share_pct", "%", Lower, "core.infer_s / dist.run_wall_s"),
    layer("core.dirty_tags", "count", Lower, "inference_stats.dirty_tags summed over runs"),
    layer("core.posterior_reuse_ratio", "ratio", Higher, "E-step posteriors served from the cache / all"),
    layer("core.evidence_reuse_ratio", "ratio", Higher, "point-evidence values served from the cache / all"),
    layer("core.events_at_s", "s", Lower, "InferenceEngine::events_at -> run_wall_cu on monitoring_queries; 0 elsewhere"),
    layer("core.export_s", "s", Lower, "export_collapsed / export_readings -> run_wall_cu on readings_heavy"),
    layer("core.import_s", "s", Lower, "import_state -> run_wall_cu on readings_heavy"),
    layer("core.forget_s", "s", Lower, "InferenceEngine::forget per departed tag"),
    layer("core.snapshot_s", "s", Lower, "InferenceEngine::snapshot -> run_wall_cu on chaos_durable; 0 elsewhere"),
    layer("core.restore_s", "s", Lower, "InferenceEngine::restore at each planned crash -> chaos_durable"),
    layer("core.changepoint_s", "s", Lower, "replay inference time with minus without change detection -> monitoring_queries; 0 elsewhere"),
    layer("core.memory_high_water_obs", "count", Lower, "largest per-engine observation store in the replay -> peak_rss_mb, most on centralized_uplink"),
    // wire: the codec, per payload kind. Bytes move comm_bytes one for one,
    // times move run_wall_cu only through encode/decode.
    layer("wire.encode_migration_s", "s", Lower, "WireCodec::encode_migration -> run_wall_cu on readings_heavy, ~nothing on steady_collapsed"),
    layer("wire.decode_migration_s", "s", Lower, "WireCodec::decode_migration -> as encode"),
    layer("wire.migration_bytes", "B", Lower, "replay-encoded inference-state bytes -> comm_bytes"),
    layer("wire.migration_mb_per_s", "MB/s", Higher, "migration bytes / (encode + decode time)"),
    layer("wire.encode_readings_s", "s", Lower, "WireCodec::encode_readings -> centralized_uplink only"),
    layer("wire.decode_readings_s", "s", Lower, "WireCodec::decode_readings -> centralized_uplink only"),
    layer("wire.readings_bytes", "B", Lower, "replay-encoded raw-reading batch bytes -> comm_bytes on centralized_uplink"),
    layer("wire.encode_bundle_s", "s", Lower, "WireCodec::encode_bundle -> monitoring_queries only"),
    layer("wire.decode_bundle_s", "s", Lower, "WireCodec::decode_bundle -> monitoring_queries only"),
    layer("wire.bundle_bytes", "B", Lower, "replay-encoded query-state bundle bytes -> comm_bytes on monitoring_queries"),
    layer("wire.encode_checkpoint_s", "s", Lower, "WireCodec::encode_checkpoint -> chaos_durable only: large rare payloads"),
    layer("wire.decode_checkpoint_s", "s", Lower, "WireCodec::decode_checkpoint -> chaos_durable only"),
    layer("wire.checkpoint_bytes", "B", Lower, "encoded SiteCheckpoint bytes (local durable state, not in comm_bytes)"),
    layer("wire.checkpoints", "count", Lower, "checkpoints cut in the replay"),
    layer("wire.control_bytes", "B", Lower, "driver comm bytes of kind Control (acks, resyncs) -> chaos_durable only"),
    layer("wire.decode_errors", "count", Lower, "payloads the replay's decode rejected (poisoned envelopes) -> chaos_durable only"),
    // query: the monitoring pipeline -> run_wall_cu and comm on monitoring_queries.
    layer("query.on_event_s", "s", Lower, "QueryProcessor::on_event -> run_wall_cu on monitoring_queries; 0 elsewhere"),
    layer("query.on_sensor_s", "s", Lower, "QueryProcessor::on_sensor -> monitoring_queries"),
    layer("query.events_in", "count", Lower, "events fed to the processors in the replay"),
    layer("query.alerts_out", "count", Higher, "driver outcome.alerts.len()"),
    layer("query.export_state_s", "s", Lower, "QueryProcessor::export_state -> monitoring_queries"),
    layer("query.import_state_s", "s", Lower, "QueryProcessor::import_state -> monitoring_queries"),
    layer("query.share_states_s", "s", Lower, "share_states_with, including the payload closure -> monitoring_queries"),
    layer("query.share_ratio", "ratio", Lower, "driver shared / unshared query-state bytes; 1 when nothing is shared"),
    layer("query.tracked_states", "count", Lower, "automaton states alive at the end of the replay"),
    // dist: the driver as a whole, and what no layer accounts for.
    layer("dist.run_wall_s", "s", Lower, "median raw wall of DistributedDriver::run in this process (not gated: the machine drifts)"),
    layer("dist.run_wall_s_hi", "s", Lower, "highest percentile of the raw wall with 10 samples beyond it (median when <= 10 reps)"),
    layer("dist.run_wall_cu_hi", "cu", Lower, "the same percentile of run_wall_cu"),
    layer("dist.run_wall_hi_pct", "%", Lower, "which percentile the two _hi metrics are"),
    layer("dist.reps", "count", Higher, "timed repetitions behind the medians of this trace run"),
    layer("dist.readings_per_s", "1/s", Higher, "sim.readings / dist.run_wall_s"),
    layer("dist.calib_s", "s", Lower, "median wall of the calibration kernel: what this machine delivered"),
    layer("dist.allocs_per_run", "count", Lower, "allocations of one driver run; repeats exactly on 1-worker workloads"),
    layer("dist.alloc_mb_per_run", "MiB", Lower, "bytes requested by one driver run"),
    layer("dist.unattributed_s", "s", Lower, "dist.run_wall_s - sum of replay layer self times: the driver's own routing, grouping, journaling"),
    layer("dist.unattributed_pct", "%", Lower, "dist.unattributed_s / dist.run_wall_s"),
    layer("dist.replay_fidelity", "ratio", Higher, "replay-encoded comm bytes / driver comm bytes; within 5% of 1 and equal message counts on fault-free 1-worker workloads"),
    layer("dist.trace_overhead_pct", "%", Lower, "replay wall with spans on vs off"),
    layer("dist.bytes_raw_readings", "B", Lower, "driver comm bytes of kind RawReadings"),
    layer("dist.bytes_inference_state", "B", Lower, "driver comm bytes of kind InferenceState"),
    layer("dist.bytes_query_state", "B", Lower, "driver comm bytes of kind QueryState"),
    layer("dist.bytes_ons", "B", Lower, "driver comm bytes of kind OnsUpdate"),
    layer("dist.bytes_control", "B", Lower, "driver comm bytes of kind Control"),
    // dist.transport: the unreliable network -> chaos_durable only.
    layer("dist.transport.plan_compute_s", "s", Lower, "DeliveryPlan::compute -> run_wall_cu on chaos_durable; 0 elsewhere"),
    layer("dist.transport.envelopes", "count", Lower, "driver transport.envelopes"),
    layer("dist.transport.retransmissions", "count", Lower, "driver transport.retransmissions -> comm_bytes"),
    layer("dist.transport.duplicates_dropped", "count", Lower, "driver transport.duplicates_dropped"),
    layer("dist.transport.abandoned", "count", Lower, "driver transport.abandoned -> envelopes_delivered_pct"),
    layer("dist.transport.quarantined", "count", Lower, "driver transport.quarantined"),
    layer("dist.transport.resyncs", "count", Lower, "driver transport.resyncs"),
    layer("dist.transport.useful_delivery_ratio", "ratio", Higher, "envelopes delivered / copies transmitted; 1 when the transport is off"),
    // dist.parallel: coordination cost -> parallel_collapsed only.
    layer("dist.parallel.speedup", "ratio", Higher, "sequential / parallel run wall, alternated in one process; 1 on the 1-worker workloads"),
    layer("dist.parallel.infer_inflation", "ratio", Lower, "summed inference_wall parallel / sequential; 1 on the 1-worker workloads"),
    layer("dist.parallel.workers", "count", Higher, "worker threads the run used (never more than the cores)"),
    // Outside the timed run, reported so work cannot hide there.
    layer("dist.oracle.audit_s", "s", Lower, "rfid::audit of the traced run's outcome"),
    layer("dist.oracle.violations", "count", Lower, "must be 0: a violation fails the command"),
    layer("eval.score_s", "s", Lower, "containment accuracy + alert F-measure scoring"),
];

/// Look a metric up by name in both tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|def| def.name == name)
}

/// Whether `name` is a valid metric or workload name: starts with a letter or
/// digit, then up to 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values keyed by metric name. A `BTreeMap` so that output order
/// repeats.
pub type Values = BTreeMap<&'static str, f64>;

/// Check that `values` holds exactly the metrics of `table`, each finite.
pub fn check_complete(values: &Values, table: &[MetricDef]) -> Result<(), String> {
    for def in table {
        match values.get(def.name) {
            None => return Err(format!("metric {} was not measured", def.name)),
            Some(v) if !v.is_finite() => return Err(format!("metric {} is {v}", def.name)),
            Some(_) => {}
        }
    }
    match values
        .keys()
        .find(|name| !table.iter().any(|d| d.name == **name))
    {
        Some(extra) => Err(format!("metric {extra} is not in the registry")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use std::collections::BTreeSet;

    #[test]
    fn name_validator_accepts_the_contract_alphabet_only() {
        for good in [
            "run_wall_cu",
            "dist.transport.abandoned",
            "p99-latency",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "a%", "é", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_registered_name_is_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "{} registered twice", def.name);
            assert!(!def.unit.is_empty() && def.unit.len() <= 16);
        }
        for workload in Workload::ALL {
            assert!(valid_name(workload.name()));
            assert!(seen.insert(workload.name()));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn end_to_end_bounds_respect_the_contract() {
        for def in END_TO_END {
            let bound = def.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
        }
        assert!(PER_LAYER.iter().all(|def| def.bound.is_none()));
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn check_complete_rejects_missing_extra_and_non_finite() {
        let table = &END_TO_END[..2];
        let mut values = Values::new();
        values.insert("setup_s", 0.1);
        assert!(check_complete(&values, table).is_err());
        values.insert("run_wall_cu", f64::NAN);
        assert!(check_complete(&values, table).is_err());
        values.insert("run_wall_cu", 6.0);
        assert!(check_complete(&values, table).is_ok());
        values.insert("peak_rss_mb", 40.0);
        assert!(check_complete(&values, table).is_err());
    }
}
