//! `trace`: the per-layer measurement of one workload.
//!
//! Three sources, kept apart on purpose:
//! * counters from one extra driver run's public `DistributedOutcome`, with
//!   the counting allocator on for that run only;
//! * the driver's raw wall over the timed repetitions that fit the budget
//!   (what the layers' times are shares of);
//! * `_s` times from the replay harness (`replay.rs`): the self time of the
//!   spans around each call into a layer, median over one replay per driver
//!   repetition. The same replay also runs with spans off; the difference is
//!   the tracing overhead.

use crate::measure::{self, Request};
use crate::metrics::Values;
use crate::replay::{self, Replay};
use crate::result::RunResult;
use crate::span::Op;
use crate::workload::{self, Prepared, Workload};
use crate::{alloc, stats};
use rfid::dist::{DistributedDriver, MessageKind};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// How far the replay's bytes may be from the driver's on a fault-free
/// 1-worker workload before the attribution is refused.
const FIDELITY_TOLERANCE: f64 = 0.05;

fn ratio(num: f64, den: f64, when_empty: f64) -> f64 {
    if den == 0.0 {
        when_empty
    } else {
        num / den
    }
}

/// Sequential vs parallel executor on one chain, alternated so that drift
/// hits both: `(speedup, inference inflation)`.
fn parallel_comparison(prepared: &Prepared, pairs: usize) -> (f64, f64) {
    let seq_driver = DistributedDriver::new(workload::steady_config());
    let par_driver = DistributedDriver::new(prepared.config.clone());
    let mut walls = [Vec::new(), Vec::new()];
    let mut infer = [Vec::new(), Vec::new()];
    for pair in 0..pairs {
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let driver = if side == 0 { &seq_driver } else { &par_driver };
            let started = Instant::now();
            let outcome = driver.run(&prepared.chain);
            walls[side].push(started.elapsed().as_secs_f64());
            infer[side].push(outcome.inference_wall.as_secs_f64());
        }
    }
    (
        ratio(stats::median(&walls[0]), stats::median(&walls[1]), 1.0),
        ratio(stats::median(&infer[1]), stats::median(&infer[0]), 1.0),
    )
}

/// The replays of one trace run, in pairs: spans off, then spans on.
#[derive(Default)]
struct Replays {
    wall_off: Vec<f64>,
    wall_on: Vec<f64>,
    /// Self time per operation of each spans-on replay.
    self_times: Vec<BTreeMap<Op, f64>>,
    /// The newest spans-on replay: its counters and the span log to write.
    last: Option<Replay>,
}

impl Replays {
    fn push_pair(&mut self, prepared: &Prepared) -> Result<(), String> {
        let off = replay::replay(prepared, false);
        let on = replay::replay(prepared, true);
        if off.counters.comm_bytes() != on.counters.comm_bytes() {
            return Err("the replay sent different bytes with spans on and off".into());
        }
        self.wall_off.push(off.wall_s);
        self.wall_on.push(on.wall_s);
        self.self_times.push(on.recorder.self_times());
        self.last = Some(on);
        Ok(())
    }

    /// Median self time of `op` over the spans-on replays, seconds.
    fn op_s(&self, op: Op) -> f64 {
        let samples: Vec<f64> = self
            .self_times
            .iter()
            .map(|totals| totals.get(&op).copied().unwrap_or(0.0))
            .collect();
        stats::median(&samples)
    }

    /// Time attributed to product layers: every product span's self time.
    fn attributed_s(&self) -> f64 {
        let per_replay: Vec<f64> = self
            .self_times
            .iter()
            .map(|totals| {
                totals
                    .iter()
                    .filter(|(op, _)| op.is_product())
                    .map(|(_, s)| s)
                    .sum()
            })
            .collect();
        stats::median(&per_replay)
    }
}

/// Measure the per-layer metrics of one workload and write its span file.
pub fn run(request: &Request, out_dir: &Path) -> Result<RunResult, String> {
    let prepared = workload::prepare(request.workload, request.seed, request.horizon);
    let driver = DistributedDriver::new(prepared.config.clone());

    // Counters: one warm-up, then the run the allocator counts.
    let warm = driver.run(&prepared.chain);
    let (outcome, allocated) = alloc::counted(|| driver.run(&prepared.chain));
    measure::same_outcome(&warm, &outcome)?;
    let audit_started = Instant::now();
    let audit = rfid::audit(&prepared.chain, &outcome);
    let audit_s = audit_started.elapsed().as_secs_f64();
    let score_started = Instant::now();
    black_box(measure::score(&prepared, &outcome));
    let score_s = score_started.elapsed().as_secs_f64();
    audit.map_err(|v| format!("audit failed: {v}"))?;
    measure::check_outcome(request, &prepared, &outcome)?;

    // The driver's wall and the layers' times, interleaved — one driver
    // repetition, then one replay pair — so that the machine's drift hits
    // both alike and the shares mean something.
    let mut replays = Replays::default();
    let mut infer_walls = Vec::new();
    let samples = measure::timed_reps(&prepared, request.seed, request.budget, |rep| {
        measure::same_outcome(rep, &outcome)?;
        infer_walls.push(rep.inference_wall.as_secs_f64());
        replays.push_pair(&prepared)
    })?;
    let run_wall_s = stats::median(&samples.wall_s);
    let (hi_pct, run_wall_s_hi) = stats::high_percentile(&samples.wall_s);
    let (_, run_wall_cu_hi) = stats::high_percentile(&samples.wall_cu);
    let (speedup, infer_inflation) = if request.workload == Workload::ParallelCollapsed {
        parallel_comparison(&prepared, samples.wall_s.len().clamp(3, 9))
    } else {
        (1.0, 1.0)
    };
    let last = replays.last.as_ref().expect("at least one repetition ran");
    let span_file = out_dir.join(format!("trace_{}.json", request.workload.name()));
    last.recorder
        .write(&span_file, request.workload.name(), request.seed)?;
    eprintln!(
        "{}: {} driver reps and replay pairs, {} spans in {}",
        request.workload.name(),
        samples.wall_s.len(),
        last.recorder.spans().len(),
        span_file.display()
    );
    let counters = &last.counters;
    let changepoint_s = if prepared.config.inference.change_detection.is_some() {
        let mut without = prepared.config.clone();
        without.inference = without.inference.without_change_detection();
        let plain = replay::replay_with(&prepared.chain, &without, false);
        counters.infer_reported_s - plain.counters.infer_reported_s
    } else {
        0.0
    };

    let fidelity = ratio(
        counters.comm_bytes() as f64,
        outcome.comm.total_bytes() as f64,
        1.0,
    );
    if request.workload.fault_free() && request.workload.single_worker() {
        let (sent, expected) = (
            counters.comm_messages(),
            outcome.comm.total_messages() as u64,
        );
        if sent != expected {
            return Err(format!(
                "replay sent {sent} messages, the driver {expected}: the attribution is void"
            ));
        }
        if (fidelity - 1.0).abs() > FIDELITY_TOLERANCE {
            return Err(format!(
                "replay bytes are {fidelity:.3} of the driver's: the attribution is void"
            ));
        }
    }

    let stats_ = &outcome.inference_stats;
    let transport = &outcome.transport;
    let infer_s = stats::median(&infer_walls);
    let readings = prepared.chain.total_readings() as f64;
    let observe_s = replays.op_s(Op::CoreObserve);
    let migration_codec_s =
        replays.op_s(Op::WireEncodeMigration) + replays.op_s(Op::WireDecodeMigration);
    let unattributed_s = run_wall_s - replays.attributed_s();
    let replay_off = stats::median(&replays.wall_off);
    let kind = |k: MessageKind| outcome.comm.bytes_of_kind(k) as f64;

    let mut v = Values::new();
    v.insert("sim.chain_gen_s", prepared.chain_gen_s);
    v.insert("sim.fault_plan_gen_s", prepared.fault_plan_gen_s);
    v.insert("sim.readings", readings);
    v.insert("sim.transfers", prepared.chain.transfers.len() as f64);
    v.insert("sim.objects", prepared.chain.objects().len() as f64);

    v.insert("core.observe_s", observe_s);
    v.insert(
        "core.observe_ns_per_reading",
        ratio(observe_s * 1e9, counters.readings_observed as f64, 0.0),
    );
    v.insert("core.infer_s", infer_s);
    v.insert("core.infer_runs", outcome.inference_runs as f64);
    v.insert(
        "core.infer_ms_per_run",
        ratio(infer_s * 1e3, outcome.inference_runs as f64, 0.0),
    );
    v.insert(
        "core.infer_share_pct",
        100.0 * ratio(infer_s, run_wall_s, 0.0),
    );
    v.insert("core.dirty_tags", stats_.dirty_tags as f64);
    v.insert(
        "core.posterior_reuse_ratio",
        stats_.posterior_reuse_fraction(),
    );
    v.insert(
        "core.evidence_reuse_ratio",
        stats_.evidence_reuse_fraction(),
    );
    v.insert("core.events_at_s", replays.op_s(Op::CoreEventsAt));
    v.insert("core.export_s", replays.op_s(Op::CoreExport));
    v.insert("core.import_s", replays.op_s(Op::CoreImport));
    v.insert("core.forget_s", replays.op_s(Op::CoreForget));
    v.insert("core.snapshot_s", replays.op_s(Op::CoreSnapshot));
    v.insert("core.restore_s", replays.op_s(Op::CoreRestore));
    v.insert("core.changepoint_s", changepoint_s);
    v.insert("core.memory_high_water_obs", counters.high_water_obs as f64);

    v.insert(
        "wire.encode_migration_s",
        replays.op_s(Op::WireEncodeMigration),
    );
    v.insert(
        "wire.decode_migration_s",
        replays.op_s(Op::WireDecodeMigration),
    );
    v.insert("wire.migration_bytes", counters.migration_bytes as f64);
    v.insert(
        "wire.migration_mb_per_s",
        ratio(
            counters.migration_bytes as f64 * 1e-6,
            migration_codec_s,
            0.0,
        ),
    );
    v.insert(
        "wire.encode_readings_s",
        replays.op_s(Op::WireEncodeReadings),
    );
    v.insert(
        "wire.decode_readings_s",
        replays.op_s(Op::WireDecodeReadings),
    );
    v.insert("wire.readings_bytes", counters.readings_bytes as f64);
    v.insert("wire.encode_bundle_s", replays.op_s(Op::WireEncodeBundle));
    v.insert("wire.decode_bundle_s", replays.op_s(Op::WireDecodeBundle));
    v.insert("wire.bundle_bytes", counters.bundle_bytes as f64);
    v.insert(
        "wire.encode_checkpoint_s",
        replays.op_s(Op::WireEncodeCheckpoint),
    );
    v.insert(
        "wire.decode_checkpoint_s",
        replays.op_s(Op::WireDecodeCheckpoint),
    );
    v.insert("wire.checkpoint_bytes", counters.checkpoint_bytes as f64);
    v.insert("wire.checkpoints", counters.checkpoints as f64);
    v.insert("wire.control_bytes", kind(MessageKind::Control));
    v.insert("wire.decode_errors", counters.decode_errors as f64);

    v.insert("query.on_event_s", replays.op_s(Op::QueryOnEvent));
    v.insert("query.on_sensor_s", replays.op_s(Op::QueryOnSensor));
    v.insert("query.events_in", counters.events_in as f64);
    v.insert("query.alerts_out", outcome.alerts.len() as f64);
    v.insert("query.export_state_s", replays.op_s(Op::QueryExportState));
    v.insert("query.import_state_s", replays.op_s(Op::QueryImportState));
    v.insert("query.share_states_s", replays.op_s(Op::QueryShareStates));
    v.insert(
        "query.share_ratio",
        ratio(
            outcome.query_state_shared_bytes as f64,
            outcome.query_state_unshared_bytes as f64,
            1.0,
        ),
    );
    v.insert("query.tracked_states", counters.tracked_states as f64);

    v.insert("dist.run_wall_s", run_wall_s);
    v.insert("dist.run_wall_s_hi", run_wall_s_hi);
    v.insert("dist.run_wall_cu_hi", run_wall_cu_hi);
    v.insert("dist.run_wall_hi_pct", f64::from(hi_pct));
    v.insert("dist.reps", samples.wall_s.len() as f64);
    v.insert("dist.readings_per_s", ratio(readings, run_wall_s, 0.0));
    v.insert("dist.calib_s", stats::median(&samples.calib_s));
    v.insert("dist.allocs_per_run", allocated.allocations as f64);
    v.insert(
        "dist.alloc_mb_per_run",
        allocated.bytes as f64 / (1024.0 * 1024.0),
    );
    v.insert("dist.unattributed_s", unattributed_s);
    v.insert(
        "dist.unattributed_pct",
        100.0 * ratio(unattributed_s, run_wall_s, 0.0),
    );
    v.insert("dist.replay_fidelity", fidelity);
    v.insert(
        "dist.trace_overhead_pct",
        100.0
            * ratio(
                stats::median(&replays.wall_on) - replay_off,
                replay_off,
                0.0,
            ),
    );
    v.insert("dist.bytes_raw_readings", kind(MessageKind::RawReadings));
    v.insert(
        "dist.bytes_inference_state",
        kind(MessageKind::InferenceState),
    );
    v.insert("dist.bytes_query_state", kind(MessageKind::QueryState));
    v.insert("dist.bytes_ons", kind(MessageKind::OnsUpdate));
    v.insert("dist.bytes_control", kind(MessageKind::Control));

    v.insert(
        "dist.transport.plan_compute_s",
        replays.op_s(Op::TransportPlanCompute),
    );
    v.insert("dist.transport.envelopes", transport.envelopes as f64);
    v.insert(
        "dist.transport.retransmissions",
        transport.retransmissions as f64,
    );
    v.insert(
        "dist.transport.duplicates_dropped",
        transport.duplicates_dropped as f64,
    );
    v.insert("dist.transport.abandoned", transport.abandoned as f64);
    v.insert("dist.transport.quarantined", transport.quarantined as f64);
    v.insert("dist.transport.resyncs", transport.resyncs as f64);
    v.insert(
        "dist.transport.useful_delivery_ratio",
        ratio(
            transport.delivered() as f64,
            transport.transmissions as f64,
            1.0,
        ),
    );

    v.insert("dist.parallel.speedup", speedup);
    v.insert("dist.parallel.infer_inflation", infer_inflation);
    v.insert("dist.parallel.workers", prepared.config.num_workers as f64);

    v.insert("dist.oracle.audit_s", audit_s);
    v.insert("dist.oracle.violations", 0.0);
    v.insert("eval.score_s", score_s);

    Ok(RunResult {
        correct: true,
        attempted: samples.wall_s.len() as u64,
        failed: 0,
        metrics: v,
    })
}
