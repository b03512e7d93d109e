//! `run`: the end-to-end measurement of one workload, tracing off.
//!
//! Closed loop, one client (this thread): for each of a handful of chains
//! derived from the seed, set up several times, warm up once, then repeat
//! `DistributedDriver::run` for the chain's share of the asked duration, each
//! repetition bracketed by the calibration kernel. Every repetition's
//! outcome is checked against the warm-up's and audited; a failed check is
//! an error, never a metric.

use crate::metrics::Values;
use crate::result::RunResult;
use crate::workload::{self, Prepared, Workload};
use crate::{calib, stats};
use rfid::dist::{DistributedDriver, DistributedOutcome};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Chains a run measures (see [`run`]).
pub const CHAINS: usize = 5;
/// Set-up repetitions per chain behind the `setup_s` median.
const SETUP_REPS: usize = 3;
/// Fewest timed repetitions a run reports medians over.
const MIN_REPS: usize = 3;

/// How long to measure.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Repeat until this much wall-clock has gone into timed repetitions.
    Seconds(f64),
    /// Repeat exactly this many times.
    Reps(usize),
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub workload: Workload,
    pub seed: u64,
    pub horizon: u32,
    pub budget: Budget,
}

/// Raw samples of the timed repetitions.
pub struct Samples {
    /// Wall of each `DistributedDriver::run`, seconds.
    pub wall_s: Vec<f64>,
    /// The same repetitions in calibration units.
    pub wall_cu: Vec<f64>,
    /// Wall of each calibration kernel run, seconds (two per repetition).
    pub calib_s: Vec<f64>,
}

/// Time `DistributedDriver::run` repeatedly, checking every outcome with
/// `check` (outside the timed section). The calibration kernel runs right
/// before and right after every repetition, however long the check took.
pub fn timed_reps(
    prepared: &Prepared,
    seed: u64,
    budget: Budget,
    mut check: impl FnMut(&DistributedOutcome) -> Result<(), String>,
) -> Result<Samples, String> {
    let driver = DistributedDriver::new(prepared.config.clone());
    let mut samples = Samples {
        wall_s: Vec::new(),
        wall_cu: Vec::new(),
        calib_s: Vec::new(),
    };
    let started = Instant::now();
    loop {
        let reps = samples.wall_s.len();
        let done = match budget {
            Budget::Reps(n) => reps >= n.max(1),
            Budget::Seconds(s) => {
                reps >= MIN_REPS && started.elapsed() >= Duration::from_secs_f64(s)
            }
        };
        if done {
            return Ok(samples);
        }
        let before = black_box(calib::run(seed)).0;
        let rep_started = Instant::now();
        let outcome = black_box(driver.run(black_box(&prepared.chain)));
        let wall = rep_started.elapsed().as_secs_f64();
        let after = black_box(calib::run(seed)).0;
        samples.wall_s.push(wall);
        samples
            .wall_cu
            .push(stats::calibration_units(wall, before, after));
        samples.calib_s.extend([before, after]);
        check(&outcome)?;
    }
}

/// The outcome fields that must repeat exactly from run to run.
pub fn same_outcome(a: &DistributedOutcome, b: &DistributedOutcome) -> Result<(), String> {
    if a.containment != b.containment {
        return Err("containment differs between repetitions".into());
    }
    if a.comm != b.comm {
        return Err("communication bill differs between repetitions".into());
    }
    if a.ons != b.ons {
        return Err("custody registry differs between repetitions".into());
    }
    Ok(())
}

/// The `binary` rows of the checked-in `BENCH_wire.json`, which the three
/// strategies must reproduce at the reference seed and horizon:
/// `(bytes, messages, accuracy % to two decimals)`.
fn reference_row(workload: Workload) -> Option<(usize, usize, f64)> {
    match workload {
        Workload::SteadyCollapsed | Workload::ParallelCollapsed => Some((145_654, 4_674, 96.67)),
        Workload::ReadingsHeavy => Some((996_452, 4_674, 98.25)),
        Workload::CentralizedUplink => Some((1_213_194, 6_911, 98.25)),
        Workload::MonitoringQueries | Workload::ChaosDurable => None,
    }
}

/// Scores of one outcome against the chain's ground truth.
pub struct Scores {
    pub containment_acc_pct: f64,
    pub alert_f1_pct: f64,
}

pub fn score(prepared: &Prepared, outcome: &DistributedOutcome) -> Scores {
    Scores {
        containment_acc_pct: workload::containment_accuracy_pct(&prepared.chain, |o| {
            outcome.container_of(o)
        }),
        alert_f1_pct: workload::alert_f1_pct(&prepared.truth_alerts, &outcome.alerts),
    }
}

/// Every correctness check one outcome must pass on its own.
pub fn check_outcome(
    request: &Request,
    prepared: &Prepared,
    outcome: &DistributedOutcome,
) -> Result<Scores, String> {
    rfid::audit(&prepared.chain, outcome).map_err(|v| format!("audit failed: {v}"))?;
    let scores = score(prepared, outcome);
    // A sanity floor, not a metric, set below anything a sound run has been
    // seen to score: over 200 chains each, fault-free workloads bottomed out
    // at 90.5% and the chaos plan (crashes and reader outages lose readings
    // for good) at 84.3%. A seed-dependent check must not fail sound runs.
    let floor = if request.workload.fault_free() {
        85.0
    } else {
        70.0
    };
    if request.horizon == workload::REFERENCE_HORIZON && scores.containment_acc_pct < floor {
        return Err(format!(
            "containment accuracy {:.2}% is below {floor}%",
            scores.containment_acc_pct
        ));
    }
    if request.workload == Workload::MonitoringQueries
        && request.horizon == workload::REFERENCE_HORIZON
        && outcome.alerts.is_empty()
    {
        return Err("monitoring_queries raised no alerts".into());
    }
    if request.seed == workload::REFERENCE_SEED && request.horizon == workload::REFERENCE_HORIZON {
        if let Some((bytes, messages, acc)) = reference_row(request.workload) {
            let got = (outcome.comm.total_bytes(), outcome.comm.total_messages());
            if got != (bytes, messages) || (scores.containment_acc_pct - acc).abs() > 0.005 {
                return Err(format!(
                    "BENCH_wire.json cross-check failed: got {} B / {} msgs / {:.2}%, recorded {bytes} B / {messages} msgs / {acc:.2}%",
                    got.0, got.1, scores.containment_acc_pct
                ));
            }
        }
    }
    Ok(scores)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Seed of the `index`-th chain of a run: the first chain is `--seed`'s own
/// (so the reference seed reproduces the reference chain), the rest derive
/// from it.
pub fn chain_seed(seed: u64, index: usize) -> u64 {
    match index {
        0 => seed,
        i => calib::splitmix(seed ^ (i as u64).wrapping_mul(0x5eed_c4a1)),
    }
}

/// What one chain of a run measured.
struct ChainMeasurement {
    setup_s: Vec<f64>,
    samples: Samples,
    /// The chain's exactly-repeating metrics.
    exact: Values,
}

/// Set up, warm up, check and time one chain.
fn measure_chain(request: &Request) -> Result<ChainMeasurement, String> {
    // Set-up is timed like a run — bracketed by the calibration kernel — and
    // reported in calibrated seconds (see `calib::NOMINAL_S`).
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let before = black_box(calib::run(request.seed)).0;
        let set_up = workload::prepare(request.workload, request.seed, request.horizon);
        let after = black_box(calib::run(request.seed)).0;
        setup_s.push(stats::calibration_units(set_up.setup_s, before, after) * calib::NOMINAL_S);
        prepared = Some(set_up);
    }
    let prepared = prepared.expect("SETUP_REPS is at least 1");

    // Warm-up: fills the allocator's pools and faults the chain in, and
    // supplies the outcome every timed repetition must reproduce.
    let reference = DistributedDriver::new(prepared.config.clone()).run(&prepared.chain);
    let scores = check_outcome(request, &prepared, &reference)?;
    if request.workload == Workload::ParallelCollapsed {
        let outcome = DistributedDriver::new(workload::steady_config()).run(&prepared.chain);
        same_outcome(&outcome, &reference)
            .map_err(|e| format!("parallel vs sequential executor: {e}"))?;
    }
    let samples = timed_reps(&prepared, request.seed, request.budget, |outcome| {
        same_outcome(outcome, &reference)?;
        rfid::audit(&prepared.chain, outcome).map_err(|v| format!("audit failed: {v}"))
    })?;

    let envelopes = reference.transport.envelopes;
    let delivered_pct = if envelopes == 0 {
        100.0
    } else {
        100.0 - 100.0 * reference.transport.abandoned as f64 / envelopes as f64
    };
    let mut exact = Values::new();
    exact.insert("comm_bytes", reference.comm.total_bytes() as f64);
    exact.insert("comm_messages", reference.comm.total_messages() as f64);
    exact.insert("containment_acc_pct", scores.containment_acc_pct);
    exact.insert("alert_f1_pct", scores.alert_f1_pct);
    exact.insert("envelopes_delivered_pct", delivered_pct);
    eprintln!(
        "{}: chain seed {} horizon {} — {} readings, {} transfers, {} objects; {} B in {} messages, accuracy {:.2}%, alert F1 {:.2}%, delivered {:.2}%; {} reps, run wall median {:.4} s = {:.3} cu, calibration median {:.4} s",
        request.workload.name(),
        request.seed,
        request.horizon,
        prepared.chain.total_readings(),
        prepared.chain.transfers.len(),
        prepared.chain.objects().len(),
        reference.comm.total_bytes(),
        reference.comm.total_messages(),
        scores.containment_acc_pct,
        scores.alert_f1_pct,
        delivered_pct,
        samples.wall_s.len(),
        stats::median(&samples.wall_s),
        stats::median(&samples.wall_cu),
        stats::median(&samples.calib_s),
    );
    Ok(ChainMeasurement {
        setup_s,
        samples,
        exact,
    })
}

/// Measure the end-to-end metrics of one workload: `CHAINS` chains derived
/// from the seed, each set up, warmed up, checked and timed for its share of
/// the budget. One chain's accuracy or byte count swings several percent
/// with the seed — whole cases are right or wrong together — so the counted
/// metrics are pooled over the chains (their mean: accuracy over all the
/// chains' objects); the timed ones are the median over the chains of each
/// chain's median, which a slow outlier cannot move.
pub fn run(request: &Request) -> Result<RunResult, String> {
    let budget = match request.budget {
        Budget::Seconds(s) => Budget::Seconds(s / CHAINS as f64),
        reps => reps,
    };
    let chains = (0..CHAINS)
        .map(|index| {
            measure_chain(&Request {
                seed: chain_seed(request.seed, index),
                budget,
                ..*request
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    let chain_cu: Vec<f64> = chains
        .iter()
        .map(|c| stats::median(&c.samples.wall_cu))
        .collect();
    let all_setups: Vec<f64> = chains
        .iter()
        .flat_map(|c| c.setup_s.iter().copied())
        .collect();
    let mut values = Values::new();
    values.insert("setup_s", stats::median(&all_setups));
    values.insert("run_wall_cu", stats::median(&chain_cu));
    for name in chains[0].exact.keys() {
        let pooled: f64 = chains.iter().map(|c| c.exact[name]).sum();
        values.insert(name, pooled / chains.len() as f64);
    }
    values.insert("peak_rss_mb", peak_rss_mb()?);

    let all_cu: Vec<f64> = chains
        .iter()
        .flat_map(|c| c.samples.wall_cu.iter().copied())
        .collect();
    let (hi_pct, hi_cu) = stats::high_percentile(&all_cu);
    eprintln!(
        "{}: {} chains, {} timed reps; run_wall_cu p{hi_pct} over all reps {hi_cu:.3} cu",
        request.workload.name(),
        chains.len(),
        all_cu.len(),
    );
    Ok(RunResult {
        correct: true,
        attempted: all_cu.len() as u64,
        failed: 0,
        metrics: values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_seeds_start_at_the_seed_and_differ() {
        assert_eq!(chain_seed(97, 0), 97);
        let seeds: std::collections::BTreeSet<u64> =
            (0..CHAINS).map(|i| chain_seed(97, i)).collect();
        assert_eq!(seeds.len(), CHAINS);
        assert_ne!(chain_seed(97, 1), chain_seed(98, 1));
    }
}
