//! Single-site experiments: Figures 4, 5(a)–5(d), 6(a)–6(b) and Tables 3–4.
//! Sweeps that are the same work are one function: the read-rate sweep is
//! Figures 5(a) + 6(a), the trace-length sweep 5(b) + 6(b), and one change
//! trace per read rate Tables 3 + 4.

use crate::report::{
    Field,
    Kind::{self, Int, Text},
    Report, Section,
};
use crate::{figures, Scale, MILLI, PCT, RATE};
use rfid_core::{
    InferenceConfig, InferenceEngine, LikelihoodModel, Observations, RfInfer, TruncationPolicy,
};
use rfid_eval::metrics::{PrecisionRecall, ReportedChange};
use rfid_eval::{changes_f_measure, ChangeMatchConfig};
use rfid_sim::{EvidenceScenario, LabConfig, LabTraceId, WarehouseConfig, WarehouseSimulator};
use rfid_smurf::SmurfStar;
use rfid_types::{Epoch, TagId, Trace};
use std::time::{Duration, Instant};

/// The accuracy / cost summary of one inference method on one trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleSiteEval {
    /// Containment error rate (%) at the end of the trace.
    pub containment_error: f64,
    /// Location error rate (%) over sampled epochs.
    pub location_error: f64,
    /// F-measure (%) of containment-change detection (100 when the trace has
    /// no changes and none were reported).
    pub f_measure: f64,
    /// Fraction of reported changes that match a true change.
    pub precision: f64,
    /// Fraction of true changes that were reported.
    pub recall: f64,
    /// F-measure (%) when a report must also name the true new container.
    pub strict_f_measure: f64,
    /// The change-point threshold δ in force; `None` for a method without
    /// one.
    pub threshold: Option<f64>,
    /// Total wall-clock time spent in inference.
    pub inference_time: Duration,
}

fn base_config(scale: Scale, read_rate: f64, length: u32) -> WarehouseConfig {
    WarehouseConfig::default()
        .with_length(length)
        .with_read_rate(read_rate)
        .with_items_per_case(scale.items_per_case())
        .with_cases_per_pallet(scale.cases_per_pallet())
        .with_seed(71)
}

/// Replay a trace through the streaming engine and score it against ground
/// truth.
pub fn evaluate_rfinfer(trace: &Trace, config: InferenceConfig) -> SingleSiteEval {
    let mut engine = InferenceEngine::new(config, trace.read_rates.clone());
    let horizon = trace.meta.length;

    let mut cursor = 0usize;
    let all = trace.readings.readings();
    let mut inference_time = Duration::ZERO;
    let mut location_samples: Vec<(TagId, Epoch, Option<rfid_types::LocationId>)> = Vec::new();
    let mut last_report_at = Epoch::ZERO;

    // Sample location estimates at the epochs for which the inference module
    // actually emits events — the epochs at which a tag (or its container)
    // was observed — mirroring how the paper's event stream is evaluated.
    let mut sample_locations = |report: &rfid_core::InferenceReport, from: Epoch, to: Epoch| {
        const STRIDE: usize = 5;
        for (tag, entries) in report.outcome.locations() {
            for (t, _) in entries
                .iter()
                .filter(|(t, _)| *t > from && *t <= to)
                .step_by(STRIDE)
            {
                location_samples.push((tag, *t, report.outcome.location_of(tag, *t)));
            }
        }
        for evidence in report.outcome.objects() {
            let object = evidence.object();
            for t in evidence
                .epochs()
                .iter()
                .filter(|t| **t > from && **t <= to)
                .step_by(STRIDE)
            {
                location_samples.push((object, *t, report.outcome.location_of(object, *t)));
            }
        }
    };

    for t in 0..=horizon {
        let now = Epoch(t);
        while cursor < all.len() && all[cursor].time == now {
            engine.observe(all[cursor]);
            cursor += 1;
        }
        if engine.due(now) {
            let report = engine.run_inference(now);
            inference_time += report.duration;
            sample_locations(&report, last_report_at, now);
            last_report_at = now;
        }
    }
    let final_report = engine.run_inference(Epoch(horizon));
    sample_locations(&final_report, last_report_at, Epoch(horizon));
    inference_time += final_report.duration;

    // Containment error at the end of the trace.
    let objects = trace.objects();
    let end = Epoch(horizon);
    let truth = &trace.truth.containment;
    let containment_error =
        rfid_eval::containment_error(truth, |o| engine.container_of(o), &objects, end);

    // Location error over the sampled (tag, epoch) pairs.
    let evaluated = location_samples.len().max(1);
    let wrong = location_samples
        .iter()
        .filter(|(tag, at, est)| trace.truth.location_at(*tag, *at) != *est)
        .count();
    let location_error = 100.0 * wrong as f64 / evaluated as f64;

    let detected = engine.detected_changes().iter();
    let (changes, strict_f_measure) = score_changes(
        trace,
        detected.map(|c| (c.object, c.change_at, c.new_container)),
    );

    SingleSiteEval {
        containment_error,
        location_error,
        f_measure: changes.f_measure(),
        precision: changes.precision,
        recall: changes.recall,
        strict_f_measure,
        threshold: engine.threshold(),
        inference_time,
    }
}

/// Run the SMURF* baseline over a trace and score it the same way.
pub fn evaluate_smurf_star(trace: &Trace) -> SingleSiteEval {
    let started = Instant::now();
    let outcome = SmurfStar::new().run(&trace.readings);
    let inference_time = started.elapsed();

    let objects = trace.objects();
    let end = Epoch(trace.meta.length);
    let truth = &trace.truth.containment;
    let containment_error =
        rfid_eval::containment_error(truth, |o| outcome.container_of(o), &objects, end);

    // Evaluate SMURF*'s location estimates at the same kind of epochs as
    // RFINFER's: the epochs at which each tag was actually observed.
    let mut evaluated = 0usize;
    let mut wrong = 0usize;
    for (tag, observations) in trace.readings.by_tag() {
        for (at, _) in observations.iter().step_by(5) {
            if let Some(true_loc) = trace.truth.location_at(tag, *at) {
                evaluated += 1;
                if outcome.location_of(tag, *at) != Some(true_loc) {
                    wrong += 1;
                }
            }
        }
    }
    let location_error = 100.0 * wrong as f64 / evaluated.max(1) as f64;

    let reported = outcome.changes.iter();
    let (changes, strict_f_measure) = score_changes(
        trace,
        reported.map(|c| (c.object, c.change_at, c.new_container)),
    );

    SingleSiteEval {
        containment_error,
        location_error,
        f_measure: changes.f_measure(),
        precision: changes.precision,
        recall: changes.recall,
        strict_f_measure,
        threshold: None,
        inference_time,
    }
}

/// Precision and recall of the reported `(object, change epoch, new
/// container)` changes against the trace's true containment changes, and the
/// F-measure (%) when a report must also name the true new container.
fn score_changes(
    trace: &Trace,
    reported: impl Iterator<Item = (TagId, Epoch, Option<TagId>)>,
) -> (PrecisionRecall, f64) {
    let reported: Vec<ReportedChange> = reported
        .map(|(object, change_at, new_container)| ReportedChange {
            object,
            change_at,
            new_container,
        })
        .collect();
    let truth = trace.truth.containment.changes();
    let strict = ChangeMatchConfig {
        require_correct_container: true,
        ..Default::default()
    };
    (
        changes_f_measure(truth, &reported, ChangeMatchConfig::default()),
        changes_f_measure(truth, &reported, strict).f_measure(),
    )
}

/// The threshold δ an RFINFER run with change detection on had in force.
fn delta(eval: &SingleSiteEval) -> f64 {
    eval.threshold
        .expect("change detection ran, so δ was resolved")
}

/// The three history-truncation methods the paper compares, change
/// detection off: `[All, W1200, CR]`.
fn truncation_methods() -> [InferenceConfig; 3] {
    [
        TruncationPolicy::Full,
        TruncationPolicy::Window { window_secs: 1200 },
        TruncationPolicy::default(),
    ]
    .map(|policy| {
        InferenceConfig::default()
            .with_truncation(policy)
            .without_change_detection()
    })
}

/// The change-detection trace: one containment change every `interval`
/// seconds at read rate `rr`.
fn change_trace(scale: Scale, rr: f64, interval: u32) -> Trace {
    let mut config = base_config(scale, rr, scale.change_trace_secs());
    config.anomaly_interval = Some(interval);
    WarehouseSimulator::new(config).generate()
}

/// Figure 4: point and cumulative evidence of co-location for the three
/// candidate containers (R, NRC, NRNC) of the evidence scenario, one row per
/// epoch the object was observed at.
pub fn fig4(scale: Scale) -> Report {
    let (trace, tags) = EvidenceScenario::default().generate();
    let model = LikelihoodModel::new(trace.read_rates.clone());
    let obs = Observations::from_batch(&trace.readings);
    let outcome = RfInfer::new(&model, &obs).run();
    let evidence = outcome
        .object(tags.object)
        .expect("the scenario's object is observed");
    // per candidate: the point evidence and its running sum, epoch by epoch
    let lines = [tags.real, tags.nrc, tags.nrnc].map(|container| {
        let point = evidence
            .point_evidence(container)
            .expect("every line is a candidate");
        (point, evidence.cumulative_evidence(container))
    });
    let mut section = Section::new(
        "fig4",
        "Figure 4: point / cumulative evidence of co-location (R, NRC, NRNC)",
    );
    for (i, &epoch) in evidence.epochs().iter().enumerate() {
        let point = |line: usize| lines[line].0[i];
        let sum = |line: usize| lines[line].1[i];
        #[rustfmt::skip] // one column per line: header, JSON key, kind, value
        section.push(vec![
            Field::new("epoch",           "epoch",           Int,   epoch.0),
            Field::new("point R",         "point_r",         MILLI, point(0)),
            Field::new("point NRC",       "point_nrc",       MILLI, point(1)),
            Field::new("point NRNC",      "point_nrnc",      MILLI, point(2)),
            Field::new("cumulative R",    "cumulative_r",    MILLI, sum(0)),
            Field::new("cumulative NRC",  "cumulative_nrc",  MILLI, sum(1)),
            Field::new("cumulative NRNC", "cumulative_nrnc", MILLI, sum(2)),
        ]);
    }
    figures("fig4", scale, vec![section])
}

/// Figures 5(a) and 6(a) from one read-rate sweep over stable-containment
/// traces: containment / location error of the All / W1200 / CR methods, and
/// the two errors of the basic algorithm (All, full history) on their own.
pub fn fig5a_fig6a(scale: Scale) -> Report {
    let mut fig5a = Section::new(
        "fig5a",
        "Figure 5(a): error (%) vs read rate — All / W1200 / CR",
    );
    let mut fig6a = Section::new(
        "fig6a",
        "Figure 6(a): basic algorithm error (%) vs read rate",
    );
    for rr in [0.6, 0.7, 0.8, 0.9, 1.0] {
        let trace = WarehouseSimulator::new(base_config(scale, rr, scale.trace_secs())).generate();
        let [all, window, cr] = truncation_methods().map(|config| evaluate_rfinfer(&trace, config));
        #[rustfmt::skip] // one column per line: header, JSON key, kind, value
        fig5a.push(vec![
            Field::new("read rate",          "read_rate",             RATE,  rr),
            Field::new("Containment(All)",   "all_error_pct",         MILLI, all.containment_error),
            Field::new("Containment(W1200)", "w1200_error_pct",       MILLI, window.containment_error),
            Field::new("Containment(CR)",    "cr_error_pct",          MILLI, cr.containment_error),
            Field::new("Location(CR)",       "cr_location_error_pct", MILLI, cr.location_error),
        ]);
        #[rustfmt::skip]
        fig6a.push(vec![
            Field::new("read rate",   "read_rate",          RATE,  rr),
            Field::new("Containment", "error_pct",          MILLI, all.containment_error),
            Field::new("Location",    "location_error_pct", MILLI, all.location_error),
        ]);
    }
    figures("fig5a_fig6a", scale, vec![fig5a, fig6a])
}

/// Figures 5(b) and 6(b) from one trace-length sweep at read rate 0.8: total
/// inference time (a wall-clock: printed, never written) and containment
/// error of the All / W1200 / CR methods.
pub fn fig5b_fig6b(scale: Scale) -> Report {
    let mut fig5b = Section::new(
        "fig5b",
        "Figure 5(b): inference time (s) vs trace length — All / W1200 / CR",
    );
    let mut fig6b = Section::new(
        "fig6b",
        "Figure 6(b): containment error (%) vs trace length — All / W1200 / CR",
    );
    let lengths: &[u32] = match scale {
        Scale::Smoke => &[600, 1200],
        _ => &[600, 1200, 1800, 2400, 3000, 3600],
    };
    for &len in lengths {
        let trace = WarehouseSimulator::new(base_config(scale, 0.8, len)).generate();
        let [all, window, cr] = truncation_methods().map(|config| evaluate_rfinfer(&trace, config));
        let secs = |eval: SingleSiteEval| eval.inference_time.as_secs_f64();
        #[rustfmt::skip]
        fig5b.push(vec![
            Field::new("trace (s)",        None, Int,   len),
            Field::new("Inference(All)",   None, MILLI, secs(all)),
            Field::new("Inference(W1200)", None, MILLI, secs(window)),
            Field::new("Inference(CR)",    None, MILLI, secs(cr)),
        ]);
        #[rustfmt::skip]
        fig6b.push(vec![
            Field::new("trace (s)",          "trace_secs",      Int,   len),
            Field::new("Containment(All)",   "all_error_pct",   MILLI, all.containment_error),
            Field::new("Containment(W1200)", "w1200_error_pct", MILLI, window.containment_error),
            Field::new("Containment(CR)",    "cr_error_pct",    MILLI, cr.containment_error),
        ]);
    }
    figures("fig5b_fig6b", scale, vec![fig5b, fig6b])
}

/// Figure 5(c): F-measure of containment-change detection versus the
/// containment-change interval at read rates 0.8 and 0.7, for RFINFER
/// (H̄ = 500) and SMURF*.
pub fn fig5c(scale: Scale) -> Report {
    let mut section = Section::new(
        "fig5c",
        "Figure 5(c): change-detection F-measure (%) vs change interval — RFINFER vs SMURF*",
    );
    let intervals: &[u32] = match scale {
        Scale::Smoke => &[60, 120],
        _ => &[20, 40, 60, 80, 100, 120],
    };
    for &interval in intervals {
        let [(ours_08, smurf_08), (ours_07, smurf_07)] = [0.8, 0.7].map(|rr| {
            let trace = change_trace(scale, rr, interval);
            let config = InferenceConfig::default().with_recent_history(500);
            let ours = evaluate_rfinfer(&trace, config);
            (ours, evaluate_smurf_star(&trace).f_measure)
        });
        #[rustfmt::skip]
        section.push(vec![
            Field::new("interval (s)", "interval_secs",     Int,   interval),
            Field::new("RR=0.8 H=500", "rfinfer_rr08_f_pct", MILLI, ours_08.f_measure),
            Field::new("RR=0.8 SMURF*", "smurf_rr08_f_pct",  MILLI, smurf_08),
            Field::new("RR=0.7 H=500", "rfinfer_rr07_f_pct", MILLI, ours_07.f_measure),
            Field::new("RR=0.7 SMURF*", "smurf_rr07_f_pct",  MILLI, smurf_07),
            Field::new("δ 0.8",        "rfinfer_rr08_delta",        MILLI, delta(&ours_08)),
            Field::new("P 0.8",        "rfinfer_rr08_precision",    MILLI, ours_08.precision),
            Field::new("R 0.8",        "rfinfer_rr08_recall",       MILLI, ours_08.recall),
            Field::new("strict 0.8",   "rfinfer_rr08_strict_f_pct", MILLI, ours_08.strict_f_measure),
            Field::new("δ 0.7",        "rfinfer_rr07_delta",        MILLI, delta(&ours_07)),
            Field::new("P 0.7",        "rfinfer_rr07_precision",    MILLI, ours_07.precision),
            Field::new("R 0.7",        "rfinfer_rr07_recall",       MILLI, ours_07.recall),
            Field::new("strict 0.7",   "rfinfer_rr07_strict_f_pct", MILLI, ours_07.strict_f_measure),
        ]);
    }
    figures("fig5c", scale, vec![section])
}

/// Figure 5(d): containment and location error of RFINFER and SMURF* on the
/// lab traces T1–T8.
pub fn fig5d(scale: Scale) -> Report {
    let mut section = Section::new("fig5d", "Figure 5(d): lab traces — error rates (%)");
    for trace_id in LabTraceId::ALL {
        let trace = LabConfig::published(trace_id).generate();
        let config = InferenceConfig::default()
            .with_period(300)
            .with_recent_history(600);
        let ours = evaluate_rfinfer(&trace, config);
        let smurf = evaluate_smurf_star(&trace);
        #[rustfmt::skip]
        section.push(vec![
            Field::new("trace",         "trace",                      Text, trace_id.label()),
            Field::new("RFINFER cont.", "rfinfer_error_pct",          PCT,  ours.containment_error),
            Field::new("RFINFER loc.",  "rfinfer_location_error_pct", PCT,  ours.location_error),
            Field::new("SMURF* cont.",  "smurf_error_pct",            PCT,  smurf.containment_error),
            Field::new("SMURF* loc.",   "smurf_location_error_pct",   PCT,  smurf.location_error),
        ]);
    }
    figures("fig5d", scale, vec![section])
}

/// Tables 3 and 4 from one change-detection trace per read rate (a change
/// every 60 s): the F-measure for fixed thresholds δ and for the
/// offline-calibrated threshold, and the F-measure and inference time (a
/// wall-clock: printed, never written) for different recent-history sizes H̄.
pub fn table3_table4(scale: Scale) -> Report {
    let mut table3 = Section::new(
        "table3",
        "Table 3: change-detection F-measure (%) vs threshold δ",
    );
    let mut table4 = Section::new(
        "table4",
        "Table 4: change detection vs recent-history size H̄",
    );
    let whole = Kind::Float(0, 2);
    let deltas: Vec<f64> = (1..=10).map(|step| f64::from(step) * 10.0).collect();
    let (rates, histories): (&[f64], &[u32]) = match scale {
        Scale::Smoke => (&[0.8], &[300, 600]),
        _ => (&[0.6, 0.7, 0.8, 0.9], &[300, 400, 500, 600, 700, 800, 900]),
    };
    for &rr in rates {
        let trace = change_trace(scale, rr, 60);
        let default = InferenceConfig::default();
        let fixed: Vec<SingleSiteEval> = deltas
            .iter()
            .map(|&delta| evaluate_rfinfer(&trace, default.clone().with_fixed_threshold(delta)))
            .collect();
        let each = |score: fn(&SingleSiteEval) -> f64| fixed.iter().map(score).collect::<Vec<_>>();
        let best_fixed = each(|e| e.f_measure)
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);
        let calibrated = evaluate_rfinfer(&trace, default.clone());
        #[rustfmt::skip]
        table3.push(vec![
            Field::new("read rate",           "read_rate",               RATE,              rr),
            Field::new(None,                  "deltas",                  Kind::Float(0, 0), deltas.clone()),
            Field::new("δ = 10, 20, .., 100", "fixed_f_pct",             whole,             each(|e| e.f_measure)),
            Field::new("best fixed",          "best_fixed_f_pct",        whole,             best_fixed),
            Field::new("calibrated",          "calibrated_f_pct",        whole,             calibrated.f_measure),
            Field::new(None,                  "fixed_precision",         MILLI,             each(|e| e.precision)),
            Field::new(None,                  "fixed_recall",            MILLI,             each(|e| e.recall)),
            Field::new(None,                  "fixed_strict_f_pct",      whole,             each(|e| e.strict_f_measure)),
            Field::new("δ",                   "calibrated_delta",        MILLI,             delta(&calibrated)),
            Field::new("P",                   "calibrated_precision",    MILLI,             calibrated.precision),
            Field::new("R",                   "calibrated_recall",       MILLI,             calibrated.recall),
            Field::new("strict",              "calibrated_strict_f_pct", whole,             calibrated.strict_f_measure),
        ]);
        for &h in histories {
            // the default H̄ under the calibrated threshold is Table 3's run
            let eval = if h == default.recent_history_secs {
                calibrated
            } else {
                evaluate_rfinfer(&trace, default.clone().with_recent_history(h))
            };
            #[rustfmt::skip]
            table4.push(vec![
                Field::new("read rate",     "read_rate",    RATE,  rr),
                Field::new("H̄ (s)",         "history_secs", Int,   h),
                Field::new("F-measure (%)", "f_pct",        whole, eval.f_measure),
                Field::new("time (s)",      None,           MILLI, eval.inference_time.as_secs_f64()),
            ]);
        }
    }
    figures("table3_table4", scale, vec![table3, table4])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{tests::by_header, Cell};

    #[test]
    fn rfinfer_beats_smurf_star_on_a_noisy_trace() {
        let trace = WarehouseSimulator::new(base_config(Scale::Smoke, 0.7, 900)).generate();
        let [_, _, cr] = truncation_methods();
        let ours = evaluate_rfinfer(&trace, cr);
        let smurf = evaluate_smurf_star(&trace);
        assert!(ours.containment_error <= smurf.containment_error + 1e-9);
        assert!(
            ours.containment_error < 15.0,
            "got {}",
            ours.containment_error
        );
        assert!(ours.location_error < 10.0, "got {}", ours.location_error);
    }

    #[test]
    fn fig4_evidence_separates_the_real_container_in_the_belt_region() {
        let report = fig4(Scale::Smoke);
        let section = report.section("fig4");
        assert_eq!(section.table().headers.len(), 7, "epoch and six lines");
        let epochs = section.ints("epoch");
        assert!(epochs.windows(2).all(|pair| pair[0] < pair[1]));
        let final_r = *section.floats("cumulative_r").last().unwrap();
        let final_nrnc = *section.floats("cumulative_nrnc").last().unwrap();
        assert!(
            final_r > final_nrnc,
            "the real container must accumulate more evidence ({final_r} vs {final_nrnc})"
        );
    }

    #[test]
    fn fig6a_error_decreases_with_read_rate() {
        let report = fig5a_fig6a(Scale::Smoke);
        let fig6a = report.section("fig6a");
        assert_eq!(fig6a.floats("read_rate"), [0.6, 0.7, 0.8, 0.9, 1.0]);
        let containment = fig6a.floats("error_pct");
        let (at_low, at_high) = (containment[0], containment[4]);
        assert!(
            at_high <= at_low + 1e-9,
            "error should not grow with read rate"
        );
        // at perfect read rate containment inference is essentially perfect
        assert!(at_high < 5.0);
        assert!(fig6a.floats("location_error_pct")[2] < 10.0);
        // Figure 6(a) is the full-history line of Figure 5(a): one run, two sections
        assert_eq!(containment, report.section("fig5a").floats("all_error_pct"));
    }

    #[test]
    fn fig5b_cr_inference_is_not_slower_than_full_history() {
        let report = fig5b_fig6b(Scale::Smoke);
        let fig5b = report.section("fig5b");
        let secs = |header| match by_header(fig5b, header).last() {
            Some(Cell::Float(secs)) => *secs,
            other => panic!("{header}: {other:?} is not a wall-clock"),
        };
        assert!(secs("Inference(CR)") <= secs("Inference(All)") * 1.5 + 0.05);
        assert!(!fig5b.is_tracked());
        assert!(!report.json().contains("fig5b"), "time is never written");
        assert_eq!(report.section("fig6b").ints("trace_secs"), [600, 1200]);
    }
}
