//! End-to-end integration tests spanning the whole workspace: simulator →
//! inference → evaluation, the SMURF* comparison, and the lab-trace
//! emulation. These mirror (at smoke scale) the claims of Section 5.1/5.2.

mod test_support;

use rfid::core::{InferenceConfig, TruncationPolicy};
use rfid::eval::{changes_f_measure, metrics::ReportedChange, ChangeMatchConfig};
use rfid::sim::{LabConfig, LabTraceId, WarehouseConfig, WarehouseSimulator};
use rfid::smurf::SmurfStar;
use test_support::{containment_accuracy, run_engine};

#[test]
fn stable_containment_is_recovered_with_high_accuracy() {
    // Section 5.1: with stable containment and noisy readers, containment
    // error stays below ~7% and location inference is nearly perfect.
    let trace = WarehouseSimulator::new(
        WarehouseConfig::default()
            .with_length(1200)
            .with_read_rate(0.7)
            .with_items_per_case(6)
            .with_cases_per_pallet(2)
            .with_seed(100),
    )
    .generate();
    let engine = run_engine(
        &trace,
        InferenceConfig::default().without_change_detection(),
    );
    let accuracy = containment_accuracy(&trace, |o| engine.container_of(o));
    assert!(
        accuracy > 0.93,
        "containment accuracy should exceed 93%, got {:.1}%",
        100.0 * accuracy
    );
}

#[test]
fn critical_region_truncation_matches_full_history_accuracy() {
    let trace = WarehouseSimulator::new(
        WarehouseConfig::default()
            .with_length(1500)
            .with_read_rate(0.8)
            .with_items_per_case(6)
            .with_cases_per_pallet(2)
            .with_seed(101),
    )
    .generate();
    let full = run_engine(
        &trace,
        InferenceConfig::default()
            .with_truncation(TruncationPolicy::Full)
            .without_change_detection(),
    );
    let cr = run_engine(
        &trace,
        InferenceConfig::default().without_change_detection(),
    );
    let full_acc = containment_accuracy(&trace, |o| full.container_of(o));
    let cr_acc = containment_accuracy(&trace, |o| cr.container_of(o));
    assert!(
        cr_acc >= full_acc - 0.05,
        "CR accuracy ({cr_acc:.3}) should be within 5 points of full history ({full_acc:.3})"
    );
    // and the CR engine retains (far) less history
    assert!(cr.stored_observations() <= full.stored_observations());
}

#[test]
fn rfinfer_is_at_least_as_accurate_as_smurf_star_on_lab_traces() {
    // Section 5.2 / Figure 5(d): RFINFER dominates SMURF* on the lab traces.
    for trace_id in [LabTraceId::T1, LabTraceId::T3, LabTraceId::T4] {
        let trace = LabConfig::published(trace_id).generate();
        let engine = run_engine(&trace, InferenceConfig::default());
        let ours = containment_accuracy(&trace, |o| engine.container_of(o));
        let smurf_outcome = SmurfStar::new().run(&trace.readings);
        let smurf = containment_accuracy(&trace, |o| smurf_outcome.container_of(o));
        assert!(
            ours + 1e-9 >= smurf,
            "{}: RFINFER ({ours:.3}) should not lose to SMURF* ({smurf:.3})",
            trace_id.label()
        );
        assert!(
            ours > 0.85,
            "{}: RFINFER accuracy should exceed 85%, got {ours:.3}",
            trace_id.label()
        );
    }
}

#[test]
fn injected_containment_changes_are_detected() {
    // Section 5.1, containment change detection: with anomalies injected and
    // a read rate of 0.8 the detector should reach a solid F-measure.
    let trace = WarehouseSimulator::new(
        WarehouseConfig::default()
            .with_length(2400)
            .with_read_rate(0.85)
            .with_items_per_case(6)
            .with_cases_per_pallet(2)
            .with_anomaly_interval(120)
            .with_seed(102),
    )
    .generate();
    assert!(!trace.truth.containment.changes().is_empty());
    let engine = run_engine(&trace, InferenceConfig::default().with_recent_history(500));
    let reported: Vec<ReportedChange> = engine
        .detected_changes()
        .iter()
        .map(|c| ReportedChange {
            object: c.object,
            change_at: c.change_at,
            new_container: c.new_container,
        })
        .collect();
    let pr = changes_f_measure(
        trace.truth.containment.changes(),
        &reported,
        ChangeMatchConfig::default(),
    );
    assert!(
        pr.f_measure() >= 60.0,
        "change-detection F-measure should be solid at RR=0.85, got {:.0}%",
        pr.f_measure()
    );
}

#[test]
fn lab_traces_with_staged_changes_have_higher_error_but_stay_bounded() {
    // Figure 5(d): containment changes (T5-T8) raise the error, but it stays
    // within ~13% even with all noise factors combined.
    let stable = LabConfig::published(LabTraceId::T2).generate();
    let changed = LabConfig::published(LabTraceId::T6).generate();
    let engine_stable = run_engine(&stable, InferenceConfig::default());
    let engine_changed = run_engine(&changed, InferenceConfig::default());
    let acc_stable = containment_accuracy(&stable, |o| engine_stable.container_of(o));
    let acc_changed = containment_accuracy(&changed, |o| engine_changed.container_of(o));
    assert!(acc_stable >= acc_changed - 0.02);
    assert!(
        acc_changed > 0.8,
        "even with staged changes accuracy stays above 80%, got {acc_changed:.3}"
    );
}
