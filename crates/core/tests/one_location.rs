//! A site with a single reader location runs change detection like any
//! other: calibration samples the model's own locations, so building the
//! engine does not panic on a reader outside the read-rate table, and its
//! first run reports no change on a stable trace.

use rfid_core::{InferenceConfig, InferenceEngine, ThresholdPolicy};
use rfid_types::{Epoch, RawReading, ReadRateTable, ReaderId, TagId};

#[test]
fn a_one_location_site_calibrates_and_reports_no_change_on_a_stable_trace() {
    let config = InferenceConfig::default().with_period(10);
    assert_eq!(config.change_detection, Some(ThresholdPolicy::Calibrated));
    let mut engine = InferenceEngine::new(config, ReadRateTable::diagonal(1, 0.8, 1e-4));
    let delta = engine
        .threshold()
        .expect("the engine calibrated δ when built");
    assert!(delta.is_finite() && delta > 0.0, "δ = {delta}");
    for t in 0..40 {
        for tag in [TagId::item(1), TagId::case(1), TagId::case(2)] {
            engine.observe(RawReading::new(Epoch(t), tag, ReaderId(0)));
        }
    }
    let report = engine.run_inference(Epoch(40));
    assert!(report.changes.is_empty(), "{:?}", report.changes);
    assert!(engine.detected_changes().is_empty());
}
