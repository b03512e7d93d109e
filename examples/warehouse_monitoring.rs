//! Warehouse monitoring with containment anomalies: the misplaced-item
//! scenario that motivates the paper's containment queries and change-point
//! detection.
//!
//! A warehouse runs for an hour while items are occasionally moved into the
//! wrong case ("misplaced"). The inference engine detects the containment
//! changes from the raw RFID stream alone; the example compares the detected
//! changes against the injected ground truth and also shows how the SMURF*
//! baseline fares on the same trace.
//!
//! ```text
//! cargo run --release --example warehouse_monitoring
//! ```

use rfid::core::{InferenceConfig, InferenceEngine};
use rfid::eval::{changes_f_measure, metrics::ReportedChange, ChangeMatchConfig};
use rfid::sim::{WarehouseConfig, WarehouseSimulator};
use rfid::smurf::SmurfStar;
use rfid::types::Epoch;

fn main() {
    // 1. Simulate one hour with an item moved to a wrong case every 2 minutes.
    let config = WarehouseConfig::default()
        .with_length(3600)
        .with_read_rate(0.8)
        .with_items_per_case(8)
        .with_anomaly_interval(120)
        .with_seed(11);
    let trace = WarehouseSimulator::new(config).generate();
    let true_changes = trace.truth.containment.changes();
    println!(
        "simulated {} readings, {} true containment changes",
        trace.readings.len(),
        true_changes.len()
    );

    // 2. Stream the readings through the engine with change-point detection
    //    enabled (threshold calibrated offline by sampling from the model).
    let mut engine = InferenceEngine::new(
        InferenceConfig::default().with_recent_history(500),
        trace.read_rates.clone(),
    );
    let mut readings = trace.readings.clone();
    let mut cursor = 0usize;
    let all = readings.readings().to_vec();
    for t in 0..=trace.meta.length {
        let now = Epoch(t);
        while cursor < all.len() && all[cursor].time == now {
            engine.observe(all[cursor]);
            cursor += 1;
        }
        if let Some(report) = engine.step(now) {
            for change in &report.changes {
                println!(
                    "  detected: {} moved to {:?} around {}",
                    change.object, change.new_container, change.change_at
                );
            }
        }
    }
    engine.run_inference(Epoch(trace.meta.length));

    // 3. Score the detections.
    let reported: Vec<ReportedChange> = engine
        .detected_changes()
        .iter()
        .map(|c| ReportedChange {
            object: c.object,
            change_at: c.change_at,
            new_container: c.new_container,
        })
        .collect();
    let pr = changes_f_measure(true_changes, &reported, ChangeMatchConfig::default());
    println!(
        "RFINFER change detection: precision {:.0}%, recall {:.0}%, F-measure {:.0}%",
        100.0 * pr.precision,
        100.0 * pr.recall,
        pr.f_measure()
    );

    // 4. The SMURF* baseline on the same trace, for comparison.
    let smurf = SmurfStar::new().run(&trace.readings);
    let smurf_reported: Vec<ReportedChange> = smurf
        .changes
        .iter()
        .map(|c| ReportedChange {
            object: c.object,
            change_at: c.change_at,
            new_container: c.new_container,
        })
        .collect();
    let smurf_pr = changes_f_measure(true_changes, &smurf_reported, ChangeMatchConfig::default());
    println!(
        "SMURF* change detection:  precision {:.0}%, recall {:.0}%, F-measure {:.0}%",
        100.0 * smurf_pr.precision,
        100.0 * smurf_pr.recall,
        smurf_pr.f_measure()
    );
}
