//! Accuracy metrics used throughout Section 5 / Appendix C of the paper.

use rfid_types::{ContainmentChange, ContainmentTimeline, Epoch, GroundTruth, LocationId, TagId};

/// Containment error rate (%): the fraction of evaluated objects whose
/// inferred container differs from the true container at the evaluation
/// epoch. `estimate` maps each object to its inferred container (`None` =
/// "not contained").
pub fn containment_error(
    truth: &ContainmentTimeline,
    estimate: impl Fn(TagId) -> Option<TagId>,
    objects: &[TagId],
    at: Epoch,
) -> f64 {
    if objects.is_empty() {
        return 0.0;
    }
    let wrong = objects
        .iter()
        .filter(|&&o| estimate(o) != truth.container_at(o, at))
        .count();
    100.0 * wrong as f64 / objects.len() as f64
}

/// Location error rate (%): the fraction of evaluated `(tag, epoch)` pairs
/// whose estimated location differs from the true location. Pairs for which
/// the ground truth has no location (tag not yet in the system) are skipped;
/// pairs with a true location but no estimate count as errors.
pub fn location_error(
    truth: &GroundTruth,
    estimate: impl Fn(TagId, Epoch) -> Option<LocationId>,
    tags: &[TagId],
    epochs: &[Epoch],
) -> f64 {
    let mut evaluated = 0usize;
    let mut wrong = 0usize;
    for &tag in tags {
        for &t in epochs {
            let Some(true_loc) = truth.location_at(tag, t) else {
                continue;
            };
            evaluated += 1;
            if estimate(tag, t) != Some(true_loc) {
                wrong += 1;
            }
        }
    }
    if evaluated == 0 {
        0.0
    } else {
        100.0 * wrong as f64 / evaluated as f64
    }
}

/// Precision, recall and F-measure of a detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// Fraction of reported events that match a true event.
    pub precision: f64,
    /// Fraction of true events that were reported.
    pub recall: f64,
}

impl PrecisionRecall {
    /// `F = 2 P R / (P + R)` (0 when both are 0), in percent.
    pub fn f_measure(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            100.0 * 2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

/// How detected containment changes are matched against true changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeMatchConfig {
    /// Maximum difference, in seconds, between the reported change epoch and
    /// the true change epoch for the two to be considered the same event.
    /// The paper runs inference every 300 s, so detections are naturally
    /// delayed by up to one period.
    pub time_tolerance: u32,
    /// Whether the reported *new* container must equal the true new container
    /// for the detection to count as correct.
    pub require_correct_container: bool,
}

impl Default for ChangeMatchConfig {
    fn default() -> ChangeMatchConfig {
        ChangeMatchConfig {
            time_tolerance: 600,
            require_correct_container: false,
        }
    }
}

/// A detector-agnostic view of a reported containment change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportedChange {
    /// The object reported as having changed containers.
    pub object: TagId,
    /// The epoch the detector assigned to the change.
    pub change_at: Epoch,
    /// The new container reported by the detector.
    pub new_container: Option<TagId>,
}

/// Match reported changes against the true changes and compute precision /
/// recall. Each true change can be matched by at most one report and vice
/// versa.
pub fn changes_f_measure(
    true_changes: &[ContainmentChange],
    reported: &[ReportedChange],
    config: ChangeMatchConfig,
) -> PrecisionRecall {
    let mut matched_truth = vec![false; true_changes.len()];
    let mut matched_reports = 0usize;
    for report in reported {
        let hit = true_changes.iter().enumerate().find(|(idx, truth)| {
            !matched_truth[*idx]
                && truth.object == report.object
                && truth
                    .time
                    .since(report.change_at)
                    .max(report.change_at.since(truth.time))
                    <= config.time_tolerance
                && (!config.require_correct_container
                    || truth.new_container == report.new_container)
        });
        if let Some((idx, _)) = hit {
            matched_truth[idx] = true;
            matched_reports += 1;
        }
    }
    let precision = if reported.is_empty() {
        if true_changes.is_empty() {
            1.0
        } else {
            0.0
        }
    } else {
        matched_reports as f64 / reported.len() as f64
    };
    let recall = if true_changes.is_empty() {
        1.0
    } else {
        matched_truth.iter().filter(|m| **m).count() as f64 / true_changes.len() as f64
    };
    PrecisionRecall { precision, recall }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_types::{ContainmentMap, ContainmentTimeline};

    fn truth() -> GroundTruth {
        let map: ContainmentMap = [
            (TagId::item(1), TagId::case(1)),
            (TagId::item(2), TagId::case(1)),
            (TagId::item(3), TagId::case(2)),
        ]
        .into_iter()
        .collect();
        let mut timeline = ContainmentTimeline::new(map);
        timeline.record(ContainmentChange {
            time: Epoch(100),
            object: TagId::item(2),
            old_container: Some(TagId::case(1)),
            new_container: Some(TagId::case(2)),
        });
        let mut truth = GroundTruth::new(timeline);
        for tag in [
            TagId::item(1),
            TagId::item(2),
            TagId::item(3),
            TagId::case(1),
            TagId::case(2),
        ] {
            truth.record_location(tag, Epoch(0), LocationId(0));
            truth.record_location(tag, Epoch(50), LocationId(1));
        }
        truth
    }

    #[test]
    fn containment_error_counts_mismatches() {
        let truth = truth();
        let objects = [TagId::item(1), TagId::item(2), TagId::item(3)];
        // Perfect estimate before the change.
        let perfect = |o: TagId| truth.container_at(o, Epoch(10));
        let timeline = &truth.containment;
        assert_eq!(
            containment_error(timeline, perfect, &objects, Epoch(10)),
            0.0
        );
        // An estimate that ignores the change at t=100 is wrong for item 2.
        let stale = |o: TagId| truth.container_at(o, Epoch(10));
        let err = containment_error(timeline, stale, &objects, Epoch(200));
        assert!((err - 100.0 / 3.0).abs() < 1e-9);
        assert_eq!(containment_error(timeline, |_| None, &[], Epoch(0)), 0.0);
    }

    #[test]
    fn location_error_skips_unknown_truth_and_counts_missing_estimates() {
        let truth = truth();
        let tags = [TagId::item(1), TagId::item(99)]; // 99 has no ground truth
        let epochs = [Epoch(10), Epoch(60)];
        // Correct at t=10 (loc 0), wrong at t=60 (estimate says loc 0, truth 1).
        let estimate = |_tag: TagId, _t: Epoch| Some(LocationId(0));
        let err = location_error(&truth, estimate, &tags, &epochs);
        assert!((err - 50.0).abs() < 1e-9);
        // A missing estimate counts as an error.
        let none = |_tag: TagId, _t: Epoch| None;
        assert!((location_error(&truth, none, &tags, &epochs) - 100.0).abs() < 1e-9);
        // no evaluable pairs -> zero error
        assert_eq!(
            location_error(&truth, none, &[TagId::item(99)], &epochs),
            0.0
        );
    }

    #[test]
    fn f_measure_combines_precision_and_recall() {
        let pr = PrecisionRecall {
            precision: 1.0,
            recall: 0.5,
        };
        assert!((pr.f_measure() - 2.0 / 3.0 * 100.0).abs() < 1e-9);
        let zero = PrecisionRecall {
            precision: 0.0,
            recall: 0.0,
        };
        assert_eq!(zero.f_measure(), 0.0);
    }

    #[test]
    fn change_matching_respects_tolerance_and_object() {
        let truth = truth();
        let true_changes = truth.containment.changes();
        // correct object, within tolerance
        let good = ReportedChange {
            object: TagId::item(2),
            change_at: Epoch(300),
            new_container: Some(TagId::case(2)),
        };
        let pr = changes_f_measure(true_changes, &[good], ChangeMatchConfig::default());
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        assert_eq!(pr.f_measure(), 100.0);
        // wrong object -> false positive and missed truth
        let bad = ReportedChange {
            object: TagId::item(3),
            change_at: Epoch(100),
            new_container: Some(TagId::case(1)),
        };
        let pr = changes_f_measure(true_changes, &[bad], ChangeMatchConfig::default());
        assert_eq!(pr.precision, 0.0);
        assert_eq!(pr.recall, 0.0);
        // too late -> no match
        let late = ReportedChange {
            object: TagId::item(2),
            change_at: Epoch(1200),
            new_container: Some(TagId::case(2)),
        };
        let pr = changes_f_measure(true_changes, &[late], ChangeMatchConfig::default());
        assert_eq!(pr.recall, 0.0);
    }

    #[test]
    fn change_matching_can_require_the_correct_container() {
        let truth = truth();
        let report = ReportedChange {
            object: TagId::item(2),
            change_at: Epoch(120),
            new_container: Some(TagId::case(1)), // wrong container
        };
        let strict = ChangeMatchConfig {
            require_correct_container: true,
            ..Default::default()
        };
        let pr = changes_f_measure(truth.containment.changes(), &[report], strict);
        assert_eq!(pr.recall, 0.0);
        let lenient = ChangeMatchConfig::default();
        let pr = changes_f_measure(truth.containment.changes(), &[report], lenient);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn empty_inputs_behave_sensibly() {
        let pr = changes_f_measure(&[], &[], ChangeMatchConfig::default());
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        let truth = truth();
        let pr = changes_f_measure(
            truth.containment.changes(),
            &[],
            ChangeMatchConfig::default(),
        );
        assert_eq!(pr.precision, 0.0);
        assert_eq!(pr.recall, 0.0);
    }
}
