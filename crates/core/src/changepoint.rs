//! Change-point detection for containment relationships (Section 3.3,
//! Appendix A.2).
//!
//! For every object the detector compares two hypotheses over the observed
//! window `[0, T]`:
//!
//! * **null** — the object stayed in one (best) container the whole time;
//!   its score is `L(C_{0:T}) = max_c E_co(T)`;
//! * **change at t'** — the object was in one container before `t'` and a
//!   (possibly different) container from `t'` on; its score is
//!   `max_{t'} [ max_c E_co(t') + max_{c'} (E_{c'o}(T) − E_{c'o}(t')) ]`.
//!
//! The generalized-likelihood-ratio statistic `Δ_o(T)` is the difference
//! between the best change hypothesis and the null hypothesis (the paper's
//! Eq. 6 up to sign: oriented so that a larger value is stronger evidence of
//! a change), and a change is flagged when it exceeds a threshold δ. δ is
//! calibrated offline by sampling observation sequences from the model itself
//! (which by construction contain no change point) and taking the largest
//! statistic seen — any larger value observed online is then unlikely to be a
//! false positive.

use crate::likelihood::LikelihoodModel;
use crate::rfinfer::{InferenceOutcome, ObjectEvidence};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rfid_types::{Epoch, LocationId, TagId};

/// A detected containment change for one object.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedChange {
    /// The object whose containment changed.
    pub object: TagId,
    /// The epoch at which the change most likely happened.
    pub change_at: Epoch,
    /// The best container before the change.
    pub old_container: Option<TagId>,
    /// The best container after the change.
    pub new_container: Option<TagId>,
    /// The value of the GLR statistic that triggered the detection.
    pub statistic: f64,
}

/// The change-point statistic for one object, with the split that achieves
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeStatistic {
    /// `Δ_o(T)`: best split score minus best single-container score.
    pub delta: f64,
    /// The split epoch achieving the maximum (observations strictly before it
    /// belong to the prefix).
    pub split_at: Epoch,
    /// Best container on the prefix.
    pub prefix_container: Option<TagId>,
    /// Best container on the suffix.
    pub suffix_container: Option<TagId>,
}

/// Compute the change-point statistic for one object from the point evidence
/// produced by RFINFER. Returns `None` when the object has no candidate with
/// point evidence or fewer than two observations (no split possible).
pub fn change_statistic(evidence: ObjectEvidence<'_>) -> Option<ChangeStatistic> {
    change_statistic_with(evidence, &mut Vec::new())
}

/// [`change_statistic`] over a reusable buffer of per-candidate sums, so a
/// pass over every object of an outcome allocates once.
fn change_statistic_with(
    evidence: ObjectEvidence<'_>,
    sums: &mut Vec<(f64, f64)>,
) -> Option<ChangeStatistic> {
    let epochs = evidence.epochs();
    if epochs.len() < 2 {
        return None;
    }

    // Per candidate, its total evidence `E_co(T)` and the running sum
    // `E_co(t')` of the observations before the split, both summed
    // sequentially in epoch order.
    sums.clear();
    for (_, column) in evidence.columns() {
        let mut total = 0.0;
        column.iter().for_each(|&e| total += e);
        sums.push((total, 0.0));
    }
    let (_, best_total) = argmax(sums.iter().map(|&(total, _)| total));

    // Best split: for every split index k in 1..n, best prefix candidate +
    // best suffix candidate.
    let mut best = ChangeStatistic {
        delta: f64::NEG_INFINITY,
        split_at: epochs[0],
        prefix_container: None,
        suffix_container: None,
    };
    let mut best_pair = None;
    for (k, &split_at) in epochs.iter().enumerate().skip(1) {
        for ((_, column), sum) in evidence.columns().zip(sums.iter_mut()) {
            sum.1 += column[k - 1];
        }
        let (pre_ci, pre_score) = argmax(sums.iter().map(|&(_, prefix)| prefix));
        let (suf_ci, suf_score) = argmax(sums.iter().map(|&(total, prefix)| total - prefix));
        let delta = pre_score + suf_score - best_total;
        if delta > best.delta {
            best.delta = delta;
            best.split_at = split_at;
            best_pair = Some((pre_ci, suf_ci));
        }
    }
    if let Some((pre_ci, suf_ci)) = best_pair {
        let container = |ci: usize| evidence.columns().nth(ci).map(|(c, _)| c);
        best.prefix_container = container(pre_ci);
        best.suffix_container = container(suf_ci);
    }
    Some(best)
}

/// The index and value of the largest of `values`, the last of equals.
fn argmax(values: impl Iterator<Item = f64>) -> (usize, f64) {
    let values = values.enumerate();
    values
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
}

/// Run change-point detection over every object of an inference outcome.
/// Objects whose statistic exceeds `threshold` are reported, each with the
/// suffix container as its new containment estimate.
pub fn detect_changes(outcome: &InferenceOutcome, threshold: f64) -> Vec<DetectedChange> {
    let mut changes = Vec::new();
    let mut sums = Vec::new();
    for evidence in outcome.objects() {
        if let Some(stat) = change_statistic_with(evidence, &mut sums) {
            if stat.delta >= threshold && stat.prefix_container != stat.suffix_container {
                changes.push(DetectedChange {
                    object: evidence.object(),
                    change_at: stat.split_at,
                    old_container: stat.prefix_container,
                    new_container: stat.suffix_container,
                    statistic: stat.delta,
                });
            }
        }
    }
    changes
}

/// Sequences sampled by a calibration.
const CALIBRATION_SAMPLES: usize = 60;
/// Epochs per sampled sequence.
const CALIBRATION_EPOCHS: usize = 60;
/// Decoy containers per sampled sequence.
const CALIBRATION_DECOYS: usize = 4;
/// Multiplicative safety margin on the largest sampled statistic.
const CALIBRATION_MARGIN: f64 = 2.5;
/// Seed of the sampling RNG, so δ is a pure function of the read rates.
const CALIBRATION_SEED: u64 = 23;

/// Offline calibration of the detection threshold δ (Section 3.3), reached
/// only through [`ThresholdPolicy::resolve`](crate::ThresholdPolicy::resolve).
///
/// Hypothetical observation sequences are sampled from the generative model
/// of Section 3.1 itself over the model's own reader locations: one object
/// travels with its (fixed) true container, decoy containers sit nearby, and
/// every reader independently detects every tag according to the read-rate
/// table. None of these sequences contains a change point, so any change
/// statistic they produce is pure noise; δ is the largest statistic observed
/// across the samples, times a safety margin.
pub(crate) fn calibrate(model: &LikelihoodModel) -> f64 {
    use crate::observations::Observations;
    use crate::rfinfer::RfInfer;
    use rfid_types::{RawReading, ReadingBatch};

    let mut rng = ChaCha8Rng::seed_from_u64(CALIBRATION_SEED);
    let locations: Vec<LocationId> = model.rates().locations().collect();
    // The reader (other than the co-located one) most likely to detect a
    // tag at `a` — i.e. the overlapping neighbour, if the deployment has
    // reader overlap.
    let neighbour = |a: LocationId| -> LocationId {
        locations
            .iter()
            .copied()
            .filter(|&r| r != a)
            .max_by(|&x, &y| {
                model
                    .rates()
                    .rate(x, a)
                    .partial_cmp(&model.rates().rate(y, a))
                    .unwrap()
            })
            .unwrap_or(a)
    };
    let mut worst: f64 = 0.0;
    for sample in 0..CALIBRATION_SAMPLES {
        let object = TagId::item(1_000_000 + sample as u64);
        let real = TagId::case(1_000_000);
        let decoys: Vec<TagId> = (0..CALIBRATION_DECOYS)
            .map(|d| TagId::case(1_000_001 + d as u64))
            .collect();
        let mut readings = Vec::new();
        // A representative no-change world: the object and its container
        // travel from loc_a to loc_b halfway through; decoy containers
        // sit at loc_a (co-located early), at loc_b (co-located late), and
        // at the readers overlapping those locations — the configurations
        // that generate the largest no-change statistics in a real
        // deployment.
        let loc_a = locations[rng.gen_range(0..locations.len())];
        let loc_b = locations[rng.gen_range(0..locations.len())];
        let decoy_locations = [loc_a, loc_b, neighbour(loc_b), neighbour(loc_a)];
        let half = CALIBRATION_EPOCHS / 2;
        for t in 0..CALIBRATION_EPOCHS {
            let epoch = Epoch(t as u32);
            let real_loc = if t < half { loc_a } else { loc_b };
            let mut tags_at: Vec<(TagId, LocationId)> = vec![(object, real_loc), (real, real_loc)];
            for (i, decoy) in decoys.iter().enumerate() {
                let at = decoy_locations
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| locations[rng.gen_range(0..locations.len())]);
                tags_at.push((*decoy, at));
            }
            // Sample readings from pi(r, a), skipping readers whose
            // detection probability is negligible (background).
            for (tag, at) in tags_at {
                for &reader in &locations {
                    let p = model.rates().rate(reader, at);
                    if p > 1e-3 && rng.gen_bool(p) {
                        readings.push(RawReading::new(epoch, tag, reader.reader()));
                    }
                }
            }
        }
        if readings.is_empty() {
            continue;
        }
        let obs = Observations::from_batch(&ReadingBatch::from_readings(readings));
        let outcome = RfInfer::new(model, &obs).run();
        if let Some(evidence) = outcome.object(object) {
            if let Some(stat) = change_statistic(evidence) {
                worst = worst.max(stat.delta);
            }
        }
    }
    (worst * CALIBRATION_MARGIN).max(1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThresholdPolicy;
    use crate::observations::Observations;
    use crate::rfinfer::RfInfer;
    use rfid_types::{RawReading, ReadRateTable, ReaderId, ReadingBatch};

    fn model(n: usize) -> LikelihoodModel {
        LikelihoodModel::new(ReadRateTable::diagonal(n, 0.8, 1e-4))
    }

    /// Deterministic observations where item 1 travels with case 1 for the
    /// first ten epochs and then with case 2 (which is at a different
    /// location) for the next ten.
    fn obs_with_change() -> Observations {
        let mut readings = Vec::new();
        for t in 0..10u32 {
            readings.push(RawReading::new(Epoch(t), TagId::item(1), ReaderId(0)));
            readings.push(RawReading::new(Epoch(t), TagId::case(1), ReaderId(0)));
            readings.push(RawReading::new(Epoch(t), TagId::case(2), ReaderId(1)));
        }
        for t in 10..20u32 {
            readings.push(RawReading::new(Epoch(t), TagId::item(1), ReaderId(1)));
            readings.push(RawReading::new(Epoch(t), TagId::case(1), ReaderId(0)));
            readings.push(RawReading::new(Epoch(t), TagId::case(2), ReaderId(1)));
        }
        Observations::from_batch(&ReadingBatch::from_readings(readings))
    }

    fn obs_without_change() -> Observations {
        let mut readings = Vec::new();
        for t in 0..20u32 {
            readings.push(RawReading::new(Epoch(t), TagId::item(1), ReaderId(0)));
            readings.push(RawReading::new(Epoch(t), TagId::case(1), ReaderId(0)));
            readings.push(RawReading::new(Epoch(t), TagId::case(2), ReaderId(1)));
        }
        Observations::from_batch(&ReadingBatch::from_readings(readings))
    }

    #[test]
    fn statistic_is_large_when_containment_changed() {
        let m = model(2);
        let outcome = RfInfer::new(&m, &obs_with_change()).run();
        let stat = change_statistic(outcome.object(TagId::item(1)).unwrap()).unwrap();
        assert!(
            stat.delta > 10.0,
            "clear change should score high, got {}",
            stat.delta
        );
        assert_eq!(stat.prefix_container, Some(TagId::case(1)));
        assert_eq!(stat.suffix_container, Some(TagId::case(2)));
        assert_eq!(stat.split_at, Epoch(10));
    }

    #[test]
    fn statistic_is_small_without_a_change() {
        let m = model(2);
        let outcome = RfInfer::new(&m, &obs_without_change()).run();
        let stat = change_statistic(outcome.object(TagId::item(1)).unwrap()).unwrap();
        assert!(
            stat.delta.abs() < 1.0,
            "no change: statistic stays near zero, got {}",
            stat.delta
        );
    }

    #[test]
    fn detect_changes_applies_the_threshold() {
        let m = model(2);
        let with = RfInfer::new(&m, &obs_with_change()).run();
        let without = RfInfer::new(&m, &obs_without_change()).run();
        let threshold = 5.0;
        let found = detect_changes(&with, threshold);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].object, TagId::item(1));
        assert_eq!(found[0].new_container, Some(TagId::case(2)));
        assert!(found[0].statistic >= threshold);
        assert!(detect_changes(&without, threshold).is_empty());
    }

    #[test]
    fn statistic_requires_candidates_and_multiple_observations() {
        let mut outcome = InferenceOutcome::new(1, 2);
        outcome
            .push_object(TagId::item(0), None, None, &[], &[])
            .unwrap();
        let single = [(TagId::case(1), 0.0, &[-1.0][..])];
        let case = Some(TagId::case(1));
        outcome
            .push_object(TagId::item(1), case, case, &[Epoch(0)], &single)
            .unwrap();
        assert!(change_statistic(outcome.object(TagId::item(0)).unwrap()).is_none());
        assert!(change_statistic(outcome.object(TagId::item(1)).unwrap()).is_none());
    }

    #[test]
    fn calibrated_threshold_separates_change_from_no_change() {
        let m = model(4);
        let delta = ThresholdPolicy::Calibrated.resolve(&m);
        assert!(delta > 0.0);
        // A genuine change scores above the calibrated threshold...
        let with = RfInfer::new(&m, &obs_with_change()).run();
        let stat = change_statistic(with.object(TagId::item(1)).unwrap()).unwrap();
        assert!(stat.delta > delta);
        // ...and a stable object scores below it.
        let without = RfInfer::new(&m, &obs_without_change()).run();
        let stat = change_statistic(without.object(TagId::item(1)).unwrap()).unwrap();
        assert!(stat.delta < delta);
    }

    #[test]
    fn calibration_is_deterministic_given_the_rng_seed() {
        // Overlapping readers, so the no-change statistic is above the floor.
        let noisy = |n, own, background| {
            let m = LikelihoodModel::new(ReadRateTable::diagonal(n, own, background));
            ThresholdPolicy::Calibrated.resolve(&m)
        };
        let a = noisy(5, 0.6, 1e-2);
        assert!(a > 1e-3, "δ = {a}");
        assert_eq!(a, noisy(5, 0.6, 1e-2), "δ is a function of the table");
        assert_ne!(a, noisy(3, 0.5, 5e-2), "the tables calibrate apart");
        assert_eq!(ThresholdPolicy::Fixed(7.5).resolve(&model(3)), 7.5);
    }
}
