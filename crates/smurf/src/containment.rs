//! SMURF* — heuristic containment inference and change detection on top of
//! per-tag SMURF smoothing (Appendix C.3 of the paper).
//!
//! For every item the algorithm counts, per candidate case, how often the
//! smoothed locations of item and case coincide. Within the item's adaptive
//! window it then checks, at each potential change time `t`, whether the most
//! frequently co-located case before `t` equals the one after `t`. If they
//! differ *and* none of the top-k cases before `t` appears among the top-k
//! after `t`, a containment change is reported at `t`, and the case most
//! co-located from `t` onward becomes the item's new container.

use crate::smoothing::{SmoothedTag, SmurfSmoother};
use rfid_types::{ContainmentMap, Epoch, LocationId, ReadingBatch, TagId};
use std::collections::{BTreeMap, BTreeSet};

/// The `k` of the top-k co-location check used before reporting a
/// containment change.
const TOP_K: usize = 3;
/// Epoch stride at which co-location is sampled (sampling every epoch is
/// unnecessary because smoothed locations change slowly).
const SAMPLE_STRIDE: u32 = 5;

/// A containment change reported by SMURF*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmurfChange {
    /// The item whose containment changed.
    pub object: TagId,
    /// The epoch at which the change was detected.
    pub change_at: Epoch,
    /// The container before the change.
    pub old_container: Option<TagId>,
    /// The container after the change.
    pub new_container: Option<TagId>,
}

/// The output of one SMURF* run.
#[derive(Debug, Clone, Default)]
pub struct SmurfStarOutcome {
    /// Final containment estimate per item.
    pub containment: ContainmentMap,
    /// Smoothed per-tag location estimates.
    pub locations: BTreeMap<TagId, SmoothedTag>,
    /// Containment changes reported.
    pub changes: Vec<SmurfChange>,
}

impl SmurfStarOutcome {
    /// Smoothed location of a tag at an epoch. Items with a container but no
    /// own estimate inherit the container's smoothed location.
    pub fn location_of(&self, tag: TagId, t: Epoch) -> Option<LocationId> {
        if let Some(own) = self.locations.get(&tag).and_then(|s| s.location_at(t)) {
            return Some(own);
        }
        if tag.is_object() {
            if let Some(container) = self.containment.container_of(tag) {
                return self
                    .locations
                    .get(&container)
                    .and_then(|s| s.location_at(t));
            }
        }
        None
    }

    /// The inferred container of an object.
    pub fn container_of(&self, object: TagId) -> Option<TagId> {
        self.containment.container_of(object)
    }
}

/// The SMURF* baseline algorithm.
#[derive(Debug, Clone, Default)]
pub struct SmurfStar;

impl SmurfStar {
    /// Create the baseline.
    pub fn new() -> SmurfStar {
        SmurfStar
    }

    /// Run SMURF* over a batch of raw readings.
    pub fn run(&self, batch: &ReadingBatch) -> SmurfStarOutcome {
        // 1. Per-tag smoothing.
        let mut per_tag: BTreeMap<TagId, Vec<(Epoch, Vec<LocationId>)>> = BTreeMap::new();
        for (tag, readings) in batch.clone().by_tag() {
            let mut merged: Vec<(Epoch, Vec<LocationId>)> = Vec::new();
            for (epoch, reader) in readings {
                match merged.last_mut() {
                    Some((e, readers)) if *e == epoch => readers.push(reader.location()),
                    _ => merged.push((epoch, vec![reader.location()])),
                }
            }
            per_tag.insert(tag, merged);
        }
        let locations = SmurfSmoother::new().smooth_all(&per_tag);

        // 2. Per-item co-location counting over sampled epochs.
        let items: Vec<TagId> = locations
            .keys()
            .copied()
            .filter(|t| t.is_object())
            .collect();
        let cases: Vec<(TagId, &SmoothedTag)> = locations
            .iter()
            .filter(|(tag, _)| tag.is_container())
            .map(|(tag, smoothed)| (*tag, smoothed))
            .collect();
        let mut containment = ContainmentMap::new();
        let mut changes = Vec::new();

        for &item in &items {
            let item_smoothed = &locations[&item];
            if item_smoothed.locations.is_empty() {
                continue;
            }
            let first = item_smoothed.locations.first().unwrap().0;
            let last = item_smoothed.locations.last().unwrap().0;
            // Per sampled epoch, which cases share the item's smoothed
            // location.
            let mut colocated_at: Vec<(Epoch, Vec<TagId>)> = Vec::new();
            let mut t = first;
            while t <= last {
                if let Some(item_loc) = item_smoothed.location_at(t) {
                    let cs: Vec<TagId> = cases
                        .iter()
                        .filter(|(_, case)| case.location_at(t) == Some(item_loc))
                        .map(|(tag, _)| *tag)
                        .collect();
                    colocated_at.push((t, cs));
                }
                t = t.plus(SAMPLE_STRIDE);
            }
            if colocated_at.is_empty() {
                continue;
            }

            match scan_for_change(item, &colocated_at, TOP_K) {
                Some(change) => {
                    if let Some(new_container) = change.new_container {
                        containment.set(item, new_container);
                    }
                    changes.push(change);
                }
                // Default containment: the overall most co-located case.
                None => {
                    if let Some(&c) = rank_cases(&count_cases(&colocated_at)).first() {
                        containment.set(item, c);
                    }
                }
            }
        }

        SmurfStarOutcome {
            containment,
            locations,
            changes,
        }
    }
}

/// How many of `samples` each case is co-located in.
fn count_cases(samples: &[(Epoch, Vec<TagId>)]) -> BTreeMap<TagId, usize> {
    let mut counts = BTreeMap::new();
    for case in samples.iter().flat_map(|(_, cases)| cases) {
        *counts.entry(*case).or_insert(0) += 1;
    }
    counts
}

/// Rank cases by their co-location count, most frequent first (ties broken
/// by tag id for determinism).
fn rank_cases(counts: &BTreeMap<TagId, usize>) -> Vec<TagId> {
    let mut ranked: Vec<(TagId, usize)> = counts.iter().map(|(c, n)| (*c, *n)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.into_iter().map(|(c, _)| c).collect()
}

/// Change detection: the first candidate change time whose best case before
/// differs from the best case after with disjoint top-k sets on either side.
/// The counts on both sides are kept running — each split moves one sample
/// from `after` to `before` — so the scan is linear in the samples.
fn scan_for_change(
    item: TagId,
    colocated_at: &[(Epoch, Vec<TagId>)],
    top_k: usize,
) -> Option<SmurfChange> {
    let mut before: BTreeMap<TagId, usize> = BTreeMap::new();
    let mut after = count_cases(colocated_at);
    for split in 1..colocated_at.len() {
        for case in &colocated_at[split - 1].1 {
            *before.entry(*case).or_insert(0) += 1;
            let left = after.get_mut(case).expect("`after` counted every sample");
            *left -= 1;
            // a case ranks on a side only while it has a sample there
            if *left == 0 {
                after.remove(case);
            }
        }
        let (before, after) = (rank_cases(&before), rank_cases(&after));
        let (Some(&best_before), Some(&best_after)) = (before.first(), after.first()) else {
            continue;
        };
        if best_before == best_after {
            continue;
        }
        let top_before: BTreeSet<TagId> = before.iter().take(top_k).copied().collect();
        let top_after: BTreeSet<TagId> = after.iter().take(top_k).copied().collect();
        if top_before.is_disjoint(&top_after) {
            return Some(SmurfChange {
                object: item,
                change_at: colocated_at[split].0,
                old_container: Some(best_before),
                new_container: Some(best_after),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_types::{RawReading, ReaderId};

    fn batch(readings: Vec<(u32, TagId, u16)>) -> ReadingBatch {
        ReadingBatch::from_readings(
            readings
                .into_iter()
                .map(|(t, tag, r)| RawReading::new(Epoch(t), tag, ReaderId(r)))
                .collect(),
        )
    }

    /// Item 1 travels with case 1 (location 0 then 1); case 2 stays at 0.
    fn stable_batch() -> ReadingBatch {
        let mut readings = Vec::new();
        for t in 0..40u32 {
            let loc = if t < 20 { 0 } else { 1 };
            readings.push((t, TagId::item(1), loc));
            readings.push((t, TagId::case(1), loc));
            readings.push((t, TagId::case(2), 0));
        }
        batch(readings)
    }

    #[test]
    fn smurf_star_recovers_stable_containment() {
        let outcome = SmurfStar::new().run(&stable_batch());
        assert_eq!(outcome.container_of(TagId::item(1)), Some(TagId::case(1)));
        assert!(outcome.changes.is_empty());
        assert_eq!(
            outcome.location_of(TagId::item(1), Epoch(5)),
            Some(LocationId(0))
        );
        assert_eq!(
            outcome.location_of(TagId::item(1), Epoch(35)),
            Some(LocationId(1))
        );
    }

    #[test]
    fn smurf_star_detects_a_clear_containment_change() {
        // Item travels with case 1 at location 0 for 60 epochs, then with
        // case 2 at location 2; the cases never share a location.
        let mut readings = Vec::new();
        for t in 0..60u32 {
            readings.push((t, TagId::item(1), 0));
            readings.push((t, TagId::case(1), 0));
            readings.push((t, TagId::case(2), 2));
        }
        for t in 60..120u32 {
            readings.push((t, TagId::item(1), 2));
            readings.push((t, TagId::case(1), 0));
            readings.push((t, TagId::case(2), 2));
        }
        let outcome = SmurfStar::new().run(&batch(readings));
        assert_eq!(outcome.container_of(TagId::item(1)), Some(TagId::case(2)));
        assert_eq!(outcome.changes.len(), 1);
        let change = outcome.changes[0];
        assert_eq!(change.old_container, Some(TagId::case(1)));
        assert_eq!(change.new_container, Some(TagId::case(2)));
        assert!(change.change_at >= Epoch(40) && change.change_at <= Epoch(90));
    }

    #[test]
    fn item_with_no_colocated_case_gets_no_container() {
        let readings = (0..10u32).map(|t| (t, TagId::item(5), 0)).collect();
        let outcome = SmurfStar::new().run(&batch(readings));
        assert_eq!(outcome.container_of(TagId::item(5)), None);
        // the item still has smoothed locations of its own
        assert_eq!(
            outcome.location_of(TagId::item(5), Epoch(3)),
            Some(LocationId(0))
        );
    }

    #[test]
    fn top_k_check_suppresses_spurious_changes() {
        // The item's most co-located case flips between two cases that are
        // both always nearby (both remain in each top-k set), so no change
        // should be reported.
        let mut readings = Vec::new();
        for t in 0..80u32 {
            readings.push((t, TagId::item(1), 0));
            readings.push((t, TagId::case(1), 0));
            if t % 2 == 0 {
                readings.push((t, TagId::case(2), 0));
            }
        }
        let outcome = SmurfStar::new().run(&batch(readings));
        assert!(outcome.changes.is_empty());
        assert_eq!(outcome.container_of(TagId::item(1)), Some(TagId::case(1)));
    }

    /// The scan as first written: every candidate split re-ranks both sides
    /// from scratch. Quadratic, and the rule [`scan_for_change`] must keep.
    fn scan_by_recounting(
        item: TagId,
        colocated_at: &[(Epoch, Vec<TagId>)],
        top_k: usize,
    ) -> Option<SmurfChange> {
        for split in 1..colocated_at.len() {
            let before = rank_cases(&count_cases(&colocated_at[..split]));
            let after = rank_cases(&count_cases(&colocated_at[split..]));
            let (Some(&best_before), Some(&best_after)) = (before.first(), after.first()) else {
                continue;
            };
            if best_before == best_after {
                continue;
            }
            let top_before: BTreeSet<TagId> = before.iter().take(top_k).copied().collect();
            let top_after: BTreeSet<TagId> = after.iter().take(top_k).copied().collect();
            if top_before.is_disjoint(&top_after) {
                return Some(SmurfChange {
                    object: item,
                    change_at: colocated_at[split].0,
                    old_container: Some(best_before),
                    new_container: Some(best_after),
                });
            }
        }
        None
    }

    #[test]
    fn running_counts_scan_matches_the_recounting_scan() {
        let samples = |cases_at: &dyn Fn(u32) -> Vec<u64>| -> Vec<(Epoch, Vec<TagId>)> {
            (0..60u32)
                .map(|i| {
                    let cases = cases_at(i).into_iter().map(TagId::case).collect();
                    (Epoch(i * 5), cases)
                })
                .collect()
        };
        let traces = [
            // a change around sample 28, through a stretch with nothing co-located
            samples(&|i| match i {
                0..=27 => vec![1, 3],
                28..=29 => vec![],
                _ => vec![2, 4],
            }),
            // no change: case 1 throughout, case 2 on and off
            samples(&|i| if i % 3 == 0 { vec![1, 2] } else { vec![1] }),
            // tied counts on both sides: the tag id decides every ranking, and
            // the winner of the tie changes as samples cross the split
            samples(&|i| match i {
                0..=19 => vec![5, 6, 7, 8],
                20..=39 => vec![1 + u64::from(i % 4), 5 + u64::from(i % 4)],
                _ => vec![1, 2, 3, 4],
            }),
        ];
        let item = TagId::item(1);
        for (trace, changes) in traces.iter().zip([true, false, true]) {
            for top_k in [1, 3] {
                let scanned = scan_for_change(item, trace, top_k);
                assert_eq!(scanned, scan_by_recounting(item, trace, top_k));
                assert_eq!(scanned.is_some(), changes, "top_k {top_k}: {scanned:?}");
            }
        }
        // the first split with cases 1 and 3 gone from the after side
        assert_eq!(
            scan_for_change(item, &traces[0], 3).map(|c| c.change_at),
            Some(Epoch(28 * 5))
        );
    }

    #[test]
    fn empty_batch_produces_empty_outcome() {
        let outcome = SmurfStar::new().run(&ReadingBatch::new());
        assert!(outcome.containment.is_empty());
        assert!(outcome.locations.is_empty());
        assert!(outcome.changes.is_empty());
    }
}
