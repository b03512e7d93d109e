//! History truncation (Section 4.1): the Critical Region method and the
//! simpler alternatives it is compared against in Figures 5(a), 5(b) and
//! 6(b).
//!
//! The critical-region search slides a small window over an object's
//! observation history and looks for the period in which the point evidence
//! of the best candidate container exceeds the second best by a clear margin
//! — the observations most informative about the true containment (e.g. the
//! conveyor-belt scan in Figure 4). After inference, only the readings inside
//! the critical region and a short recent history `H̄` need to be retained.

use crate::rfinfer::{InferenceOutcome, ObjectEvidence};
use rfid_types::{Epoch, TagId};

/// Length of the sliding window the critical-region search uses, in seconds.
const CR_WINDOW_SECS: u32 = 60;
/// Minimum margin (best minus second-best windowed evidence) for a window to
/// qualify as a critical region.
const CR_MARGIN: f64 = 3.0;

/// Which history-truncation method to use between inference runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TruncationPolicy {
    /// Keep the entire history ("All" in Figure 5(a)).
    Full,
    /// Keep only the most recent `window_secs` of readings ("W1200").
    Window {
        /// Length of the retained window in seconds.
        window_secs: u32,
    },
    /// Keep each object's critical region (searched with `CR_WINDOW_SECS`
    /// and `CR_MARGIN`) plus the recent history ("CR").
    #[default]
    CriticalRegion,
}

/// The critical region found for one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalRegion {
    /// Inclusive start of the region.
    pub start: Epoch,
    /// Inclusive end of the region.
    pub end: Epoch,
}

impl CriticalRegion {
    /// Whether an epoch lies inside the region.
    pub fn contains(&self, t: Epoch) -> bool {
        t >= self.start && t <= self.end
    }
}

/// Search one object's point evidence for its critical region: the most
/// recent sliding window `[t - window, t]` in which the best candidate's
/// summed point evidence beats the second best by at least `margin`.
/// Objects with fewer than two candidates have no critical region (there is
/// nothing to disambiguate).
pub fn critical_region(
    evidence: ObjectEvidence<'_>,
    window_secs: u32,
    margin: f64,
) -> Option<CriticalRegion> {
    if evidence.columns().len() < 2 {
        return None;
    }
    // The most recent qualifying window wins, so slide the window BACKWARDS
    // from the latest end epoch and stop at the first qualifying one — the
    // same region a forward scan would keep ("overwrite with the most
    // recent"), found without evaluating the windows before it. The window
    // `[lo, hi)` over the shared epochs only ever moves down, every
    // evaluated window's sum is the same ascending-epoch sequential sum the
    // forward scan computes, and the margin test only needs the two largest
    // sums, so the selected region is bit-identical to the naive filter's.
    let epochs = evidence.epochs();
    let mut lo = epochs.len();
    for hi in (1..=epochs.len()).rev() {
        let end = epochs[hi - 1];
        let start = end.minus(window_secs);
        while lo > 0 && epochs[lo - 1] >= start {
            lo -= 1;
        }
        // Sum each candidate's point evidence inside [start, end], keeping
        // the largest and second-largest sum — what the descending sort's
        // first two entries were, with the same NaN strictness.
        let (mut top, mut second) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for (_, column) in evidence.columns() {
            let sum: f64 = column[lo..hi].iter().sum();
            if sum.partial_cmp(&top).expect("NaN evidence sum").is_gt() {
                (top, second) = (sum, top);
            } else if sum > second {
                second = sum;
            }
        }
        if top - second >= margin {
            return Some(CriticalRegion { start, end });
        }
    }
    None
}

/// The retention plan produced by a truncation policy: per tag, the inclusive
/// epoch ranges worth keeping for the next inference run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RetentionPlan {
    /// Critical-region ranges `(tag, start, end)`, ascending, merged per tag.
    /// Tags not listed keep only the recent history.
    regions: Vec<(TagId, Epoch, Epoch)>,
    /// Inclusive start of the recent history every tag keeps.
    pub recent_from: Epoch,
}

impl RetentionPlan {
    /// A plan keeping `regions` — inclusive `(tag, start, end)` ranges, in any
    /// order, possibly overlapping — plus the recent history from
    /// `recent_from` on.
    pub fn new(
        recent_from: Epoch,
        regions: impl IntoIterator<Item = (TagId, Epoch, Epoch)>,
    ) -> RetentionPlan {
        let mut regions: Vec<_> = regions.into_iter().collect();
        // Merge overlapping ranges per tag to keep the plan small.
        regions.sort_unstable();
        regions.dedup_by(|next, kept| {
            let joins = next.0 == kept.0 && next.1 <= kept.2.plus(1);
            if joins {
                kept.2 = kept.2.max(next.2);
            }
            joins
        });
        RetentionPlan {
            regions,
            recent_from,
        }
    }

    /// The merged critical-region ranges of one tag, ascending.
    pub fn regions_of(&self, tag: TagId) -> impl Iterator<Item = (Epoch, Epoch)> + '_ {
        let from = self.regions.partition_point(|r| r.0 < tag);
        self.regions[from..]
            .iter()
            .take_while(move |r| r.0 == tag)
            .map(|r| (r.1, r.2))
    }

    /// The ranges to retain for one tag: its critical-region ranges (if any)
    /// plus the shared recent history, merged into disjoint ascending
    /// inclusive ranges — the result never contains an empty range and no
    /// two ranges overlap or touch.
    pub fn ranges_for(&self, tag: TagId, now: Epoch) -> Vec<(Epoch, Epoch)> {
        let mut ranges = Vec::new();
        self.ranges_into(tag, now, &mut ranges);
        ranges
    }

    /// [`Self::ranges_for`] into a reusable buffer (cleared first), so a
    /// truncation pass over every stored tag allocates once, not per tag.
    pub fn ranges_into(&self, tag: TagId, now: Epoch, ranges: &mut Vec<(Epoch, Epoch)>) {
        ranges.clear();
        ranges.extend(self.regions_of(tag));
        ranges.push((self.recent_from.min(now), now));
        merge_ranges(ranges);
    }
}

/// Sort inclusive ranges and merge, in place, those that overlap or touch.
fn merge_ranges(ranges: &mut Vec<(Epoch, Epoch)>) {
    ranges.sort_unstable();
    ranges.dedup_by(|next, kept| {
        let joins = next.0 <= kept.1.plus(1);
        if joins {
            kept.1 = kept.1.max(next.1);
        }
        joins
    });
}

/// Build a retention plan from an inference outcome.
///
/// * `Full` keeps everything (the plan covers `[0, now]`).
/// * `Window` keeps only `[now - window, now]` for every tag.
/// * `CriticalRegion` keeps, per object, its critical region (and the same
///   region for its candidate containers) plus the recent history
///   `[now - recent_secs, now]`.
pub fn retention_plan(
    policy: TruncationPolicy,
    outcome: &InferenceOutcome,
    now: Epoch,
    recent_secs: u32,
) -> RetentionPlan {
    match policy {
        TruncationPolicy::Full => RetentionPlan::new(Epoch::ZERO, []),
        TruncationPolicy::Window { window_secs } => RetentionPlan::new(now.minus(window_secs), []),
        TruncationPolicy::CriticalRegion => {
            let mut regions = Vec::new();
            for evidence in outcome.objects() {
                if let Some(cr) = critical_region(evidence, CR_WINDOW_SECS, CR_MARGIN) {
                    // The same readings of the candidate containers are what
                    // makes the region informative — keep them too.
                    let tags = std::iter::once(evidence.object()).chain(evidence.candidates());
                    regions.extend(tags.map(|tag| (tag, cr.start, cr.end)));
                }
            }
            RetentionPlan::new(now.minus(recent_secs), regions)
        }
    }
}

/// A per-site bound on retained inference memory, enforced between epochs by
/// `InferenceEngine::enforce_budget`: when the observation store exceeds
/// `max_observations`, old history beyond the [`TruncationPolicy`] is
/// compacted into summary weights (the collapsed priors already produced by
/// the inference) and cold evidence-cache entries are evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBudget {
    /// Maximum number of retained `(tag, epoch)` observation entries before
    /// compaction kicks in. `usize::MAX` disables compaction entirely.
    pub max_observations: usize,
}

impl MemoryBudget {
    /// A budget that never forces compaction.
    pub fn unbounded() -> MemoryBudget {
        MemoryBudget {
            max_observations: usize::MAX,
        }
    }

    /// A budget capped at `max_observations` retained observation entries.
    pub fn capped(max_observations: usize) -> MemoryBudget {
        MemoryBudget { max_observations }
    }

    /// Whether the budget can never force compaction.
    pub fn is_unbounded(&self) -> bool {
        self.max_observations == usize::MAX
    }
}

impl Default for MemoryBudget {
    fn default() -> MemoryBudget {
        MemoryBudget::unbounded()
    }
}

/// Memory-pressure counters of one site (or, merged, a whole run). Persisted
/// through `SiteCheckpoint` so crash-restore replays converge on the same
/// values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Largest observation-store size ever seen (in `(tag, epoch)` entries).
    pub high_water: u64,
    /// Budget-driven compaction passes that removed at least one entry.
    pub compactions: u64,
    /// Observation entries removed by budget-driven compaction.
    pub compacted_observations: u64,
    /// Cold evidence-cache containers evicted under memory pressure.
    pub evicted_cache_entries: u64,
}

impl MemoryStats {
    /// Fold `other` into `self`: high-water marks take the max, event
    /// counters add.
    pub fn merge(&mut self, other: &MemoryStats) {
        self.high_water = self.high_water.max(other.high_water);
        self.compactions += other.compactions;
        self.compacted_observations += other.compacted_observations;
        self.evicted_cache_entries += other.evicted_cache_entries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row per `(object, real series, decoy series)`: candidates
    /// `case(0)` (real) and `case(1)` (decoy).
    type Series = Vec<(Epoch, f64)>;

    fn outcome_of(objects: &[(TagId, Series, Series)]) -> InferenceOutcome {
        let mut outcome = InferenceOutcome::new(1, 4);
        let column = |series: &Series| series.iter().map(|p| p.1).collect::<Vec<_>>();
        for (object, real, decoy) in objects {
            let epochs: Vec<Epoch> = real.iter().map(|p| p.0).collect();
            let (real, decoy) = (column(real), column(decoy));
            let candidates = [
                (TagId::case(0), -40.0, real.as_slice()),
                (TagId::case(1), -60.0, decoy.as_slice()),
            ];
            outcome
                .push_object(
                    *object,
                    Some(TagId::case(0)),
                    Some(TagId::case(0)),
                    &epochs,
                    &candidates,
                )
                .unwrap();
        }
        outcome
    }

    /// Synthetic evidence: the real container is clearly better only during
    /// epochs 100..=110 (the "belt"), exactly like Figure 4(b).
    fn belt_series(shift: u32) -> (Series, Series) {
        let mut real_points = Vec::new();
        let mut decoy_points = Vec::new();
        for t in (0..200u32).step_by(5) {
            let e_decoy = if (100..=110).contains(&t) {
                -12.0
            } else {
                -1.2
            };
            real_points.push((Epoch(t + shift), -1.0));
            decoy_points.push((Epoch(t + shift), e_decoy));
        }
        (real_points, decoy_points)
    }

    fn belt_outcome() -> InferenceOutcome {
        let (real, decoy) = belt_series(0);
        outcome_of(&[(TagId::item(0), real, decoy)])
    }

    #[test]
    fn critical_region_covers_the_informative_period() {
        let outcome = belt_outcome();
        let evidence = outcome.object(TagId::item(0)).unwrap();
        let cr = critical_region(evidence, 20, 5.0).expect("region found");
        // The region must overlap the informative belt period 100..=110
        // (most-recent-window semantics may place it at the tail of it).
        assert!(
            cr.start <= Epoch(110) && cr.end >= Epoch(100),
            "region {cr:?} should overlap the belt period"
        );
        assert!(cr.end.since(cr.start) <= 20);
        assert!(cr.end <= Epoch(130));
    }

    #[test]
    fn no_region_without_margin_or_candidates() {
        // Margin too large: no window qualifies.
        let outcome = belt_outcome();
        assert!(critical_region(outcome.object(TagId::item(0)).unwrap(), 20, 1e6).is_none());
        // Single candidate: nothing to disambiguate.
        let mut single = InferenceOutcome::new(1, 4);
        single
            .push_object(
                TagId::item(0),
                None,
                None,
                &[Epoch(0)],
                &[(TagId::case(0), 0.0, &[-1.0])],
            )
            .unwrap();
        assert!(critical_region(single.object(TagId::item(0)).unwrap(), 20, 1.0).is_none());
    }

    #[test]
    fn most_recent_qualifying_window_wins() {
        // Two informative periods; the later one should be returned.
        let mut real_points = Vec::new();
        let mut decoy_points = Vec::new();
        for t in (0..300u32).step_by(5) {
            let informative = (50..=60).contains(&t) || (200..=210).contains(&t);
            real_points.push((Epoch(t), -1.0));
            decoy_points.push((Epoch(t), if informative { -15.0 } else { -1.1 }));
        }
        let outcome = outcome_of(&[(TagId::item(0), real_points, decoy_points)]);
        let cr = critical_region(outcome.object(TagId::item(0)).unwrap(), 20, 5.0).unwrap();
        assert!(
            cr.end >= Epoch(200),
            "the most recent region should win: {cr:?}"
        );
    }

    #[test]
    fn retention_plans_reflect_the_policy() {
        let outcome = belt_outcome();
        let now = Epoch(200);

        let full = retention_plan(TruncationPolicy::Full, &outcome, now, 600);
        assert_eq!(full.recent_from, Epoch::ZERO);
        assert_eq!(
            full.ranges_for(TagId::item(0), now),
            vec![(Epoch::ZERO, now)]
        );

        let window = retention_plan(
            TruncationPolicy::Window { window_secs: 50 },
            &outcome,
            now,
            600,
        );
        assert_eq!(window.recent_from, Epoch(150));
        assert_eq!(window.regions_of(TagId::item(0)).count(), 0);

        let cr = retention_plan(TruncationPolicy::default(), &outcome, now, 30);
        assert_eq!(cr.recent_from, Epoch(170));
        let ranges = cr.ranges_for(TagId::item(0), now);
        // the critical region and the recent history are both covered...
        assert!(ranges
            .iter()
            .any(|&(lo, hi)| lo <= Epoch(110) && hi >= Epoch(100)));
        assert!(ranges.iter().any(|&(_, hi)| hi == now));
        // ...by disjoint, non-touching ranges (touching ones merge)
        for pair in ranges.windows(2) {
            assert!(pair[1].0 .0 > pair[0].1 .0 + 1, "disjoint: {ranges:?}");
        }
        // candidate containers keep the same region
        for case in [TagId::case(0), TagId::case(1)] {
            assert!(cr.regions_of(case).eq(cr.regions_of(TagId::item(0))));
        }
        // tags without a critical region only keep the recent history
        assert_eq!(cr.ranges_for(TagId::item(99), now), vec![(Epoch(170), now)]);
    }

    #[test]
    fn overlapping_ranges_are_merged() {
        // Two objects sharing a candidate container with overlapping regions:
        // the second object's informative window is shifted slightly.
        let (real, decoy) = belt_series(0);
        let (shifted_real, shifted_decoy) = belt_series(10);
        let outcome = outcome_of(&[
            (TagId::item(0), real, decoy),
            (TagId::item(1), shifted_real, shifted_decoy),
        ]);
        let plan = retention_plan(TruncationPolicy::default(), &outcome, Epoch(250), 10);
        let case_ranges: Vec<_> = plan.regions_of(TagId::case(0)).collect();
        assert_eq!(
            case_ranges.len(),
            1,
            "overlapping regions merge: {case_ranges:?}"
        );
    }
}
