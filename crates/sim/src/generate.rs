//! The last two stages of the trace pipeline (docs/ARCHITECTURE.md §
//! "Workload generation"): a site's trajectories, and the one builder that
//! turns them into a [`Trace`] with noisy RFID readings.
//!
//! Readings are generated exactly according to the paper's observation model
//! (Section 3.1): in every epoch, each reader independently interrogates
//! every tag and detects a tag at location `a` with probability `pi(r, a)`.
//! The generator exploits the same sparsity as the inference engine — only
//! readers with a non-background detection probability for the tag's current
//! location are sampled — so large traces stay tractable.

use crate::config::WarehouseConfig;
use crate::layout::WarehouseLayout;
use crate::movement::{CaseJourney, TagTrajectory};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rfid_types::{
    ContainmentTimeline, Epoch, GroundTruth, LocationId, RawReading, ReadRateTable, ReadingBatch,
    TagId, Trace, TraceMetadata,
};
use std::collections::BTreeMap;

/// The trajectories of one site: every case of `journeys` in journey order,
/// then — in ascending tag order — every item that is ever packed in one of
/// those cases, initially or by a recorded change. An item with no segment
/// at this site is left out.
pub(crate) fn trajectories(
    journeys: &[CaseJourney],
    timeline: &ContainmentTimeline,
    horizon: Epoch,
) -> Vec<TagTrajectory> {
    let by_case: BTreeMap<TagId, &TagTrajectory> =
        journeys.iter().map(|j| (j.path.tag, &j.path)).collect();
    let mut items: Vec<TagId> = journeys
        .iter()
        .flat_map(|j| j.items.iter().copied())
        .collect();
    items.extend(
        timeline
            .changes()
            .iter()
            .filter(|c| c.new_container.is_some_and(|nc| by_case.contains_key(&nc)))
            .map(|c| c.object),
    );
    items.sort_unstable();
    items.dedup();
    let mut trajectories: Vec<TagTrajectory> = journeys.iter().map(|j| j.path.clone()).collect();
    for item in items {
        let traj = item_trajectory(item, timeline, &by_case, horizon);
        if !traj.segments.is_empty() {
            trajectories.push(traj);
        }
    }
    trajectories
}

/// Assemble a trace — the one place a [`Trace`] is built. Ground truth is
/// the timeline plus every trajectory's segments; readings are drawn from
/// `reading_seed` over `[0, config.length_secs)` in trajectory order; the
/// read-rate table and the metadata come from `config`.
pub(crate) fn build_trace(
    config: &WarehouseConfig,
    trajectories: &[TagTrajectory],
    timeline: ContainmentTimeline,
    reading_seed: u64,
    name: String,
) -> Trace {
    let layout = WarehouseLayout::new(config);
    let read_rates = layout.read_rate_table(config);
    let mut truth = GroundTruth::new(timeline);
    record_ground_truth(&mut truth, trajectories);
    let mut rng = ChaCha8Rng::seed_from_u64(reading_seed);
    let horizon = Epoch(config.length_secs);
    let readings = generate_readings(&layout, &read_rates, trajectories, horizon, &mut rng);
    Trace {
        readings,
        truth,
        read_rates,
        meta: TraceMetadata {
            name,
            read_rate: config.read_rate,
            overlap_rate: config.overlap_rate,
            length: config.length_secs,
            anomaly_interval: config.anomaly_interval,
            num_locations: config.num_locations(),
        },
    }
}

/// Build the trajectory of an item: it follows its container, switching
/// containers at every recorded containment change (the physics of the
/// paper's model: an object is always wherever its container is).
///
/// If the item is removed from all containers, it stays at the location where
/// it was removed until the horizon.
fn item_trajectory(
    item: TagId,
    timeline: &ContainmentTimeline,
    cases: &BTreeMap<TagId, &TagTrajectory>,
    horizon: Epoch,
) -> TagTrajectory {
    // Build the item's container as a step function of time.
    let mut container_steps: Vec<(Epoch, Option<TagId>)> =
        vec![(Epoch::ZERO, timeline.initial().container_of(item))];
    for change in timeline.changes_for(item) {
        container_steps.push((change.time, change.new_container));
    }

    let mut segments: Vec<(Epoch, LocationId)> = Vec::new();
    let mut departure: Option<Epoch> = None;
    for (idx, &(step_start, container)) in container_steps.iter().enumerate() {
        let step_end = container_steps
            .get(idx + 1)
            .map(|&(t, _)| t)
            .unwrap_or(horizon);
        match container.and_then(|c| cases.get(&c)) {
            Some(case) => {
                // Copy the container's segments that overlap [step_start, step_end).
                let mut last_before: Option<LocationId> = None;
                for &(seg_start, loc) in &case.segments {
                    if seg_start < step_start {
                        last_before = Some(loc);
                    } else if seg_start < step_end {
                        segments.push((seg_start.max(step_start), loc));
                    }
                }
                // The container may already have been somewhere when this
                // containment step began.
                if let Some(loc) = last_before {
                    if case.location_at(step_start) == Some(loc)
                        && segments.last().is_none_or(|&(s, _)| s > step_start)
                    {
                        segments.push((step_start, loc));
                    }
                }
                if idx == container_steps.len() - 1 {
                    departure = case.departure;
                }
            }
            None => {
                // Removed from all containers: frozen at its last location.
                departure = None;
            }
        }
    }
    segments.sort_by_key(|&(t, _)| t);
    segments.dedup();
    TagTrajectory {
        tag: item,
        segments,
        departure,
    }
}

/// Generate noisy readings for a set of trajectories over `[0, horizon)`.
///
/// For every trajectory segment, only the *effective readers* of the segment
/// location (co-located reader plus overlapping shelf readers) are sampled;
/// background stray reads from all other readers are sampled at a single
/// aggregated Bernoulli per epoch to keep the cost linear.
fn generate_readings<R: Rng>(
    layout: &WarehouseLayout,
    rates: &ReadRateTable,
    trajectories: &[TagTrajectory],
    horizon: Epoch,
    rng: &mut R,
) -> ReadingBatch {
    let mut readings = Vec::new();
    for traj in trajectories {
        for (idx, &(seg_start, loc)) in traj.segments.iter().enumerate() {
            let seg_end = traj
                .segments
                .get(idx + 1)
                .map(|&(t, _)| t)
                .or(traj.departure)
                .unwrap_or(horizon)
                .min(horizon);
            if seg_end <= seg_start {
                continue;
            }
            for reader_loc in layout.effective_readers(loc) {
                let p = rates.rate(reader_loc, loc);
                if p <= 1e-9 {
                    continue;
                }
                for t in seg_start.0..seg_end.0 {
                    let epoch = Epoch(t);
                    if !layout.interrogates(reader_loc, epoch) {
                        continue;
                    }
                    if rng.gen_bool(p) {
                        readings.push(RawReading::new(epoch, traj.tag, reader_loc.reader()));
                    }
                }
            }
        }
    }
    ReadingBatch::from_readings(readings)
}

/// Record every trajectory into a ground-truth structure that already carries
/// the containment timeline.
fn record_ground_truth(truth: &mut GroundTruth, trajectories: &[TagTrajectory]) {
    for traj in trajectories {
        for &(start, loc) in &traj.segments {
            truth.record_location(traj.tag, start, loc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::{initial_containment, inject_anomalies};
    use crate::movement::{build_journeys, source_arrivals, TagSerials};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rfid_types::ContainmentChange;

    fn setup(len: u32) -> (WarehouseConfig, WarehouseLayout, Vec<CaseJourney>) {
        let config = WarehouseConfig::default().with_length(len).with_seed(2);
        let layout = WarehouseLayout::new(&config);
        let mut serials = TagSerials::new();
        let arrivals = source_arrivals(&config, &mut serials);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let journeys = build_journeys(&config, &layout, &arrivals, &mut rng);
        (config, layout, journeys)
    }

    fn cases(journeys: &[CaseJourney]) -> BTreeMap<TagId, &TagTrajectory> {
        journeys.iter().map(|j| (j.path.tag, &j.path)).collect()
    }

    #[test]
    fn item_trajectory_follows_its_case_when_stable() {
        let (config, _layout, journeys) = setup(1200);
        let timeline = ContainmentTimeline::new(initial_containment(&journeys));
        let by_case = cases(&journeys);
        let j = &journeys[0];
        let item = j.items[0];
        let traj = item_trajectory(item, &timeline, &by_case, Epoch(config.length_secs));
        for t in (0..config.length_secs).step_by(7) {
            assert_eq!(traj.location_at(Epoch(t)), j.path.location_at(Epoch(t)));
        }
    }

    #[test]
    fn item_trajectory_switches_case_after_change() {
        let (config, layout, journeys) = setup(2400);
        let by_case = cases(&journeys);
        // Move item 0 of case 0 to case 1 once both are on shelves.
        let old = &journeys[0];
        let new = &journeys[1];
        let (old_shelf_start, _) = old.shelf_interval(&layout).unwrap();
        let (new_shelf_start, new_shelf_end) = new.shelf_interval(&layout).unwrap();
        let change_time = old_shelf_start.max(new_shelf_start).plus(5);
        assert!(
            change_time < new_shelf_end,
            "test setup: both cases shelved"
        );
        let item = old.items[0];
        let mut timeline = ContainmentTimeline::new(initial_containment(&journeys));
        timeline.record(ContainmentChange {
            time: change_time,
            object: item,
            old_container: Some(old.path.tag),
            new_container: Some(new.path.tag),
        });
        let traj = item_trajectory(item, &timeline, &by_case, Epoch(config.length_secs));
        assert_eq!(
            traj.location_at(change_time.minus(2)),
            old.path.location_at(change_time.minus(2))
        );
        assert_eq!(
            traj.location_at(change_time.plus(2)),
            new.path.location_at(change_time.plus(2)),
            "after the change the item travels with the new case"
        );
    }

    #[test]
    fn readings_respect_presence_and_read_rate() {
        let (config, layout, journeys) = setup(900);
        let timeline = inject_anomalies(
            std::slice::from_ref(&journeys),
            &layout,
            Some(60),
            Epoch(900),
            &mut ChaCha8Rng::seed_from_u64(1),
        );
        let trajectories = trajectories(&journeys, &timeline, Epoch(900));
        assert_eq!(
            trajectories.len(),
            journeys.len() * (1 + config.items_per_case as usize),
            "one trajectory per case and per item"
        );
        let rates = layout.read_rate_table(&config);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let batch = generate_readings(&layout, &rates, &trajectories, Epoch(900), &mut rng);
        assert!(!batch.is_empty());
        // every reading is consistent with the tag actually being in range of
        // the reader that produced it
        let traj_by_tag: BTreeMap<TagId, &TagTrajectory> =
            trajectories.iter().map(|t| (t.tag, t)).collect();
        for r in batch.readings() {
            let loc = traj_by_tag[&r.tag]
                .location_at(r.time)
                .expect("tag present");
            let p = rates.rate(r.reader.location(), loc);
            assert!(p > 1e-3, "reading generated with negligible probability");
        }
    }

    #[test]
    fn empirical_read_rate_close_to_configured() {
        let (config, layout, journeys) = setup(600);
        let j = &journeys[0];
        let traj = vec![j.path.clone()];
        let rates = layout.read_rate_table(&config);
        // Average over many seeds: the entry reader interrogates every second
        // during the entry dwell, so expect ~RR * entry_dwell reads.
        let mut total = 0usize;
        let runs = 40;
        for seed in 0..runs {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let batch = generate_readings(&layout, &rates, &traj, Epoch(600), &mut rng);
            total += batch
                .readings()
                .iter()
                .filter(|r| {
                    r.reader.location() == layout.entry() && r.time < Epoch(config.entry_dwell)
                })
                .count();
        }
        let mean = total as f64 / runs as f64;
        let expected = config.read_rate * config.entry_dwell as f64;
        assert!(
            (mean - expected).abs() < 0.15 * expected,
            "mean entry reads {mean} should be near {expected}"
        );
    }

    #[test]
    fn ground_truth_matches_trajectories() {
        let (config, layout, journeys) = setup(600);
        let timeline = ContainmentTimeline::new(initial_containment(&journeys));
        let by_case = cases(&journeys);
        let item = journeys[0].items[0];
        let trajectories = vec![
            journeys[0].path.clone(),
            item_trajectory(item, &timeline, &by_case, Epoch(config.length_secs)),
        ];
        let mut truth = GroundTruth::new(timeline);
        record_ground_truth(&mut truth, &trajectories);
        assert_eq!(
            truth.location_at(journeys[0].path.tag, Epoch(0)),
            Some(layout.entry())
        );
        assert_eq!(
            truth.location_at(item, Epoch(config.entry_dwell + 1)),
            Some(layout.belt())
        );
    }
}
