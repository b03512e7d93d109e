//! Emulation of the paper's laboratory RFID deployment (Section 5.2,
//! Appendix C.2).
//!
//! The physical lab had 2 ThingMagic Mercury5 readers driving 7
//! circularly-polarized antennas configured as 1 entry reader, 1 belt reader,
//! 4 shelf readers and 1 exit reader, and 20 cases of 5 items each that
//! transitioned through the readers in that order, receiving 5 interrogations
//! from every non-shelf reader and dozens from a shelf reader. Eight traces
//! T1–T8 varied the read rate (environmental noise), the overlap between
//! shelf readers, and whether containment changes were staged.
//!
//! We do not have the hardware, so this module reproduces each trace's
//! *generative characteristics* — read rate, overlap rate, dwell structure
//! and the published containment-change script (3 items moved between cases
//! plus 1 item removed once all cases are shelved) — which is exactly the
//! information the paper gives about the traces.

use crate::config::{ShelfScanMode, WarehouseConfig};
use crate::generate::{case_trajectory, generate_readings, item_trajectory, record_ground_truth};
use crate::layout::WarehouseLayout;
use crate::movement::CaseJourney;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_types::{
    ContainmentChange, ContainmentMap, ContainmentTimeline, Epoch, GroundTruth, TagId, Trace,
    TraceMetadata,
};
use std::collections::BTreeMap;

/// Identifier of one of the eight published lab traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LabTraceId {
    /// High read rate (0.85), limited overlap (0.25), stable containment.
    T1,
    /// High read rate (0.85), significant overlap (0.5), stable containment.
    T2,
    /// Lower read rate (0.7, metal-bar noise), limited overlap (0.25).
    T3,
    /// Lower read rate (0.7), significant overlap (0.5).
    T4,
    /// T1 plus staged containment changes.
    T5,
    /// T2 plus staged containment changes.
    T6,
    /// T3 plus staged containment changes.
    T7,
    /// T4 plus staged containment changes.
    T8,
}

impl LabTraceId {
    /// All eight traces in order.
    pub const ALL: [LabTraceId; 8] = [
        LabTraceId::T1,
        LabTraceId::T2,
        LabTraceId::T3,
        LabTraceId::T4,
        LabTraceId::T5,
        LabTraceId::T6,
        LabTraceId::T7,
        LabTraceId::T8,
    ];

    /// The (read rate, overlap rate) of this trace per Appendix C.2.
    pub fn rates(self) -> (f64, f64) {
        match self {
            LabTraceId::T1 | LabTraceId::T5 => (0.85, 0.25),
            LabTraceId::T2 | LabTraceId::T6 => (0.85, 0.5),
            LabTraceId::T3 | LabTraceId::T7 => (0.7, 0.25),
            LabTraceId::T4 | LabTraceId::T8 => (0.7, 0.5),
        }
    }

    /// Whether this trace stages containment changes (T5–T8).
    pub fn has_changes(self) -> bool {
        matches!(
            self,
            LabTraceId::T5 | LabTraceId::T6 | LabTraceId::T7 | LabTraceId::T8
        )
    }

    /// Human-readable label ("T1".."T8").
    pub fn label(self) -> &'static str {
        match self {
            LabTraceId::T1 => "T1",
            LabTraceId::T2 => "T2",
            LabTraceId::T3 => "T3",
            LabTraceId::T4 => "T4",
            LabTraceId::T5 => "T5",
            LabTraceId::T6 => "T6",
            LabTraceId::T7 => "T7",
            LabTraceId::T8 => "T8",
        }
    }
}

/// Configuration of the lab emulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LabConfig {
    /// Which published trace to emulate.
    pub trace: LabTraceId,
    /// Number of cases in the lab (the paper used 20).
    pub num_cases: u32,
    /// Items per case (the paper used 5).
    pub items_per_case: u32,
    /// Seconds each case spends at the entry / belt / exit readers
    /// (the paper reports 5 interrogations from each non-shelf reader).
    pub non_shelf_dwell: u32,
    /// Seconds cases stay on their shelves before repacking.
    pub shelf_dwell: u32,
    /// RNG seed.
    pub seed: u64,
}

impl LabConfig {
    /// Configuration matching the published deployment for the given trace.
    pub fn published(trace: LabTraceId) -> LabConfig {
        LabConfig {
            trace,
            num_cases: 20,
            items_per_case: 5,
            non_shelf_dwell: 5,
            shelf_dwell: 400,
            seed: 0x1ab,
        }
    }

    /// Number of shelf readers (the lab had 4).
    pub const NUM_SHELVES: u32 = 4;

    /// Generate the trace.
    pub fn generate(&self) -> Trace {
        let (read_rate, overlap_rate) = self.trace.rates();
        let wh = WarehouseConfig {
            read_rate,
            overlap_rate,
            num_shelves: Self::NUM_SHELVES,
            non_shelf_period: 1,
            shelf_scan: ShelfScanMode::Static { period_secs: 10 },
            background_rate: 1e-4,
            ..Default::default()
        };
        let layout = WarehouseLayout::new(&wh);

        // Build the case journeys: cases enter one at a time, spaced by the
        // non-shelf dwell so that the belt sees them sequentially.
        let mut journeys = Vec::new();
        let pallet = TagId::pallet(0);
        for k in 0..self.num_cases {
            let case = TagId::case(k as u64);
            let items = (0..self.items_per_case)
                .map(|i| TagId::item((k * self.items_per_case + i) as u64))
                .collect::<Vec<_>>();
            let arrival = Epoch(k * self.non_shelf_dwell);
            let belt_start = arrival.plus(self.non_shelf_dwell);
            let shelf_start = belt_start.plus(self.non_shelf_dwell);
            let shelf = layout.shelf(k % Self::NUM_SHELVES);
            let exit_start = shelf_start.plus(self.shelf_dwell);
            let departure = exit_start.plus(self.non_shelf_dwell);
            journeys.push(CaseJourney {
                case,
                pallet,
                items,
                segments: vec![
                    (arrival, layout.entry()),
                    (belt_start, layout.belt()),
                    (shelf_start, shelf),
                    (exit_start, layout.exit()),
                ],
                arrival,
                departure: Some(departure),
            });
        }
        let horizon = journeys
            .iter()
            .filter_map(|j| j.departure)
            .max()
            .unwrap_or(Epoch(600))
            .plus(10);

        // Containment: initial packing plus, for T5-T8, the staged changes
        // once every case is on its shelf (3 items moved, 1 removed).
        let mut containment = ContainmentMap::new();
        for j in &journeys {
            for item in &j.items {
                containment.set(*item, j.case);
            }
        }
        let mut timeline = ContainmentTimeline::new(containment);
        if self.trace.has_changes() {
            let all_shelved = journeys
                .iter()
                .map(|j| j.segments[2].0)
                .max()
                .unwrap()
                .plus(30);
            let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xc4a);
            let mut cases: Vec<&CaseJourney> = journeys.iter().collect();
            cases.shuffle(&mut rng);
            // three moves between distinct cases
            for pair in 0..3usize {
                let from = cases[pair * 2];
                let to = cases[pair * 2 + 1];
                let item = from.items[pair % from.items.len()];
                timeline.record(ContainmentChange {
                    time: all_shelved,
                    object: item,
                    old_container: Some(from.case),
                    new_container: Some(to.case),
                });
            }
            // one removal
            let victim_case = cases[6];
            timeline.record(ContainmentChange {
                time: all_shelved,
                object: victim_case.items[0],
                old_container: Some(victim_case.case),
                new_container: None,
            });
        }

        // Trajectories and readings.
        let by_case: BTreeMap<TagId, &CaseJourney> = journeys.iter().map(|j| (j.case, j)).collect();
        let mut trajectories: Vec<_> = journeys.iter().map(case_trajectory).collect();
        for j in &journeys {
            for item in &j.items {
                trajectories.push(item_trajectory(*item, &timeline, &by_case, horizon));
            }
        }
        let rates = layout.read_rate_table(&wh);
        let mut truth = GroundTruth::new(timeline);
        record_ground_truth(&mut truth, &trajectories);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let readings = generate_readings(&layout, &rates, &trajectories, horizon, &mut rng);

        Trace {
            readings,
            truth,
            read_rates: rates,
            meta: TraceMetadata {
                name: self.trace.label().to_string(),
                read_rate,
                overlap_rate,
                length: horizon.0,
                anomaly_interval: if self.trace.has_changes() {
                    Some(0)
                } else {
                    None
                },
                num_locations: layout.num_locations(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_parameters_match_appendix_c2() {
        assert_eq!(LabTraceId::T1.rates(), (0.85, 0.25));
        assert_eq!(LabTraceId::T2.rates(), (0.85, 0.5));
        assert_eq!(LabTraceId::T3.rates(), (0.7, 0.25));
        assert_eq!(LabTraceId::T4.rates(), (0.7, 0.5));
        assert_eq!(LabTraceId::T5.rates(), LabTraceId::T1.rates());
        assert_eq!(LabTraceId::T8.rates(), LabTraceId::T4.rates());
        assert!(!LabTraceId::T1.has_changes());
        assert!(LabTraceId::T5.has_changes());
        assert_eq!(LabTraceId::ALL.len(), 8);
    }

    #[test]
    fn lab_trace_has_expected_population() {
        let trace = LabConfig::published(LabTraceId::T1).generate();
        assert_eq!(trace.containers().len(), 20);
        assert_eq!(trace.objects().len(), 100);
        assert!(!trace.readings.is_empty());
        assert_eq!(trace.meta.name, "T1");
        assert_eq!(trace.meta.num_locations, 7);
    }

    #[test]
    fn stable_traces_have_no_changes_and_staged_traces_do() {
        let t1 = LabConfig::published(LabTraceId::T1).generate();
        assert!(t1.truth.containment.changes().is_empty());
        let t5 = LabConfig::published(LabTraceId::T5).generate();
        let changes = t5.truth.containment.changes();
        assert_eq!(changes.len(), 4, "3 moves + 1 removal");
        assert_eq!(
            changes.iter().filter(|c| c.new_container.is_none()).count(),
            1
        );
        // moves are between distinct cases
        for c in changes.iter().filter(|c| c.new_container.is_some()) {
            assert_ne!(c.old_container, c.new_container);
        }
    }

    #[test]
    fn higher_read_rate_trace_is_denser() {
        let t1 = LabConfig::published(LabTraceId::T1).generate();
        let t3 = LabConfig::published(LabTraceId::T3).generate();
        assert!(t1.readings.len() > t3.readings.len());
    }

    #[test]
    fn removed_item_stays_on_its_shelf_after_the_case_leaves() {
        let trace = LabConfig::published(LabTraceId::T5).generate();
        let removal = trace
            .truth
            .containment
            .changes()
            .iter()
            .copied()
            .find(|c| c.new_container.is_none())
            .unwrap();
        let shelf_loc = trace
            .truth
            .location_at(removal.object, removal.time)
            .unwrap();
        let end = Epoch(trace.meta.length - 1);
        assert_eq!(
            trace.truth.location_at(removal.object, end),
            Some(shelf_loc)
        );
        // ... while its former case has moved on to the exit by the end.
        let case = removal.old_container.unwrap();
        assert_ne!(trace.truth.location_at(case, end), Some(shelf_loc));
    }
}
