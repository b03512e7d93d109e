//! The three-candidate-container scenario of Figure 4.
//!
//! One object starts at the entry door at time 0, is scanned on the conveyor
//! belt around time 100 and placed on a shelf at time 150. Three candidate
//! containers were co-located with it at the entry door:
//!
//! * **R** — the real container, which travels with the object throughout;
//! * **NRC** — a false container that is co-located at the door and on the
//!   shelf but *not* at the belt;
//! * **NRNC** — a false container that is not co-located after the door.
//!
//! The paper uses this scenario to motivate critical-region history
//! truncation: the belt reading around time 100 is the most informative
//! observation, because it separates R from both false candidates.

use crate::config::WarehouseConfig;
use crate::generate::build_trace;
use crate::layout::WarehouseLayout;
use crate::movement::TagTrajectory;
use rfid_types::{ContainmentMap, ContainmentTimeline, Epoch, TagId, Trace};

/// Builder for the Figure-4 scenario.
#[derive(Debug, Clone)]
pub struct EvidenceScenario {
    /// Read rate of all readers.
    pub read_rate: f64,
    /// Trace length (the paper's plot runs to t = 200).
    pub length: u32,
    /// Epoch at which the object (and R) moves to the belt.
    pub belt_time: u32,
    /// Epoch at which the object (and R, and NRC) reaches the shelf.
    pub shelf_time: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EvidenceScenario {
    fn default() -> EvidenceScenario {
        EvidenceScenario {
            read_rate: 0.8,
            length: 200,
            belt_time: 100,
            shelf_time: 150,
            seed: 4,
        }
    }
}

/// The tags participating in the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioTags {
    /// The tracked object.
    pub object: TagId,
    /// The real container.
    pub real: TagId,
    /// The "not real, co-located again" container (door + shelf, not belt).
    pub nrc: TagId,
    /// The "not real, not co-located" container (door only).
    pub nrnc: TagId,
}

impl EvidenceScenario {
    /// Generate the scenario trace and return it together with the
    /// participating tags.
    pub fn generate(&self) -> (Trace, ScenarioTags) {
        assert!(self.belt_time < self.shelf_time && self.shelf_time < self.length);
        let config = WarehouseConfig {
            read_rate: self.read_rate,
            overlap_rate: 0.0,
            num_shelves: 2,
            length_secs: self.length,
            ..Default::default()
        };
        let layout = WarehouseLayout::new(&config);
        let entry = layout.entry();
        let belt = layout.belt();
        let shelf0 = layout.shelf(0);
        let shelf1 = layout.shelf(1);

        let tags = ScenarioTags {
            object: TagId::item(0),
            real: TagId::case(0),
            nrc: TagId::case(1),
            nrnc: TagId::case(2),
        };

        let t0 = Epoch(0);
        let t_belt = Epoch(self.belt_time);
        let t_shelf = Epoch(self.shelf_time);

        let trajectories = vec![
            // The object and its real container share the same path.
            TagTrajectory {
                tag: tags.object,
                segments: vec![(t0, entry), (t_belt, belt), (t_shelf, shelf0)],
                departure: None,
            },
            TagTrajectory {
                tag: tags.real,
                segments: vec![(t0, entry), (t_belt, belt), (t_shelf, shelf0)],
                departure: None,
            },
            // NRC skips the belt but ends up on the same shelf.
            TagTrajectory {
                tag: tags.nrc,
                segments: vec![(t0, entry), (t_belt, shelf1), (t_shelf, shelf0)],
                departure: None,
            },
            // NRNC diverges after the door.
            TagTrajectory {
                tag: tags.nrnc,
                segments: vec![(t0, entry), (t_belt, shelf1)],
                departure: None,
            },
        ];

        let mut containment = ContainmentMap::new();
        containment.set(tags.object, tags.real);
        let trace = build_trace(
            &config,
            &trajectories,
            ContainmentTimeline::new(containment),
            self.seed,
            "figure4-evidence".to_string(),
        );
        (trace, tags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_produces_expected_colocation_pattern() {
        let (trace, tags) = EvidenceScenario::default().generate();
        let truth = &trace.truth;
        // At the door, all four tags share a location.
        let door = truth.location_at(tags.object, Epoch(10)).unwrap();
        for t in [tags.real, tags.nrc, tags.nrnc] {
            assert_eq!(truth.location_at(t, Epoch(10)), Some(door));
        }
        // On the belt only the real container travels with the object.
        let belt = truth.location_at(tags.object, Epoch(120)).unwrap();
        assert_eq!(truth.location_at(tags.real, Epoch(120)), Some(belt));
        assert_ne!(truth.location_at(tags.nrc, Epoch(120)), Some(belt));
        assert_ne!(truth.location_at(tags.nrnc, Epoch(120)), Some(belt));
        // On the shelf, NRC is co-located again but NRNC is not.
        let shelf = truth.location_at(tags.object, Epoch(180)).unwrap();
        assert_eq!(truth.location_at(tags.real, Epoch(180)), Some(shelf));
        assert_eq!(truth.location_at(tags.nrc, Epoch(180)), Some(shelf));
        assert_ne!(truth.location_at(tags.nrnc, Epoch(180)), Some(shelf));
        // Ground-truth containment points at the real container.
        assert_eq!(truth.container_at(tags.object, Epoch(0)), Some(tags.real));
    }

    #[test]
    fn scenario_readings_cover_all_tags() {
        let (trace, tags) = EvidenceScenario::default().generate();
        let observed = trace.readings.tags();
        for t in [tags.object, tags.real, tags.nrc, tags.nrnc] {
            assert!(
                observed.contains(&t),
                "tag {t} should be read at least once"
            );
        }
    }

    #[test]
    #[should_panic]
    fn inconsistent_times_panic() {
        let _ = EvidenceScenario {
            belt_time: 180,
            shelf_time: 150,
            ..Default::default()
        }
        .generate();
    }
}
