//! Single-warehouse simulator: combines layout, movement, anomaly injection
//! and reading generation into one [`Trace`] with ground truth.

use crate::anomaly::inject_anomalies;
use crate::config::WarehouseConfig;
use crate::generate::{
    case_trajectory, generate_readings, item_trajectory, record_ground_truth, TagTrajectory,
};
use crate::layout::WarehouseLayout;
use crate::movement::{build_journeys, source_arrivals, CaseJourney, PalletArrival, TagSerials};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_types::{Epoch, GroundTruth, TagId, Trace, TraceMetadata};
use std::collections::BTreeMap;

/// Simulator of one warehouse (one site).
///
/// ```
/// use rfid_sim::{WarehouseConfig, WarehouseSimulator};
///
/// let config = WarehouseConfig::default().with_length(600).with_read_rate(0.8);
/// let trace = WarehouseSimulator::new(config).generate();
/// assert!(!trace.readings.is_empty());
/// assert!(!trace.objects().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct WarehouseSimulator {
    config: WarehouseConfig,
}

impl WarehouseSimulator {
    /// Create a simulator from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`WarehouseConfig::validate`]).
    pub fn new(config: WarehouseConfig) -> WarehouseSimulator {
        if let Err(msg) = config.validate() {
            panic!("invalid warehouse configuration: {msg}");
        }
        WarehouseSimulator { config }
    }

    /// The configuration this simulator runs with.
    pub fn config(&self) -> &WarehouseConfig {
        &self.config
    }

    /// The layout of the simulated warehouse.
    pub fn layout(&self) -> WarehouseLayout {
        WarehouseLayout::new(&self.config)
    }

    /// Generate a full trace: pallets are injected at the entry door per
    /// Table 2, cases travel entry → belt → shelf → exit, readers produce
    /// noisy readings, and (if configured) anomalies relocate items between
    /// cases.
    pub fn generate(&self) -> Trace {
        let mut serials = TagSerials::new();
        let arrivals = source_arrivals(&self.config, &mut serials);
        self.generate_from_arrivals(&arrivals, 0)
    }

    /// Generate a trace given an explicit pallet arrival schedule. Used by
    /// the multi-warehouse simulator, which routes pallets between sites;
    /// `seed_offset` decorrelates the noise of different sites.
    pub fn generate_from_arrivals(&self, arrivals: &[PalletArrival], seed_offset: u64) -> Trace {
        let layout = self.layout();
        let horizon = Epoch(self.config.length_secs);
        let mut movement_rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0x9e37 ^ seed_offset);
        let journeys = build_journeys(&self.config, &layout, arrivals, &mut movement_rng);

        let mut anomaly_rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0xa11 ^ seed_offset);
        let timeline = inject_anomalies(
            &journeys,
            &layout,
            self.config.anomaly_interval,
            horizon,
            &mut anomaly_rng,
        );

        let trajectories = self.trajectories(&journeys, &timeline, horizon);
        let mut truth = GroundTruth::new(timeline);
        record_ground_truth(&mut truth, &trajectories);

        let rates = layout.read_rate_table(&self.config);
        let mut reading_rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0xbeef ^ seed_offset);
        let readings = generate_readings(&layout, &rates, &trajectories, horizon, &mut reading_rng);

        Trace {
            readings,
            truth,
            read_rates: rates,
            meta: TraceMetadata {
                name: format!("warehouse-rr{:.2}", self.config.read_rate),
                read_rate: self.config.read_rate,
                overlap_rate: self.config.overlap_rate,
                length: self.config.length_secs,
                anomaly_interval: self.config.anomaly_interval,
                num_locations: self.config.num_locations(),
            },
        }
    }

    fn trajectories(
        &self,
        journeys: &[CaseJourney],
        timeline: &rfid_types::ContainmentTimeline,
        horizon: Epoch,
    ) -> Vec<TagTrajectory> {
        let by_case: BTreeMap<TagId, &CaseJourney> = journeys.iter().map(|j| (j.case, j)).collect();
        let mut trajectories: Vec<TagTrajectory> = journeys.iter().map(case_trajectory).collect();
        for j in journeys {
            for item in &j.items {
                trajectories.push(item_trajectory(*item, timeline, &by_case, horizon));
            }
        }
        trajectories
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_trace_has_readings_truth_and_metadata() {
        let config = WarehouseConfig::default().with_length(900).with_seed(5);
        let sim = WarehouseSimulator::new(config.clone());
        let trace = sim.generate();
        assert!(!trace.readings.is_empty());
        assert_eq!(trace.meta.length, 900);
        assert!((trace.meta.read_rate - config.read_rate).abs() < 1e-12);
        assert_eq!(trace.meta.num_locations, config.num_locations());
        // every case has items and every item has a ground-truth container
        let objects = trace.objects();
        assert!(!objects.is_empty());
        for o in objects.iter().take(20) {
            assert!(trace.truth.container_at(*o, Epoch(0)).is_some());
        }
        // readings never mention unknown tags
        let known: std::collections::BTreeSet<TagId> = trace.truth.tags().collect();
        for r in trace.readings.readings_unordered() {
            assert!(known.contains(&r.tag));
        }
    }

    #[test]
    fn generation_is_deterministic_given_seed() {
        let config = WarehouseConfig::default().with_length(600).with_seed(77);
        let a = WarehouseSimulator::new(config.clone()).generate();
        let b = WarehouseSimulator::new(config).generate();
        assert_eq!(
            a.readings.readings_unordered(),
            b.readings.readings_unordered()
        );
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let a = WarehouseSimulator::new(WarehouseConfig::default().with_length(600).with_seed(1))
            .generate();
        let b = WarehouseSimulator::new(WarehouseConfig::default().with_length(600).with_seed(2))
            .generate();
        assert_ne!(
            a.readings.readings_unordered(),
            b.readings.readings_unordered()
        );
    }

    #[test]
    fn higher_read_rate_produces_more_readings() {
        let lo = WarehouseSimulator::new(
            WarehouseConfig::default()
                .with_length(600)
                .with_read_rate(0.6)
                .with_seed(3),
        )
        .generate();
        let hi = WarehouseSimulator::new(
            WarehouseConfig::default()
                .with_length(600)
                .with_read_rate(0.95)
                .with_seed(3),
        )
        .generate();
        assert!(hi.readings.len() > lo.readings.len());
    }

    #[test]
    fn anomalies_show_up_in_ground_truth() {
        let trace = WarehouseSimulator::new(
            WarehouseConfig::default()
                .with_length(2400)
                .with_anomaly_interval(30)
                .with_seed(9),
        )
        .generate();
        assert!(!trace.truth.containment.changes().is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid warehouse configuration")]
    fn invalid_config_panics() {
        let _ = WarehouseSimulator::new(WarehouseConfig {
            read_rate: 2.0,
            ..Default::default()
        });
    }
}
