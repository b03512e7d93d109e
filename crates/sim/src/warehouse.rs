//! Single-warehouse simulator: combines layout, movement, anomaly injection
//! and reading generation into one [`Trace`] with ground truth.

use crate::anomaly::inject_anomalies;
use crate::config::WarehouseConfig;
use crate::generate::{build_trace, trajectories};
use crate::layout::WarehouseLayout;
use crate::movement::{build_journeys, source_arrivals, TagSerials};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_types::{Epoch, Trace};

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
        let config = &self.config;
        let layout = self.layout();
        let horizon = Epoch(config.length_secs);
        let arrivals = source_arrivals(config, &mut TagSerials::new());
        let mut movement_rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x9e37);
        let journeys = build_journeys(config, &layout, &arrivals, &mut movement_rng);
        let mut anomaly_rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xa11);
        let timeline = inject_anomalies(
            std::slice::from_ref(&journeys),
            &layout,
            config.anomaly_interval,
            horizon,
            &mut anomaly_rng,
        );
        build_trace(
            config,
            &trajectories(&journeys, &timeline, horizon),
            timeline,
            config.seed ^ 0xbeef,
            format!("warehouse-rr{:.2}", config.read_rate),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_types::TagId;

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
        for r in trace.readings.readings() {
            assert!(known.contains(&r.tag));
        }
    }

    #[test]
    fn generation_is_deterministic_given_seed() {
        let config = WarehouseConfig::default().with_length(600).with_seed(77);
        let a = WarehouseSimulator::new(config.clone()).generate();
        let b = WarehouseSimulator::new(config).generate();
        assert_eq!(a.readings.readings(), b.readings.readings());
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let a = WarehouseSimulator::new(WarehouseConfig::default().with_length(600).with_seed(1))
            .generate();
        let b = WarehouseSimulator::new(WarehouseConfig::default().with_length(600).with_seed(2))
            .generate();
        assert_ne!(a.readings.readings(), b.readings.readings());
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
