//! Synthetic temperature sensor streams for the hybrid queries of Section 2.
//!
//! Query 1 joins the RFID event stream against a temperature stream
//! partitioned by sensor (one sensor per reader location), and raises an
//! alert when a temperature-sensitive product sits outside a freezer at room
//! temperature for six hours. The paper does not describe the sensors beyond
//! that, so the model here is deliberately simple: every location has a base
//! temperature (freezer locations are cold, the rest are at room
//! temperature) plus small periodic and random fluctuations.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_types::{Epoch, LocationId, SensorReading};
use std::collections::BTreeSet;

/// Temperature model for a deployment: which locations are freezers and what
/// the ambient temperature is elsewhere.
#[derive(Debug, Clone)]
pub struct TemperatureModel {
    freezer_locations: BTreeSet<LocationId>,
    /// Mean temperature of non-freezer locations (°C).
    pub room_temp: f64,
    /// Mean temperature of freezer locations (°C).
    pub freezer_temp: f64,
    /// Half-amplitude of the random fluctuation added to every reading.
    pub jitter: f64,
    /// Seconds between two consecutive readings of the same sensor.
    pub period_secs: u32,
    /// RNG seed.
    pub seed: u64,
}

impl TemperatureModel {
    /// Create a model where the listed locations are freezers, all others
    /// are at 21 °C room temperature, freezers at −18 °C, ±0.5 °C jitter and
    /// one reading per sensor per 10 seconds.
    pub fn new(freezer_locations: impl IntoIterator<Item = LocationId>) -> TemperatureModel {
        TemperatureModel {
            freezer_locations: freezer_locations.into_iter().collect(),
            room_temp: 21.0,
            freezer_temp: -18.0,
            jitter: 0.5,
            period_secs: 10,
            seed: 17,
        }
    }

    /// Whether a location is a freezer.
    pub fn is_freezer(&self, loc: LocationId) -> bool {
        self.freezer_locations.contains(&loc)
    }

    /// Mean temperature of a location.
    pub fn mean_temp(&self, loc: LocationId) -> f64 {
        if self.is_freezer(loc) {
            self.freezer_temp
        } else {
            self.room_temp
        }
    }

    /// Generate the temperature stream of every location in `0..num_locations`
    /// over `[0, horizon)`, ordered by time then location.
    pub fn generate(&self, num_locations: usize, horizon: Epoch) -> Vec<SensorReading> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut readings = Vec::new();
        let period = self.period_secs.max(1);
        let mut t = 0u32;
        while t < horizon.0 {
            for l in 0..num_locations {
                let loc = LocationId(l as u16);
                let noise = rng.gen_range(-self.jitter..=self.jitter);
                readings.push(SensorReading::new(
                    Epoch(t),
                    loc,
                    self.mean_temp(loc) + noise,
                ));
            }
            t += period;
        }
        readings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freezer_locations_read_cold_others_warm() {
        let model = TemperatureModel::new([LocationId(2)]);
        let readings = model.generate(4, Epoch(100));
        assert!(!readings.is_empty());
        for r in &readings {
            if r.location == LocationId(2) {
                assert!(r.value < 0.0, "freezer reads below zero");
            } else {
                assert!(r.value > 15.0, "room locations read warm");
            }
        }
    }

    #[test]
    fn stream_covers_all_locations_periodically() {
        let model = TemperatureModel::new([]);
        let readings = model.generate(3, Epoch(50));
        // 5 sample times (0,10,20,30,40) x 3 locations
        assert_eq!(readings.len(), 15);
        assert!(readings.iter().any(|r| r.location == LocationId(0)));
        assert!(readings.iter().any(|r| r.location == LocationId(2)));
        assert!(readings.iter().all(|r| r.time.0 % 10 == 0));
    }

    #[test]
    fn generation_is_deterministic() {
        let model = TemperatureModel::new([LocationId(0)]);
        let a = model.generate(2, Epoch(100));
        let b = model.generate(2, Epoch(100));
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| (x.value - y.value).abs() < 1e-12));
    }

    #[test]
    fn is_freezer_and_mean_temp() {
        let model = TemperatureModel::new([LocationId(1)]);
        assert!(model.is_freezer(LocationId(1)));
        assert!(!model.is_freezer(LocationId(0)));
        assert!(model.mean_temp(LocationId(1)) < model.mean_temp(LocationId(0)));
    }
}
