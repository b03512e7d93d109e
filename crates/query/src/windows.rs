//! Window operators used by the monitoring queries.
//!
//! One window suffices for Q1/Q2: `[Partition By sensor Rows 1]` — the
//! latest reading of every sensor, implemented by [`LatestByLocation`].

use rfid_types::{LocationId, SensorReading};
use std::collections::BTreeMap;

/// The latest sensor reading per location — the `[Partition By sensor
/// Rows 1]` window of Query 1.
#[derive(Debug, Clone, Default)]
pub struct LatestByLocation {
    latest: BTreeMap<LocationId, SensorReading>,
}

impl LatestByLocation {
    /// Create an empty window.
    pub fn new() -> LatestByLocation {
        LatestByLocation::default()
    }

    /// Insert a reading, replacing any older reading of the same location.
    /// Out-of-order readings older than the current one are ignored.
    pub fn insert(&mut self, reading: SensorReading) {
        match self.latest.get(&reading.location) {
            Some(existing) if existing.time > reading.time => {}
            _ => {
                self.latest.insert(reading.location, reading);
            }
        }
    }

    /// The latest reading at a location, if any.
    pub fn at(&self, location: LocationId) -> Option<&SensorReading> {
        self.latest.get(&location)
    }

    /// The latest value at a location, if any.
    pub fn value_at(&self, location: LocationId) -> Option<f64> {
        self.at(location).map(|r| r.value)
    }

    /// The retained readings in ascending location order — the checkpoint
    /// codec's view of the window. Re-inserting them into an empty window
    /// rebuilds it bit-identically.
    pub fn readings(&self) -> impl Iterator<Item = &SensorReading> {
        self.latest.values()
    }

    /// Number of locations with at least one reading.
    pub fn len(&self) -> usize {
        self.latest.len()
    }

    /// Whether no readings have been seen.
    pub fn is_empty(&self) -> bool {
        self.latest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_types::Epoch;

    #[test]
    fn latest_by_location_keeps_only_the_newest_reading() {
        let mut w = LatestByLocation::new();
        assert!(w.is_empty());
        w.insert(SensorReading::new(Epoch(10), LocationId(0), 20.0));
        w.insert(SensorReading::new(Epoch(20), LocationId(0), 22.0));
        w.insert(SensorReading::new(Epoch(5), LocationId(0), -5.0)); // stale, ignored
        w.insert(SensorReading::new(Epoch(8), LocationId(1), -18.0));
        assert_eq!(w.len(), 2);
        assert_eq!(w.value_at(LocationId(0)), Some(22.0));
        assert_eq!(w.value_at(LocationId(1)), Some(-18.0));
        assert_eq!(w.value_at(LocationId(9)), None);
        assert_eq!(w.at(LocationId(0)).unwrap().time, Epoch(20));
    }
}
