//! Window operators used by the monitoring queries.
//!
//! Two windows suffice for Q1/Q2:
//!
//! * `[Partition By sensor Rows 1]` — the latest reading of every sensor,
//!   implemented by [`LatestByLocation`];
//! * a sliding time-range window, implemented by [`SlidingTimeWindow`], used
//!   for bounded retention of per-object histories.

use rfid_types::{Epoch, LocationId, SensorReading};
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

/// A sliding time-range window over timestamped items.
#[derive(Debug, Clone)]
pub struct SlidingTimeWindow<T> {
    range_secs: u32,
    items: Vec<(Epoch, T)>,
}

impl<T> SlidingTimeWindow<T> {
    /// Create a window retaining items no older than `range_secs` behind the
    /// most recent insertion.
    pub fn new(range_secs: u32) -> SlidingTimeWindow<T> {
        SlidingTimeWindow {
            range_secs,
            items: Vec::new(),
        }
    }

    /// Insert an item with its timestamp and evict anything that has fallen
    /// out of the range.
    pub fn insert(&mut self, time: Epoch, item: T) {
        self.items.push((time, item));
        let newest = self.items.iter().map(|(t, _)| *t).max().unwrap_or(time);
        let cutoff = newest.minus(self.range_secs);
        self.items.retain(|(t, _)| *t >= cutoff);
    }

    /// Items currently inside the window, oldest first.
    pub fn items(&self) -> impl Iterator<Item = (&Epoch, &T)> {
        self.items.iter().map(|(t, item)| (t, item))
    }

    /// Number of items inside the window.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn sliding_window_evicts_old_items() {
        let mut w: SlidingTimeWindow<u32> = SlidingTimeWindow::new(10);
        assert!(w.is_empty());
        for t in 0..20u32 {
            w.insert(Epoch(t), t);
        }
        assert_eq!(w.len(), 11, "items within the last 10 seconds inclusive");
        assert!(w.items().all(|(t, _)| t.0 >= 9));
    }

    #[test]
    fn sliding_window_handles_out_of_order_inserts() {
        let mut w: SlidingTimeWindow<&str> = SlidingTimeWindow::new(5);
        w.insert(Epoch(100), "newest");
        w.insert(Epoch(97), "still inside");
        w.insert(Epoch(10), "ancient");
        assert_eq!(w.len(), 2);
        assert!(w.items().all(|(_, v)| *v != "ancient"));
    }
}
