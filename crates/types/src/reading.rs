//! Raw RFID readings — the `(time, tag id, reader id)` schema emitted by
//! readers (Section 2 of the paper) — plus a batch container with the
//! index structures the inference engine needs.

use crate::ids::{Epoch, ReaderId, TagId};
use std::collections::{BTreeMap, BTreeSet};

/// A single raw RFID observation: at epoch `time`, the reader `reader`
/// successfully interrogated tag `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RawReading {
    /// Epoch in which the interrogation happened.
    pub time: Epoch,
    /// The tag that responded.
    pub tag: TagId,
    /// The reader (and therefore location) that heard the response.
    pub reader: ReaderId,
}

impl RawReading {
    /// Construct a reading.
    pub fn new(time: Epoch, tag: TagId, reader: ReaderId) -> RawReading {
        RawReading { time, tag, reader }
    }

    /// Size of one reading under flat fixed-width framing (time: 4, tag: 8,
    /// reader: 2): the baseline the codec's batch encoding and the
    /// Centralized byte count are tested against. No accounting charges it —
    /// every counted byte is a byte the codec produced.
    pub const WIRE_BYTES: usize = 14;
}

/// An ordered batch of raw readings covering a span of epochs, with
/// per-tag and per-epoch indexes.
///
/// This is the unit the inference engine consumes: readers at a site append
/// readings as they observe tags, and every inference period (default 300 s)
/// the engine runs [RFINFER](https://doi.org/10.14778/1952376.1952380) over a
/// batch that combines the critical region, the recent history and the new
/// readings.
#[derive(Debug, Clone, Default)]
pub struct ReadingBatch {
    readings: Vec<RawReading>,
    sorted: bool,
}

impl ReadingBatch {
    /// Create an empty batch.
    pub fn new() -> ReadingBatch {
        ReadingBatch::default()
    }

    /// Create a batch from a vector of readings (need not be sorted).
    pub fn from_readings(readings: Vec<RawReading>) -> ReadingBatch {
        let mut batch = ReadingBatch {
            readings,
            sorted: false,
        };
        batch.ensure_sorted();
        batch
    }

    /// Append one reading.
    pub fn push(&mut self, reading: RawReading) {
        if let Some(last) = self.readings.last() {
            if *last > reading {
                self.sorted = false;
            }
        }
        self.readings.push(reading);
    }

    /// Sort readings by (time, tag, reader) and deduplicate exact duplicates.
    pub fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.readings.sort_unstable();
            self.readings.dedup();
            self.sorted = true;
        }
    }

    /// All readings in (time, tag, reader) order.
    pub fn readings(&mut self) -> &[RawReading] {
        self.ensure_sorted();
        &self.readings
    }

    /// All readings without forcing a sort (order unspecified).
    pub fn readings_unordered(&self) -> &[RawReading] {
        &self.readings
    }

    /// The readings in `(time, tag, reader)` order *without copying*, if the
    /// batch is already sorted and de-duplicated (which every batch built via
    /// [`Self::from_readings`] is). Returns `None` when a sort would be
    /// required first — callers that cannot mutate the batch should fall back
    /// to sorting their own copy of [`Self::readings_unordered`].
    pub fn sorted_readings(&self) -> Option<&[RawReading]> {
        if self.sorted || self.readings.is_empty() {
            Some(&self.readings)
        } else {
            None
        }
    }

    /// Number of readings in the batch.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Whether the batch holds no readings.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }

    /// The set of distinct tags observed in this batch.
    pub fn tags(&self) -> BTreeSet<TagId> {
        self.readings.iter().map(|r| r.tag).collect()
    }

    /// The set of distinct epochs with at least one reading.
    pub fn epochs(&self) -> BTreeSet<Epoch> {
        self.readings.iter().map(|r| r.time).collect()
    }

    /// Group the batch by tag: for every tag, the list of (epoch, reader)
    /// observations, sorted by epoch.
    pub fn by_tag(&self) -> BTreeMap<TagId, Vec<(Epoch, ReaderId)>> {
        let mut map: BTreeMap<TagId, Vec<(Epoch, ReaderId)>> = BTreeMap::new();
        for r in &self.readings {
            map.entry(r.tag).or_default().push((r.time, r.reader));
        }
        for obs in map.values_mut() {
            obs.sort_unstable();
            obs.dedup();
        }
        map
    }

    /// Retain only readings with `time >= cutoff`. Used by window-based
    /// history truncation.
    pub fn retain_since(&mut self, cutoff: Epoch) {
        self.readings.retain(|r| r.time >= cutoff);
    }

    /// Retain only readings whose epoch falls in one of the given inclusive
    /// ranges. Used by critical-region truncation (keep CR plus the recent
    /// history and drop everything else).
    pub fn retain_ranges(&mut self, ranges: &[(Epoch, Epoch)]) {
        self.readings
            .retain(|r| ranges.iter().any(|&(lo, hi)| r.time >= lo && r.time <= hi));
    }
}

impl FromIterator<RawReading> for ReadingBatch {
    fn from_iter<I: IntoIterator<Item = RawReading>>(iter: I) -> Self {
        ReadingBatch::from_readings(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(t: u32, tag: TagId, reader: u16) -> RawReading {
        RawReading::new(Epoch(t), tag, ReaderId(reader))
    }

    #[test]
    fn batch_sorts_and_dedups() {
        let item = TagId::item(1);
        let case = TagId::case(1);
        let mut batch = ReadingBatch::new();
        batch.push(r(5, item, 0));
        batch.push(r(1, case, 1));
        batch.push(r(5, item, 0)); // duplicate
        batch.push(r(1, item, 1));
        let readings = batch.readings().to_vec();
        assert_eq!(readings.len(), 3);
        assert!(readings.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn batch_epoch_bounds_and_tags() {
        let batch: ReadingBatch = vec![r(3, TagId::item(1), 0), r(9, TagId::case(2), 1)]
            .into_iter()
            .collect();
        assert_eq!(batch.tags().len(), 2);
        assert_eq!(batch.epochs().len(), 2);
        assert!(!batch.is_empty());
    }

    #[test]
    fn by_tag_groups_and_orders() {
        let item = TagId::item(7);
        let batch: ReadingBatch = vec![r(9, item, 2), r(3, item, 0), r(3, TagId::case(1), 1)]
            .into_iter()
            .collect();
        let grouped = batch.by_tag();
        assert_eq!(grouped.len(), 2);
        let obs = &grouped[&item];
        assert_eq!(obs[0], (Epoch(3), ReaderId(0)));
        assert_eq!(obs[1], (Epoch(9), ReaderId(2)));
    }

    #[test]
    fn retain_since_drops_old_readings() {
        let mut batch: ReadingBatch = (0..10).map(|t| r(t, TagId::item(1), 0)).collect();
        batch.retain_since(Epoch(6));
        assert_eq!(batch.len(), 4);
        assert!(batch.readings().iter().all(|r| r.time >= Epoch(6)));
    }

    #[test]
    fn retain_ranges_keeps_only_requested_windows() {
        let mut batch: ReadingBatch = (0..20).map(|t| r(t, TagId::item(1), 0)).collect();
        batch.retain_ranges(&[(Epoch(2), Epoch(4)), (Epoch(15), Epoch(16))]);
        let epochs: Vec<u32> = batch
            .readings_unordered()
            .iter()
            .map(|r| r.time.0)
            .collect();
        assert_eq!(epochs.len(), 5);
        assert!(epochs
            .iter()
            .all(|&t| (2..=4).contains(&t) || (15..=16).contains(&t)));
    }

    #[test]
    fn sorted_readings_borrows_only_when_already_ordered() {
        let sorted: ReadingBatch = vec![r(1, TagId::item(1), 0), r(2, TagId::item(1), 0)]
            .into_iter()
            .collect();
        assert_eq!(sorted.sorted_readings().unwrap().len(), 2);

        let mut unsorted = ReadingBatch::new();
        assert!(unsorted.sorted_readings().is_some(), "empty is sorted");
        unsorted.push(r(5, TagId::item(1), 0));
        unsorted.push(r(1, TagId::item(1), 0));
        assert!(unsorted.sorted_readings().is_none());
        unsorted.ensure_sorted();
        assert_eq!(unsorted.sorted_readings().unwrap().len(), 2);
    }
}
