//! Physical layout of a simulated warehouse: which reader location plays
//! which role (entry door, conveyor belt, shelves, exit door), the resulting
//! read-rate table, and each reader's interrogation schedule.

use crate::config::{ShelfScanMode, WarehouseConfig};
use rfid_types::{Epoch, LocationId, ReadRateTable};

/// Role-annotated reader locations of one warehouse.
///
/// Locations are numbered `0 = entry, 1 = belt, 2..2+S = shelves,
/// 2+S = exit` where `S` is the number of shelves.
#[derive(Debug, Clone, PartialEq)]
pub struct WarehouseLayout {
    num_shelves: u32,
    shelf_scan: ShelfScanMode,
    non_shelf_period: u32,
}

impl WarehouseLayout {
    /// Build the layout described by a warehouse configuration.
    pub fn new(config: &WarehouseConfig) -> WarehouseLayout {
        WarehouseLayout {
            num_shelves: config.num_shelves,
            shelf_scan: config.shelf_scan,
            non_shelf_period: config.non_shelf_period,
        }
    }

    /// Location of the entry-door reader.
    pub fn entry(&self) -> LocationId {
        LocationId(0)
    }

    /// Location of the conveyor-belt reader.
    pub fn belt(&self) -> LocationId {
        LocationId(1)
    }

    /// Location of shelf `i` (0-based).
    ///
    /// # Panics
    /// Panics if `i >= num_shelves`.
    pub fn shelf(&self, i: u32) -> LocationId {
        assert!(i < self.num_shelves, "shelf index {i} out of range");
        LocationId((2 + i) as u16)
    }

    /// All shelf locations.
    pub fn shelves(&self) -> Vec<LocationId> {
        (0..self.num_shelves).map(|i| self.shelf(i)).collect()
    }

    /// Location of the exit-door reader.
    pub fn exit(&self) -> LocationId {
        LocationId((2 + self.num_shelves) as u16)
    }

    /// Total number of reader locations.
    pub fn num_locations(&self) -> usize {
        (3 + self.num_shelves) as usize
    }

    /// Whether the given location is a shelf.
    pub fn is_shelf(&self, loc: LocationId) -> bool {
        loc != self.entry() && loc != self.belt() && loc != self.exit()
    }

    /// The shelf index of a shelf location.
    pub fn shelf_index(&self, loc: LocationId) -> Option<u32> {
        if self.is_shelf(loc) {
            Some(loc.0 as u32 - 2)
        } else {
            None
        }
    }

    /// Build the read-rate table `pi(r, a)` for this layout: each reader
    /// detects tags at its own location with probability `read_rate`; shelf
    /// readers additionally detect tags on *adjacent* shelves with
    /// probability `overlap_rate * read_rate`; every other pair gets
    /// `background_rate`.
    pub fn read_rate_table(&self, config: &WarehouseConfig) -> ReadRateTable {
        let n = self.num_locations();
        let mut table = ReadRateTable::uniform(n, config.background_rate);
        for loc in table.locations().collect::<Vec<_>>() {
            table.set(loc, loc, config.read_rate);
        }
        // Overlap between adjacent shelf readers.
        for i in 0..self.num_shelves {
            let here = self.shelf(i);
            let overlap = config.overlap_rate * config.read_rate;
            if i > 0 {
                table.set(here, self.shelf(i - 1), overlap);
            }
            if i + 1 < self.num_shelves {
                table.set(here, self.shelf(i + 1), overlap);
            }
        }
        table
    }

    /// Whether the reader at `loc` interrogates during epoch `t`.
    ///
    /// Non-shelf readers interrogate every `non_shelf_period` seconds.
    /// Static shelf readers interrogate every `period_secs` seconds, all in
    /// the same epochs: the inference model of the paper assumes that when
    /// one reader interrogates, the others do too (a missed reading is
    /// evidence), so interleaving shelf-reader schedules would violate the
    /// model the readings are later evaluated under. With a mobile reader,
    /// shelf `i` is only interrogated while the mobile reader is parked in
    /// front of it during its round-robin sweep of the aisle.
    pub fn interrogates(&self, loc: LocationId, t: Epoch) -> bool {
        match self.shelf_index(loc) {
            None => t.0.is_multiple_of(self.non_shelf_period),
            Some(i) => match self.shelf_scan {
                ShelfScanMode::Static { period_secs } => t.0.is_multiple_of(period_secs),
                ShelfScanMode::Mobile {
                    dwell_secs,
                    shelves_per_aisle,
                } => {
                    let aisle_len = shelves_per_aisle.max(1);
                    let cycle = dwell_secs * aisle_len;
                    let pos_in_cycle = t.0 % cycle;
                    let visited_shelf = pos_in_cycle / dwell_secs;
                    visited_shelf == i % aisle_len
                }
            },
        }
    }

    /// Every epoch in `[from, to]` (inclusive) at which the reader at `loc`
    /// interrogates.
    pub fn interrogation_epochs(&self, loc: LocationId, from: Epoch, to: Epoch) -> Vec<Epoch> {
        (from.0..=to.0)
            .map(Epoch)
            .filter(|t| self.interrogates(loc, *t))
            .collect()
    }

    /// The readers that have a non-background probability of detecting a tag
    /// located at `at`: the co-located reader plus, for shelves, the adjacent
    /// shelf readers. Restricting the generator (and the E-step) to these
    /// readers is the sparsity optimization of Appendix A.3.
    pub fn effective_readers(&self, at: LocationId) -> Vec<LocationId> {
        let mut readers = vec![at];
        if let Some(i) = self.shelf_index(at) {
            if i > 0 {
                readers.push(self.shelf(i - 1));
            }
            if i + 1 < self.num_shelves {
                readers.push(self.shelf(i + 1));
            }
        }
        readers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> (WarehouseLayout, WarehouseConfig) {
        let config = WarehouseConfig::default();
        (WarehouseLayout::new(&config), config)
    }

    #[test]
    fn location_roles_are_disjoint_and_complete() {
        let (l, c) = layout();
        assert_eq!(l.entry(), LocationId(0));
        assert_eq!(l.belt(), LocationId(1));
        assert_eq!(l.shelves().len(), c.num_shelves as usize);
        assert_eq!(l.exit(), LocationId((2 + c.num_shelves) as u16));
        assert_eq!(l.num_locations(), c.num_locations());
        assert!(!l.is_shelf(l.entry()));
        assert!(!l.is_shelf(l.belt()));
        assert!(!l.is_shelf(l.exit()));
        assert!(l.is_shelf(l.shelf(0)));
        assert_eq!(l.shelf_index(l.shelf(3)), Some(3));
        assert_eq!(l.shelf_index(l.entry()), None);
    }

    #[test]
    fn read_rate_table_has_diagonal_overlap_and_background() {
        let (l, c) = layout();
        let t = l.read_rate_table(&c);
        assert!((t.rate(l.entry(), l.entry()) - c.read_rate).abs() < 1e-9);
        assert!((t.rate(l.shelf(2), l.shelf(3)) - c.overlap_rate * c.read_rate).abs() < 1e-9);
        assert!((t.rate(l.shelf(3), l.shelf(2)) - c.overlap_rate * c.read_rate).abs() < 1e-9);
        // Non-adjacent shelves and non-shelf readers only get background.
        assert!(t.rate(l.shelf(0), l.shelf(2)) <= c.background_rate + 1e-9);
        assert!(t.rate(l.entry(), l.exit()) <= c.background_rate + 1e-9);
    }

    #[test]
    fn non_shelf_readers_interrogate_every_period() {
        let (l, _) = layout();
        for t in 0..20 {
            assert!(l.interrogates(l.entry(), Epoch(t)));
            assert!(l.interrogates(l.belt(), Epoch(t)));
            assert!(l.interrogates(l.exit(), Epoch(t)));
        }
    }

    #[test]
    fn static_shelf_readers_interrogate_periodically() {
        let (l, c) = layout();
        let period = match c.shelf_scan {
            ShelfScanMode::Static { period_secs } => period_secs,
            _ => unreachable!(),
        };
        let epochs = l.interrogation_epochs(l.shelf(0), Epoch(0), Epoch(99));
        assert_eq!(epochs.len(), 100 / period as usize);
        // all shelf readers fire in the same epochs (see `interrogates` docs)
        let epochs1 = l.interrogation_epochs(l.shelf(1), Epoch(0), Epoch(99));
        assert_eq!(epochs, epochs1);
        assert!(epochs.iter().all(|e| e.0 % period == 0));
    }

    #[test]
    fn mobile_reader_visits_each_shelf_in_turn() {
        let config = WarehouseConfig {
            shelf_scan: ShelfScanMode::Mobile {
                dwell_secs: 10,
                shelves_per_aisle: 4,
            },
            num_shelves: 4,
            ..Default::default()
        };
        let l = WarehouseLayout::new(&config);
        // During [0,10) the mobile reader is at shelf 0, during [10,20) at shelf 1, ...
        assert!(l.interrogates(l.shelf(0), Epoch(5)));
        assert!(!l.interrogates(l.shelf(1), Epoch(5)));
        assert!(l.interrogates(l.shelf(1), Epoch(15)));
        assert!(l.interrogates(l.shelf(3), Epoch(35)));
        // the cycle repeats
        assert!(l.interrogates(l.shelf(0), Epoch(42)));
        // every shelf gets some coverage over a full cycle
        for i in 0..4 {
            assert!(!l
                .interrogation_epochs(l.shelf(i), Epoch(0), Epoch(39))
                .is_empty());
        }
    }

    #[test]
    fn effective_readers_are_sparse() {
        let (l, _) = layout();
        assert_eq!(l.effective_readers(l.entry()), vec![l.entry()]);
        let middle = l.shelf(3);
        let readers = l.effective_readers(middle);
        assert!(readers.contains(&middle));
        assert!(readers.contains(&l.shelf(2)));
        assert!(readers.contains(&l.shelf(4)));
        assert_eq!(readers.len(), 3);
        // first shelf only has one neighbour
        assert_eq!(l.effective_readers(l.shelf(0)).len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shelf_index_out_of_range_panics() {
        let (l, _) = layout();
        let _ = l.shelf(100);
    }
}
