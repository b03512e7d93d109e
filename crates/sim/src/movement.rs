//! Object movement schedules inside a warehouse.
//!
//! The simulator follows the flow described in Appendix C.1: pallets arrive
//! at the entry door, are unpacked, their cases are scanned one at a time on
//! the conveyor belt, placed on shelves for a stay, repacked, and finally
//! read at the exit door before dispatch. A [`CaseJourney`] captures that
//! flow as a list of `(epoch, location)` segments for one case and its items.

use crate::config::WarehouseConfig;
use crate::layout::WarehouseLayout;
use rand::Rng;
use rfid_types::{Epoch, LocationId, TagId};

/// A tag's trajectory: time-ordered `(start, location)` segments plus an
/// optional departure epoch after which the tag is no longer present.
#[derive(Debug, Clone, PartialEq)]
pub struct TagTrajectory {
    /// The tag.
    pub tag: TagId,
    /// Time-ordered `(start epoch, location)` segments; the tag is at each
    /// location until the start of the next segment or until
    /// [`Self::departure`].
    pub segments: Vec<(Epoch, LocationId)>,
    /// Exclusive end of the last segment (`None` = present until horizon).
    pub departure: Option<Epoch>,
}

impl TagTrajectory {
    /// The tag's location at epoch `t`, or `None` before its first segment
    /// and from its departure on.
    pub fn location_at(&self, t: Epoch) -> Option<LocationId> {
        if self.departure.is_some_and(|dep| t >= dep) {
            return None;
        }
        let mut current = None;
        for &(start, loc) in &self.segments {
            if start <= t {
                current = Some(loc);
            } else {
                break;
            }
        }
        current
    }
}

/// The trajectory of one case (and, implicitly, the items packed in it)
/// through one warehouse.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseJourney {
    /// The pallet the case arrived (and departs) on.
    pub pallet: TagId,
    /// Item tags initially packed in this case.
    pub items: Vec<TagId>,
    /// The case's own trajectory: its tag is the case, its first segment
    /// starts at the arrival, and its departure is the epoch the case leaves
    /// through the exit door (`None` if it is still inside when the trace
    /// ends).
    pub path: TagTrajectory,
}

impl CaseJourney {
    /// The shelf this case was stored on, if it reached a shelf.
    pub fn shelf(&self, layout: &WarehouseLayout) -> Option<LocationId> {
        self.path
            .segments
            .iter()
            .map(|&(_, loc)| loc)
            .find(|&loc| layout.is_shelf(loc))
    }

    /// Inclusive-exclusive epoch range the case spends on its shelf, if any.
    pub fn shelf_interval(&self, layout: &WarehouseLayout) -> Option<(Epoch, Epoch)> {
        let segments = &self.path.segments;
        let idx = segments.iter().position(|&(_, loc)| layout.is_shelf(loc))?;
        let end = segments
            .get(idx + 1)
            .map(|&(next, _)| next)
            .or(self.path.departure)
            .unwrap_or(Epoch(u32::MAX));
        Some((segments[idx].0, end))
    }
}

/// Description of one pallet arriving at a warehouse: when it arrives and
/// which cases (with items) it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct PalletArrival {
    /// The pallet tag.
    pub pallet: TagId,
    /// Arrival epoch at the entry door.
    pub arrival: Epoch,
    /// Cases on the pallet, each with its packed items.
    pub cases: Vec<(TagId, Vec<TagId>)>,
}

/// Build the journeys of every case on the given arriving pallets through a
/// single warehouse, using the dwell times of `config` and shelves assigned
/// round-robin. Dwell on the shelf is sampled uniformly from
/// `[shelf_dwell_min, shelf_dwell_max]`.
pub fn build_journeys<R: Rng>(
    config: &WarehouseConfig,
    layout: &WarehouseLayout,
    arrivals: &[PalletArrival],
    rng: &mut R,
) -> Vec<CaseJourney> {
    let horizon = Epoch(config.length_secs);
    let mut journeys = Vec::new();
    let mut shelf_cursor = 0u32;
    for pallet in arrivals {
        for (case_index, (case, items)) in pallet.cases.iter().enumerate() {
            let mut segments = Vec::with_capacity(4);
            let arrival = pallet.arrival;
            segments.push((arrival, layout.entry()));

            // Cases are unpacked after the entry dwell and scanned on the
            // belt one at a time, in case order.
            let belt_start =
                arrival.plus(config.entry_dwell + case_index as u32 * config.belt_dwell);
            let belt_end = belt_start.plus(config.belt_dwell);
            if belt_start < horizon {
                segments.push((belt_start, layout.belt()));
            }

            // Shelf assignment is round-robin across the warehouse.
            let shelf = layout.shelf(shelf_cursor % config.num_shelves);
            shelf_cursor += 1;
            let dwell = if config.shelf_dwell_max > config.shelf_dwell_min {
                rng.gen_range(config.shelf_dwell_min..=config.shelf_dwell_max)
            } else {
                config.shelf_dwell_min
            };
            let shelf_start = belt_end;
            let shelf_end = shelf_start.plus(dwell);
            if shelf_start < horizon {
                segments.push((shelf_start, shelf));
            }

            // Repacked and read at the exit door before dispatch.
            let exit_start = shelf_end;
            let exit_end = exit_start.plus(config.exit_dwell);
            if exit_start < horizon {
                segments.push((exit_start, layout.exit()));
            }
            let departure = if exit_end < horizon {
                Some(exit_end)
            } else {
                None
            };

            journeys.push(CaseJourney {
                pallet: pallet.pallet,
                items: items.clone(),
                path: TagTrajectory {
                    tag: *case,
                    segments,
                    departure,
                },
            });
        }
    }
    journeys
}

/// Generate the pallet arrival sequence of a *source* warehouse: one pallet
/// every `pallet_injection_interval` seconds, each with
/// `cases_per_pallet` cases of `items_per_case` items, with tag serial
/// numbers drawn from `serials` so that multi-warehouse simulations never
/// reuse a tag.
pub fn source_arrivals(config: &WarehouseConfig, serials: &mut TagSerials) -> Vec<PalletArrival> {
    let mut arrivals = Vec::new();
    let mut t = 0u32;
    while t < config.length_secs {
        let pallet = serials.next_pallet();
        let cases = (0..config.cases_per_pallet)
            .map(|_| {
                let case = serials.next_case();
                let items = (0..config.items_per_case)
                    .map(|_| serials.next_item())
                    .collect();
                (case, items)
            })
            .collect();
        arrivals.push(PalletArrival {
            pallet,
            arrival: Epoch(t),
            cases,
        });
        t += config.pallet_injection_interval;
    }
    arrivals
}

/// Monotonic tag-serial allocator shared across warehouses of one simulated
/// supply chain.
#[derive(Debug, Clone, Default)]
pub struct TagSerials {
    item: u64,
    case: u64,
    pallet: u64,
}

impl TagSerials {
    /// Create an allocator starting at serial 0 for every kind.
    pub fn new() -> TagSerials {
        TagSerials::default()
    }

    /// Allocate the next item tag.
    pub fn next_item(&mut self) -> TagId {
        let t = TagId::item(self.item);
        self.item += 1;
        t
    }

    /// Allocate the next case tag.
    pub fn next_case(&mut self) -> TagId {
        let t = TagId::case(self.case);
        self.case += 1;
        t
    }

    /// Allocate the next pallet tag.
    pub fn next_pallet(&mut self) -> TagId {
        let t = TagId::pallet(self.pallet);
        self.pallet += 1;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (WarehouseConfig, WarehouseLayout, Vec<CaseJourney>) {
        let config = WarehouseConfig::default().with_length(3000).with_seed(1);
        let layout = WarehouseLayout::new(&config);
        let mut serials = TagSerials::new();
        let arrivals = source_arrivals(&config, &mut serials);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let journeys = build_journeys(&config, &layout, &arrivals, &mut rng);
        (config, layout, journeys)
    }

    #[test]
    fn arrivals_follow_injection_interval() {
        let config = WarehouseConfig::default().with_length(300);
        let mut serials = TagSerials::new();
        let arrivals = source_arrivals(&config, &mut serials);
        assert_eq!(arrivals.len(), 5);
        assert_eq!(arrivals[0].arrival, Epoch(0));
        assert_eq!(arrivals[1].arrival, Epoch(60));
        assert_eq!(arrivals[0].cases.len(), config.cases_per_pallet as usize);
        assert_eq!(arrivals[0].cases[0].1.len(), config.items_per_case as usize);
        // no tag reuse across pallets
        let all_cases: Vec<TagId> = arrivals
            .iter()
            .flat_map(|p| p.cases.iter().map(|c| c.0))
            .collect();
        let mut deduped = all_cases.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(all_cases.len(), deduped.len());
    }

    #[test]
    fn journeys_visit_entry_belt_shelf_exit_in_order() {
        let (config, layout, journeys) = setup();
        assert_eq!(
            journeys.len(),
            (config.num_pallets() * config.cases_per_pallet) as usize
        );
        let j = &journeys[0];
        assert_eq!(j.path.segments[0].1, layout.entry());
        assert_eq!(j.path.segments[1].1, layout.belt());
        assert!(layout.is_shelf(j.path.segments[2].1));
        assert_eq!(j.path.segments[3].1, layout.exit());
        assert!(j.path.segments.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn location_at_respects_segment_boundaries() {
        let (config, layout, journeys) = setup();
        let j = &journeys[0];
        assert_eq!(j.path.location_at(Epoch(0)), Some(layout.entry()));
        assert_eq!(
            j.path.location_at(Epoch(config.entry_dwell)),
            Some(layout.belt()),
            "first case hits the belt right after the entry dwell"
        );
        if let Some(dep) = j.path.departure {
            assert_eq!(
                j.path.location_at(dep),
                None,
                "departed cases have no location"
            );
            assert_eq!(j.path.location_at(dep.minus(1)), Some(layout.exit()));
        }
        // second case of the pallet reaches the belt one belt-dwell later
        let j2 = &journeys[1];
        assert_eq!(
            j2.path.location_at(Epoch(config.entry_dwell)),
            Some(layout.entry())
        );
        assert_eq!(
            j2.path
                .location_at(Epoch(config.entry_dwell + config.belt_dwell)),
            Some(layout.belt())
        );
    }

    #[test]
    fn shelf_interval_matches_segments() {
        let (_, layout, journeys) = setup();
        let j = &journeys[0];
        let (start, end) = j.shelf_interval(&layout).expect("reaches a shelf");
        assert!(start < end);
        assert_eq!(j.path.location_at(start), j.shelf(&layout));
        assert_eq!(j.path.location_at(end.minus(1)), j.shelf(&layout));
    }

    #[test]
    fn shelf_assignment_is_round_robin() {
        let (config, layout, journeys) = setup();
        let shelves: Vec<LocationId> = journeys.iter().filter_map(|j| j.shelf(&layout)).collect();
        // the first `num_shelves` cases land on distinct shelves
        let first: Vec<LocationId> = shelves
            .iter()
            .take(config.num_shelves as usize)
            .copied()
            .collect();
        let mut deduped = first.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(first.len(), deduped.len());
    }

    #[test]
    fn tag_serials_are_unique_per_kind() {
        let mut s = TagSerials::new();
        let a = s.next_item();
        let b = s.next_item();
        let c = s.next_case();
        assert_ne!(a, b);
        assert_eq!(a.kind(), rfid_types::TagKind::Item);
        assert_eq!(c.kind(), rfid_types::TagKind::Case);
    }
}
