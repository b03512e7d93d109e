//! Injection of containment anomalies.
//!
//! To generate "events of interest" (Section 5.1), the simulator can inject
//! anomalies that randomly choose an item and move it to a different case in
//! the warehouse, with a configurable interval FA between anomalies. The
//! resulting true containment history is recorded in a
//! [`ContainmentTimeline`] so that change-point detection can be scored
//! against ground truth.

use crate::layout::WarehouseLayout;
use crate::movement::CaseJourney;
use rand::seq::SliceRandom;
use rand::Rng;
use rfid_types::{ContainmentChange, ContainmentMap, ContainmentTimeline, Epoch, TagId};

/// Build the initial containment map implied by how cases were packed.
pub fn initial_containment<'a>(
    journeys: impl IntoIterator<Item = &'a CaseJourney>,
) -> ContainmentMap {
    let mut map = ContainmentMap::new();
    for j in journeys {
        for item in &j.items {
            map.set(*item, j.path.tag);
        }
    }
    map
}

/// Inject anomalies into the containment relation every `interval` seconds.
///
/// `sites` holds one group of case journeys per site, in site order; a
/// single warehouse passes one group. The timeline starts from the packing
/// of every journey (a case keeps its packed items from site to site). At
/// each anomaly epoch, site by site, a random item whose case is currently
/// stored on one of that site's shelves is moved to a *different* case also
/// on a shelf of that site. A site with fewer than two shelved cases skips
/// the epoch — exactly what a physical "misplacement" would require.
///
/// Returns the containment timeline (initial packing plus all injected
/// changes).
pub fn inject_anomalies<R: Rng>(
    sites: &[Vec<CaseJourney>],
    layout: &WarehouseLayout,
    interval: Option<u32>,
    horizon: Epoch,
    rng: &mut R,
) -> ContainmentTimeline {
    let mut timeline = ContainmentTimeline::new(initial_containment(sites.iter().flatten()));
    let Some(interval) = interval else {
        return timeline;
    };
    assert!(interval > 0, "anomaly interval must be positive");

    for t in (interval..horizon.0).step_by(interval as usize) {
        let now = Epoch(t);
        for journeys in sites {
            let shelved: Vec<TagId> = journeys
                .iter()
                .filter(|j| {
                    j.path
                        .location_at(now)
                        .is_some_and(|loc| layout.is_shelf(loc))
                })
                .map(|j| j.path.tag)
                .collect();
            if shelved.len() < 2 {
                continue;
            }
            // Pick a victim item from one shelved case (according to the
            // *current* containment so repeated moves compose correctly).
            let current = timeline.at(now);
            let candidates: Vec<(TagId, TagId)> = shelved
                .iter()
                .flat_map(|&case| {
                    current
                        .objects_in(case)
                        .into_iter()
                        .map(move |item| (item, case))
                })
                .collect();
            let Some(&(item, old_case)) = candidates.choose(rng) else {
                continue;
            };
            let targets: Vec<TagId> = shelved.into_iter().filter(|&c| c != old_case).collect();
            if let Some(&new_case) = targets.choose(rng) {
                timeline.record(ContainmentChange {
                    time: now,
                    object: item,
                    old_container: Some(old_case),
                    new_container: Some(new_case),
                });
            }
        }
    }
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WarehouseConfig;
    use crate::movement::{build_journeys, source_arrivals, TagSerials};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn journeys(len: u32) -> (WarehouseConfig, WarehouseLayout, Vec<CaseJourney>) {
        let config = WarehouseConfig::default().with_length(len).with_seed(11);
        let layout = WarehouseLayout::new(&config);
        let mut serials = TagSerials::new();
        let arrivals = source_arrivals(&config, &mut serials);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let j = build_journeys(&config, &layout, &arrivals, &mut rng);
        (config, layout, j)
    }

    #[test]
    fn initial_containment_packs_every_item() {
        let (config, _, j) = journeys(600);
        let map = initial_containment(&j);
        let expected_items = j.len() * config.items_per_case as usize;
        assert_eq!(map.len(), expected_items);
        for journey in &j {
            for item in &journey.items {
                assert_eq!(map.container_of(*item), Some(journey.path.tag));
            }
        }
    }

    #[test]
    fn no_interval_means_stable_containment() {
        let (_, layout, j) = journeys(600);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let tl = inject_anomalies(
            std::slice::from_ref(&j),
            &layout,
            None,
            Epoch(600),
            &mut rng,
        );
        assert!(tl.changes().is_empty());
    }

    #[test]
    fn anomalies_move_items_between_distinct_shelved_cases() {
        let (_, layout, j) = journeys(1800);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let tl = inject_anomalies(
            std::slice::from_ref(&j),
            &layout,
            Some(60),
            Epoch(1800),
            &mut rng,
        );
        assert!(!tl.changes().is_empty(), "long trace should see anomalies");
        for change in tl.changes() {
            assert!(change.object.is_object());
            let old = change.old_container.expect("moved items had a container");
            let new = change.new_container.expect("anomalies move, not remove");
            assert_ne!(old, new, "item must move to a *different* case");
            // both cases are on shelves at the time of the change
            for case in [old, new] {
                let journey = j.iter().find(|x| x.path.tag == case).unwrap();
                let loc = journey.path.location_at(change.time).unwrap();
                assert!(layout.is_shelf(loc));
            }
        }
        // changes are time-ordered and respect the interval grid
        for w in tl.changes().windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(tl.changes().iter().all(|c| c.time.0 % 60 == 0));
    }

    #[test]
    fn repeated_moves_compose() {
        let (_, layout, j) = journeys(3000);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let tl = inject_anomalies(
            std::slice::from_ref(&j),
            &layout,
            Some(30),
            Epoch(3000),
            &mut rng,
        );
        // The old_container recorded for each change must equal the
        // container in force immediately before the change.
        for (idx, change) in tl.changes().iter().enumerate() {
            let before = change.time.minus(1);
            // replay only earlier changes
            let mut replay = ContainmentTimeline::new(tl.initial().clone());
            for earlier in tl.changes().iter().take(idx) {
                replay.record(*earlier);
            }
            assert_eq!(
                replay.container_at(change.object, before),
                change.old_container
            );
        }
    }

    #[test]
    fn each_site_moves_items_only_between_its_own_cases() {
        let (_, layout, j) = journeys(1800);
        let (even, odd): (Vec<_>, Vec<_>) =
            j.iter().cloned().enumerate().partition(|(i, _)| i % 2 == 0);
        let sites: Vec<Vec<CaseJourney>> = [even, odd]
            .into_iter()
            .map(|group| group.into_iter().map(|(_, journey)| journey).collect())
            .collect();
        let site_of = |case: TagId| {
            sites
                .iter()
                .position(|g| g.iter().any(|x| x.path.tag == case))
        };
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let tl = inject_anomalies(&sites, &layout, Some(60), Epoch(1800), &mut rng);
        assert!(!tl.changes().is_empty());
        let mut moved_at_both = false;
        for change in tl.changes() {
            let old = site_of(change.old_container.unwrap());
            assert_eq!(old, site_of(change.new_container.unwrap()));
            moved_at_both |= old == Some(1);
        }
        assert!(moved_at_both, "the second site injects anomalies too");
        assert_eq!(tl.initial(), &initial_containment(&j));
    }
}
