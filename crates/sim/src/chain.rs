//! Multi-warehouse supply-chain simulator (Section 5.3 and Appendix C.1).
//!
//! `N` warehouses are arranged in a single-source DAG. Pallets of cases are
//! injected at the source, travel through a sequence of warehouses (with a
//! transit delay between sites, dispatched round-robin to each warehouse's
//! successors) and every warehouse independently produces noisy readings from
//! its own readers. Anomalies move items between co-located cases at any
//! site. The output is one [`Trace`] per site plus the list of
//! [`ObjectTransfer`]s — the events the distributed processing layer reacts
//! to by migrating inference and query state.

use crate::anomaly::initial_containment;
use crate::config::ChainConfig;
use crate::generate::{
    case_trajectory, generate_readings, item_trajectory, record_ground_truth, TagTrajectory,
};
use crate::layout::WarehouseLayout;
use crate::movement::{build_journeys, CaseJourney, PalletArrival, TagSerials};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_types::{
    ContainmentChange, ContainmentTimeline, Epoch, GroundTruth, SiteId, TagId, Trace, TraceMetadata,
};
use std::collections::BTreeMap;

/// An object (case or item) leaving one site for another: the trigger for
/// state migration in the distributed system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectTransfer {
    /// The migrating tag.
    pub tag: TagId,
    /// Site the object departs from.
    pub from_site: SiteId,
    /// Site the object will arrive at.
    pub to_site: SiteId,
    /// Epoch at which the object is scanned at the exit of `from_site`.
    pub depart: Epoch,
    /// Epoch at which the object arrives at `to_site`.
    pub arrive: Epoch,
}

/// Output of the supply-chain simulator.
#[derive(Debug, Clone)]
pub struct ChainTrace {
    /// One trace per site, indexed by `SiteId().0 as usize`.
    pub sites: Vec<Trace>,
    /// All inter-site object transfers in departure-time order.
    pub transfers: Vec<ObjectTransfer>,
    /// The global true containment timeline (shared by all sites).
    pub containment: ContainmentTimeline,
}

impl ChainTrace {
    /// Total number of raw readings across all sites.
    pub fn total_readings(&self) -> usize {
        self.sites.iter().map(|t| t.readings.len()).sum()
    }

    /// All distinct objects (items) in the chain.
    pub fn objects(&self) -> Vec<TagId> {
        let mut objects: Vec<TagId> = self.sites.iter().flat_map(|t| t.objects()).collect();
        objects.sort_unstable();
        objects.dedup();
        objects
    }
}

/// One case's visit to one site, used internally while scheduling the chain.
#[derive(Debug, Clone)]
struct SiteVisit {
    site: SiteId,
    journey: CaseJourney,
}

/// Simulator of an `N`-warehouse supply chain.
#[derive(Debug, Clone)]
pub struct SupplyChainSimulator {
    config: ChainConfig,
}

impl SupplyChainSimulator {
    /// Create a simulator from a chain configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: ChainConfig) -> SupplyChainSimulator {
        if let Err(msg) = config.validate() {
            panic!("invalid chain configuration: {msg}");
        }
        SupplyChainSimulator { config }
    }

    /// The configuration this simulator runs with.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Generate per-site traces, transfers, and the global containment truth.
    pub fn generate(&self) -> ChainTrace {
        let wh = &self.config.warehouse;
        let horizon = Epoch(wh.length_secs);
        let layout = WarehouseLayout::new(wh);
        let num_sites = self.config.num_warehouses as usize;

        // 1. Route pallets through the DAG, building one set of case
        //    journeys per site. Warehouses are processed in index order,
        //    which is a topological order of the DAG.
        let mut serials = TagSerials::new();
        let mut arrivals_per_site: Vec<Vec<PalletArrival>> = vec![Vec::new(); num_sites];
        arrivals_per_site[0] = crate::movement::source_arrivals(wh, &mut serials);
        let mut visits: Vec<SiteVisit> = Vec::new();
        let mut transfers: Vec<ObjectTransfer> = Vec::new();
        let mut rr_cursor: Vec<usize> = vec![0; num_sites];

        for w in 0..num_sites {
            if arrivals_per_site[w].is_empty() {
                continue;
            }
            let arrivals = arrivals_per_site[w].clone();
            let mut rng = ChaCha8Rng::seed_from_u64(wh.seed ^ (w as u64) << 17);
            let journeys = build_journeys(wh, &layout, &arrivals, &mut rng);
            // Group journeys by pallet to learn when each pallet departs.
            let mut per_pallet: BTreeMap<TagId, Vec<&CaseJourney>> = BTreeMap::new();
            for j in &journeys {
                per_pallet.entry(j.pallet).or_default().push(j);
            }
            let successors = self.config.successors(w as u32);
            for (pallet, cases) in &per_pallet {
                let departure = cases
                    .iter()
                    .map(|j| j.departure)
                    .collect::<Option<Vec<_>>>();
                let Some(departure) = departure else { continue };
                let depart = departure.into_iter().max().unwrap();
                if successors.is_empty() {
                    continue;
                }
                let next = successors[rr_cursor[w] % successors.len()] as usize;
                rr_cursor[w] += 1;
                let arrive = depart.plus(self.config.transit_secs);
                if arrive >= horizon {
                    continue;
                }
                arrivals_per_site[next].push(PalletArrival {
                    pallet: *pallet,
                    arrival: arrive,
                    cases: cases.iter().map(|j| (j.case, j.items.clone())).collect(),
                });
                for j in cases {
                    transfers.push(ObjectTransfer {
                        tag: j.case,
                        from_site: SiteId(w as u16),
                        to_site: SiteId(next as u16),
                        depart,
                        arrive,
                    });
                }
            }
            visits.extend(journeys.into_iter().map(|journey| SiteVisit {
                site: SiteId(w as u16),
                journey,
            }));
            // keep arrivals sorted by time for the next site
            for site_arrivals in arrivals_per_site.iter_mut() {
                site_arrivals.sort_by_key(|p| p.arrival);
            }
        }

        // 2. Global containment: initial packing (from the source journeys —
        //    packing never changes across sites unless an anomaly fires) plus
        //    anomalies injected in global time order across all sites.
        let source_journeys: Vec<CaseJourney> = visits
            .iter()
            .filter(|v| v.site == SiteId(0))
            .map(|v| v.journey.clone())
            .collect();
        let mut timeline = ContainmentTimeline::new(initial_containment(&source_journeys));
        if let Some(interval) = wh.anomaly_interval {
            let mut rng = ChaCha8Rng::seed_from_u64(wh.seed ^ 0xa11);
            let mut t = interval;
            while t < horizon.0 {
                let now = Epoch(t);
                for w in 0..num_sites {
                    let shelved: Vec<&CaseJourney> = visits
                        .iter()
                        .filter(|v| v.site == SiteId(w as u16))
                        .map(|v| &v.journey)
                        .filter(|j| {
                            j.location_at(now)
                                .map(|loc| layout.is_shelf(loc))
                                .unwrap_or(false)
                        })
                        .collect();
                    if shelved.len() < 2 {
                        continue;
                    }
                    let current = timeline.at(now);
                    let candidates: Vec<(TagId, TagId)> = shelved
                        .iter()
                        .flat_map(|j| {
                            current
                                .objects_in(j.case)
                                .into_iter()
                                .map(move |item| (item, j.case))
                        })
                        .collect();
                    let Some(&(item, old_case)) = candidates.choose(&mut rng) else {
                        continue;
                    };
                    let targets: Vec<TagId> = shelved
                        .iter()
                        .map(|j| j.case)
                        .filter(|c| *c != old_case)
                        .collect();
                    if let Some(&new_case) = targets.choose(&mut rng) {
                        timeline.record(ContainmentChange {
                            time: now,
                            object: item,
                            old_container: Some(old_case),
                            new_container: Some(new_case),
                        });
                    }
                }
                t += interval;
            }
        }

        // 3. Item transfers: items travel with whatever case contains them at
        //    the case's departure time.
        let mut item_transfers = Vec::new();
        for tr in &transfers {
            let case = tr.tag;
            let contained = timeline.at(tr.depart);
            for item in contained.objects_in(case) {
                item_transfers.push(ObjectTransfer { tag: item, ..*tr });
            }
        }
        transfers.extend(item_transfers);
        transfers.sort_by_key(|t| (t.depart, t.tag));

        // 4. Per-site trajectories, ground truth, and readings.
        let mut sites = Vec::with_capacity(num_sites);
        for w in 0..num_sites {
            let site_journeys: Vec<&CaseJourney> = visits
                .iter()
                .filter(|v| v.site == SiteId(w as u16))
                .map(|v| &v.journey)
                .collect();
            let by_case: BTreeMap<TagId, &CaseJourney> =
                site_journeys.iter().map(|j| (j.case, *j)).collect();
            let mut trajectories: Vec<TagTrajectory> =
                site_journeys.iter().map(|j| case_trajectory(j)).collect();
            let mut items: Vec<TagId> = site_journeys
                .iter()
                .flat_map(|j| j.items.iter().copied())
                .collect();
            // Items that were moved into a case of this site by an anomaly.
            items.extend(
                timeline
                    .changes()
                    .iter()
                    .filter(|c| {
                        c.new_container
                            .map(|nc| by_case.contains_key(&nc))
                            .unwrap_or(false)
                    })
                    .map(|c| c.object),
            );
            items.sort_unstable();
            items.dedup();
            for item in items {
                let traj = item_trajectory(item, &timeline, &by_case, horizon);
                if !traj.segments.is_empty() {
                    trajectories.push(traj);
                }
            }
            let rates = layout.read_rate_table(wh);
            let mut truth = GroundTruth::new(timeline.clone());
            record_ground_truth(&mut truth, &trajectories);
            let mut rng = ChaCha8Rng::seed_from_u64(wh.seed ^ 0xfeed ^ ((w as u64) << 8));
            let readings = generate_readings(&layout, &rates, &trajectories, horizon, &mut rng);
            sites.push(Trace {
                readings,
                truth,
                read_rates: rates,
                meta: TraceMetadata {
                    name: format!("site{w}"),
                    read_rate: wh.read_rate,
                    overlap_rate: wh.overlap_rate,
                    length: wh.length_secs,
                    anomaly_interval: wh.anomaly_interval,
                    num_locations: wh.num_locations(),
                },
            });
        }

        ChainTrace {
            sites,
            transfers,
            containment: timeline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WarehouseConfig;

    fn small_chain(length: u32, warehouses: u32) -> ChainConfig {
        ChainConfig {
            warehouse: WarehouseConfig::default()
                .with_length(length)
                .with_items_per_case(4)
                .with_cases_per_pallet(2)
                .with_seed(13),
            num_warehouses: warehouses,
            transit_secs: 60,
            fanout: 2,
        }
    }

    #[test]
    fn chain_produces_one_trace_per_site() {
        let chain = SupplyChainSimulator::new(small_chain(1800, 3)).generate();
        assert_eq!(chain.sites.len(), 3);
        assert!(!chain.sites[0].readings.is_empty());
        assert!(chain.total_readings() >= chain.sites[0].readings.len());
        assert!(!chain.objects().is_empty());
    }

    #[test]
    fn transfers_reference_valid_sites_and_follow_transit_delay() {
        let config = small_chain(3000, 3);
        let chain = SupplyChainSimulator::new(config.clone()).generate();
        assert!(
            !chain.transfers.is_empty(),
            "long trace should see transfers"
        );
        for tr in &chain.transfers {
            assert!((tr.to_site.0 as u32) < config.num_warehouses);
            assert!((tr.from_site.0 as u32) < config.num_warehouses);
            assert_ne!(tr.from_site, tr.to_site);
            assert_eq!(tr.arrive.since(tr.depart), config.transit_secs);
        }
        // transfers are sorted by departure time
        assert!(chain
            .transfers
            .windows(2)
            .all(|w| w[0].depart <= w[1].depart));
    }

    #[test]
    fn transferred_cases_appear_in_destination_site_readings() {
        let chain = SupplyChainSimulator::new(small_chain(3000, 2)).generate();
        let case_transfer = chain
            .transfers
            .iter()
            .find(|t| t.tag.is_container())
            .expect("at least one case transfer");
        let dest = &chain.sites[case_transfer.to_site.0 as usize];
        assert!(
            dest.readings.tags().contains(&case_transfer.tag),
            "the destination site should read the transferred case"
        );
        // and the destination ground truth knows where it is after arrival
        assert!(dest
            .truth
            .location_at(case_transfer.tag, case_transfer.arrive.plus(5))
            .is_some());
    }

    #[test]
    fn items_transfer_with_their_cases() {
        let chain = SupplyChainSimulator::new(small_chain(3000, 2)).generate();
        let case_transfer = chain
            .transfers
            .iter()
            .find(|t| t.tag.is_container())
            .unwrap();
        let contained = chain.containment.at(case_transfer.depart);
        for item in contained.objects_in(case_transfer.tag) {
            assert!(
                chain
                    .transfers
                    .iter()
                    .any(|t| t.tag == item && t.depart == case_transfer.depart),
                "item {item} should transfer with its case"
            );
        }
    }

    #[test]
    fn anomalies_fire_across_the_chain() {
        let mut config = small_chain(2400, 2);
        config.warehouse.anomaly_interval = Some(60);
        let chain = SupplyChainSimulator::new(config).generate();
        assert!(!chain.containment.changes().is_empty());
    }

    #[test]
    fn single_warehouse_chain_has_no_transfers() {
        let chain = SupplyChainSimulator::new(small_chain(1200, 1)).generate();
        assert!(chain.transfers.is_empty());
        assert_eq!(chain.sites.len(), 1);
    }
}
