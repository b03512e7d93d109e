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

use crate::anomaly::inject_anomalies;
use crate::config::ChainConfig;
use crate::generate::{build_trace, trajectories};
use crate::layout::WarehouseLayout;
use crate::movement::{build_journeys, source_arrivals, CaseJourney, PalletArrival, TagSerials};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rfid_types::{ContainmentTimeline, Epoch, SiteId, TagId, Trace};
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

        // 1. Route pallets through the DAG, building one group of case
        //    journeys per site. Warehouses are processed in index order,
        //    which is a topological order of the DAG.
        let mut arrivals_per_site: Vec<Vec<PalletArrival>> = vec![Vec::new(); num_sites];
        arrivals_per_site[0] = source_arrivals(wh, &mut TagSerials::new());
        let mut journeys_per_site: Vec<Vec<CaseJourney>> = vec![Vec::new(); num_sites];
        let mut transfers: Vec<ObjectTransfer> = Vec::new();
        let mut rr_cursor: Vec<usize> = vec![0; num_sites];

        for w in 0..num_sites {
            let arrivals = std::mem::take(&mut arrivals_per_site[w]);
            if arrivals.is_empty() {
                continue;
            }
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
                    .map(|j| j.path.departure)
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
                    cases: cases
                        .iter()
                        .map(|j| (j.path.tag, j.items.clone()))
                        .collect(),
                });
                for j in cases {
                    transfers.push(ObjectTransfer {
                        tag: j.path.tag,
                        from_site: SiteId(w as u16),
                        to_site: SiteId(next as u16),
                        depart,
                        arrive,
                    });
                }
            }
            journeys_per_site[w] = journeys;
            // keep arrivals sorted by time for the next site
            for site_arrivals in arrivals_per_site.iter_mut() {
                site_arrivals.sort_by_key(|p| p.arrival);
            }
        }

        // 2. Global containment: the source's packing plus anomalies
        //    injected in global time order across all sites.
        let mut anomaly_rng = ChaCha8Rng::seed_from_u64(wh.seed ^ 0xa11);
        let timeline = inject_anomalies(
            &journeys_per_site,
            &layout,
            wh.anomaly_interval,
            horizon,
            &mut anomaly_rng,
        );

        // 3. Item transfers: items travel with whatever case contains them at
        //    the case's departure time.
        let mut item_transfers = Vec::new();
        for tr in &transfers {
            let contained = timeline.at(tr.depart);
            for item in contained.objects_in(tr.tag) {
                item_transfers.push(ObjectTransfer { tag: item, ..*tr });
            }
        }
        transfers.extend(item_transfers);
        transfers.sort_by_key(|t| (t.depart, t.tag));

        // 4. One trace per site.
        let sites = journeys_per_site
            .iter()
            .enumerate()
            .map(|(w, journeys)| {
                build_trace(
                    wh,
                    &trajectories(journeys, &timeline, horizon),
                    timeline.clone(),
                    wh.seed ^ 0xfeed ^ ((w as u64) << 8),
                    format!("site{w}"),
                )
            })
            .collect();

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
