//! The distributed driver: replays a multi-site [`ChainTrace`] against
//! per-site inference engines and query processors, migrating per-object
//! state between sites according to the configured
//! [`MigrationStrategy`] and accounting every
//! byte that crosses a site boundary (Sections 4, 5.3 and 5.4).
//!
//! Two shapes cover the paper's spectrum:
//!
//! * **federated** (`None` / `CriticalRegionReadings` / `CollapsedWeights`) —
//!   every site runs its own `InferenceEngine` and `QueryProcessor`; when a
//!   pallet is dispatched, the departing objects' inference state (nothing,
//!   the critical-region readings, or one collapsed weight per candidate
//!   container) and their query state (centroid-compressed) travel with the
//!   shipment, and the ONS custody map is updated;
//! * **centralized** — every raw reading of every site is shipped to one
//!   central engine whose location space is the disjoint union of the
//!   per-site location spaces: the accuracy upper bound and the
//!   communication worst case.
//!
//! Both are built from the same parts (all private to this crate): a site
//! is *local streams* → *inference unit*, plus the *shipments* that carry an
//! object's state to the next site and the *durability* that survives a
//! crash. The `parallel` module is the one scheduler that drives the
//! federated sites — at any [`DistributedConfig::num_workers`], with
//! bit-identical results — and the `centralized` module feeds every site's
//! streams into one unit.

use crate::comm::CommCost;
use crate::config::{DistributedConfig, MigrationStrategy};
use crate::ons::{CustodyIndex, Ons};
use crate::transport::{TransportMode, TransportStats};
use rfid_core::{InferenceStats, LikelihoodModel, MemoryStats, ThresholdPolicy};
use rfid_query::Alert;
use rfid_sim::{ChainTrace, ObjectTransfer};
use rfid_types::{ContainmentMap, Epoch, RawReading, ReadRateTable, SensorReading, SiteId, TagId};
use rfid_wire::{EdgeLedger, QuarantineEntry, WireCodec};
use std::collections::BTreeMap;
use std::time::Duration;

/// Everything a distributed run produces: the merged containment estimate,
/// alerts, custody registry and the communication bill.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// Final containment estimate, each object reported by the site that
    /// owns it according to the ONS.
    pub containment: ContainmentMap,
    /// Bytes and message counts per [`MessageKind`](crate::MessageKind).
    pub comm: CommCost,
    /// All alerts raised by the (per-site or central) query processors, in
    /// firing order.
    pub alerts: Vec<Alert>,
    /// Total migrated query-state bytes with centroid-based sharing — what
    /// the system actually transferred.
    pub query_state_shared_bytes: usize,
    /// What the same migrations would have cost without sharing (the
    /// Section 5.4 baseline).
    pub query_state_unshared_bytes: usize,
    /// The object-name-service custody registry after the run.
    pub ons: Ons,
    /// Number of inference runs executed across all engines.
    pub inference_runs: usize,
    /// Wall-clock time spent inside inference runs, summed across all
    /// engines — the quantity incremental inference attacks.
    pub inference_wall: Duration,
    /// Dirty-set sizes and cache-reuse counters, summed across all runs of
    /// all engines.
    pub inference_stats: InferenceStats,
    /// Transport counters (envelopes, retransmissions, dedup drops,
    /// degraded-mode abandonments, …): a view of `ledgers`, derived by
    /// [`TransportStats::from_ledgers`], plus the resyncs summed across
    /// sites. Zero only when nothing migrates (the `None` strategy).
    pub transport: TransportStats,
    /// Every poisoned envelope quarantined during the run, tagged with the
    /// site that quarantined it, in `(site, from, seq)` order. Empty unless
    /// the fault plan corrupts payloads.
    pub quarantine: Vec<(SiteId, QuarantineEntry)>,
    /// Memory-budget counters (high-water observation count, compactions,
    /// cache evictions) merged across sites. `high_water` is tracked on every
    /// run; the others stay zero unless
    /// [`DistributedConfig::memory_budget`] is capped.
    pub memory: MemoryStats,
    /// Per-directed-edge conservation ledgers, sender and receiver halves
    /// merged, sorted by `(from, to)`: the one book of transport facts. One
    /// per edge that carried an envelope, so empty under the `None`
    /// strategy; under Centralized, one per forwarding site's uplink
    /// `site → server`, where the server's id is the number of sites. The
    /// invariant oracles in [`crate::oracle`] audit these.
    pub ledgers: Vec<EdgeLedger>,
}

impl DistributedOutcome {
    /// The inferred container of an object (from the site owning it).
    pub fn container_of(&self, object: TagId) -> Option<TagId> {
        self.containment.container_of(object)
    }
}

/// Immutable context shared by everything that replays one run.
pub(crate) struct RunCtx<'a> {
    pub(crate) config: &'a DistributedConfig,
    pub(crate) chain: &'a ChainTrace,
    /// Last epoch of the replay.
    pub(crate) horizon: u32,
    pub(crate) migrates_state: bool,
    pub(crate) with_queries: bool,
    /// Seconds between two pushes of enriched events (never zero).
    pub(crate) stride: u32,
    /// Encoder/decoder for every cross-site payload.
    pub(crate) codec: WireCodec,
    /// Whether this run's envelopes are acked and retransmitted.
    pub(crate) transport_mode: TransportMode,
    /// Per site, what the run derives from its trace.
    pub(crate) sites: Vec<SiteInputs<'a>>,
    /// Which site holds each tag at each epoch.
    pub(crate) custody: CustodyIndex,
}

/// One site's inputs, derived from the trace once per run and borrowed by
/// every replay of the site: live, crash restore, or the Centralized uplink.
pub(crate) struct SiteInputs<'a> {
    /// Transfers departing from this site, in schedule order.
    pub(crate) departures: Vec<ObjectTransfer>,
    /// Time-ordered readings, borrowed from the trace.
    pub(crate) readings: &'a [RawReading],
    /// The temperature samples, when the run has queries.
    pub(crate) sensors: Vec<SensorReading>,
    /// Each site shipping here, with that edge's minimum transit.
    pub(crate) inbound: BTreeMap<u16, u32>,
    /// The smallest transit of this site's out-edges; `u32::MAX` if none.
    pub(crate) min_out_transit: u32,
    /// The engine's change-detection policy, `Calibrated` resolved to
    /// `Fixed(δ)` so a crash restore never recalibrates. Unresolved under
    /// Centralized, whose one engine calibrates its own table when it is
    /// built.
    pub(crate) threshold: Option<ThresholdPolicy>,
}

impl<'a> RunCtx<'a> {
    pub(crate) fn new(config: &'a DistributedConfig, chain: &'a ChainTrace) -> RunCtx<'a> {
        let horizon = chain.sites.first().map_or(0, |s| s.meta.length);
        let with_queries = !config.queries.is_empty();
        let policy = config.inference.change_detection;
        let calibrate = policy == Some(ThresholdPolicy::Calibrated)
            && config.strategy != MigrationStrategy::Centralized;
        // Each distinct site table is calibrated once.
        let mut deltas: Vec<(&ReadRateTable, f64)> = Vec::new();
        let mut sites: Vec<SiteInputs<'a>> = Vec::new();
        for trace in &chain.sites {
            let rates = &trace.read_rates;
            let threshold = match deltas.iter().find(|(seen, _)| *seen == rates) {
                _ if !calibrate => policy,
                Some(&(_, delta)) => Some(ThresholdPolicy::Fixed(delta)),
                None => {
                    let model = LikelihoodModel::new(rates.clone());
                    let delta = ThresholdPolicy::Calibrated.resolve(&model);
                    deltas.push((rates, delta));
                    Some(ThresholdPolicy::Fixed(delta))
                }
            };
            let sensors = match &config.temperature {
                Some(model) if with_queries => {
                    model.generate(trace.meta.num_locations, Epoch(horizon))
                }
                _ => Vec::new(),
            };
            sites.push(SiteInputs {
                departures: Vec::new(),
                readings: trace.readings.readings(),
                sensors,
                inbound: BTreeMap::new(),
                min_out_transit: u32::MAX,
                threshold,
            });
        }
        let mut moves = Vec::with_capacity(chain.transfers.len());
        for tr in &chain.transfers {
            moves.push((tr.tag, tr.depart, tr.to_site));
            let transit = tr.arrive.since(tr.depart);
            let origin = &mut sites[usize::from(tr.from_site.0)];
            origin.departures.push(*tr);
            origin.min_out_transit = origin.min_out_transit.min(transit);
            let inbound = &mut sites[usize::from(tr.to_site.0)].inbound;
            let min = inbound.entry(tr.from_site.0).or_insert(transit);
            *min = (*min).min(transit);
        }
        RunCtx {
            config,
            chain,
            horizon,
            migrates_state: config.strategy != MigrationStrategy::None,
            with_queries,
            stride: config.event_stride_secs.max(1),
            codec: WireCodec::new(config.wire_format),
            transport_mode: TransportMode::resolve(config.faults.as_ref(), &config.transport),
            sites,
            custody: CustodyIndex::new(moves),
        }
    }

    /// The first epoch at or after `from` whose end cuts a checkpoint: a
    /// positive multiple of the configured period.
    pub(crate) fn next_checkpoint(&self, from: Epoch) -> Option<Epoch> {
        let every = self.config.checkpoint_every_secs.filter(|&k| k > 0)?;
        from.0.max(1).div_ceil(every).checked_mul(every).map(Epoch)
    }
}

/// Drives a [`ChainTrace`] through the distributed pipeline.
///
/// # Example
///
/// Replay a two-warehouse chain under collapsed-weight migration and read
/// off the accuracy/communication trade-off:
///
/// ```
/// use rfid_core::InferenceConfig;
/// use rfid_dist::{DistributedConfig, DistributedDriver, MigrationStrategy};
/// use rfid_sim::{ChainConfig, SupplyChainSimulator, WarehouseConfig};
///
/// let chain = SupplyChainSimulator::new(ChainConfig {
///     warehouse: WarehouseConfig::default()
///         .with_length(600)
///         .with_items_per_case(2)
///         .with_cases_per_pallet(1),
///     num_warehouses: 2,
///     transit_secs: 60,
///     fanout: 1,
/// })
/// .generate();
/// let outcome = DistributedDriver::new(DistributedConfig {
///     strategy: MigrationStrategy::CollapsedWeights,
///     inference: InferenceConfig::default().without_change_detection(),
///     ..Default::default()
/// })
/// .run(&chain);
/// assert!(outcome.inference_runs > 0);
/// // Every byte that crossed a site boundary is accounted for:
/// assert_eq!(outcome.comm.total_bytes() > 0, !chain.transfers.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct DistributedDriver {
    config: DistributedConfig,
}

impl DistributedDriver {
    /// Create a driver with the given configuration.
    pub fn new(config: DistributedConfig) -> DistributedDriver {
        DistributedDriver { config }
    }

    /// The driver's configuration.
    pub fn config(&self) -> &DistributedConfig {
        &self.config
    }

    /// Replay the chain and return the outcome.
    ///
    /// Federated strategies run on the one scheduler of the `parallel`
    /// module: [`DistributedConfig::num_workers`] only decides how many
    /// threads share the sites, never the result.
    pub fn run(&self, chain: &ChainTrace) -> DistributedOutcome {
        let ctx = RunCtx::new(&self.config, chain);
        match self.config.strategy {
            MigrationStrategy::Centralized => crate::centralized::run(&ctx),
            _ => crate::parallel::run(&ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::Tally;
    use rfid_core::InferenceConfig;
    use rfid_sim::presets;
    use std::collections::BTreeSet;

    fn resolved(
        chain: &ChainTrace,
        strategy: MigrationStrategy,
        inference: InferenceConfig,
    ) -> Vec<Option<ThresholdPolicy>> {
        let config = DistributedConfig {
            strategy,
            inference,
            ..Default::default()
        };
        let ctx = RunCtx::new(&config, chain);
        ctx.sites.iter().map(|site| site.threshold).collect()
    }

    /// Custody is a function of the dispatch schedule: at every epoch, every
    /// tag's custodian is what replaying the transfer list up to that epoch
    /// registers, each site departs exactly its share of the list, and the
    /// run's final registry is the oracle's recomputation.
    #[test]
    fn custody_and_departures_follow_the_transfer_list() {
        let chain = presets::smoke_chain(900, 3, None);
        let config = DistributedConfig {
            inference: InferenceConfig::default().without_change_detection(),
            ..Default::default()
        };
        let ctx = RunCtx::new(&config, &chain);
        assert!(!chain.transfers.is_empty());
        let tags: BTreeSet<TagId> = (chain.transfers.iter().map(|tr| tr.tag))
            .chain(chain.objects())
            .collect();
        for t in 0..=ctx.horizon {
            let mut replayed = Ons::new();
            for tr in chain.transfers.iter().filter(|tr| tr.depart.0 <= t) {
                replayed.register(tr.tag, tr.to_site);
            }
            for &tag in &tags {
                let expected = replayed.site_of(tag, SiteId(0));
                assert_eq!(
                    ctx.custody.custody_at(tag, Epoch(t)),
                    expected,
                    "{tag:?} at {t}"
                );
            }
        }
        for (site, inputs) in ctx.sites.iter().enumerate() {
            let expected: Vec<ObjectTransfer> = (chain.transfers.iter())
                .filter(|tr| usize::from(tr.from_site.0) == site)
                .copied()
                .collect();
            assert_eq!(inputs.departures, expected, "site {site}");
        }
        // An outcome's registry is the index's at the horizon, which the
        // custody oracle recomputes from the transfer list on its own.
        let outcome = Tally::default().into_outcome(&ctx, ContainmentMap::new(), Vec::new());
        crate::oracle::audit(&chain, &outcome).unwrap();
    }

    /// A site's lookahead on an inbound edge is the edge's *minimum*
    /// transit: one pallet shipped faster than the rest of its edge bounds
    /// how far the receiver may run ahead of the sender.
    #[test]
    fn an_inbound_edge_keeps_its_minimum_transit() {
        let mut chain = presets::smoke_chain(1800, 3, None);
        let first = chain.transfers[0];
        let edge = |tr: &ObjectTransfer| (tr.from_site, tr.to_site);
        for tr in &mut chain.transfers {
            if edge(tr) == edge(&first) && tr.depart == first.depart {
                tr.arrive = tr.depart.plus(30);
            }
        }
        let transits: BTreeSet<u32> = (chain.transfers.iter())
            .filter(|tr| edge(tr) == edge(&first))
            .map(|tr| tr.arrive.since(tr.depart))
            .collect();
        assert_eq!(transits, BTreeSet::from([30, 90]), "one edge, two transits");
        let config = DistributedConfig::default();
        let ctx = RunCtx::new(&config, &chain);
        let to = usize::from(first.to_site.0);
        assert_eq!(ctx.sites[to].inbound[&first.from_site.0], 30);
    }

    #[test]
    fn each_site_runs_the_calibration_of_its_own_table() {
        let mut chain = presets::smoke_chain(300, 3, None);
        let locations = chain.sites[1].read_rates.num_locations();
        chain.sites[1].read_rates = ReadRateTable::diagonal(locations, 0.6, 1e-2);
        let sites = resolved(
            &chain,
            MigrationStrategy::CollapsedWeights,
            InferenceConfig::default(),
        );
        for (site, policy) in chain.sites.iter().zip(&sites) {
            let model = LikelihoodModel::new(site.read_rates.clone());
            let delta = ThresholdPolicy::Calibrated.resolve(&model);
            assert_eq!(*policy, Some(ThresholdPolicy::Fixed(delta)));
        }
        assert_eq!(chain.sites[0].read_rates, chain.sites[2].read_rates);
        assert_eq!(sites[0], sites[2], "sites sharing a table share δ");
        assert_ne!(sites[0], sites[1], "the tables calibrate apart");
    }

    #[test]
    fn fixed_and_disabled_detection_pass_through_and_centralized_resolves_nothing() {
        let chain = presets::smoke_chain(300, 2, None);
        let fixed = InferenceConfig::default().with_fixed_threshold(5.0);
        assert_eq!(
            resolved(&chain, MigrationStrategy::CollapsedWeights, fixed),
            vec![Some(ThresholdPolicy::Fixed(5.0)); 2]
        );
        let off = InferenceConfig::default().without_change_detection();
        assert_eq!(
            resolved(&chain, MigrationStrategy::CriticalRegionReadings, off),
            vec![None; 2]
        );
        let centralized = resolved(
            &chain,
            MigrationStrategy::Centralized,
            InferenceConfig::default(),
        );
        assert_eq!(centralized, vec![Some(ThresholdPolicy::Calibrated); 2]);
    }
}
