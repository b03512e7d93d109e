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
use crate::ons::Ons;
use crate::transport::{TransportMode, TransportStats};
use rfid_core::{InferenceStats, MemoryStats, ThresholdMemo};
use rfid_query::Alert;
use rfid_sim::ChainTrace;
use rfid_types::{ContainmentMap, Epoch, SiteId, TagId};
use rfid_wire::{EdgeLedger, QuarantineEntry, WireCodec};
use std::sync::Arc;
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
    /// degraded-mode abandonments, …) summed across sites. Zero only when
    /// nothing migrates (the `None` strategy).
    pub transport: TransportStats,
    /// Every poisoned envelope quarantined during the run, tagged with the
    /// site that quarantined it, in `(site, from, seq)` order. Empty unless
    /// the fault plan corrupts payloads.
    pub quarantine: Vec<(SiteId, QuarantineEntry)>,
    /// Memory-budget counters (high-water observation count, compactions,
    /// cache evictions) merged across sites. All zero/default unless
    /// [`DistributedConfig::memory_budget`] is set (`high_water` is tracked
    /// whenever a budget is configured, even an unbounded one).
    pub memory: MemoryStats,
    /// Per-directed-edge conservation ledgers, sender and receiver halves
    /// merged, sorted by `(from, to)`: one per edge that carried an
    /// envelope, so empty under the `None` strategy (and for the centralized
    /// strategy, whose uplink has no per-edge bookkeeping). The invariant
    /// oracles in [`crate::oracle`] audit these.
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
    /// Change-point thresholds calibrated so far this run, shared by every
    /// engine of the run.
    pub(crate) thresholds: Arc<ThresholdMemo>,
}

impl<'a> RunCtx<'a> {
    pub(crate) fn new(config: &'a DistributedConfig, chain: &'a ChainTrace) -> RunCtx<'a> {
        RunCtx {
            config,
            chain,
            horizon: chain.sites.first().map_or(0, |s| s.meta.length),
            migrates_state: config.strategy != MigrationStrategy::None,
            with_queries: !config.queries.is_empty(),
            stride: config.event_stride_secs.max(1),
            codec: WireCodec::new(config.wire_format),
            transport_mode: TransportMode::resolve(config.faults.as_ref(), &config.transport),
            thresholds: Arc::default(),
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
