//! The inference unit — one [`InferenceEngine`] feeding one
//! [`QueryProcessor`] on the periodic cadence — and the [`Tally`] every unit
//! keeps of what it cost.
//!
//! A federated site owns one unit over its local read-rate table; the
//! Centralized baseline owns one over the global block-diagonal table. Both
//! drive it through the same three entry points ([`InferenceUnit::refresh`],
//! [`InferenceUnit::tick`], [`InferenceUnit::finalize`]).

use crate::comm::CommCost;
use crate::driver::{DistributedOutcome, RunCtx};
use crate::transport::{TransportMode, TransportStats};
use rfid_core::{
    InferenceConfig, InferenceEngine, InferenceReport, InferenceStats, MemoryStats, ThresholdPolicy,
};
use rfid_query::{Alert, QueryProcessor};
use rfid_types::{ContainmentMap, Epoch, ReadRateTable, SiteId, TagId};
use rfid_wire::{EdgeLedger, QuarantineEntry, SiteCheckpoint};
use std::collections::BTreeMap;
use std::time::Duration;

/// Everything one site (or the central server) is billed for: the counters
/// that are checkpointed with the site, rebuilt by a crash replay, and summed
/// across sites into the [`DistributedOutcome`].
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) comm: CommCost,
    /// Migrated query-state bytes with centroid sharing, and what the same
    /// migrations would have cost without it.
    pub(crate) shared_bytes: usize,
    pub(crate) unshared_bytes: usize,
    pub(crate) inference_runs: usize,
    /// Wall-clock is not durable state (and deliberately outside the
    /// determinism contract): a checkpoint does not record it, and a crash
    /// restore carries the site's running total across instead.
    pub(crate) inference_wall: Duration,
    pub(crate) inference_stats: InferenceStats,
    /// Anti-entropy resync requests sent: the one transport counter that is
    /// not an envelope, so no ledger books it.
    pub(crate) resyncs: u64,
    /// Poison ledger: every envelope whose payload failed to decode, tagged
    /// with the quarantining site, in acceptance order.
    pub(crate) quarantine: Vec<(SiteId, QuarantineEntry)>,
    /// Memory-budget counters (high-water mark, compactions, evictions).
    pub(crate) memory: MemoryStats,
    /// Per-directed-edge conservation ledgers, the one book of transport
    /// facts: a site books the sender half of its out-edges and the receiver
    /// half of its in-edges; merging folds both halves of each edge together.
    pub(crate) ledgers: BTreeMap<(u16, u16), EdgeLedger>,
}

impl Tally {
    /// The tally a checkpoint recorded.
    pub(crate) fn from_checkpoint(checkpoint: &SiteCheckpoint) -> Tally {
        Tally {
            comm: CommCost::from_parts(checkpoint.comm_bytes, checkpoint.comm_messages),
            shared_bytes: checkpoint.shared_bytes as usize,
            unshared_bytes: checkpoint.unshared_bytes as usize,
            inference_runs: checkpoint.inference_runs as usize,
            inference_wall: Duration::ZERO,
            inference_stats: checkpoint.stats,
            resyncs: checkpoint.transport.resyncs,
            quarantine: checkpoint
                .quarantine
                .iter()
                .map(|&entry| (SiteId(checkpoint.site), entry))
                .collect(),
            memory: checkpoint.memory,
            ledgers: checkpoint
                .ledgers
                .iter()
                .map(|ledger| ((ledger.from, ledger.to), *ledger))
                .collect(),
        }
    }

    /// The conservation ledger of the directed edge `from → to`, created on
    /// first touch.
    pub(crate) fn ledger(&mut self, from: u16, to: u16) -> &mut EdgeLedger {
        self.ledgers
            .entry((from, to))
            .or_insert_with(|| EdgeLedger::new(from, to))
    }

    /// Fold another site's tally into this one. Callers merge in ascending
    /// site order, which is the order the quarantine list reports in.
    pub(crate) fn merge(&mut self, other: Tally) {
        self.comm.merge(&other.comm);
        self.shared_bytes += other.shared_bytes;
        self.unshared_bytes += other.unshared_bytes;
        self.inference_runs += other.inference_runs;
        self.inference_wall += other.inference_wall;
        self.inference_stats.absorb(&other.inference_stats);
        self.resyncs += other.resyncs;
        self.quarantine.extend(other.quarantine);
        self.memory.merge(&other.memory);
        for ((from, to), ledger) in other.ledgers {
            self.ledger(from, to).merge(&ledger);
        }
    }

    /// The transport counters, read off the ledgers of a run in `mode`.
    pub(crate) fn transport(&self, mode: TransportMode) -> TransportStats {
        let acked = mode == TransportMode::Reliable;
        TransportStats::from_ledgers(self.ledgers.values(), acked, self.resyncs)
    }

    /// Report the (merged) tally as a run's outcome.
    pub(crate) fn into_outcome(
        self,
        ctx: &RunCtx<'_>,
        containment: ContainmentMap,
        alerts: Vec<Alert>,
    ) -> DistributedOutcome {
        let transport = self.transport(ctx.transport_mode);
        DistributedOutcome {
            containment,
            comm: self.comm,
            alerts,
            query_state_shared_bytes: self.shared_bytes,
            query_state_unshared_bytes: self.unshared_bytes,
            ons: ctx.custody.ons_at(Epoch(ctx.horizon)),
            inference_runs: self.inference_runs,
            inference_wall: self.inference_wall,
            inference_stats: self.inference_stats,
            transport,
            quarantine: self.quarantine,
            memory: self.memory,
            ledgers: self.ledgers.into_values().collect(),
        }
    }
}

/// One engine, the query processor it feeds, and the bill.
pub(crate) struct InferenceUnit {
    pub(crate) engine: InferenceEngine,
    pub(crate) processor: QueryProcessor,
    pub(crate) tally: Tally,
}

impl InferenceUnit {
    /// A cold unit over `rates` whose engine detects changes under
    /// `change_detection`, with the run's queries registered.
    pub(crate) fn new(
        ctx: &RunCtx<'_>,
        rates: ReadRateTable,
        change_detection: Option<ThresholdPolicy>,
    ) -> InferenceUnit {
        let config = ctx.config;
        let mut processor = QueryProcessor::new();
        for query in &config.queries {
            processor.register(query.clone());
        }
        let inference = InferenceConfig {
            change_detection,
            ..config.inference.clone()
        };
        let engine = InferenceEngine::new(inference, rates);
        InferenceUnit {
            engine,
            processor,
            tally: Tally::default(),
        }
    }

    /// Account one engine run.
    fn note(&mut self, report: &InferenceReport) {
        self.tally.inference_runs += 1;
        self.tally.inference_wall += report.duration;
        self.tally.inference_stats.absorb(&report.stats);
    }

    /// Run inference now, outside the periodic cadence.
    pub(crate) fn refresh(&mut self, now: Epoch) {
        let report = self.engine.run_inference(now);
        self.note(&report);
    }

    /// The periodic step: run inference if it is due, push this stride's
    /// enriched events for the objects `feeds` admits into the query
    /// processor, then enforce the memory budget.
    pub(crate) fn tick(&mut self, ctx: &RunCtx<'_>, now: Epoch, feeds: impl Fn(TagId) -> bool) {
        if let Some(report) = self.engine.step(now) {
            self.note(&report);
        }
        let config = ctx.config;
        if ctx.with_queries && now.0.is_multiple_of(ctx.stride) {
            // Custody is checked before an object is located. The product
            // property `IsA` predicates evaluate comes from the
            // manufacturer's database, not from inference; one string
            // carries it from event to event, so copying it reuses capacity.
            let mut property: Option<String> = None;
            for mut event in self.engine.events_where(now, &feeds) {
                match (&mut property, config.product_properties.get(&event.tag)) {
                    (Some(buffer), Some(from)) => buffer.clone_from(from),
                    (slot, from) => *slot = from.cloned(),
                }
                event.property = property;
                self.processor.on_event(&event);
                property = event.property;
            }
        }
        // Bounded-memory degradation: once the retained history exceeds the
        // budget, old epochs collapse into summary weights and cold cache
        // entries are evicted — a pure function of the engine state, so
        // every worker count (and a crash replay) compacts identically. The
        // pass reads and writes nothing the event feed above touches.
        self.engine
            .enforce_budget(config.memory_budget, now, &mut self.tally.memory);
    }

    /// Final refresh so the reported containment reflects every reading
    /// (skipped where the periodic step already ran at the horizon).
    pub(crate) fn finalize(&mut self, horizon: Epoch) {
        if self.engine.last_inference_at() != Some(horizon) {
            self.refresh(horizon);
        }
    }
}
