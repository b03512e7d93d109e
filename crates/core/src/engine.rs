//! The streaming inference engine: the component a site runs continuously.
//!
//! The engine accumulates raw readings, periodically (every
//! [`InferenceConfig::period_secs`]) runs RFINFER over the retained history
//! (critical regions + recent history `H̄` + new readings), applies
//! change-point detection, truncates the stored history according to the
//! configured policy, and exposes the resulting containment and location
//! estimates plus the enriched event stream. It also exports and imports the
//! per-object migration state used by the distributed layer.

use crate::changepoint::{detect_changes, DetectedChange};
use crate::config::InferenceConfig;
use crate::dense::DenseScratch;
use crate::likelihood::LikelihoodModel;
use crate::observations::Observations;
use crate::rfinfer::{
    CacheKeys, DirtySet, EvidenceCache, InferenceOutcome, InferenceStats, PriorWeights, RfInfer,
};
use crate::state::{CollapsedState, MigrationState, ReadingsState};
use crate::truncate::{retention_plan, MemoryBudget, MemoryStats};
use rfid_types::{
    ContainmentMap, Epoch, LocationId, ObjectEvent, RawReading, ReadRateTable, ReadingBatch, TagId,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The durable state of an [`InferenceEngine`], produced by
/// [`InferenceEngine::snapshot`] and consumed by
/// [`InferenceEngine::restore`].
///
/// A snapshot keeps the engine's inputs, not what it derived from them
/// (§4.1's migration ships inference inputs for the same reason): the
/// observation store, the imported prior weights, the containment estimate,
/// the detected-change log, the dirty journal, the calibrated threshold and
/// the epoch of the last run. Of the last outcome it keeps what is read
/// between runs — containment, ranked candidates, weights, assignments and
/// location runs, for export, `events_at` and `location_of` — but not the
/// point-evidence series, which only change detection and truncation read,
/// inside the run that built them. Of the evidence cache it keeps only the
/// [`CacheKeys`]; restore recomputes every posterior row and series from the
/// restored store. The configuration and likelihood model are not included
/// (a restore target is constructed with those), nor the dense-solver
/// scratch arenas (capacity only).
///
/// `restore(snapshot)` after `snapshot()` is lossless: every subsequent
/// inference run produces the outcome and [`InferenceStats`] of an engine
/// that was never snapshotted.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// The sparse observation store.
    pub store: Observations,
    /// Prior co-location weights imported from other sites.
    pub prior: PriorWeights,
    /// The current (change-point refined) containment estimate.
    pub containment: ContainmentMap,
    /// All containment changes detected so far.
    pub detected: Vec<DetectedChange>,
    /// The outcome of the most recent inference run, if any, without its
    /// point evidence.
    pub last_outcome: Option<InferenceOutcome>,
    /// The epoch of the most recent inference run.
    pub last_inference_at: Option<Epoch>,
    /// The cached change-point threshold, if calibration has happened.
    pub threshold: Option<f64>,
    /// The dirty-set journal of store changes since the last run.
    pub dirty: DirtySet,
    /// The keys of the cross-run posterior/evidence cache.
    pub cache: CacheKeys,
}

/// What an [`InferenceEngine::import_late_state`] call actually merged —
/// the receipt a distributed driver uses to account a degraded-mode
/// reconciliation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportSummary {
    /// The object whose state was merged; `None` when the migration carried
    /// nothing ([`MigrationState::None`]).
    pub object: Option<TagId>,
    /// Collapsed co-location weights merged into the prior.
    pub weights: usize,
    /// Critical-region readings that changed the store: a reading the store
    /// already held is not counted.
    pub readings: usize,
}

impl ImportSummary {
    /// Whether anything at all was merged.
    pub fn merged(&self) -> bool {
        self.object.is_some()
    }
}

/// The report produced by one inference run.
#[derive(Debug, Clone)]
pub struct InferenceReport {
    /// The epoch at which inference ran.
    pub at: Epoch,
    /// The RFINFER outcome (containment, locations, evidence), shared with
    /// the engine's own retained copy — cloning the report never deep-copies
    /// the outcome.
    pub outcome: Arc<InferenceOutcome>,
    /// Containment changes detected during this run.
    pub changes: Vec<DetectedChange>,
    /// Number of (tag, epoch) observations retained after truncation.
    pub retained_observations: usize,
    /// Wall-clock time spent in this run.
    pub duration: Duration,
    /// Dirty-set size and cache-reuse counters of this run.
    pub stats: InferenceStats,
}

/// Streaming inference engine for one site.
///
/// # Example
///
/// Feed co-located readings, run inference, read off containment:
///
/// ```
/// use rfid_core::{InferenceConfig, InferenceEngine};
/// use rfid_types::{Epoch, RawReading, ReadRateTable, ReaderId, TagId};
///
/// let mut engine = InferenceEngine::new(
///     InferenceConfig::default().with_period(10).without_change_detection(),
///     ReadRateTable::diagonal(2, 0.8, 1e-4),
/// );
/// for t in 0..10 {
///     engine.observe(RawReading::new(Epoch(t), TagId::item(1), ReaderId(0)));
///     engine.observe(RawReading::new(Epoch(t), TagId::case(1), ReaderId(0)));
/// }
/// engine.run_inference(Epoch(10));
/// assert_eq!(engine.container_of(TagId::item(1)), Some(TagId::case(1)));
/// // Runs are incremental: a second run with no new readings reuses every
/// // cached posterior.
/// let report = engine.run_inference(Epoch(20));
/// assert_eq!(report.stats.posteriors_computed, 0);
/// ```
pub struct InferenceEngine {
    config: InferenceConfig,
    model: LikelihoodModel,
    store: Observations,
    prior: PriorWeights,
    containment: ContainmentMap,
    detected: Vec<DetectedChange>,
    last_outcome: Option<Arc<InferenceOutcome>>,
    last_inference_at: Option<Epoch>,
    threshold: Option<f64>,
    /// Journal of (tag, epoch) store changes since the last run.
    dirty: DirtySet,
    /// Cross-run posterior/evidence cache for incremental runs.
    cache: EvidenceCache,
    /// Reusable dense-solver buffers (interning arena, flat EM columns,
    /// reader-set loglik table), kept across runs so the streaming steady
    /// state reuses capacity instead of reallocating.
    scratch: DenseScratch,
}

impl InferenceEngine {
    /// Create an engine for a site whose readers have the given read-rate
    /// table.
    pub fn new(config: InferenceConfig, rates: ReadRateTable) -> InferenceEngine {
        InferenceEngine {
            config,
            model: LikelihoodModel::new(rates),
            store: Observations::new(),
            prior: PriorWeights::empty(),
            containment: ContainmentMap::new(),
            detected: Vec::new(),
            last_outcome: None,
            last_inference_at: None,
            threshold: None,
            dirty: DirtySet::new(),
            cache: EvidenceCache::new(),
            scratch: DenseScratch::default(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &InferenceConfig {
        &self.config
    }

    /// Feed one raw reading into the engine.
    pub fn observe(&mut self, reading: RawReading) {
        if self.store.insert(reading) {
            self.dirty.record(reading.tag, reading.time);
        }
    }

    /// Feed a batch of raw readings into the engine.
    pub fn observe_batch(&mut self, batch: &ReadingBatch) {
        for r in batch.readings() {
            self.observe(*r);
        }
    }

    /// Whether an inference run is due at the given epoch.
    pub fn due(&self, now: Epoch) -> bool {
        match self.last_inference_at {
            None => !self.store.is_empty(),
            Some(last) => now.since(last) >= self.config.period_secs,
        }
    }

    /// Run inference if it is due; returns the report if a run happened.
    pub fn step(&mut self, now: Epoch) -> Option<InferenceReport> {
        if self.due(now) {
            Some(self.run_inference(now))
        } else {
            None
        }
    }

    /// Run RFINFER (plus change-point detection and history truncation) now.
    ///
    /// The run is incremental: it reuses the cross-run evidence cache for
    /// every tag the dirty journal proves unchanged, which is bit-identical
    /// to recomputing from scratch (up to wall-clock and reuse counters).
    pub fn run_inference(&mut self, now: Epoch) -> InferenceReport {
        self.run_inference_with(now, |infer, cache, dirty, scratch| {
            infer.run_incremental(cache, dirty, scratch)
        })
    }

    /// [`Self::run_inference`] with the solver call supplied by the caller:
    /// `solve` receives the configured [`RfInfer`], the engine's evidence
    /// cache, the dirty journal taken for this run and the dense scratch.
    /// This is the one seam through which the equivalence tests run the
    /// reference solver (`rfid_core::reference`) or a full recompute
    /// inside an otherwise unchanged engine; the product only ever passes the
    /// dense incremental run.
    #[doc(hidden)]
    pub fn run_inference_with(
        &mut self,
        now: Epoch,
        solve: impl FnOnce(
            &RfInfer<'_>,
            &mut EvidenceCache,
            &DirtySet,
            &mut DenseScratch,
        ) -> (InferenceOutcome, InferenceStats),
    ) -> InferenceReport {
        #[expect(
            clippy::disallowed_methods,
            reason = "feeds only InferenceReport::duration (summed into DistributedOutcome::inference_wall), which never branches inference; logical time is the `now: Epoch` argument"
        )]
        let started = Instant::now();
        // Calibrate the change threshold up front (it is lazy and needs
        // `&mut self`; everything after this runs on disjoint borrows).
        let threshold = if self.config.change_detection.is_some() {
            self.calibrate_threshold()
        } else {
            f64::INFINITY
        };
        // Nothing reads the previous outcome once a run starts: freeing it
        // first keeps one outcome per engine alive, not two.
        self.last_outcome = None;
        let dirty = std::mem::take(&mut self.dirty);
        let infer = RfInfer::with_prior(&self.model, &self.store, &self.prior);
        let (mut outcome, stats) = solve(&infer, &mut self.cache, &dirty, &mut self.scratch);

        // Containment estimates: the M-step assignment for every object this
        // run examined. Objects the run did not see (e.g. an estimate
        // imported from another site for an object with no local readings
        // yet) keep their previous containment rather than being wiped.
        for evidence in outcome.objects() {
            match evidence.assigned() {
                Some(container) => self.containment.set(evidence.object(), container),
                None => {
                    self.containment.remove(evidence.object());
                }
            }
        }

        // ...refined by change-point detection (Section 3.3 / Appendix A.2).
        let mut changes = Vec::new();
        if self.config.change_detection.is_some() {
            changes = detect_changes(&outcome, threshold);
            for change in &changes {
                if let Some(new_container) = change.new_container {
                    self.containment.set(change.object, new_container);
                } else {
                    self.containment.remove(change.object);
                }
                // Per Appendix A.2: after a change at t', the strength of
                // co-location becomes the suffix sum of point evidence, and
                // data before the change point is disregarded in subsequent
                // runs so the same change is not flagged twice.
                outcome.apply_change(change.object, change.change_at, change.new_container);
                let keep = [(change.change_at, now)];
                self.dirty.record_with(change.object, |removed| {
                    self.store.retain_ranges_for(change.object, &keep, removed)
                });
            }
            self.detected.extend(changes.iter().cloned());
        }

        // History truncation for the next run. Removed epochs go into the
        // dirty journal so the next incremental run invalidates exactly the
        // cache entries whose inputs they were.
        let plan = retention_plan(
            self.config.truncation,
            &outcome,
            now,
            self.config.recent_history_secs,
        );
        let tags: Vec<TagId> = self.store.tags().collect();
        let mut ranges = Vec::new();
        for tag in tags {
            plan.ranges_into(tag, now, &mut ranges);
            self.dirty.record_with(tag, |removed| {
                self.store.retain_ranges_for(tag, &ranges, removed)
            });
        }

        // Share the outcome instead of cloning it: the engine and the report
        // hold the same Arc.
        let outcome = Arc::new(outcome);
        self.last_outcome = Some(Arc::clone(&outcome));
        self.last_inference_at = Some(now);
        InferenceReport {
            at: now,
            outcome,
            changes,
            retained_observations: self.store.len(),
            duration: started.elapsed(),
            stats,
        }
    }

    /// The current containment estimate (after change-point refinement).
    pub fn containment(&self) -> &ContainmentMap {
        &self.containment
    }

    /// The inferred container of one object.
    pub fn container_of(&self, object: TagId) -> Option<TagId> {
        self.containment.container_of(object)
    }

    /// The current location estimate of a tag at epoch `t`.
    pub fn location_of(&self, tag: TagId, t: Epoch) -> Option<LocationId> {
        let outcome = self.last_outcome.as_ref()?;
        locate(outcome, tag, self.containment.container_of(tag), t)
    }

    /// Enriched object events at epoch `t`, reflecting the engine's current
    /// (change-point refined) containment.
    pub fn events_at(&self, t: Epoch) -> Vec<ObjectEvent> {
        self.events_where(t, |_| true).collect()
    }

    /// The [`events_at`](Self::events_at) stream restricted to the objects
    /// `admit` accepts, produced lazily in object order. `admit` runs before
    /// anything else, so a rejected object is never located, and each
    /// admitted object's container is looked up once.
    pub fn events_where<'a>(
        &'a self,
        t: Epoch,
        mut admit: impl FnMut(TagId) -> bool + 'a,
    ) -> impl Iterator<Item = ObjectEvent> + 'a {
        let outcome = self.last_outcome.as_deref();
        let objects = outcome.into_iter().flat_map(InferenceOutcome::objects);
        objects.filter_map(move |evidence| {
            let object = evidence.object();
            if !admit(object) {
                return None;
            }
            let container = self.containment.container_of(object);
            let location = locate(outcome?, object, container, t)?;
            Some(ObjectEvent::new(t, object, location, container))
        })
    }

    /// All containment changes detected so far.
    pub fn detected_changes(&self) -> &[DetectedChange] {
        &self.detected
    }

    /// The outcome of the most recent inference run.
    pub fn last_outcome(&self) -> Option<&InferenceOutcome> {
        self.last_outcome.as_deref()
    }

    /// The epoch of the most recent inference run, if one has happened — the
    /// scheduling anchor the distributed driver's per-site workers use to
    /// space out departure-forced runs and to skip a redundant final refresh.
    pub fn last_inference_at(&self) -> Option<Epoch> {
        self.last_inference_at
    }

    /// Number of (tag, epoch) observations currently stored.
    pub fn stored_observations(&self) -> usize {
        self.store.len()
    }

    /// The change-point threshold in force, if it has been computed — a pure
    /// read. `None` means the lazy calibration has not happened yet; call
    /// [`Self::calibrate_threshold`] to force it.
    pub fn threshold(&self) -> Option<f64> {
        self.threshold
    }

    /// Compute (once) and cache the change-point threshold the configured
    /// [`ThresholdPolicy`](crate::ThresholdPolicy) resolves to (infinite with
    /// detection off), and return it. Subsequent calls — and
    /// [`Self::threshold`] reads — return the cached value.
    pub fn calibrate_threshold(&mut self) -> f64 {
        let (policy, model) = (self.config.change_detection, &self.model);
        *self
            .threshold
            .get_or_insert_with(|| policy.map_or(f64::INFINITY, |p| p.resolve(model)))
    }

    /// Export the collapsed inference state of one object (Section 4.1,
    /// *Collapsing Inference State*).
    ///
    /// Weights are exported *relative to the best candidate* (the maximum is
    /// subtracted), so that at the receiving site candidates first seen there
    /// — which start with weight zero — compete fairly with the best-known
    /// container from this site, while this site's rejected decoys keep their
    /// penalty (docs/ARCHITECTURE.md, "Migration strategies").
    pub fn export_collapsed(&self, object: TagId) -> CollapsedState {
        let mut weights: BTreeMap<TagId, f64> = self
            .last_outcome
            .as_ref()
            .and_then(|o| o.object(object))
            .map(|e| e.weights().collect())
            .unwrap_or_default();
        #[expect(
            clippy::disallowed_methods,
            reason = "a maximum, not a sum: no rounding to reassociate, and the BTreeMap fixes the visiting order"
        )]
        let max = weights.values().copied().fold(f64::NEG_INFINITY, f64::max);
        if max.is_finite() {
            for w in weights.values_mut() {
                *w -= max;
            }
        }
        CollapsedState {
            object,
            weights,
            container: self.containment.container_of(object),
        }
    }

    /// Export the critical-region inference state of one object: its retained
    /// readings plus those of its candidate containers (Section 4.1,
    /// *Truncating History*).
    pub fn export_readings(&self, object: TagId) -> ReadingsState {
        self.export_readings_for_shipment(object, &mut BTreeSet::new())
    }

    /// [`Self::export_readings`] for one object of a shipment: a tag already
    /// in `shipped` (a candidate an earlier object carried) is skipped before
    /// any reading is materialised, and every tag exported joins the set.
    /// While neither the store nor the last outcome changes between the
    /// calls sharing a set, a tag's readings are the same whichever object
    /// names it, so this is exactly reading-level dedup across the shipment.
    pub fn export_readings_for_shipment(
        &self,
        object: TagId,
        shipped: &mut BTreeSet<TagId>,
    ) -> ReadingsState {
        let evidence = self.last_outcome.as_ref().and_then(|o| o.object(object));
        let candidates = evidence.into_iter().flat_map(|e| e.candidates());
        let mut readings = Vec::new();
        for tag in std::iter::once(object).chain(candidates) {
            if !shipped.insert(tag) {
                continue;
            }
            let list = self.store.obs_for(tag);
            readings.reserve(list.iter().map(|o| o.readers.len()).sum());
            for obs in list {
                for reader in obs.readers.iter() {
                    readings.push(RawReading::new(obs.epoch, tag, reader.reader()));
                }
            }
        }
        ReadingsState {
            object,
            readings,
            container: self.containment.container_of(object),
        }
    }

    /// Import migration state for an object arriving from another site,
    /// marking the affected tags dirty for the next incremental run.
    pub fn import_state(&mut self, state: MigrationState) {
        self.import_late_state(state);
    }

    /// Import migration state that may arrive *after* the object itself —
    /// the reconciliation path of a reliable transport whose delivery was
    /// delayed past the physical arrival. The engine has typically already
    /// cold-started the object from its local readings; the late state merges
    /// through exactly the same dirty-set journal as an on-time import, so
    /// the next incremental run folds it in bit-identically to a full
    /// recompute. Returns what was merged, so the caller can account the
    /// reconciliation.
    pub fn import_late_state(&mut self, state: MigrationState) -> ImportSummary {
        match state {
            MigrationState::None => ImportSummary::default(),
            MigrationState::Collapsed(collapsed) => {
                if let Some(container) = collapsed.container {
                    self.containment.set(collapsed.object, container);
                }
                self.prior.merge(&collapsed.to_prior());
                // Priors are re-applied from scratch every run, so no cached
                // per-epoch value needs invalidation — but the object counts
                // as dirty.
                self.dirty.mark(collapsed.object);
                ImportSummary {
                    object: Some(collapsed.object),
                    weights: collapsed.weights.len(),
                    readings: 0,
                }
            }
            MigrationState::Readings(mut readings) => {
                if let Some(container) = readings.container {
                    self.containment.set(readings.object, container);
                }
                self.dirty.mark(readings.object);
                // One store merge and one journal entry per run of
                // consecutive same-tag readings (exports lay a payload out
                // tag by tag; any other order only means shorter runs).
                let mut count = 0;
                for run in readings.readings.chunk_by_mut(|a, b| a.tag == b.tag) {
                    let tag = run[0].tag;
                    count += self
                        .dirty
                        .record_with(tag, |changed| self.store.insert_run(tag, run, changed));
                }
                ImportSummary {
                    object: Some(readings.object),
                    weights: 0,
                    readings: count,
                }
            }
        }
    }

    /// Forget everything about a tag (used when an object permanently leaves
    /// a site and its state has been shipped elsewhere).
    pub fn forget(&mut self, tag: TagId) {
        self.dirty
            .record_with(tag, |removed| self.store.remove_tag(tag, removed));
    }

    /// Enforce a per-site memory budget on the retained history.
    ///
    /// Updates `stats.high_water` with the current store size, then — only
    /// when the store exceeds `budget` — compacts: the retained window
    /// (starting at the configured recent history) halves until the store
    /// fits, removed epochs go through the dirty journal like any other
    /// truncation, and each object that lost history has its current summary
    /// weights folded into the prior first (the same collapsed state a
    /// migration ships), so its belief degrades to summary-weight semantics
    /// instead of being forgotten. Evidence-cache entries whose container no
    /// longer has retained observations are evicted afterwards. The whole
    /// pass is a pure function of engine state, so sequential, parallel and
    /// crash-replayed executions compact identically; with an unbounded
    /// budget it only tracks the high-water mark and changes nothing.
    pub fn enforce_budget(&mut self, budget: MemoryBudget, now: Epoch, stats: &mut MemoryStats) {
        stats.high_water = stats.high_water.max(self.store.len() as u64);
        if budget.is_unbounded() || self.store.len() <= budget.max_observations {
            return;
        }
        // Fold beliefs into the prior before the history that produced them
        // is dropped. `export_collapsed` reads the last outcome, not the
        // store, so the weights are the same ones a migration would carry.
        // Objects keeping their full history are left untouched — folding is
        // additive, so it must happen at most once per compaction pass.
        let mut removed_total: u64 = 0;
        let mut folded = BTreeSet::new();
        let mut window = self.config.recent_history_secs;
        loop {
            // The retention plan with no per-tag ranges: every tag keeps
            // only the window.
            let keep = [(now.minus(window), now)];
            let tags: Vec<TagId> = self.store.tags().collect();
            for tag in tags {
                let removed = self.dirty.record_with(tag, |removed| {
                    self.store.retain_ranges_for(tag, &keep, removed)
                });
                if removed > 0 && tag.is_object() && folded.insert(tag) {
                    let collapsed = self.export_collapsed(tag);
                    if !collapsed.weights.is_empty() {
                        self.prior.merge(&collapsed.to_prior());
                    }
                }
                removed_total += removed as u64;
            }
            if self.store.len() <= budget.max_observations || window == 0 {
                break;
            }
            window /= 2;
        }
        if removed_total > 0 {
            stats.compactions += 1;
            stats.compacted_observations += removed_total;
        }
        stats.evicted_cache_entries += self.cache.evict_cold(&self.store) as u64;
    }

    /// Capture the engine's durable state — see [`EngineSnapshot`] for what
    /// is (and is not) included.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            store: self.store.clone(),
            prior: self.prior.clone(),
            containment: self.containment.clone(),
            detected: self.detected.clone(),
            last_outcome: self.last_outcome.as_ref().map(|o| o.without_evidence()),
            last_inference_at: self.last_inference_at,
            threshold: self.threshold,
            dirty: self.dirty.clone(),
            cache: self.cache.keys(),
        }
    }

    /// Replace the engine's runtime state with a snapshot previously taken
    /// by [`Self::snapshot`] (on this engine or on any engine constructed
    /// with the same configuration and read-rate table), and recompute the
    /// evidence cache's values from the restored store. The recompute runs
    /// outside any inference run, so no [`InferenceStats`] counts it; the
    /// next run reuses exactly what the uninterrupted engine would have, and
    /// every value it reuses is bit-identical.
    pub fn restore(&mut self, snapshot: EngineSnapshot) {
        self.store = snapshot.store;
        self.prior = snapshot.prior;
        self.containment = snapshot.containment;
        self.detected = snapshot.detected;
        self.last_outcome = snapshot.last_outcome.map(Arc::new);
        self.last_inference_at = snapshot.last_inference_at;
        self.threshold = snapshot.threshold;
        self.dirty = snapshot.dirty;
        self.scratch = DenseScratch::default();
        self.cache = crate::dense::rebuild_cache(
            &snapshot.cache,
            &self.model,
            &self.store,
            &mut self.scratch,
        );
    }
}

// The distributed layer runs one engine per site on worker threads; keep the
// engine (and everything it owns) `Send` by construction so a dependency
// change that silently introduces a non-`Send` member fails to compile here
// rather than deep inside the thread spawn.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<InferenceEngine>();
};

/// Where `tag` is at `t` per `outcome`. An object is where its
/// engine-assigned `container` is, if the outcome places that container;
/// otherwise the tag is where the outcome places it.
fn locate(
    outcome: &InferenceOutcome,
    tag: TagId,
    container: Option<TagId>,
    t: Epoch,
) -> Option<LocationId> {
    container
        .filter(|_| tag.is_object())
        .and_then(|container| outcome.location_of(container, t))
        .or_else(|| outcome.location_of(tag, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truncate::TruncationPolicy;
    use rfid_types::ReaderId;

    fn rates() -> ReadRateTable {
        ReadRateTable::diagonal(3, 0.8, 1e-4)
    }

    fn feed_co_travel(engine: &mut InferenceEngine, from: u32, to: u32, loc: u16) {
        for t in from..to {
            engine.observe(RawReading::new(Epoch(t), TagId::item(1), ReaderId(loc)));
            engine.observe(RawReading::new(Epoch(t), TagId::case(1), ReaderId(loc)));
            engine.observe(RawReading::new(
                Epoch(t),
                TagId::case(2),
                ReaderId((loc + 1) % 3),
            ));
        }
    }

    #[test]
    fn engine_runs_when_due_and_reports_containment() {
        let config = InferenceConfig::default()
            .with_period(10)
            .without_change_detection();
        let mut engine = InferenceEngine::new(config, rates());
        assert!(!engine.due(Epoch(0)), "no data yet");
        assert_eq!(engine.last_inference_at(), None);
        feed_co_travel(&mut engine, 0, 10, 0);
        assert!(engine.due(Epoch(10)));
        let report = engine.step(Epoch(10)).expect("inference due");
        assert_eq!(engine.last_inference_at(), Some(Epoch(10)));
        assert_eq!(engine.container_of(TagId::item(1)), Some(TagId::case(1)));
        assert_eq!(report.at, Epoch(10));
        assert!(report.duration.as_nanos() > 0);
        assert!(
            !engine.due(Epoch(15)),
            "not due again until the period elapses"
        );
        assert!(engine.due(Epoch(20)));
        assert_eq!(
            engine.location_of(TagId::item(1), Epoch(5)),
            Some(LocationId(0))
        );
        assert_eq!(engine.events_at(Epoch(5)).len(), 1);
    }

    #[test]
    fn events_at_reports_location_and_container() {
        let config = InferenceConfig::default().without_change_detection();
        let mut engine = InferenceEngine::new(config, rates());
        // Item 1 rides case 1 from location 0 to 2; case 2 stays at 0 and
        // case 3 at 2.
        let path = [(0u32, 0u16), (1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2)];
        for (t, loc) in path {
            for (tag, at) in [
                (TagId::item(1), loc),
                (TagId::case(1), loc),
                (TagId::case(2), 0),
                (TagId::case(3), 2),
            ] {
                engine.observe(RawReading::new(Epoch(t), tag, ReaderId(at)));
            }
        }
        engine.run_inference(Epoch(6));
        let events = engine.events_at(Epoch(5));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].tag, TagId::item(1));
        assert_eq!(events[0].container, Some(TagId::case(1)));
        assert_eq!(events[0].location, LocationId(2));
    }

    #[test]
    fn change_point_detection_updates_containment() {
        let config = InferenceConfig::default()
            .with_period(10)
            .with_fixed_threshold(5.0)
            .with_truncation(TruncationPolicy::Full);
        let mut engine = InferenceEngine::new(config, rates());
        // First period: item travels with case 1 at location 0, case 2 at 1.
        feed_co_travel(&mut engine, 0, 20, 0);
        engine.run_inference(Epoch(20));
        assert_eq!(engine.container_of(TagId::item(1)), Some(TagId::case(1)));
        // Second period: the item now co-travels with case 2 at location 1.
        for t in 20..40u32 {
            engine.observe(RawReading::new(Epoch(t), TagId::item(1), ReaderId(1)));
            engine.observe(RawReading::new(Epoch(t), TagId::case(1), ReaderId(0)));
            engine.observe(RawReading::new(Epoch(t), TagId::case(2), ReaderId(1)));
        }
        let report = engine.run_inference(Epoch(40));
        assert!(
            !report.changes.is_empty()
                || engine.container_of(TagId::item(1)) == Some(TagId::case(2)),
            "the engine should recognise the containment change"
        );
        assert_eq!(engine.container_of(TagId::item(1)), Some(TagId::case(2)));
        assert_eq!(engine.detected_changes().len(), report.changes.len());
    }

    #[test]
    fn truncation_bounds_stored_history() {
        let config = InferenceConfig::default()
            .with_period(50)
            .with_recent_history(20)
            .without_change_detection();
        let mut engine = InferenceEngine::new(config, rates());
        feed_co_travel(&mut engine, 0, 200, 0);
        let before = engine.stored_observations();
        let report = engine.run_inference(Epoch(200));
        assert!(report.retained_observations < before, "history must shrink");
        assert_eq!(report.retained_observations, engine.stored_observations());
    }

    #[test]
    fn full_policy_keeps_all_history() {
        let config = InferenceConfig::default()
            .with_period(50)
            .with_truncation(TruncationPolicy::Full)
            .without_change_detection();
        let mut engine = InferenceEngine::new(config, rates());
        feed_co_travel(&mut engine, 0, 100, 0);
        let before = engine.stored_observations();
        engine.run_inference(Epoch(100));
        assert_eq!(engine.stored_observations(), before);
    }

    #[test]
    fn export_import_collapsed_state_transfers_belief() {
        let config = InferenceConfig::default()
            .with_period(10)
            .without_change_detection();
        let mut site_a = InferenceEngine::new(config.clone(), rates());
        // At site A the item travels with case 1; case 2 is briefly
        // co-located at the start (so it becomes a candidate) and then
        // diverges, accumulating a heavy penalty.
        for t in 0..30u32 {
            site_a.observe(RawReading::new(Epoch(t), TagId::item(1), ReaderId(0)));
            site_a.observe(RawReading::new(Epoch(t), TagId::case(1), ReaderId(0)));
            let decoy_reader = if t < 3 { 0 } else { 1 };
            site_a.observe(RawReading::new(
                Epoch(t),
                TagId::case(2),
                ReaderId(decoy_reader),
            ));
        }
        site_a.run_inference(Epoch(30));
        let state = site_a.export_collapsed(TagId::item(1));
        assert_eq!(state.container, Some(TagId::case(1)));
        assert!(!state.weights.is_empty());
        // weights are exported relative to the best candidate
        assert_eq!(state.weights[&TagId::case(1)], 0.0);

        // Site B briefly sees the item co-located with the *old decoy*
        // (case 2); the imported weights keep the original belief because the
        // decoy carries a large penalty from site A.
        let mut site_b = InferenceEngine::new(config.clone(), rates());
        site_b.import_state(MigrationState::Collapsed(state.clone()));
        assert_eq!(site_b.container_of(TagId::item(1)), Some(TagId::case(1)));
        for t in 100..102u32 {
            site_b.observe(RawReading::new(Epoch(t), TagId::item(1), ReaderId(2)));
            site_b.observe(RawReading::new(Epoch(t), TagId::case(2), ReaderId(2)));
        }
        site_b.run_inference(Epoch(102));
        assert_eq!(site_b.container_of(TagId::item(1)), Some(TagId::case(1)));

        // Without the imported state the same local readings point at the
        // decoy — that is exactly the error the "None" strategy makes.
        let mut site_c = InferenceEngine::new(config, rates());
        for t in 100..102u32 {
            site_c.observe(RawReading::new(Epoch(t), TagId::item(1), ReaderId(2)));
            site_c.observe(RawReading::new(Epoch(t), TagId::case(2), ReaderId(2)));
        }
        site_c.run_inference(Epoch(102));
        assert_eq!(site_c.container_of(TagId::item(1)), Some(TagId::case(2)));
    }

    #[test]
    fn export_import_readings_state_reconstructs_history() {
        let config = InferenceConfig::default()
            .with_period(10)
            .with_truncation(TruncationPolicy::Full)
            .without_change_detection();
        let mut site_a = InferenceEngine::new(config.clone(), rates());
        feed_co_travel(&mut site_a, 0, 30, 0);
        site_a.run_inference(Epoch(30));
        let state = site_a.export_readings(TagId::item(1));
        assert!(
            state.readings.len() > 30,
            "object + candidate container readings"
        );

        let mut site_b = InferenceEngine::new(config, rates());
        site_b.import_state(MigrationState::Readings(state));
        let report = site_b.run_inference(Epoch(31));
        assert_eq!(
            report.outcome.container_of(TagId::item(1)),
            Some(TagId::case(1))
        );
    }

    #[test]
    fn late_state_reconciles_into_a_cold_started_engine() {
        // A destination that cold-started an object (its state message was
        // delayed in transit) and later merges the late state must end up
        // bit-identical to a destination that imported the state on time —
        // the dirty-set journal re-runs the affected object either way.
        let config = InferenceConfig::default()
            .with_period(10)
            .without_change_detection();
        let mut origin = InferenceEngine::new(config.clone(), rates());
        for t in 0..30u32 {
            origin.observe(RawReading::new(Epoch(t), TagId::item(1), ReaderId(0)));
            origin.observe(RawReading::new(Epoch(t), TagId::case(1), ReaderId(0)));
            let decoy_reader = if t < 3 { 0 } else { 1 };
            origin.observe(RawReading::new(
                Epoch(t),
                TagId::case(2),
                ReaderId(decoy_reader),
            ));
        }
        origin.run_inference(Epoch(30));
        let state = origin.export_collapsed(TagId::item(1));

        let local = |engine: &mut InferenceEngine| {
            for t in 100..102u32 {
                engine.observe(RawReading::new(Epoch(t), TagId::item(1), ReaderId(2)));
                engine.observe(RawReading::new(Epoch(t), TagId::case(2), ReaderId(2)));
            }
        };

        // On time: state imported before any local evidence.
        let mut on_time = InferenceEngine::new(config.clone(), rates());
        on_time.import_state(MigrationState::Collapsed(state.clone()));
        local(&mut on_time);
        on_time.run_inference(Epoch(110));

        // Degraded: the object arrives first, the engine cold-starts it from
        // local readings (and believes the decoy), then the state gets
        // through and is reconciled.
        let mut degraded = InferenceEngine::new(config, rates());
        local(&mut degraded);
        degraded.run_inference(Epoch(102));
        assert_eq!(
            degraded.container_of(TagId::item(1)),
            Some(TagId::case(2)),
            "cold start believes the local decoy"
        );
        let summary = degraded.import_late_state(MigrationState::Collapsed(state));
        assert!(summary.merged());
        assert_eq!(summary.object, Some(TagId::item(1)));
        assert!(summary.weights > 0);
        assert_eq!(summary.readings, 0);
        degraded.run_inference(Epoch(110));

        assert_eq!(
            degraded.container_of(TagId::item(1)),
            on_time.container_of(TagId::item(1)),
            "reconciliation must converge to the on-time outcome"
        );
        assert_eq!(degraded.container_of(TagId::item(1)), Some(TagId::case(1)));

        // A no-op migration merges nothing.
        assert!(!degraded.import_late_state(MigrationState::None).merged());

        // `readings` counts what changed the store, not the payload: the
        // same critical-region state imported twice (a payload that also
        // repeats a reading) merges both times and adds nothing the second.
        let mut state = origin.export_readings(TagId::item(1));
        let distinct = state.readings.len();
        state.readings.push(state.readings[0]);
        let state = MigrationState::Readings(state);
        let first = degraded.import_late_state(state.clone());
        assert_eq!((first.object, first.weights), (Some(TagId::item(1)), 0));
        assert_eq!(first.readings, distinct);
        let second = degraded.import_late_state(state);
        assert!(second.merged());
        assert_eq!(second.readings, 0);
    }

    #[test]
    fn forget_drops_a_tag_from_the_store() {
        let config = InferenceConfig::default().without_change_detection();
        let mut engine = InferenceEngine::new(config, rates());
        feed_co_travel(&mut engine, 0, 5, 0);
        let before = engine.stored_observations();
        engine.forget(TagId::item(1));
        assert!(engine.stored_observations() < before);
    }

    /// Restoring a snapshot into a fresh engine and continuing must be
    /// bit-identical to the engine that never stopped: same containment,
    /// same outcome, same reuse counters (the cache's keys travel with the
    /// snapshot, its values are recomputed).
    #[test]
    fn snapshot_restore_round_trips_bitwise() {
        let config = InferenceConfig::default()
            .with_period(10)
            .with_fixed_threshold(5.0)
            .with_truncation(TruncationPolicy::Full);
        let mut live = InferenceEngine::new(config.clone(), rates());
        feed_co_travel(&mut live, 0, 20, 0);
        live.run_inference(Epoch(20));
        // More readings after the run, so the dirty journal is non-empty at
        // snapshot time.
        feed_co_travel(&mut live, 20, 25, 0);
        let snapshot = live.snapshot();
        assert_eq!(snapshot, live.snapshot(), "snapshot is a pure read");

        let mut restored = InferenceEngine::new(config, rates());
        restored.restore(snapshot);
        assert_eq!(
            restored.container_of(TagId::item(1)),
            live.container_of(TagId::item(1))
        );
        assert_eq!(restored.last_inference_at(), live.last_inference_at());

        // Continue both engines identically; everything must match bitwise.
        for engine in [&mut live, &mut restored] {
            feed_co_travel(engine, 25, 40, 0);
        }
        let live_report = live.run_inference(Epoch(40));
        let restored_report = restored.run_inference(Epoch(40));
        assert_eq!(live_report.outcome, restored_report.outcome);
        assert_eq!(live_report.stats, restored_report.stats);
        assert_eq!(live_report.changes, restored_report.changes);
        assert_eq!(live.snapshot(), restored.snapshot());
    }

    #[test]
    fn fixed_and_calibrated_thresholds_are_produced() {
        let mut fixed = InferenceEngine::new(
            InferenceConfig::default().with_fixed_threshold(42.0),
            rates(),
        );
        assert_eq!(fixed.threshold(), None, "calibration is lazy");
        assert_eq!(fixed.calibrate_threshold(), 42.0);
        assert_eq!(fixed.threshold(), Some(42.0), "read-only getter sees it");
        let mut off = InferenceEngine::new(
            InferenceConfig::default().without_change_detection(),
            rates(),
        );
        assert_eq!(off.calibrate_threshold(), f64::INFINITY);
        let mut calibrated = InferenceEngine::new(InferenceConfig::default(), rates());
        let t = calibrated.calibrate_threshold();
        assert!(t.is_finite() && t > 0.0);
        // cached on the second call
        assert_eq!(calibrated.calibrate_threshold(), t);
        assert_eq!(calibrated.threshold(), Some(t));
    }
}
