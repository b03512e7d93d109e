//! RFINFER — the paper's EM algorithm for joint containment and location
//! inference (Section 3.2, Algorithm 1), including the optimizations of
//! Appendix A.3 (candidate pruning, memoization, sparse likelihood
//! evaluation) and support for prior co-location weights imported from a
//! previous site (the collapsed inference state of Section 4.1). A run
//! returns an [`InferenceOutcome`]: per object its candidates' weights and
//! one evidence table, the point evidence `e_co(t)` of every candidate over
//! the object's observed epochs, which change detection and truncation read.
//!
//! ## Incremental re-runs
//!
//! Periodic inference (Section 3) re-solves the EM over the retained history
//! every run, yet between two runs most of that history is untouched: new
//! readings only arrive for epochs after the previous run, and truncation
//! only removes old epochs. [`RfInfer::run_incremental`] exploits this with
//! a cross-run [`EvidenceCache`]: the EM control flow is replayed in full
//! (so the result is **bit-identical** to [`RfInfer::run`] by construction),
//! but its two expensive leaves — the E-step container posterior at one
//! epoch, and the per-epoch point evidence of one (object, candidate) pair —
//! are memoized and skipped whenever a [`DirtySet`] journal proves their
//! exact inputs unchanged since the previous run.

use crate::dense::DenseScratch;
use crate::likelihood::LikelihoodModel;
use crate::observations::Observations;
use crate::tag_index::TagIndex;
use rfid_types::{Epoch, LocationId, TagId};
use std::collections::BTreeMap;

/// How many of the most frequently co-located containers each object keeps
/// as candidates (candidate pruning, Appendix A.3); containers its prior
/// names are added on top. Read by both solvers.
pub(crate) const CANDIDATE_LIMIT: usize = 5;

/// Bound on the EM iterations of one run (Algorithm 1's loop); the EM
/// usually converges in a few. Read by both solvers.
pub(crate) const MAX_ITERATIONS: usize = 10;

/// Prior co-location weights carried over from previous sites (the collapsed
/// inference state): for an object, a map from candidate container to the
/// accumulated weight `w_co` computed elsewhere. The M-step simply adds these
/// to the locally computed weights.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PriorWeights {
    map: BTreeMap<TagId, BTreeMap<TagId, f64>>,
}

impl PriorWeights {
    /// No prior information.
    pub fn empty() -> PriorWeights {
        PriorWeights::default()
    }

    /// Set the prior weight of `(object, container)`.
    pub fn set(&mut self, object: TagId, container: TagId, weight: f64) {
        self.map
            .entry(object)
            .or_default()
            .insert(container, weight);
    }

    /// Add to the prior weight of `(object, container)`.
    pub fn add(&mut self, object: TagId, container: TagId, weight: f64) {
        *self
            .map
            .entry(object)
            .or_default()
            .entry(container)
            .or_insert(0.0) += weight;
    }

    /// The prior weight of `(object, container)`, zero if absent.
    pub fn get(&self, object: TagId, container: TagId) -> f64 {
        self.map
            .get(&object)
            .and_then(|m| m.get(&container))
            .copied()
            .unwrap_or(0.0)
    }

    /// The `(container, weight)` priors of one object in ascending container
    /// order.
    pub fn entries_for(&self, object: TagId) -> impl Iterator<Item = (TagId, f64)> + '_ {
        self.map
            .get(&object)
            .into_iter()
            .flat_map(|m| m.iter().map(|(c, w)| (*c, *w)))
    }

    /// Objects with prior information.
    pub fn objects(&self) -> impl Iterator<Item = TagId> + '_ {
        self.map.keys().copied()
    }

    /// Whether no prior information is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Merge another set of priors into this one (weights add up).
    pub fn merge(&mut self, other: &PriorWeights) {
        for (o, m) in &other.map {
            for (c, w) in m {
                self.add(*o, *c, *w);
            }
        }
    }
}

/// One object row of an [`InferenceOutcome`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ObjectRow {
    pub(crate) object: TagId,
    /// The run's containment estimate; change-point refinement leaves it.
    pub(crate) container: Option<TagId>,
    /// The M-step's choice, overwritten by a detected change.
    pub(crate) assigned: Option<TagId>,
    /// The row's slots in the candidate arena.
    pub(crate) slots: (u32, u32),
    /// The row's observed epochs in the epoch arena.
    pub(crate) epochs: (u32, u32),
    /// The start of the row's table in the evidence arena: one column per
    /// slot, each as long as the epoch range.
    pub(crate) table: u32,
}

/// One candidate slot of an object row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Candidate {
    pub(crate) container: TagId,
    /// Total co-location weight `w_co` (Eq. 5), prior included.
    pub(crate) weight: f64,
}

/// A candidate as [`InferenceOutcome::push_object`] takes it: the container,
/// its weight and its column of point evidence.
type RankedCandidate<'e> = (TagId, f64, &'e [f64]);

/// An arena range as slice indices.
fn span((start, end): (u32, u32)) -> std::ops::Range<usize> {
    start as usize..end as usize
}

/// An arena length as a range bound, or the refusal of a row too large.
fn offset(len: usize) -> Result<u32, &'static str> {
    u32::try_from(len).map_err(|_| "an arena outgrew its u32 offsets")
}

/// The result of one RFINFER run, stored as arenas read through accessors.
///
/// * **Object rows**, ascending by object: the run's container, the assigned
///   container (change-point detection may overwrite it), a range of
///   candidate slots and the row's evidence table.
/// * **Candidate slots**, ascending by container within a row: the
///   co-location weight. A parallel column holds each row's slot offsets in
///   pruned (ranked) order, the order export ships candidates in.
/// * **Epochs**: each row's observed epochs, ascending, back to back.
/// * **Point evidence**: each row's table, one `e_co` column per slot in
///   slot order, every column aligned with the row's epochs, back to back.
/// * **Location runs**, ascending by tag: a range of one `(epoch, location)`
///   arena per tag with an estimate.
///
/// Every constructor fills the arenas in this order, so two outcomes are
/// equal exactly when they hold the same rows — what the equivalence suites
/// and the checkpoint round trip compare. A row without point evidence has no
/// epochs; a tag without an estimate has no run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InferenceOutcome {
    pub(crate) objects: Vec<ObjectRow>,
    pub(crate) candidates: Vec<Candidate>,
    pub(crate) ranked: Vec<u32>,
    pub(crate) epochs: Vec<Epoch>,
    pub(crate) evidence: Vec<f64>,
    pub(crate) located: Vec<(TagId, (u32, u32))>,
    pub(crate) locations: Vec<(Epoch, LocationId)>,
    /// Number of EM iterations executed before convergence.
    pub iterations: usize,
    /// Number of discrete locations in the model.
    pub num_locations: usize,
}

/// Everything the M-step learned about one object: a view of its row.
#[derive(Debug, Clone, Copy)]
pub struct ObjectEvidence<'a> {
    row: ObjectRow,
    slots: &'a [Candidate],
    ranked: &'a [u32],
    epochs: &'a [Epoch],
    /// The evidence arena from the row's table on.
    table: &'a [f64],
}

impl<'a> ObjectEvidence<'a> {
    /// The object.
    pub fn object(&self) -> TagId {
        self.row.object
    }

    /// The container chosen by the M-step (argmax weight), if any candidate
    /// existed — or the one a detected change moved the object to.
    pub fn assigned(&self) -> Option<TagId> {
        self.row.assigned
    }

    /// Candidate containers considered for this object (pruned set), in
    /// ranked order.
    pub fn candidates(&self) -> impl ExactSizeIterator<Item = TagId> + 'a {
        let slots = self.slots;
        self.ranked
            .iter()
            .map(move |&at| slots[at as usize].container)
    }

    /// Total co-location weight `w_co` per candidate (Eq. 5), including any
    /// prior weight, in ascending container order.
    pub fn weights(&self) -> impl ExactSizeIterator<Item = (TagId, f64)> + 'a {
        self.slots.iter().map(|slot| (slot.container, slot.weight))
    }

    /// The epochs the object was observed at, ascending: the rows of its
    /// evidence table. Empty when the row holds no point evidence.
    pub fn epochs(&self) -> &'a [Epoch] {
        self.epochs
    }

    /// Point evidence `e_co(t)` (Eq. 7) of every candidate, in ascending
    /// container order: one column per candidate, one value per entry of
    /// [`Self::epochs`].
    pub fn columns(&self) -> impl ExactSizeIterator<Item = (TagId, &'a [f64])> + 'a {
        let (table, n) = (self.table, self.epochs.len());
        (self.slots.iter().enumerate()).map(move |(i, c)| (c.container, &table[i * n..][..n]))
    }

    /// The point-evidence column of one candidate, if it is one.
    pub fn point_evidence(&self, container: TagId) -> Option<&'a [f64]> {
        self.columns().find(|c| c.0 == container).map(|c| c.1)
    }

    /// Cumulative evidence `E_co(t)` for one candidate: the running sum of
    /// point evidence up to and including each epoch.
    pub fn cumulative_evidence(&self, container: TagId) -> Vec<f64> {
        let points = self.point_evidence(container).unwrap_or_default().iter();
        let running = points.scan(0.0, |total, &e| {
            *total += e;
            Some(*total)
        });
        running.collect()
    }
}

impl InferenceOutcome {
    /// An outcome with no rows, to be filled with [`Self::push_object`] and
    /// [`Self::push_locations`].
    pub fn new(iterations: usize, num_locations: usize) -> InferenceOutcome {
        InferenceOutcome {
            iterations,
            num_locations,
            ..InferenceOutcome::default()
        }
    }

    /// Append the row of `object`, which must sort after every row already
    /// pushed. `candidates` lists `(container, weight, point evidence)` in
    /// ranked order, each container once, each column as long as `epochs`,
    /// the object's observed epochs, ascending (none without candidates);
    /// `container` is the run's containment estimate and `assigned` the
    /// M-step's (possibly change-refined) choice.
    pub fn push_object(
        &mut self,
        object: TagId,
        container: Option<TagId>,
        assigned: Option<TagId>,
        epochs: &[Epoch],
        candidates: &[RankedCandidate<'_>],
    ) -> Result<(), &'static str> {
        if self.objects.last().is_some_and(|row| row.object >= object) {
            return Err("object rows out of order or repeated");
        }
        if epochs.windows(2).any(|pair| pair[0] >= pair[1])
            || candidates.iter().any(|c| c.2.len() != epochs.len())
            || candidates.is_empty() && !epochs.is_empty()
        {
            return Err("an evidence table unlike its ascending epochs");
        }
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_unstable_by_key(|&at| candidates[at].0);
        if order
            .windows(2)
            .any(|p| candidates[p[0]].0 == candidates[p[1]].0)
        {
            return Err("a candidate listed twice");
        }
        let base = self.candidates.len();
        let start = offset(self.epochs.len())?;
        let table = offset(self.evidence.len())?;
        self.epochs.extend_from_slice(epochs);
        self.ranked.resize(base + order.len(), 0);
        for (slot, &at) in order.iter().enumerate() {
            let (container, weight, column) = candidates[at];
            self.evidence.extend_from_slice(column);
            self.candidates.push(Candidate { container, weight });
            self.ranked[base + at] = slot as u32;
        }
        let row = ObjectRow {
            object,
            container,
            assigned,
            slots: (offset(base)?, offset(self.candidates.len())?),
            epochs: (start, offset(self.epochs.len())?),
            table,
        };
        self.objects.push(row);
        Ok(())
    }

    /// Append the MAP location estimates of `tag`, which must sort after
    /// every tag already located; a tag without estimates has no run.
    pub fn push_locations(
        &mut self,
        tag: TagId,
        run: &[(Epoch, LocationId)],
    ) -> Result<(), &'static str> {
        if self.located.last().is_some_and(|&(last, _)| last >= tag) {
            return Err("location runs out of order or repeated");
        }
        if run.is_empty() {
            return Err("an empty location run");
        }
        let start = offset(self.locations.len())?;
        self.locations.extend_from_slice(run);
        self.located
            .push((tag, (start, offset(self.locations.len())?)));
        Ok(())
    }

    /// Every object row, ascending by object.
    pub fn objects(&self) -> impl ExactSizeIterator<Item = ObjectEvidence<'_>> {
        self.objects.iter().map(|&row| self.view(row))
    }

    /// The row of one object, if the run examined it.
    pub fn object(&self, object: TagId) -> Option<ObjectEvidence<'_>> {
        Some(self.view(self.objects[self.row_of(object)?]))
    }

    fn view(&self, row: ObjectRow) -> ObjectEvidence<'_> {
        ObjectEvidence {
            row,
            slots: &self.candidates[span(row.slots)],
            ranked: &self.ranked[span(row.slots)],
            epochs: &self.epochs[span(row.epochs)],
            table: &self.evidence[row.table as usize..],
        }
    }

    /// The run's containment estimate, `(object, container)` ascending.
    pub fn containment(&self) -> impl Iterator<Item = (TagId, TagId)> + '_ {
        let rows = self.objects.iter();
        rows.filter_map(|row| Some((row.object, row.container?)))
    }

    /// Every location run, `(tag, estimates)` ascending by tag: for
    /// containers the estimates come from the E-step posterior; for objects
    /// without an assigned container, from the object's own readings.
    pub fn locations(&self) -> impl Iterator<Item = (TagId, &[(Epoch, LocationId)])> {
        let runs = self.located.iter();
        runs.map(|&(tag, run)| (tag, &self.locations[span(run)]))
    }

    /// The MAP location estimates of one tag, empty when it has none.
    pub fn locations_of(&self, tag: TagId) -> &[(Epoch, LocationId)] {
        match self.located.binary_search_by_key(&tag, |&(t, _)| t) {
            Ok(i) => &self.locations[span(self.located[i].1)],
            Err(_) => &[],
        }
    }

    fn row_of(&self, object: TagId) -> Option<usize> {
        self.objects
            .binary_search_by_key(&object, |row| row.object)
            .ok()
    }

    /// A copy without the epoch and point-evidence arenas: every row keeps
    /// its candidates, weights and ranks but has no epochs. Change
    /// detection and truncation read the evidence only inside the run that
    /// built it, so this is the outcome as a checkpoint keeps it.
    pub(crate) fn without_evidence(&self) -> InferenceOutcome {
        let objects = self.objects.iter().map(|&row| ObjectRow {
            epochs: (0, 0),
            table: 0,
            ..row
        });
        InferenceOutcome {
            objects: objects.collect(),
            candidates: self.candidates.clone(),
            ranked: self.ranked.clone(),
            located: self.located.clone(),
            locations: self.locations.clone(),
            iterations: self.iterations,
            num_locations: self.num_locations,
            ..InferenceOutcome::default()
        }
    }

    /// Refine one object after a change detected at `change_at` (Appendix
    /// A.2): each candidate's weight becomes the suffix sum of its point
    /// evidence from the change on, and the object moves to `new_container`.
    /// A row without point evidence keeps its weights.
    pub(crate) fn apply_change(&mut self, object: TagId, at: Epoch, new_container: Option<TagId>) {
        let Some(k) = self.row_of(object) else {
            return;
        };
        let row = self.objects[k];
        let epochs = &self.epochs[span(row.epochs)];
        if !epochs.is_empty() {
            let from = epochs.partition_point(|&t| t < at);
            let columns = self.evidence[row.table as usize..].chunks_exact(epochs.len());
            for (slot, column) in self.candidates[span(row.slots)].iter_mut().zip(columns) {
                slot.weight = column[from..].iter().sum();
            }
        }
        self.objects[k].assigned = new_container;
    }

    /// The location estimate for `tag` at epoch `t`: the estimate at the
    /// nearest epoch for which a posterior was computed. Objects inherit the
    /// location of their inferred container (smoothing over containment).
    pub fn location_of(&self, tag: TagId, t: Epoch) -> Option<LocationId> {
        let lookup = |key: TagId| -> Option<LocationId> {
            let locs = self.locations_of(key);
            if locs.is_empty() {
                return None;
            }
            let idx = locs.partition_point(|&(e, _)| e <= t);
            let candidate = if idx == 0 { &locs[0] } else { &locs[idx - 1] };
            // prefer the nearest estimate in time
            let best = if idx < locs.len() {
                let after = &locs[idx];
                if after.0.since(t) < t.since(candidate.0) {
                    after
                } else {
                    candidate
                }
            } else {
                candidate
            };
            Some(best.1)
        };
        if tag.is_object() {
            if let Some(container) = self.container_of(tag) {
                if let Some(loc) = lookup(container) {
                    return Some(loc);
                }
            }
        }
        lookup(tag)
    }

    /// The inferred container of an object.
    pub fn container_of(&self, object: TagId) -> Option<TagId> {
        self.objects[self.row_of(object)?].container
    }

    /// The co-location weight of an (object, container) pair, if the pair was
    /// considered.
    pub fn weight(&self, object: TagId, container: TagId) -> Option<f64> {
        let mut weights = self.object(object)?.weights();
        weights.find(|&(c, _)| c == container).map(|(_, w)| w)
    }
}

/// Journal of per-tag store changes since the previous inference run: the
/// dirty set driving incremental RFINFER.
///
/// Every mutation of the observation store — a new reading, a reading
/// imported with critical-region migration state, a truncation or a
/// `forget` — records the affected `(tag, epoch)` pairs here. A tag can also
/// be marked dirty without epochs (e.g. when collapsed weights were imported
/// for it), which counts it in the dirty statistics without invalidating any
/// cached per-epoch computation (priors are re-applied from scratch every
/// run).
///
/// Each dirty tag holds one sorted, de-duplicated `Vec<Epoch>`: readings
/// arrive in time order, so recording one is a push (or nothing, when the
/// epoch is the last one journaled). The tags sit in one hashed index, so
/// recording costs one lookup; [`Self::clear`] keeps every list's capacity
/// for the next run's tags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    changed: TagIndex<Epoch>,
}

impl DirtySet {
    /// An empty journal.
    pub fn new() -> DirtySet {
        DirtySet::default()
    }

    /// Record that `tag`'s observations changed at `epoch` (inserted or
    /// removed).
    pub fn record(&mut self, tag: TagId, epoch: Epoch) {
        let epochs = self.changed.get_or_insert(tag);
        match epochs.last() {
            Some(&last) if last == epoch => {}
            Some(&last) if last > epoch => {
                if let Err(at) = epochs.binary_search(&epoch) {
                    epochs.insert(at, epoch);
                }
            }
            _ => epochs.push(epoch),
        }
    }

    /// Record a batch of changed epochs for one tag, in any order. A no-op
    /// when `epochs` is empty.
    pub fn record_all<I: IntoIterator<Item = Epoch>>(&mut self, tag: TagId, epochs: I) {
        self.record_with(tag, |journal| journal.extend(epochs));
    }

    /// Let `fill` append changed epochs of `tag` straight onto its journal —
    /// how a store mutation that reports epochs through a `&mut Vec<Epoch>`
    /// (e.g. [`Observations::retain_ranges_for`]) journals them without an
    /// intermediate list — and return what `fill` returns. Appending nothing
    /// leaves the journal as it was; appended epochs may come in any order.
    pub(crate) fn record_with<R>(
        &mut self,
        tag: TagId,
        fill: impl FnOnce(&mut Vec<Epoch>) -> R,
    ) -> R {
        self.changed.update(tag, |epochs| {
            let from = epochs.len();
            let out = fill(epochs);
            settle(epochs, from);
            out
        })
    }

    /// Mark a tag dirty without naming epochs (state other than observations
    /// changed, e.g. imported prior weights).
    pub fn mark(&mut self, tag: TagId) {
        self.changed.get_or_insert(tag);
    }

    /// The changed epochs of one tag, ascending, if it is dirty.
    pub fn epochs_of(&self, tag: TagId) -> Option<&[Epoch]> {
        self.changed.get(tag)
    }

    /// Number of dirty tags.
    pub fn num_tags(&self) -> usize {
        self.changed.len()
    }

    /// Whether nothing changed since the journal was last cleared.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }

    /// Fill `union` (cleared first) with the union of the changed epochs of
    /// all the given tags, ascending — the epochs at which a cached
    /// posterior over exactly these tags is invalid — ignoring changes after
    /// `cutoff`. The clamp is for a consumer whose cache holds nothing newer
    /// than `cutoff` anyway: in the streaming steady state almost every
    /// change is a new reading past the previous run's horizon, so it keeps
    /// the union tiny.
    pub fn union_for_until<I: IntoIterator<Item = TagId>>(
        &self,
        tags: I,
        cutoff: Option<Epoch>,
        union: &mut Vec<Epoch>,
    ) {
        union.clear();
        let mut sources = 0;
        for tag in tags {
            if let Some(epochs) = self.changed.get(tag) {
                let end = cutoff.map_or(epochs.len(), |c| epochs.partition_point(|&t| t <= c));
                if end > 0 {
                    union.extend_from_slice(&epochs[..end]);
                    sources += 1;
                }
            }
        }
        if sources > 1 {
            settle(union, 0);
        }
    }

    /// All `(tag, changed epochs)` entries in ascending tag order, epochs
    /// ascending — the checkpoint codec's view of the journal. A tag marked
    /// via [`Self::mark`] appears with no epochs.
    pub fn entries(&self) -> impl Iterator<Item = (TagId, &[Epoch])> {
        self.changed.iter()
    }

    /// Forget all recorded changes, keeping the capacity they took.
    pub fn clear(&mut self) {
        self.changed.clear();
    }
}

/// Restore a journal list to ascending and duplicate-free after epochs were
/// appended from index `from` on. Appends past the last epoch — new readings,
/// removals of a tag not yet journaled — are already in order and cost one
/// check; otherwise the list is two or more sorted runs (history imported
/// behind newer readings, truncation behind a change point), which the
/// run-detecting stable sort merges.
fn settle(epochs: &mut Vec<Epoch>, from: usize) {
    if epochs[from.saturating_sub(1)..]
        .windows(2)
        .any(|pair| pair[0] >= pair[1])
    {
        epochs.sort();
        epochs.dedup();
    }
}

/// Cached variants kept per container across runs. The EM typically visits
/// two member sets per container and run (the initial assignment's and the
/// converged one), and both tend to recur on the next run.
pub(crate) const MAX_CACHED_VARIANTS: usize = 4;

/// One E-step *variant* of a container: the per-epoch posteriors computed
/// over one member set, plus the point-evidence series each object computed
/// against those posteriors. The posterior series is stored columnar — an
/// epoch-sorted key vector plus one flat row arena holding every posterior's
/// probability row back to back — so the dense solver walks and reuses the
/// rows without touching a per-posterior allocation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CachedVariant {
    /// The member set the cached posteriors smooth over.
    pub(crate) members: Vec<TagId>,
    /// Epochs of the cached posteriors, ascending.
    pub(crate) epochs: Vec<Epoch>,
    /// Probability rows of the cached posteriors, concatenated in epoch
    /// order: one row per epoch.
    pub(crate) qrows: Vec<f64>,
    /// Per-object point-evidence series computed against those posteriors.
    pub(crate) evidence: SeriesTable,
}

/// The point-evidence series of several objects against one cached
/// variant, back to back: object by object in ascending order, each series
/// a run of epochs in `epochs` beside its values in `values`. One table per
/// variant, so a run hands its columns of point evidence to the cache
/// without an allocation per series.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SeriesTable {
    /// Each object with a series and the end of its run in `epochs` and
    /// `values`, ascending by object.
    ends: Vec<(TagId, u32)>,
    /// The epochs of every series, concatenated; ascending within a series.
    epochs: Vec<Epoch>,
    /// `e_co(t)` at each entry of `epochs`, so as long as `epochs`.
    values: Vec<f64>,
}

impl SeriesTable {
    /// A table over `values`, cut into one run per `(object, epochs)` of
    /// `series` in order, each run as long as its epochs. Objects must
    /// ascend.
    pub(crate) fn from_values<E: IntoIterator<Item = Epoch>>(
        values: Vec<f64>,
        series: impl IntoIterator<Item = (TagId, E)>,
    ) -> SeriesTable {
        let series = series.into_iter();
        let mut table = SeriesTable {
            ends: Vec::with_capacity(series.size_hint().0),
            epochs: Vec::with_capacity(values.len()),
            values,
        };
        for (object, epochs) in series {
            debug_assert!(
                table.ends.last().is_none_or(|e| e.0 < object),
                "series out of object order"
            );
            table.epochs.extend(epochs);
            table.ends.push((object, table.epochs.len() as u32));
        }
        assert_eq!(
            table.epochs.len(),
            table.values.len(),
            "one value per series epoch"
        );
        table
    }

    /// The objects with a series, ascending.
    pub(crate) fn objects(&self) -> impl Iterator<Item = TagId> + '_ {
        self.ends.iter().map(|&(object, _)| object)
    }

    /// Every series in object order: `(object, epochs, values)`.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (TagId, &[Epoch], &[f64])> {
        let starts = std::iter::once(0).chain(self.ends.iter().map(|&(_, end)| end));
        self.ends.iter().zip(starts).map(|(&(object, end), start)| {
            let run = start as usize..end as usize;
            (object, &self.epochs[run.clone()], &self.values[run])
        })
    }

    /// The series of `object`, if it has one: its epochs and values.
    pub(crate) fn get(&self, object: TagId) -> Option<(&[Epoch], &[f64])> {
        let at = self.ends.binary_search_by_key(&object, |e| e.0).ok()?;
        let start = at
            .checked_sub(1)
            .map_or(0, |prev| self.ends[prev].1 as usize);
        let run = start..self.ends[at].1 as usize;
        Some((&self.epochs[run.clone()], &self.values[run]))
    }

    /// Append `object`'s series; objects must be pushed in ascending order.
    pub(crate) fn push(&mut self, object: TagId, points: impl IntoIterator<Item = (Epoch, f64)>) {
        debug_assert!(
            self.ends.last().is_none_or(|e| e.0 < object),
            "series pushed out of object order"
        );
        for (t, e) in points {
            self.epochs.push(t);
            self.values.push(e);
        }
        self.ends.push((object, self.epochs.len() as u32));
    }
}

impl CachedVariant {
    /// The cached posteriors as `(epoch, row)` pairs, in epoch order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (Epoch, &[f64])> {
        let width = self.qrows.len().checked_div(self.epochs.len()).unwrap_or(0);
        self.epochs
            .iter()
            .copied()
            .zip(self.qrows.chunks_exact(width.max(1)))
    }

    /// What a checkpoint keeps of this variant.
    fn key(&self) -> VariantKey {
        VariantKey {
            members: self.members.clone(),
            epochs: self.epochs.clone(),
            objects: self.evidence.objects().collect(),
        }
    }
}

/// Cross-run evidence cache consumed and refilled by
/// [`RfInfer::run_incremental`].
///
/// Holds, per container, the posterior variants of the previous run — the
/// per-epoch E-step posteriors keyed by the member set they smoothed over —
/// together with the per-object point-evidence series computed against each
/// variant. Only its [`CacheKeys`] are durable: every value is a function of
/// the observation store, which [`InferenceEngine::restore`](crate::InferenceEngine::restore)
/// recomputes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EvidenceCache {
    pub(crate) containers: BTreeMap<TagId, Vec<CachedVariant>>,
}

impl EvidenceCache {
    /// An empty cache (the first incremental run computes everything).
    pub fn new() -> EvidenceCache {
        EvidenceCache::default()
    }

    /// The keys of every cached variant, per container.
    pub(crate) fn keys(&self) -> CacheKeys {
        let containers = self.containers.iter().map(|(&container, variants)| {
            (container, variants.iter().map(CachedVariant::key).collect())
        });
        CacheKeys {
            containers: containers.collect(),
        }
    }

    /// Drop everything, so the next incremental run computes every value
    /// fresh.
    pub fn clear(&mut self) {
        self.containers.clear();
    }

    /// Evict entries whose container no longer has any retained
    /// observations. After history compaction the cached posteriors of such
    /// a container describe epochs the store has forgotten, so no future
    /// incremental run can match them — keeping them would only hold memory.
    /// Returns the number of container entries evicted.
    pub fn evict_cold(&mut self, store: &Observations) -> usize {
        let before = self.containers.len();
        self.containers
            .retain(|container, _| !store.obs_for(*container).is_empty());
        before - self.containers.len()
    }
}

/// The durable part of one cached variant: which posteriors and series it
/// holds, not their values. Every value is a function of the observation
/// store at its epoch, so a restore recomputes it; a value at an epoch the
/// store changed at since the run that cached it is never reused, because
/// the dirty journal names that epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VariantKey {
    /// The member set the posteriors smooth over, ascending.
    pub members: Vec<TagId>,
    /// Epochs of the posteriors, ascending.
    pub epochs: Vec<Epoch>,
    /// Objects with a point-evidence series against the posteriors,
    /// ascending; a series covers the object's observed epochs among
    /// `epochs`.
    pub objects: Vec<TagId>,
}

/// The keys of an [`EvidenceCache`]: per container, the keys of its cached
/// variants, most recent first. This is what an
/// [`EngineSnapshot`](crate::EngineSnapshot) keeps of the cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheKeys {
    containers: BTreeMap<TagId, Vec<VariantKey>>,
}

impl CacheKeys {
    /// No cached variants.
    pub fn new() -> CacheKeys {
        CacheKeys::default()
    }

    /// Every `(container, variant keys)` entry in ascending container order.
    pub fn containers(&self) -> impl ExactSizeIterator<Item = (TagId, &[VariantKey])> {
        self.containers.iter().map(|(t, v)| (*t, v.as_slice()))
    }

    /// Set the variant keys of one container. Refuses keys no run caches:
    /// more variants than a container keeps, or members, epochs or objects
    /// out of ascending order or repeated.
    pub fn insert(
        &mut self,
        container: TagId,
        variants: Vec<VariantKey>,
    ) -> Result<(), &'static str> {
        fn ascending<T: Ord>(items: &[T]) -> bool {
            items.windows(2).all(|pair| pair[0] < pair[1])
        }
        if variants.len() > MAX_CACHED_VARIANTS {
            return Err("more cached variants than a container keeps");
        }
        for key in &variants {
            if !ascending(&key.members) {
                return Err("variant members unsorted or repeated");
            }
            if !ascending(&key.epochs) {
                return Err("posterior epochs unsorted or repeated");
            }
            if !ascending(&key.objects) {
                return Err("series objects unsorted or repeated");
            }
        }
        self.containers.insert(container, variants);
        Ok(())
    }
}

/// Work accounting of one inference run: how much of the E-step and M-step
/// was reused from the cross-run cache versus computed fresh.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InferenceStats {
    /// Tags whose observations or imported state changed since the previous
    /// run (zero for a full recompute, which tracks no dirtiness).
    pub dirty_tags: usize,
    /// E-step per-epoch container posteriors reused from the cache.
    pub posteriors_reused: usize,
    /// E-step per-epoch container posteriors computed fresh.
    pub posteriors_computed: usize,
    /// Per-epoch point-evidence values reused from the previous outcome.
    pub evidence_reused: usize,
    /// Per-epoch point-evidence values computed fresh.
    pub evidence_computed: usize,
}

impl InferenceStats {
    /// Add another run's counters into this one (per-site aggregation).
    pub fn absorb(&mut self, other: &InferenceStats) {
        self.dirty_tags += other.dirty_tags;
        self.posteriors_reused += other.posteriors_reused;
        self.posteriors_computed += other.posteriors_computed;
        self.evidence_reused += other.evidence_reused;
        self.evidence_computed += other.evidence_computed;
    }

    /// Fraction of E-step posterior evaluations served from the cache.
    pub fn posterior_reuse_fraction(&self) -> f64 {
        let total = self.posteriors_reused + self.posteriors_computed;
        if total == 0 {
            0.0
        } else {
            self.posteriors_reused as f64 / total as f64
        }
    }

    /// Fraction of point-evidence evaluations served from the cache.
    pub fn evidence_reuse_fraction(&self) -> f64 {
        let total = self.evidence_reused + self.evidence_computed;
        if total == 0 {
            0.0
        } else {
            self.evidence_reused as f64 / total as f64
        }
    }
}

/// The RFINFER algorithm bound to a likelihood model, an observation index
/// and optional prior weights.
pub struct RfInfer<'a> {
    pub(crate) model: &'a LikelihoodModel,
    pub(crate) obs: &'a Observations,
    pub(crate) prior: &'a PriorWeights,
}

impl<'a> RfInfer<'a> {
    /// Create an inference run with no prior state.
    pub fn new(model: &'a LikelihoodModel, obs: &'a Observations) -> RfInfer<'a> {
        static EMPTY: PriorWeights = PriorWeights {
            map: BTreeMap::new(),
        };
        RfInfer::with_prior(model, obs, &EMPTY)
    }

    /// Create an inference run with prior weights imported from another site.
    pub fn with_prior(
        model: &'a LikelihoodModel,
        obs: &'a Observations,
        prior: &'a PriorWeights,
    ) -> RfInfer<'a> {
        RfInfer { model, obs, prior }
    }

    /// Run EM to convergence and return the inferred containment, locations
    /// and evidence: a full recompute, which is [`Self::run_incremental`]
    /// against a fresh cache, an empty journal and run-local scratch.
    pub fn run(&self) -> InferenceOutcome {
        let (mut cache, mut scratch) = (EvidenceCache::new(), DenseScratch::default());
        let (outcome, _) = self.run_incremental(&mut cache, &DirtySet::new(), &mut scratch);
        outcome
    }

    /// Run EM incrementally against a cross-run [`EvidenceCache`], through
    /// the dense-interned solver ([`crate::dense`]).
    ///
    /// The EM control flow is identical to [`RfInfer::run`] — same candidate
    /// pruning, same initial assignment, same iteration trajectory — but the
    /// per-epoch container posteriors and point-evidence values are reused
    /// from `cache` wherever `dirty` proves their exact inputs (the relevant
    /// tags' observations at that epoch, and the container's member set)
    /// unchanged since the previous run. Because only bit-identical
    /// intermediate values are ever substituted, the returned outcome is
    /// **bit-identical** to what a full recompute over the same observation
    /// index would produce.
    ///
    /// On return the cache holds this run's posterior variants and evidence
    /// series, ready for the next run. `scratch` holds the dense buffers
    /// (the interning arena, flat weight/epoch arenas and the reader-set
    /// loglik table); [`crate::InferenceEngine`] keeps one across runs, so
    /// the steady state allocates almost nothing.
    pub fn run_incremental(
        &self,
        cache: &mut EvidenceCache,
        dirty: &DirtySet,
        scratch: &mut DenseScratch,
    ) -> (InferenceOutcome, InferenceStats) {
        crate::dense::run_dense(self, cache, dirty, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_types::{RawReading, ReadRateTable, ReaderId, ReadingBatch};

    /// Build observations where `item(1)` truly travels with `case(1)`
    /// through locations 0 -> 1 -> 2, while `case(2)` is co-located only at
    /// location 0 and `case(3)` never is. Readings are deterministic (no
    /// noise) to make assertions exact.
    fn co_travel_obs() -> Observations {
        let mut readings = Vec::new();
        let path = [(0u32, 0u16), (1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2)];
        for &(t, loc) in &path {
            readings.push(RawReading::new(Epoch(t), TagId::item(1), ReaderId(loc)));
            readings.push(RawReading::new(Epoch(t), TagId::case(1), ReaderId(loc)));
        }
        // case 2 stays at location 0 the whole time
        for t in 0..7u32 {
            readings.push(RawReading::new(Epoch(t), TagId::case(2), ReaderId(0)));
        }
        // case 3 stays at location 2
        for t in 0..7u32 {
            readings.push(RawReading::new(Epoch(t), TagId::case(3), ReaderId(2)));
        }
        Observations::from_batch(&ReadingBatch::from_readings(readings))
    }

    fn model(n: usize) -> LikelihoodModel {
        LikelihoodModel::new(ReadRateTable::diagonal(n, 0.8, 1e-4))
    }

    #[test]
    fn rfinfer_recovers_true_containment_and_location() {
        let obs = co_travel_obs();
        let model = model(3);
        let outcome = RfInfer::new(&model, &obs).run();
        assert_eq!(outcome.container_of(TagId::item(1)), Some(TagId::case(1)));
        // the real container has strictly larger weight than both decoys
        let w1 = outcome.weight(TagId::item(1), TagId::case(1)).unwrap();
        let w2 = outcome.weight(TagId::item(1), TagId::case(2)).unwrap();
        assert!(w1 > w2);
        // locations follow the path
        assert_eq!(
            outcome.location_of(TagId::case(1), Epoch(0)),
            Some(LocationId(0))
        );
        assert_eq!(
            outcome.location_of(TagId::case(1), Epoch(4)),
            Some(LocationId(1))
        );
        assert_eq!(
            outcome.location_of(TagId::item(1), Epoch(6)),
            Some(LocationId(2))
        );
        assert!(outcome.iterations >= 1);
        assert_eq!(outcome.num_locations, 3);
    }

    #[test]
    fn smoothing_over_containment_fills_in_missed_container_readings() {
        // The container is *never* read at location 1, but its object is;
        // the container's location at those epochs must still be 1.
        let mut readings = Vec::new();
        for t in 0..4u32 {
            readings.push(RawReading::new(Epoch(t), TagId::item(1), ReaderId(0)));
            readings.push(RawReading::new(Epoch(t), TagId::case(1), ReaderId(0)));
        }
        for t in 4..8u32 {
            readings.push(RawReading::new(Epoch(t), TagId::item(1), ReaderId(1)));
            // case 1 missed at location 1
        }
        let obs = Observations::from_batch(&ReadingBatch::from_readings(readings));
        let model = model(2);
        let outcome = RfInfer::new(&model, &obs).run();
        assert_eq!(outcome.container_of(TagId::item(1)), Some(TagId::case(1)));
        assert_eq!(
            outcome.location_of(TagId::case(1), Epoch(6)),
            Some(LocationId(1))
        );
        assert_eq!(
            outcome.location_of(TagId::item(1), Epoch(6)),
            Some(LocationId(1))
        );
    }

    #[test]
    fn prior_weights_bias_the_assignment() {
        // Locally the object is read together with case 2, while case 1 sits
        // at a different location; a large prior weight (accumulated at a
        // previous site) can still keep case 1, but a tiny one cannot.
        let mut readings = Vec::new();
        for t in 0..3u32 {
            readings.push(RawReading::new(Epoch(t), TagId::item(1), ReaderId(0)));
            readings.push(RawReading::new(Epoch(t), TagId::case(2), ReaderId(0)));
            readings.push(RawReading::new(Epoch(t), TagId::case(1), ReaderId(1)));
        }
        let obs = Observations::from_batch(&ReadingBatch::from_readings(readings));
        let model = model(2);

        let no_prior = RfInfer::new(&model, &obs).run();
        assert_eq!(no_prior.container_of(TagId::item(1)), Some(TagId::case(2)));

        let mut prior = PriorWeights::empty();
        prior.set(TagId::item(1), TagId::case(1), 1000.0);
        let with_prior = RfInfer::with_prior(&model, &obs, &prior).run();
        assert_eq!(
            with_prior.container_of(TagId::item(1)),
            Some(TagId::case(1))
        );
        // but with only a tiny prior the local evidence wins
        let mut weak = PriorWeights::empty();
        weak.set(TagId::item(1), TagId::case(1), 0.1);
        let weak_outcome = RfInfer::with_prior(&model, &obs, &weak).run();
        assert_eq!(
            weak_outcome.container_of(TagId::item(1)),
            Some(TagId::case(2))
        );
    }

    #[test]
    fn point_evidence_favours_the_real_container_in_the_belt_region() {
        let obs = co_travel_obs();
        let model = model(3);
        let outcome = RfInfer::new(&model, &obs).run();
        let evidence = outcome.object(TagId::item(1)).unwrap();
        // At epoch 3 (the object is at location 1, away from both decoys) the
        // real container's point evidence exceeds the decoy's.
        let real = evidence.point_evidence(TagId::case(1)).unwrap();
        let decoy = evidence.point_evidence(TagId::case(2)).unwrap();
        let at3 = evidence.epochs().binary_search(&Epoch(3)).unwrap();
        assert!(real[at3] > decoy[at3] + 1.0);
        // Cumulative evidence is the prefix sum of point evidence.
        let cum = evidence.cumulative_evidence(TagId::case(1));
        assert_eq!(cum.len(), real.len());
        let total: f64 = real.iter().sum();
        assert!((cum.last().unwrap() - total).abs() < 1e-9);
    }

    #[test]
    fn an_evidence_table_is_rectangular() {
        let (a, b) = (TagId::case(1), TagId::case(2));
        let epochs = [Epoch(2), Epoch(5)];
        let mut outcome = InferenceOutcome::new(1, 2);
        let mut push = |object, epochs: &[Epoch], columns: [&[f64]; 2]| {
            let candidates = [(b, 1.0, columns[0]), (a, 2.0, columns[1])];
            outcome.push_object(TagId::item(object), None, None, epochs, &candidates)
        };
        assert!(
            push(1, &epochs, [&[1.0], &[1.0, 2.0]]).is_err(),
            "a short column"
        );
        assert!(
            push(1, &epochs, [&[1.0, 2.0, 3.0], &[1.0, 2.0]]).is_err(),
            "a long one"
        );
        let unordered = [Epoch(5), Epoch(2)];
        assert!(push(1, &unordered, [&[1.0, 2.0], &[3.0, 4.0]]).is_err());
        let repeated = [Epoch(2), Epoch(2)];
        assert!(push(1, &repeated, [&[1.0, 2.0], &[3.0, 4.0]]).is_err());
        push(1, &[], [&[], &[]]).expect("a row without evidence");
        push(2, &epochs, [&[1.0, 2.0], &[3.0, 4.0]]).expect("a full table");
        let refused = outcome.push_object(TagId::item(3), None, None, &epochs, &[]);
        assert!(refused.is_err(), "epochs without a column");

        let empty = outcome.object(TagId::item(1)).unwrap();
        assert!(empty.epochs().is_empty());
        assert!(empty.columns().all(|(_, column)| column.is_empty()));
        let full = outcome.object(TagId::item(2)).unwrap();
        assert_eq!(full.epochs(), epochs);
        let columns: Vec<_> = full.columns().collect();
        assert_eq!(columns, [(a, &[3.0, 4.0][..]), (b, &[1.0, 2.0][..])]);
        assert_eq!(full.candidates().collect::<Vec<_>>(), [b, a]);
        outcome.apply_change(TagId::item(2), Epoch(5), Some(a));
        let refined = outcome.object(TagId::item(2)).unwrap();
        assert_eq!(refined.weights().collect::<Vec<_>>(), [(a, 4.0), (b, 2.0)]);
    }

    #[test]
    fn object_with_no_candidate_container_gets_fallback_location() {
        let readings = vec![
            RawReading::new(Epoch(0), TagId::item(7), ReaderId(1)),
            RawReading::new(Epoch(1), TagId::item(7), ReaderId(1)),
        ];
        let obs = Observations::from_batch(&ReadingBatch::from_readings(readings));
        let model = model(2);
        let outcome = RfInfer::new(&model, &obs).run();
        assert_eq!(outcome.container_of(TagId::item(7)), None);
        assert_eq!(
            outcome.location_of(TagId::item(7), Epoch(1)),
            Some(LocationId(1))
        );
    }

    #[test]
    fn incremental_run_is_bit_identical_and_reuses_the_cache() {
        let model = model(3);
        let mut dirty = DirtySet::new();
        let mut obs = Observations::new();
        let feed = |obs: &mut Observations, dirty: &mut DirtySet, t: u32, loc: u16| {
            for tag in [TagId::item(1), TagId::case(1)] {
                let reading = RawReading::new(Epoch(t), tag, ReaderId(loc));
                if obs.insert(reading) {
                    dirty.record(tag, Epoch(t));
                }
            }
        };
        for t in 0..6u32 {
            feed(&mut obs, &mut dirty, t, 0);
        }
        let mut cache = EvidenceCache::new();
        let first = std::mem::take(&mut dirty);
        let scratch = &mut DenseScratch::default();
        let (out1, stats1) =
            RfInfer::new(&model, &obs).run_incremental(&mut cache, &first, scratch);
        assert_eq!(out1, RfInfer::new(&model, &obs).run(), "first run == full");
        assert_eq!(
            stats1.posteriors_reused, 0,
            "cold cache has nothing to reuse"
        );

        // New readings arrive; only they should be recomputed.
        for t in 6..9u32 {
            feed(&mut obs, &mut dirty, t, 1);
        }
        let second = std::mem::take(&mut dirty);
        let (out2, stats2) =
            RfInfer::new(&model, &obs).run_incremental(&mut cache, &second, scratch);
        assert_eq!(out2, RfInfer::new(&model, &obs).run(), "second run == full");
        assert!(
            stats2.posteriors_reused > 0,
            "old epochs come from the cache"
        );
        assert!(stats2.evidence_reused > 0);
        assert!(stats2.posteriors_computed > 0, "new epochs are computed");

        // A third run with nothing new reuses everything.
        let (out3, stats3) =
            RfInfer::new(&model, &obs).run_incremental(&mut cache, &DirtySet::new(), scratch);
        assert_eq!(out3, out2);
        assert_eq!(stats3.posteriors_computed, 0);
        assert_eq!(stats3.evidence_computed, 0);
    }

    #[test]
    fn dirty_set_records_marks_and_unions() {
        let mut d = DirtySet::new();
        assert!(d.is_empty());
        d.record(TagId::item(1), Epoch(3));
        d.record_all(TagId::item(1), [Epoch(5), Epoch(7)]);
        d.record_all(TagId::item(2), Vec::<Epoch>::new());
        d.mark(TagId::case(9));
        assert_eq!(d.num_tags(), 2, "empty batches create no entry; marks do");
        assert_eq!(d.epochs_of(TagId::item(1)).unwrap().len(), 3);
        assert!(d.epochs_of(TagId::case(9)).unwrap().is_empty());
        assert!(d.epochs_of(TagId::item(2)).is_none());
        let mut union = vec![Epoch(99)];
        d.union_for_until(
            [TagId::item(1), TagId::case(9), TagId::item(5)],
            None,
            &mut union,
        );
        assert_eq!(union, [Epoch(3), Epoch(5), Epoch(7)]);
        d.union_for_until([TagId::item(1)], Some(Epoch(5)), &mut union);
        assert_eq!(union.len(), 2, "changes past the cutoff are ignored");
        d.clear();
        assert!(d.is_empty());
    }

    #[test]
    fn prior_weight_collection_behaves() {
        let mut p = PriorWeights::empty();
        assert!(p.is_empty());
        p.set(TagId::item(1), TagId::case(1), 2.0);
        p.add(TagId::item(1), TagId::case(1), 3.0);
        p.add(TagId::item(1), TagId::case(2), -1.0);
        assert_eq!(p.get(TagId::item(1), TagId::case(1)), 5.0);
        assert_eq!(p.get(TagId::item(1), TagId::case(9)), 0.0);
        assert_eq!(p.entries_for(TagId::item(1)).count(), 2);
        assert_eq!(p.objects().count(), 1);
        let mut q = PriorWeights::empty();
        q.set(TagId::item(1), TagId::case(1), 1.0);
        q.set(TagId::item(2), TagId::case(3), 4.0);
        p.merge(&q);
        assert_eq!(p.get(TagId::item(1), TagId::case(1)), 6.0);
        assert_eq!(p.get(TagId::item(2), TagId::case(3)), 4.0);
    }
}
