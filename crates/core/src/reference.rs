//! The reference RFINFER solver: the EM of Section 3.2 / Appendix A.3 over
//! `BTreeMap`-keyed state. Candidates, assignment, weights, variants and
//! point-evidence series are maps keyed by [`TagId`], and posteriors are
//! per-epoch [`Posterior`] values. Only its boundary uses the product's
//! types: it reads the previous run's [`EvidenceCache`] (each
//! `CachedVariant` a flat posterior-row arena plus a `SeriesTable`) into
//! those maps, writes its variants back in that layout, and fills the
//! arena-backed [`InferenceOutcome`] with `push_object` / `push_locations`.
//!
//! Nothing in the product calls this module. It is the one ground truth the
//! dense solver ([`crate::dense`]) is equivalence-tested against: tests pass
//! [`run_tree`] to
//! [`InferenceEngine::run_inference_with`](crate::InferenceEngine::run_inference_with)
//! (or call it directly on an [`RfInfer`]) and compare outcomes and
//! [`InferenceStats`] bit for bit. It is always compiled — a cargo feature
//! would make `cargo test -p rfid-core` depend on a flag — and hidden from
//! the rendered docs; CI greps that no non-test source names it.

use crate::posterior::{container_posterior, Posterior};
use crate::rfinfer::{
    CachedVariant, DirtySet, EvidenceCache, InferenceOutcome, InferenceStats, RfInfer, SeriesTable,
    CANDIDATE_LIMIT, MAX_CACHED_VARIANTS, MAX_ITERATIONS,
};
use rfid_types::{Epoch, LocationId, TagId};
use std::collections::{BTreeMap, BTreeSet};

/// Working state of one container during an EM run.
struct Variant {
    /// The member set the posteriors smooth over.
    members: Vec<TagId>,
    /// The EM iteration that (re)computed this variant — objects whose
    /// candidates were all left untouched by an iteration's E-step skip its
    /// M-step wholesale (their weights could not have changed).
    updated_iter: usize,
    /// Per-epoch posteriors of this variant, epoch-sorted.
    per_epoch: Vec<(Epoch, Posterior)>,
    /// Epochs whose posterior was moved bitwise out of the previous run's
    /// matching variant (sorted ascending) — the precondition for cross-run
    /// evidence reuse.
    reused: Vec<Epoch>,
    /// Whether *every* needed posterior came out of the previous run's
    /// matching variant — the whole-series evidence fast path.
    fully_reused: bool,
    /// The matching previous-run variant's evidence series.
    prev_evidence: BTreeMap<TagId, Vec<(Epoch, f64)>>,
    /// Evidence series computed this run against `per_epoch` (incremental
    /// mode only) — reused across EM iterations and by the outcome builder.
    evidence: BTreeMap<TagId, Vec<(Epoch, f64)>>,
}

impl Variant {
    fn into_cached(self) -> CachedVariant {
        let mut epochs = Vec::with_capacity(self.per_epoch.len());
        let mut qrows = Vec::with_capacity(self.per_epoch.iter().map(|(_, q)| q.len()).sum());
        for (t, q) in &self.per_epoch {
            epochs.push(*t);
            qrows.extend_from_slice(q.probs());
        }
        let mut evidence = SeriesTable::default();
        for (o, series) in self.evidence {
            evidence.push(o, series);
        }
        CachedVariant {
            members: self.members,
            epochs,
            qrows,
            evidence,
        }
    }
}

/// Forward-only cursor over a previous run's point-evidence series, looked
/// up in step with an object's (epoch-sorted) observations.
struct PrevSeries<'a> {
    series: &'a [(Epoch, f64)],
    cursor: usize,
}

impl<'a> PrevSeries<'a> {
    fn new(series: Option<&'a [(Epoch, f64)]>) -> PrevSeries<'a> {
        PrevSeries {
            series: series.unwrap_or(&[]),
            cursor: 0,
        }
    }

    fn lookup(&mut self, t: Epoch) -> Option<f64> {
        while self.cursor < self.series.len() && self.series[self.cursor].0 < t {
            self.cursor += 1;
        }
        match self.series.get(self.cursor) {
            Some(&(epoch, value)) if epoch == t => Some(value),
            _ => None,
        }
    }
}

/// The reference solver: the EM over `BTreeMap`-keyed state, the ground
/// truth the dense solver is equivalence-tested against. With `incr`, the
/// cache's `CachedVariant`s are read into per-epoch posteriors and
/// evidence maps and refilled from this run's variants
/// (`Variant::into_cached`); the result is an [`InferenceOutcome`] built row
/// by row, and the [`InferenceStats`] count what the dense solver counts.
pub fn run_tree(
    infer: &RfInfer<'_>,
    mut incr: Option<(&mut EvidenceCache, &DirtySet)>,
) -> (InferenceOutcome, InferenceStats) {
    let mut stats = InferenceStats::default();
    // Take the previous run's cache contents; the map is refilled with
    // this run's variants before returning.
    let mut prev_containers: BTreeMap<TagId, Vec<CachedVariant>> = BTreeMap::new();
    let mut dirty: Option<&DirtySet> = None;
    if let Some((cache, d)) = incr.as_mut() {
        prev_containers = std::mem::take(&mut cache.containers);
        dirty = Some(*d);
        stats.dirty_tags = d.num_tags();
    }

    let objects = infer.obs.objects();
    let all_containers = infer.obs.containers();

    // Candidate pruning: the containers most frequently co-located with
    // each object, plus any container we have prior information about.
    // One scratch buffer serves the count ranking of every object.
    let mut colocation_scratch: Vec<(TagId, usize)> = Vec::new();
    let mut candidates: BTreeMap<TagId, Vec<TagId>> = BTreeMap::new();
    for &o in &objects {
        let mut cands =
            infer
                .obs
                .candidate_containers_with(o, CANDIDATE_LIMIT, &mut colocation_scratch);
        for (c, _) in infer.prior.entries_for(o) {
            if !cands.contains(&c) {
                cands.push(c);
            }
        }
        candidates.insert(o, cands);
    }

    // Initial assignment: the strongest prior if one exists, otherwise
    // the most frequently co-located candidate.
    let mut assignment: BTreeMap<TagId, TagId> = BTreeMap::new();
    for (&o, cands) in &candidates {
        if cands.is_empty() {
            continue;
        }
        let by_prior = cands
            .iter()
            .map(|&c| (c, infer.prior.get(o, c)))
            .filter(|&(_, w)| w != 0.0)
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let initial = by_prior.map(|(c, _)| c).unwrap_or(cands[0]);
        assignment.insert(o, initial);
    }

    // Which epochs each container's posterior is needed at: every epoch
    // at which an object that lists it as a candidate was observed, plus
    // the container's own observation epochs.
    let relevant_containers: BTreeSet<TagId> = candidates
        .values()
        .flat_map(|cs| cs.iter().copied())
        .chain(all_containers.iter().copied())
        .collect();
    let mut needed_epochs: BTreeMap<TagId, Vec<Epoch>> = BTreeMap::new();
    for &c in &relevant_containers {
        let own: Vec<Epoch> = infer.obs.obs_for(c).iter().map(|o| o.epoch).collect();
        needed_epochs.insert(c, own);
    }
    for (&o, cands) in &candidates {
        let epochs: Vec<Epoch> = infer.obs.obs_for(o).iter().map(|x| x.epoch).collect();
        for &c in cands {
            needed_epochs
                .entry(c)
                .or_default()
                .extend(epochs.iter().copied());
        }
    }
    // Sorted + deduplicated: the same ascending epoch walk a set gives,
    // built with vector constants.
    for list in needed_epochs.values_mut() {
        list.sort_unstable();
        list.dedup();
    }

    // EM loop. `current` holds, per container, the variant in force —
    // the posteriors of the member set of the latest E-step that touched
    // it, plus the evidence series computed against them.
    let incremental = dirty.is_some();
    let mut current: BTreeMap<TagId, Variant> = BTreeMap::new();
    let mut retired: BTreeMap<TagId, Vec<CachedVariant>> = BTreeMap::new();
    let mut weights: BTreeMap<TagId, BTreeMap<TagId, f64>> = BTreeMap::new();
    let mut iterations = 0;
    for iter in 0..MAX_ITERATIONS {
        iterations = iter + 1;
        // E-step (Eq. 4): posterior over each relevant container's
        // location at every needed epoch, smoothing over its currently
        // assigned members.
        for &c in &relevant_containers {
            let members: Vec<TagId> = assignment
                .iter()
                .filter(|(_, cc)| **cc == c)
                .map(|(o, _)| *o)
                .collect();
            if current.get(&c).is_some_and(|v| v.members == members) {
                continue;
            }
            // A superseded variant is retired, not dropped: a later
            // iteration may flip the assignment back, and the next run's
            // early iterations often revisit the same member sets.
            if let Some(old) = current.remove(&c) {
                retired.entry(c).or_default().push(old.into_cached());
            }
            // Cross-run reuse: a cached posterior is valid at an epoch
            // when it was computed over the same member set and neither
            // the container's nor any member's observations changed at
            // that epoch — identical inputs, identical bits.
            let matched = prev_containers.get_mut(&c).and_then(|variants| {
                variants
                    .iter()
                    .position(|v| v.members == members)
                    .map(|i| variants.swap_remove(i))
            });
            // Inflate the columnar cache rows back into per-epoch
            // posteriors; each row's bits are copied verbatim, so every
            // downstream reuse decision sees the exact cached values.
            let (prev_per_epoch, prev_evidence): (Vec<(Epoch, Posterior)>, _) = match matched {
                Some(v) => (
                    v.rows()
                        .map(|(t, row)| (t, Posterior::from_probs(row.to_vec())))
                        .collect(),
                    v.evidence
                        .iter()
                        .map(|(o, epochs, values)| {
                            let series = epochs.iter().copied().zip(values.iter().copied());
                            (o, series.collect())
                        })
                        .collect(),
                ),
                None => (Vec::new(), BTreeMap::new()),
            };
            // Changes after the cached horizon cannot invalidate
            // anything (the cache has no entries there), so clamp the
            // union to it.
            let mut invalid: Vec<Epoch> = Vec::new();
            if let Some(d) = dirty.filter(|_| !prev_per_epoch.is_empty()) {
                d.union_for_until(
                    std::iter::once(c).chain(members.iter().copied()),
                    prev_per_epoch.last().map(|&(t, _)| t),
                    &mut invalid,
                );
            }
            let needed = needed_epochs.get(&c);
            // Whole-variant fast path: the previous run's variant covers
            // exactly the needed epochs and none of them is dirty — take
            // its posterior series wholesale instead of moving entries
            // one by one.
            let fully_reused = !prev_per_epoch.is_empty()
                && needed.is_some_and(|s| {
                    prev_per_epoch.len() == s.len()
                        && prev_per_epoch.iter().map(|(t, _)| t).eq(s.iter())
                })
                && invalid
                    .iter()
                    .all(|t| prev_per_epoch.binary_search_by_key(t, |e| e.0).is_err());
            if fully_reused {
                stats.posteriors_reused += prev_per_epoch.len();
                let reused_epochs: Vec<Epoch> = prev_per_epoch.iter().map(|&(t, _)| t).collect();
                current.insert(
                    c,
                    Variant {
                        members,
                        updated_iter: iter,
                        per_epoch: prev_per_epoch,
                        reused: reused_epochs,
                        fully_reused: true,
                        prev_evidence,
                        evidence: BTreeMap::new(),
                    },
                );
                continue;
            }
            // Per-epoch path: walk the (sorted) needed epochs in
            // lockstep with the previous variant's entries and the
            // invalid set; both output collections are bulk-built from
            // already-sorted entries.
            let mut entries: Vec<(Epoch, Posterior)> = Vec::new();
            let mut reused_vec: Vec<Epoch> = Vec::new();
            let mut prev_iter = prev_per_epoch.into_iter().peekable();
            let mut invalid_iter = invalid.iter().peekable();
            let mut member_readers: Vec<Option<&[LocationId]>> = Vec::new();
            for &t in needed.into_iter().flatten() {
                while prev_iter.peek().is_some_and(|(pt, _)| *pt < t) {
                    prev_iter.next();
                }
                while invalid_iter.peek().is_some_and(|it| **it < t) {
                    invalid_iter.next();
                }
                let hit = if invalid_iter.peek().is_some_and(|it| **it == t) {
                    None
                } else if prev_iter.peek().is_some_and(|(pt, _)| *pt == t) {
                    prev_iter.next().map(|(_, q)| q)
                } else {
                    None
                };
                let q = match hit {
                    Some(q) => {
                        stats.posteriors_reused += 1;
                        reused_vec.push(t);
                        q
                    }
                    None => {
                        stats.posteriors_computed += 1;
                        let container_readers = infer.obs.readers_at(c, t);
                        member_readers.clear();
                        member_readers.extend(members.iter().map(|&m| infer.obs.readers_at(m, t)));
                        container_posterior(infer.model, container_readers, &member_readers)
                    }
                };
                entries.push((t, q));
            }
            // `needed` is sorted, so `entries` is already epoch-sorted.
            let per_epoch = entries;
            let reused_epochs = reused_vec;
            current.insert(
                c,
                Variant {
                    members,
                    updated_iter: iter,
                    per_epoch,
                    reused: reused_epochs,
                    fully_reused: false,
                    prev_evidence,
                    evidence: BTreeMap::new(),
                },
            );
        }

        // M-step (Eq. 5): co-location weights and the new assignment.
        // In incremental mode each variant remembers the evidence series
        // computed against its posteriors, so an EM iteration that left a
        // container's variant untouched re-sums the series instead of
        // re-deriving every expectation, and a variant matched across
        // runs reuses the previous run's values wherever the posterior
        // was reused and the object's observations are clean.
        let mut new_assignment: BTreeMap<TagId, TagId> = BTreeMap::new();
        for (&o, cands) in &candidates {
            // Stable-object fast path: if this iteration's E-step left
            // every candidate's variant untouched, the weights computed
            // last iteration are bit-identical — re-derive only the
            // argmax.
            if incremental && iter > 0 {
                let untouched = cands
                    .iter()
                    .all(|c| current.get(c).is_none_or(|v| v.updated_iter < iter));
                if untouched {
                    if let Some(per_container) = weights.get(&o) {
                        if let Some((&best, _)) = per_container
                            .iter()
                            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        {
                            new_assignment.insert(o, best);
                        }
                        continue;
                    }
                }
            }
            let o_dirty = dirty.and_then(|d| d.epochs_of(o));
            let mut per_container = BTreeMap::new();
            for &c in cands {
                let mut w = infer.prior.get(o, c);
                if let Some(variant) = current.get_mut(&c) {
                    if let Some(series) = variant.evidence.get(&o) {
                        // Same variant as an earlier iteration: identical
                        // inputs, identical series. Summation order is
                        // unchanged, so the weight is bit-identical too.
                        stats.evidence_reused += series.len();
                        for &(_, e) in series {
                            w += e;
                        }
                    } else if incremental {
                        // Whole-series fast path: every posterior of this
                        // variant came out of the cache and the object's
                        // observations are untouched, so the previous
                        // run's series transfers wholesale. (A tag marked
                        // dirty without epochs — an imported prior — is
                        // still clean here: priors enter `w` fresh above,
                        // never through the series.)
                        let o_clean = o_dirty.is_none_or(|s| s.is_empty());
                        let moved = (variant.fully_reused && o_clean)
                            .then(|| variant.prev_evidence.remove(&o))
                            .flatten();
                        if let Some(series) = moved {
                            stats.evidence_reused += series.len();
                            for &(_, e) in &series {
                                w += e;
                            }
                            variant.evidence.insert(o, series);
                        } else {
                            // Per-epoch path: walk the object's (sorted)
                            // observations in lockstep with the variant's
                            // sorted posterior series, reuse set and dirty
                            // set, so no per-epoch tree lookups remain.
                            let mut prev = PrevSeries::new(
                                variant.prev_evidence.get(&o).map(|v| v.as_slice()),
                            );
                            let obs = infer.obs.obs_for(o);
                            let mut series = Vec::with_capacity(obs.len());
                            let mut q_iter = variant.per_epoch.iter().peekable();
                            let mut reused_iter = variant.reused.iter().peekable();
                            let mut dirty_iter = o_dirty.map(|s| s.iter().peekable());
                            for obs_at in obs {
                                let t = obs_at.epoch;
                                while q_iter.peek().is_some_and(|(qt, _)| *qt < t) {
                                    q_iter.next();
                                }
                                let Some(entry) = q_iter.peek() else {
                                    break;
                                };
                                let (qt, q) = (entry.0, &entry.1);
                                if qt != t {
                                    continue;
                                }
                                while reused_iter.peek().is_some_and(|rt| **rt < t) {
                                    reused_iter.next();
                                }
                                let posterior_reused =
                                    reused_iter.peek().is_some_and(|rt| **rt == t);
                                let o_dirty_here = dirty_iter.as_mut().is_some_and(|it| {
                                    while it.peek().is_some_and(|dt| **dt < t) {
                                        it.next();
                                    }
                                    it.peek().is_some_and(|dt| **dt == t)
                                });
                                let reusable = posterior_reused && !o_dirty_here;
                                let e = match reusable.then(|| prev.lookup(t)).flatten() {
                                    Some(e) => {
                                        stats.evidence_reused += 1;
                                        e
                                    }
                                    None => {
                                        stats.evidence_computed += 1;
                                        q.expect(|a| infer.model.tag_loglik(&obs_at.readers, a))
                                    }
                                };
                                series.push((t, e));
                                w += e;
                            }
                            variant.evidence.insert(o, series);
                        }
                    } else {
                        // Full recompute: the reference path, kept free
                        // of cache bookkeeping.
                        for obs_at in infer.obs.obs_for(o) {
                            if let Ok(i) = variant
                                .per_epoch
                                .binary_search_by_key(&obs_at.epoch, |e| e.0)
                            {
                                let q = &variant.per_epoch[i].1;
                                stats.evidence_computed += 1;
                                w += q.expect(|a| infer.model.tag_loglik(&obs_at.readers, a));
                            }
                        }
                    }
                }
                per_container.insert(c, w);
            }
            if let Some((&best, _)) = per_container
                .iter()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            {
                new_assignment.insert(o, best);
            }
            weights.insert(o, per_container);
        }

        let converged = new_assignment == assignment;
        assignment = new_assignment;
        if converged {
            break;
        }
    }

    let outcome = build_outcome(
        infer,
        &candidates,
        &assignment,
        &weights,
        &current,
        iterations,
        incremental,
        &mut stats,
    );

    // Refill the cache for the next run: the final variant of every
    // container first, then recently retired ones (most recent first),
    // deduplicated by member set and capped.
    if let Some((cache, _)) = incr {
        let mut containers = BTreeMap::new();
        for (c, variant) in current {
            let mut variants = vec![variant.into_cached()];
            for candidate in retired.remove(&c).into_iter().flatten().rev() {
                if variants.len() >= MAX_CACHED_VARIANTS {
                    break;
                }
                if variants.iter().all(|v| v.members != candidate.members) {
                    variants.push(candidate);
                }
            }
            containers.insert(c, variants);
        }
        cache.containers = containers;
    }
    (outcome, stats)
}

#[expect(
    clippy::too_many_arguments,
    reason = "the reference keeps its BTreeMap-keyed EM state as separate maps, passed as they are"
)]
fn build_outcome(
    infer: &RfInfer<'_>,
    candidates: &BTreeMap<TagId, Vec<TagId>>,
    assignment: &BTreeMap<TagId, TagId>,
    weights: &BTreeMap<TagId, BTreeMap<TagId, f64>>,
    current: &BTreeMap<TagId, Variant>,
    iterations: usize,
    incremental: bool,
    stats: &mut InferenceStats,
) -> InferenceOutcome {
    // Point evidence per (object, candidate) from the final posteriors, one
    // column per candidate over the object's observed epochs. In
    // incremental mode the final M-step iteration already computed (and
    // stored) every series against exactly these posteriors, so the builder
    // copies their values instead of re-deriving each expectation.
    let mut outcome = InferenceOutcome::new(iterations, infer.model.num_locations());
    for (&o, cands) in candidates {
        // A row without candidates holds no evidence, so no epochs either.
        let observed = if cands.is_empty() {
            &[]
        } else {
            infer.obs.obs_for(o)
        };
        let epochs: Vec<Epoch> = observed.iter().map(|obs_at| obs_at.epoch).collect();
        let mut columns = Vec::with_capacity(cands.len());
        for &c in cands {
            let variant = current.get(&c).expect("every candidate has a variant");
            let mut column = Vec::with_capacity(observed.len());
            match variant.evidence.get(&o) {
                Some(series) if incremental => {
                    stats.evidence_reused += series.len();
                    column.extend(series.iter().map(|&(_, e)| e));
                }
                _ => {
                    for obs_at in observed {
                        let at = variant
                            .per_epoch
                            .binary_search_by_key(&obs_at.epoch, |e| e.0);
                        let q = &variant.per_epoch[at.expect("a posterior per observation")].1;
                        stats.evidence_computed += 1;
                        column.push(q.expect(|a| infer.model.tag_loglik(&obs_at.readers, a)));
                    }
                }
            }
            columns.push(column);
        }
        let rows: Vec<_> = cands
            .iter()
            .zip(&columns)
            .map(|(&c, column)| (c, weights[&o][&c], column.as_slice()))
            .collect();
        let assigned = assignment.get(&o).copied();
        outcome
            .push_object(o, assigned, assigned, &epochs, &rows)
            .expect("objects iterate ascending, columns span every observed epoch");
    }

    // Location estimates: containers from their posteriors — but only at
    // *informative* epochs, i.e. epochs at which the container itself or
    // one of its assigned members was observed. Posteriors computed at
    // other epochs (they exist because some object merely lists the
    // container as a candidate) carry no location information and would
    // pollute the estimates. Objects with no assigned container fall
    // back to their own readings.
    let mut tag_locations: BTreeMap<TagId, Vec<(Epoch, LocationId)>> = BTreeMap::new();
    for (c, variant) in current {
        let members: Vec<TagId> = assignment
            .iter()
            .filter(|(_, cc)| **cc == *c)
            .map(|(o, _)| *o)
            .collect();
        let informative = |t: Epoch| {
            infer.obs.readers_at(*c, t).is_some()
                || members
                    .iter()
                    .any(|m| infer.obs.readers_at(*m, t).is_some())
        };
        let locs: Vec<(Epoch, LocationId)> = variant
            .per_epoch
            .iter()
            .filter(|(t, _)| informative(*t))
            .map(|(t, q)| (*t, q.map_location()))
            .collect();
        if !locs.is_empty() {
            tag_locations.insert(*c, locs);
        }
    }
    for &o in candidates.keys() {
        if assignment.contains_key(&o) {
            continue;
        }
        let locs: Vec<(Epoch, LocationId)> = infer
            .obs
            .obs_for(o)
            .iter()
            .map(|obs_at| {
                let q = container_posterior(infer.model, Some(&obs_at.readers), &[]);
                (obs_at.epoch, q.map_location())
            })
            .collect();
        if !locs.is_empty() {
            tag_locations.insert(o, locs);
        }
    }

    for (tag, locs) in &tag_locations {
        outcome
            .push_locations(*tag, locs)
            .expect("tags iterate ascending, runs are non-empty");
    }
    outcome
}
