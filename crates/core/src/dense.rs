//! Dense-interned columnar RFINFER — the one solver behind
//! [`RfInfer::run`](crate::RfInfer::run) and
//! [`RfInfer::run_incremental`](crate::RfInfer::run_incremental).
//!
//! The test-only reference solver (`crate::reference`) keys every piece of
//! EM state by sparse 64-bit [`TagId`]s in `BTreeMap`s: each E-step
//! posterior, each point-evidence append and each M-step weight update pays
//! a tree walk plus an allocation. This module removes all of that from the
//! inner loops with one idea: **a per-run interning pass**. At the top of a
//! run every live tag (objects, observed containers, prior-named candidate
//! containers) is interned into a contiguous `u32` index, every distinct
//! per-epoch reader set into a reader-set id, and from then on the EM runs
//! entirely over flat `Vec`-indexed arenas:
//!
//! * candidate sets, co-location weight rows and prior weights live in flat
//!   arenas aligned by candidate position (`cand_arena` / `weights`),
//! * per-container needed-epoch lists and member lists live in shared arenas
//!   sliced by a per-container `(start, len)`,
//! * the observations are put in epoch order once, as two epoch-bucketed
//!   event lists (containers, objects); co-location counts matches per
//!   shared epoch off them, and a walk over both lists in epoch order sends
//!   each event to its containers' slots, which keep each epoch once,
//! * E-step posteriors are epoch-sorted slices walked with cursors — no
//!   `BTreeMap<Epoch, Posterior>` anywhere,
//! * every `(reader set, location)` log-likelihood is computed once per run
//!   in a memoized [`ReaderSetTable`] row and reused by both the posterior
//!   and the point-evidence evaluations,
//! * the inner loops run through the chunk-of-8 `kernels` — lane-parallel
//!   loglik row fills, in-place log-sum-exp normalization and the M-step's
//!   point-evidence dots — plus an epoch-indexed candidate-pruning pass; they
//!   run lanes across locations or whole dots only, never across the terms
//!   of one accumulator,
//! * the M-step goes lane by lane, one (object, candidate) pair at a time:
//!   the object's dirty epochs are worked out once, each lane merges the
//!   object's observations into its variant's epochs once, takes reused
//!   values from the previous run's series (a lane without one skips the
//!   reuse cursors), and runs its fresh dots in one `kernels::dot_each` call,
//!   each in its own accumulator, written in place into the lane's `f64`
//!   column; the weight is the prior plus the column in epoch order,
//! * all of it backed by [`DenseScratch`] buffers the engine keeps alive
//!   across runs, so the streaming steady state allocates almost nothing.
//!
//! Interned indices are **run-scoped**: they are assigned fresh each run from
//! the ascending tag order, and nothing outside the run ever sees one. What
//! leaves the run names tags, not indices: the [`InferenceOutcome`] arenas,
//! filled from the final variants row by row (each candidate's column of
//! point evidence is copied out of the column the M-step stored in the
//! variant, never re-derived), and the [`EvidenceCache`] variants that seed
//! the next incremental run. A variant's columns sit back to back in one
//! arena, each aligned with its object's observations (every lane of an
//! object shares those epochs), and pass to the cache as its series table's
//! values without a copy.
//!
//! The solver replays the exact control flow of the reference EM — same
//! candidate ranking, same initial assignment, same variant memoization and
//! cross-run reuse decisions, same floating-point summation order — so its
//! results are **bit-identical** to the tree solver's, pinned by the
//! `dense_solver_matches_tree_reference` proptest and
//! `tests/solver_equivalence.rs`.

pub(crate) mod kernels;

use crate::likelihood::{LikelihoodModel, ReaderSetTable};
use crate::observations::{ObsAt, Observations};
use crate::posterior::{container_posterior_row_into_vector, Posterior};
use crate::rfinfer::{
    CacheKeys, CachedVariant, Candidate, DirtySet, EvidenceCache, InferenceOutcome, InferenceStats,
    ObjectRow, RfInfer, SeriesTable, CANDIDATE_LIMIT, MAX_CACHED_VARIANTS, MAX_ITERATIONS,
};
use crate::tag_index::FxBuildHasher;
use rfid_types::{Epoch, LocationId, TagId};
use std::collections::BTreeMap;

/// Sentinel for "no index" in dense `u32` columns.
const NONE_IDX: u32 = u32::MAX;

/// Reusable flat buffers of the dense solver: the interning arena, the
/// candidate/weight/epoch/member arenas and the reader-set log-likelihood
/// table. Held by [`InferenceEngine`](crate::InferenceEngine) across runs
/// (and by every EM iteration within a run), so the steady state reuses
/// capacity instead of reallocating.
///
/// The buffers carry no meaning between runs — every run re-interns from
/// scratch — which is exactly why holding them is safe: a `DenseScratch` can
/// be shared across engines and runs freely.
#[derive(Debug, Default)]
pub struct DenseScratch {
    /// Interned universe: dense index → tag, ascending by `TagId`.
    tags: Vec<TagId>,
    /// Prior-named tags missing from the observation index.
    extras: Vec<TagId>,
    /// Every observed object's `(container, prior weight)` entries,
    /// ascending by container, sliced per object.
    priors: Vec<(TagId, f64)>,
    /// Per-object offset into `priors` (length `objects.len() + 1`).
    prior_start: Vec<u32>,
    /// Reader-set id of every observation, flattened per tag.
    set_ids: Vec<u32>,
    /// Per-tag offset into `set_ids` (length `tags.len() + 1`).
    set_start: Vec<u32>,
    /// Per location, the set id of the one-reader set of that reader (or
    /// `NONE_IDX` until it first occurs).
    single_set: Vec<u32>,
    /// Memoized `(reader set, location) → loglik` rows.
    table: ReaderSetTable,
    /// Dense indices of observed objects, ascending.
    objects: Vec<u32>,
    /// Dense indices of observed containers, ascending.
    all_containers: Vec<u32>,
    /// Dense indices of relevant containers (candidates ∪ observed),
    /// ascending; the slot order of all per-container columns.
    rel: Vec<u32>,
    /// Dense tag index → relevant-container slot (or `NONE_IDX`).
    slot_of: Vec<u32>,
    /// Scratch bitmap over the tag universe.
    mark: Vec<bool>,
    /// Flat candidate container indices per object, in pruned order.
    cand_arena: Vec<u32>,
    /// Per-object offset into `cand_arena` (length `objects.len() + 1`).
    cand_start: Vec<u32>,
    /// Per-object candidate positions sorted by ascending container index —
    /// the argmax iteration order of the `BTreeMap`-keyed reference.
    cand_sorted: Vec<u32>,
    /// Co-location counting scratch for candidate pruning.
    colo_counts: Vec<(u32, usize)>,
    /// Co-location weight rows, aligned with `cand_arena`.
    weights: Vec<f64>,
    /// Prior weights, aligned with `cand_arena` (resolved once per run).
    prior_w: Vec<f64>,
    /// Per-object assigned container index (or `NONE_IDX`).
    assign: Vec<u32>,
    /// The next iteration's assignment.
    new_assign: Vec<u32>,
    /// Needed-epoch arena, sliced per relevant-container slot.
    epochs_arena: Vec<Epoch>,
    /// Per-slot offset into `epochs_arena` (length `rel.len() + 1`).
    epochs_start: Vec<u32>,
    /// Per-slot point count: the observations of every object naming the
    /// slot's container a candidate.
    points: Vec<u32>,
    /// Each slot's needed epochs as `(slot, epoch)` pairs in epoch order,
    /// before the counting sort by slot.
    slot_epochs: Vec<(u32, Epoch)>,
    /// Per slot, the last epoch it kept during the needed-epoch walk.
    last_kept: Vec<Option<Epoch>>,
    /// Member arena (object tag indices), sliced per slot.
    member_arena: Vec<u32>,
    /// Per-slot offset into `member_arena` (length `rel.len() + 1`).
    member_start: Vec<u32>,
    /// Per-slot fill cursors for the counting sorts.
    slot_fill: Vec<u32>,
    /// Per-member observation cursors of the current container walk.
    cursors: Vec<u32>,
    /// Sorted invalid epochs of the current container (dirty union).
    invalid: Vec<Epoch>,
    /// One probability row, reused by every in-place
    /// normalization that only needs the MAP location (no `Posterior`
    /// allocation per epoch).
    row_scratch: Vec<f64>,
    /// Gathered weights of one argmax scan, in
    /// ascending-container (`cand_sorted`) order.
    argmax_buf: Vec<f64>,
    /// Per-reader-set location bitmasks, `ceil(locations / 64)` words per
    /// set (bit `r % 64` of word `r / 64` set when reader `r` fired).
    set_masks: Vec<u64>,
    /// Container observation events `(epoch,
    /// all-containers position, reader-set id)`, epoch-sorted.
    colo_cont_events: Vec<(Epoch, u32, u32)>,
    /// Object observation events `(epoch, object
    /// position, reader-set id)`, epoch-sorted.
    colo_obj_events: Vec<(Epoch, u32, u32)>,
    /// Object × container co-location count matrix,
    /// row-major by object position.
    colo_matrix: Vec<u32>,
    /// The fresh point-evidence dots of one M-step lane: `(observation
    /// position, posterior row)`, in epoch order.
    fresh: Vec<(u32, u32)>,
    /// Per observation of the M-step's current object, whether the dirty
    /// journal names its epoch; empty when the object has no dirty epoch.
    dirty_at: Vec<bool>,
    /// Per-epoch bucket offsets of the co-location counting sort.
    epoch_buckets: Vec<u32>,
}

/// Largest epoch span whose observations [`fill_by_epoch`] buckets by epoch
/// offset; a store spanning more is comparison-sorted instead. Spans are
/// bounded by the retained history.
const EPOCH_SPAN_GUARD: usize = 1 << 24;

/// A previous run's cached variant, its members re-interned into this run's
/// indices (its series stay keyed by tag).
struct PrevVariant {
    members: Vec<u32>,
    epochs: Vec<Epoch>,
    qrows: Vec<f64>,
    evidence: SeriesTable,
}

/// Working state of one container during a dense EM run — the columnar
/// mirror of the reference solver's `Variant`.
struct DVariant {
    members: Vec<u32>,
    updated_iter: usize,
    /// Epochs of the per-epoch posteriors, ascending.
    epochs: Vec<Epoch>,
    /// Posterior probability rows, concatenated in epoch order (row width =
    /// number of locations) — one arena per variant, so the M-step lanes and
    /// the outcome builder stream rows instead of chasing per-posterior
    /// allocations.
    qrows: Vec<f64>,
    /// Epochs whose posterior was moved bitwise out of the previous run;
    /// left empty when `fully_reused` says that is every epoch.
    reused: Vec<Epoch>,
    fully_reused: bool,
    /// The matched previous-run variant's series.
    prev_evidence: SeriesTable,
    /// This run's series: `(object index, start in columns)`, pushed in
    /// ascending object order.
    series: Vec<(u32, u32)>,
    /// This run's columns of point evidence, back to back, one per entry of
    /// `series`: one `e_co(t)` per observation of the object, in epoch
    /// order. Sized up front for every object naming the container.
    columns: Vec<f64>,
}

/// What every M-step lane of one object reads.
struct LaneInputs<'a> {
    object: TagId,
    obs: &'a [ObsAt],
    /// Reader-set id of each observation.
    sets: &'a [u32],
    /// Per observation, whether the dirty journal names its epoch; empty
    /// when no epoch of the object is dirty.
    dirty_at: &'a [bool],
    /// No dirty epoch at all. A tag marked dirty without epochs (an
    /// imported prior) is clean: priors enter the weight fresh every run,
    /// never through a series.
    clean: bool,
    table: &'a ReaderSetTable,
    num_locations: usize,
}

/// The run-scoped interner of multi-reader sets: reader list → dense set
/// id.
#[expect(
    clippy::disallowed_types,
    reason = "names an explicit deterministic hasher and is never iterated: interned ids depend only on insertion order"
)]
type ReaderSetInterner<'a> = std::collections::HashMap<&'a [LocationId], u32, FxBuildHasher>;

/// Where `object`'s column starts in a variant's `columns`, if this run
/// stored one.
fn find_column(series: &[(u32, u32)], object: u32) -> Option<usize> {
    series
        .binary_search_by_key(&object, |e| e.0)
        .ok()
        .map(|i| series[i].1 as usize)
}

/// Append one (object, candidate) lane's column of point evidence to the
/// variant's `columns` and return where it starts. The rule is the
/// reference's, epoch by epoch: a value is reused from the previous run's
/// series where the posterior at its epoch was reused, the object is not
/// dirty there and the series holds the epoch; every other value is one
/// fresh dot, and all of the lane's fresh dots run in one
/// [`kernels::dot_each`] call, written in place. When every posterior was
/// reused and the object is clean, the previous series is the column whole.
/// A lane with no previous series skips the reuse cursors.
fn fill_lane(
    v: &mut DVariant,
    oi: u32,
    o: &LaneInputs<'_>,
    fresh: &mut Vec<(u32, u32)>,
    stats: &mut InferenceStats,
) -> usize {
    let start = v.columns.len();
    let prev = v.prev_evidence.get(o.object);
    if let Some((epochs, values)) = prev.filter(|_| v.fully_reused && o.clean) {
        debug_assert!(epochs.iter().eq(o.obs.iter().map(|obs_at| &obs_at.epoch)));
        stats.evidence_reused += values.len();
        v.columns.extend_from_slice(values);
        v.series.push((oi, start as u32));
        return start;
    }
    v.columns.resize(start + o.obs.len(), 0.0);
    let column = &mut v.columns[start..];
    let posteriors = &v.epochs;
    fresh.clear();
    // A candidate's posterior epochs hold every epoch its objects were
    // observed at, so the row cursor always lands on the observation's.
    let mut q = 0usize;
    let mut row_of = |t: Epoch| {
        while posteriors[q] < t {
            q += 1;
        }
        debug_assert_eq!(posteriors[q], t);
        q as u32
    };
    match prev {
        None => {
            for (pos, obs_at) in o.obs.iter().enumerate() {
                fresh.push((pos as u32, row_of(obs_at.epoch)));
            }
        }
        Some((prev_epochs, prev_values)) => {
            // A fully reused variant reused every one of its epochs.
            let reused = if v.fully_reused { &v.epochs } else { &v.reused };
            let (mut r, mut p) = (0usize, 0usize);
            for (pos, obs_at) in o.obs.iter().enumerate() {
                let t = obs_at.epoch;
                let row = row_of(t);
                while r < reused.len() && reused[r] < t {
                    r += 1;
                }
                if reused.get(r) == Some(&t) && o.dirty_at.get(pos) != Some(&true) {
                    while p < prev_epochs.len() && prev_epochs[p] < t {
                        p += 1;
                    }
                    if prev_epochs.get(p) == Some(&t) {
                        stats.evidence_reused += 1;
                        column[pos] = prev_values[p];
                        continue;
                    }
                }
                fresh.push((pos as u32, row));
            }
        }
    }
    stats.evidence_computed += fresh.len();
    let (qrows, nl) = (&v.qrows, o.num_locations);
    kernels::dot_each(
        fresh.len(),
        |i| {
            let (pos, row) = fresh[i];
            let at = row as usize * nl;
            (&qrows[at..at + nl], o.table.row(o.sets[pos as usize]))
        },
        |i, e| column[fresh[i].0 as usize] = e,
    );
    v.series.push((oi, start as u32));
    start
}

/// Counting-sort the current assignment into per-slot member lists
/// (`member_start` / `member_arena`, object tag indices ascending per slot —
/// the reference solver's iteration order over its assignment map). Shared
/// by the EM loop and the outcome builder, whose member sets must be built
/// identically for the bit-identity contract to hold. Takes the scratch
/// columns individually so callers can keep disjoint borrows (e.g. loglik
/// rows) alive across the call.
fn count_members(
    assign: &[u32],
    objects: &[u32],
    slot_of: &[u32],
    slot_fill: &mut Vec<u32>,
    member_start: &mut Vec<u32>,
    member_arena: &mut Vec<u32>,
    num_rel: usize,
) {
    let num_objects = objects.len();
    slot_fill.clear();
    slot_fill.resize(num_rel, 0);
    for k in 0..num_objects {
        if assign[k] != NONE_IDX {
            slot_fill[slot_of[assign[k] as usize] as usize] += 1;
        }
    }
    member_start.clear();
    let mut total = 0u32;
    for slot in 0..num_rel {
        member_start.push(total);
        total += slot_fill[slot];
        slot_fill[slot] = member_start[slot];
    }
    member_start.push(total);
    member_arena.clear();
    member_arena.resize(total as usize, 0);
    for k in 0..num_objects {
        if assign[k] != NONE_IDX {
            let slot = slot_of[assign[k] as usize] as usize;
            member_arena[slot_fill[slot] as usize] = objects[k];
            slot_fill[slot] += 1;
        }
    }
}

/// Argmax over one object's weight row, iterating candidates in ascending
/// container order with later ties winning — the reference's `BTreeMap`
/// iteration + `max_by` semantics. `range` is the object's flat candidate
/// range; the weights are gathered in `cand_sorted` order into a reusable
/// buffer and scanned with the chunked [`kernels::argmax_ties_last`]. Returns
/// the winning container index.
fn argmax_weight(
    cand_sorted: &[u32],
    cand_arena: &[u32],
    weights: &[f64],
    range: std::ops::Range<usize>,
    buf: &mut Vec<f64>,
) -> u32 {
    buf.clear();
    buf.extend(
        cand_sorted[range.clone()]
            .iter()
            .map(|&p| weights[range.start + p as usize]),
    );
    kernels::argmax_ties_last(buf)
        .map(|i| cand_arena[range.start + cand_sorted[range.start + i] as usize])
        .unwrap_or(NONE_IDX)
}

/// Epoch-indexed co-location counting for candidate pruning: instead of one
/// merge-join per (object, container) pair — the reference's
/// [`Observations::colocation_counts_into`](crate::Observations::colocation_counts_into)
/// walk, quadratic in the tag universe — group *all* observation events by
/// epoch once and touch only the (object, container) pairs that actually
/// share an epoch.
/// Reader-set overlap is resolved through per-set location bitmasks of
/// `ceil(locations / 64)` words (`any shared reader` ⇔ `mask ∩ mask ≠ ∅`,
/// exact for every reader id), so the resulting counts equal the
/// reference's exactly.
///
/// Fills `s.colo_matrix` row-major by object position over
/// `s.all_containers` columns.
fn fill_colocation_matrix(
    s: &mut DenseScratch,
    obs_of: &[&[ObsAt]],
    set_readers: &[&[LocationId]],
    num_locations: usize,
) {
    // Per-set location masks. Every reader indexes the loglik table, so
    // every reader id is below `num_locations`.
    let words = num_locations.div_ceil(64);
    s.set_masks.clear();
    s.set_masks.resize(set_readers.len() * words, 0);
    for (set, readers) in set_readers.iter().enumerate() {
        for r in *readers {
            s.set_masks[set * words + r.index() / 64] |= 1 << (r.index() % 64);
        }
    }

    // Epoch-sorted event lists, containers and objects separately.
    let (sets, starts) = (&s.set_ids[..], &s.set_start[..]);
    let buckets = &mut s.epoch_buckets;
    fill_by_epoch(
        &mut s.colo_cont_events,
        &s.all_containers,
        obs_of,
        sets,
        starts,
        buckets,
    );
    fill_by_epoch(
        &mut s.colo_obj_events,
        &s.objects,
        obs_of,
        sets,
        starts,
        buckets,
    );

    // Lockstep walk over shared epochs; each co-located (object, container)
    // event pair bumps one matrix cell.
    let nc = s.all_containers.len();
    s.colo_matrix.clear();
    s.colo_matrix.resize(s.objects.len() * nc, 0);
    let mask = |set: u32| &s.set_masks[set as usize * words..(set as usize + 1) * words];
    let overlap = |oset: u32, cset: u32| -> bool {
        let (o, c) = (mask(oset), mask(cset));
        o.iter().zip(c).any(|(a, b)| a & b != 0)
    };
    let (objs, conts) = (&s.colo_obj_events, &s.colo_cont_events);
    let (mut i, mut j) = (0usize, 0usize);
    while i < objs.len() && j < conts.len() {
        let t = objs[i].0;
        match t.cmp(&conts[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let i_end = i + objs[i..].iter().take_while(|e| e.0 == t).count();
                let j_end = j + conts[j..].iter().take_while(|e| e.0 == t).count();
                for &(_, kpos, oset) in &objs[i..i_end] {
                    let row = kpos as usize * nc;
                    for &(_, cpos, cset) in &conts[j..j_end] {
                        if overlap(oset, cset) {
                            s.colo_matrix[row + cpos as usize] += 1;
                        }
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
}

/// Fill `events` with `(epoch, position in tags, reader-set id)` for every
/// observation of `tags`, in epoch order: each event goes straight into its
/// epoch's bucket (a counting sort) when the epoch span fits
/// [`EPOCH_SPAN_GUARD`], and the list is comparison-sorted above it. This
/// is the solve's one epoch ordering: co-location's lockstep walk and the
/// needed-epoch walk read these lists, and neither depends on the order
/// within an epoch.
fn fill_by_epoch(
    events: &mut Vec<(Epoch, u32, u32)>,
    tags: &[u32],
    obs_of: &[&[ObsAt]],
    set_ids: &[u32],
    set_start: &[u32],
    buckets: &mut Vec<u32>,
) {
    let lists = || tags.iter().map(|&i| obs_of[i as usize]);
    let all = tags.iter().enumerate().flat_map(|(pos, &i)| {
        let sets = &set_ids[set_start[i as usize] as usize..];
        let list = obs_of[i as usize].iter().zip(sets);
        list.map(move |(o, &set)| (o.epoch, pos as u32, set))
    });
    events.clear();
    let Some((first, span)) = epoch_span(lists()) else {
        events.extend(all);
        return events.sort_unstable_by_key(|e| e.0);
    };
    // Count each epoch offset into the bucket after its own, then prefix-sum
    // so bucket `i` starts where offset `i` goes.
    buckets.clear();
    buckets.resize(span + 1, 0);
    for o in lists().flatten() {
        buckets[o.epoch.since(first) as usize + 1] += 1;
    }
    for i in 1..buckets.len() {
        buckets[i] += buckets[i - 1];
    }
    events.resize(buckets[span] as usize, (Epoch(0), 0, 0));
    for event in all {
        let at = &mut buckets[event.0.since(first) as usize];
        events[*at as usize] = event;
        *at += 1;
    }
}

/// The earliest epoch of `lists` (each epoch-sorted, so its ends bound it)
/// and the number of epochs from it to the latest, or `None` when that span
/// exceeds [`EPOCH_SPAN_GUARD`] and the epoch buckets give way to a sort.
/// No observation at all is a span of 0 from epoch 0.
fn epoch_span<'a>(lists: impl Iterator<Item = &'a [ObsAt]>) -> Option<(Epoch, usize)> {
    let mut ends: Option<(Epoch, Epoch)> = None;
    for list in lists {
        if let (Some(a), Some(b)) = (list.first(), list.last()) {
            ends = Some(ends.map_or((a.epoch, b.epoch), |(lo, hi)| {
                (lo.min(a.epoch), hi.max(b.epoch))
            }));
        }
    }
    let Some((first, last)) = ends else {
        return Some((Epoch(0), 0));
    };
    let span = last.since(first) as usize + 1;
    (span <= EPOCH_SPAN_GUARD).then_some((first, span))
}

/// Intern every distinct reader set of `obs_of` (one observation list per
/// tag) into `s.set_ids` / `s.set_start` and fill `s.table` with one loglik
/// row per set. Returns the sets in id order. Ids are given in order of
/// first occurrence. Most sets hold one reader: those take their id from a
/// per-location array, and only the others are hashed. A row is a function
/// of its reader set alone, so the interning order never changes a value.
fn intern_reader_sets<'o>(
    model: &LikelihoodModel,
    obs_of: &[&'o [ObsAt]],
    s: &mut DenseScratch,
) -> Vec<&'o [LocationId]> {
    s.set_ids.clear();
    s.set_start.clear();
    s.single_set.clear();
    s.single_set.resize(model.num_locations(), NONE_IDX);
    let mut set_readers: Vec<&[LocationId]> = Vec::new();
    let mut interner = ReaderSetInterner::default();
    for list in obs_of {
        s.set_start.push(s.set_ids.len() as u32);
        for o in *list {
            let readers = o.readers.as_slice();
            let next = set_readers.len() as u32;
            let id = match readers {
                // Every reader indexes the loglik table, so every reader id
                // is below `num_locations`.
                [one] => {
                    let id = &mut s.single_set[one.index()];
                    if *id == NONE_IDX {
                        *id = next;
                    }
                    *id
                }
                _ => *interner.entry(readers).or_insert(next),
            };
            if id == next {
                set_readers.push(readers);
            }
            s.set_ids.push(id);
        }
    }
    s.set_start.push(s.set_ids.len() as u32);
    model.fill_reader_set_table_vector(set_readers.iter().copied(), &mut s.table);
    set_readers
}

/// Recompute the values of the cache whose keys a checkpoint kept, from the
/// restored store: each posterior row through the E-step's
/// [`container_posterior_row_into_vector`] (base row, then the members in
/// key order), and each object's series as one [`kernels::dot_each`] dot
/// per observed epoch of the object among the variant's epochs — the rows
/// and dots a run computes.
///
/// Where the store is as it was when the run cached a value, the
/// recomputed value is that value, bit for bit. Where it is not, the
/// difference is in the dirty journal, and no run reuses a value at a
/// journaled epoch. So under the keys the engine cached itself, the next run
/// reuses what an engine that never stopped would, with the same bits and
/// the same [`InferenceStats`]. Under any other keys a reused value still
/// equals a fresh computation over the store the run sees, so the outcome
/// does not change; only the reuse counters do.
pub(crate) fn rebuild_cache(
    keys: &CacheKeys,
    model: &LikelihoodModel,
    store: &Observations,
    s: &mut DenseScratch,
) -> EvidenceCache {
    let nl = model.num_locations();
    s.tags.clear();
    let mut obs_of: Vec<&[ObsAt]> = Vec::new();
    for (tag, list) in store.entries() {
        s.tags.push(tag);
        obs_of.push(list);
    }
    intern_reader_sets(model, &obs_of, s);
    let s = &*s;
    // The reader-set id of every observation of `tag`, beside its epoch.
    let observed = |tag: TagId| {
        let at = s.tags.binary_search(&tag).ok();
        let list = at.map_or(&[][..], |i| obs_of[i]);
        let sets = at.map_or(&[][..], |i| &s.set_ids[s.set_start[i] as usize..]);
        list.iter().map(|o| o.epoch).zip(sets.iter().copied())
    };
    // The loglik row of `tag` at `t`: its reader set's, or the all-miss row.
    let row_at = |tag: TagId, t: Epoch| -> &[f64] {
        let Ok(i) = s.tags.binary_search(&tag) else {
            return model.all_miss_row();
        };
        match obs_of[i].binary_search_by_key(&t, |o| o.epoch) {
            Ok(pos) => s.table.row(s.set_ids[s.set_start[i] as usize + pos]),
            Err(_) => model.all_miss_row(),
        }
    };
    let mut member_rows: Vec<&[f64]> = Vec::new();
    let mut pending: Vec<(Epoch, usize, u32)> = Vec::new();
    let mut column: Vec<f64> = Vec::new();
    let mut containers = BTreeMap::new();
    for (container, variants) in keys.containers() {
        let mut rebuilt = Vec::with_capacity(variants.len());
        for key in variants {
            let mut qrows = Vec::with_capacity(key.epochs.len() * nl);
            for &t in &key.epochs {
                member_rows.clear();
                member_rows.extend(key.members.iter().map(|&m| row_at(m, t)));
                container_posterior_row_into_vector(
                    row_at(container, t),
                    member_rows.iter().copied(),
                    &mut qrows,
                );
            }
            let mut evidence = SeriesTable::default();
            for &object in &key.objects {
                pending.clear();
                for (t, set) in observed(object) {
                    if let Ok(at) = key.epochs.binary_search(&t) {
                        pending.push((t, at, set));
                    }
                }
                column.clear();
                column.resize(pending.len(), 0.0);
                kernels::dot_each(
                    pending.len(),
                    |i| {
                        let (_, at, set) = pending[i];
                        (&qrows[at * nl..(at + 1) * nl], s.table.row(set))
                    },
                    |i, e| column[i] = e,
                );
                let epochs = pending.iter().map(|&(t, _, _)| t);
                evidence.push(object, epochs.zip(column.iter().copied()));
            }
            rebuilt.push(CachedVariant {
                members: key.members.clone(),
                epochs: key.epochs.clone(),
                qrows,
                evidence,
            });
        }
        containers.insert(container, rebuilt);
    }
    EvidenceCache { containers }
}

/// The solve's set-up, run in full every run: intern the tag universe and
/// every reader set (filling the loglik table), select each object's
/// candidates with their prior weights, pick the initial assignment, slot
/// the relevant containers and fill each slot's needed epochs. Returns the
/// observation list of every interned tag (empty for prior-only extras).
fn set_up<'o>(rf: &RfInfer<'o>, s: &mut DenseScratch) -> Vec<&'o [ObsAt]> {
    let model = rf.model;
    let obs = rf.obs;
    let prior = rf.prior;

    // ---- Interning pass: tags ----------------------------------------
    // The universe is every observed tag plus every container the prior
    // names for an observed object (they become candidates even when never
    // read locally). Observed tags arrive ascending; extras are merged in.
    // Each observed object's priors are resolved here, once, ascending by
    // container.
    s.tags.clear();
    s.extras.clear();
    s.priors.clear();
    s.prior_start.clear();
    for (tag, _) in obs.entries() {
        s.tags.push(tag);
        if tag.is_object() {
            s.prior_start.push(s.priors.len() as u32);
            for (c, w) in prior.entries_for(tag) {
                s.priors.push((c, w));
                if s.tags.binary_search(&c).is_err() {
                    s.extras.push(c);
                }
            }
        }
    }
    s.prior_start.push(s.priors.len() as u32);
    if !s.extras.is_empty() {
        s.tags.append(&mut s.extras);
        s.tags.sort_unstable();
        s.tags.dedup();
    }
    let num_tags = s.tags.len();

    // Per-tag observation slices, resolved once (extras have none).
    let mut obs_of: Vec<&[ObsAt]> = Vec::with_capacity(num_tags);
    {
        let mut entries = obs.entries().peekable();
        for &tag in &s.tags {
            match entries.peek() {
                Some(&(t, slice)) if t == tag => {
                    obs_of.push(slice);
                    entries.next();
                }
                _ => obs_of.push(&[]),
            }
        }
    }

    // ---- Interning pass: reader sets + loglik table ------------------
    let set_readers = intern_reader_sets(model, &obs_of, s);

    // ---- Objects / containers ----------------------------------------
    s.objects.clear();
    s.all_containers.clear();
    for (i, &tag) in s.tags.iter().enumerate() {
        if obs_of[i].is_empty() {
            continue; // prior-only extras are candidates, never objects
        }
        if tag.is_object() {
            s.objects.push(i as u32);
        } else if tag.is_container() {
            s.all_containers.push(i as u32);
        }
    }
    let num_objects = s.objects.len();
    debug_assert_eq!(s.prior_start.len(), num_objects + 1);

    // ---- Candidate pruning -------------------------------------------
    // One epoch-indexed counting pass over all observation events replaces
    // the reference's per-(object, container) merge joins; the counts — and
    // therefore the selected candidates — are identical.
    fill_colocation_matrix(s, &obs_of, &set_readers, model.num_locations());
    s.cand_arena.clear();
    s.cand_start.clear();
    s.prior_w.clear();
    let nc = s.all_containers.len();
    for k in 0..num_objects {
        s.cand_start.push(s.cand_arena.len() as u32);
        let start = s.cand_arena.len();
        s.colo_counts.clear();
        for cpos in 0..nc {
            let count = s.colo_matrix[k * nc + cpos];
            if count > 0 {
                s.colo_counts.push((s.all_containers[cpos], count as usize));
            }
        }
        s.colo_counts
            .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        s.cand_arena
            .extend(s.colo_counts.iter().take(CANDIDATE_LIMIT).map(|&(c, _)| c));
        let priors = &s.priors[s.prior_start[k] as usize..s.prior_start[k + 1] as usize];
        for &(c, _) in priors {
            let ci = s.tags.binary_search(&c).expect("prior tags interned") as u32;
            if !s.cand_arena[start..].contains(&ci) {
                s.cand_arena.push(ci);
            }
        }
        // The prior weight of every candidate: the object's own entry for
        // the container, zero without one.
        for &ci in &s.cand_arena[start..] {
            let c = s.tags[ci as usize];
            let at = priors.binary_search_by_key(&c, |&(c, _)| c);
            s.prior_w.push(at.map_or(0.0, |at| priors[at].1));
        }
    }
    s.cand_start.push(s.cand_arena.len() as u32);

    // Candidate positions (relative to each object's range) sorted by
    // ascending container index — the tie ordering of the reference
    // solver's `BTreeMap` argmax walks.
    s.cand_sorted.clear();
    for k in 0..num_objects {
        let start = s.cand_start[k] as usize;
        let end = s.cand_start[k + 1] as usize;
        s.cand_sorted.extend(0..(end - start) as u32);
        let arena = &s.cand_arena;
        s.cand_sorted[start..end].sort_unstable_by_key(|&p| arena[start + p as usize]);
    }

    // ---- Initial assignment ------------------------------------------
    // Strongest prior if any (later candidates win ties, like the
    // reference's `max_by`), otherwise the top-ranked candidate.
    s.assign.clear();
    s.assign.resize(num_objects, NONE_IDX);
    s.new_assign.clear();
    s.new_assign.resize(num_objects, NONE_IDX);
    for k in 0..num_objects {
        let range = s.cand_start[k] as usize..s.cand_start[k + 1] as usize;
        if range.is_empty() {
            continue;
        }
        let mut best: Option<(u32, f64)> = None;
        for flat in range.clone() {
            let w = s.prior_w[flat];
            if w != 0.0 && best.is_none_or(|(_, bw)| w >= bw) {
                best = Some((s.cand_arena[flat], w));
            }
        }
        s.assign[k] = best.map(|(ci, _)| ci).unwrap_or(s.cand_arena[range.start]);
    }

    // ---- Relevant containers + slots ---------------------------------
    s.mark.clear();
    s.mark.resize(num_tags, false);
    for &ci in &s.cand_arena {
        s.mark[ci as usize] = true;
    }
    for &ci in &s.all_containers {
        s.mark[ci as usize] = true;
    }
    s.rel.clear();
    s.slot_of.clear();
    s.slot_of.resize(num_tags, NONE_IDX);
    for i in 0..num_tags {
        if s.mark[i] {
            s.slot_of[i] = s.rel.len() as u32;
            s.rel.push(i as u32);
        }
    }

    fill_needed_epochs(s, &obs_of);
    obs_of
}

/// Fill every relevant-container slot's needed epochs — the ascending union
/// of the container's own observed epochs and those of every object naming
/// it a candidate, the set-union of the reference — into `epochs_arena`,
/// sliced by `epochs_start`, and its point count (the observations of
/// those objects) into `points`.
///
/// The epochs come off the epoch-sorted event lists co-location built. The
/// container and object events are walked together in epoch order; a
/// container event goes to its own slot and an object event to the slots of
/// its candidates, and a slot keeps an epoch only when it differs from the
/// last one the slot kept. Each slot's epochs so arrive ascending and
/// distinct, and one counting sort by slot lays them out.
fn fill_needed_epochs(s: &mut DenseScratch, obs_of: &[&[ObsAt]]) {
    let num_rel = s.rel.len();
    let (cand_arena, cand_start) = (&s.cand_arena, &s.cand_start);
    let candidates = |k: usize| &cand_arena[cand_start[k] as usize..cand_start[k + 1] as usize];
    s.points.clear();
    s.points.resize(num_rel, 0);
    for (k, &oi) in s.objects.iter().enumerate() {
        for &ci in candidates(k) {
            s.points[s.slot_of[ci as usize] as usize] += obs_of[oi as usize].len() as u32;
        }
    }

    // Each slot's distinct epochs as `(slot, epoch)` pairs, in epoch order,
    // counted per slot into the entry after the slot's own.
    s.last_kept.clear();
    s.last_kept.resize(num_rel, None);
    s.slot_epochs.clear();
    s.epochs_start.clear();
    s.epochs_start.resize(num_rel + 1, 0);
    let mut keep = |slot: u32, t: Epoch| {
        let last = &mut s.last_kept[slot as usize];
        if *last != Some(t) {
            *last = Some(t);
            s.slot_epochs.push((slot, t));
            s.epochs_start[slot as usize + 1] += 1;
        }
    };
    let (objs, conts) = (&s.colo_obj_events, &s.colo_cont_events);
    let (mut i, mut j) = (0usize, 0usize);
    while i < objs.len() || j < conts.len() {
        if j == conts.len() || (i < objs.len() && objs[i].0 <= conts[j].0) {
            let (t, k, _) = objs[i];
            for &ci in candidates(k as usize) {
                keep(s.slot_of[ci as usize], t);
            }
            i += 1;
        } else {
            let (t, cpos, _) = conts[j];
            keep(s.slot_of[s.all_containers[cpos as usize] as usize], t);
            j += 1;
        }
    }

    for slot in 0..num_rel {
        s.epochs_start[slot + 1] += s.epochs_start[slot];
    }
    s.slot_fill.clear();
    s.slot_fill.extend_from_slice(&s.epochs_start[..num_rel]);
    s.epochs_arena.clear();
    s.epochs_arena.resize(s.slot_epochs.len(), Epoch(0));
    for &(slot, t) in &s.slot_epochs {
        let at = &mut s.slot_fill[slot as usize];
        s.epochs_arena[*at as usize] = t;
        *at += 1;
    }
}

/// Run the dense-interned EM. Control flow and floating-point summation
/// order mirror the reference solver's exactly; see the module docs.
pub(crate) fn run_dense(
    rf: &RfInfer<'_>,
    cache: &mut EvidenceCache,
    dirty: &DirtySet,
    scratch: &mut DenseScratch,
) -> (InferenceOutcome, InferenceStats) {
    let model = rf.model;
    let nl = model.num_locations();

    let mut stats = InferenceStats {
        dirty_tags: dirty.num_tags(),
        ..InferenceStats::default()
    };
    let prev_cache = std::mem::take(&mut cache.containers);

    let s = &mut *scratch;
    let obs_of = set_up(rf, s);
    let num_objects = s.objects.len();
    let num_rel = s.rel.len();

    // ---- Re-intern the previous run's cache --------------------------
    // Containers or members that left the universe can never match or be
    // requested this run, so variants naming them are dropped — exactly
    // what the reference's `TagId` comparisons would conclude.
    let mut prev_slots: Vec<Vec<PrevVariant>> = Vec::with_capacity(num_rel);
    prev_slots.resize_with(num_rel, Vec::new);
    for (tag, variants) in prev_cache {
        let Ok(ci) = s.tags.binary_search(&tag) else {
            continue;
        };
        let slot = s.slot_of[ci];
        if slot == NONE_IDX {
            continue;
        }
        let converted = &mut prev_slots[slot as usize];
        'variant: for v in variants {
            let mut members = Vec::with_capacity(v.members.len());
            for m in &v.members {
                match s.tags.binary_search(m) {
                    Ok(mi) => members.push(mi as u32),
                    Err(_) => continue 'variant,
                }
            }
            converted.push(PrevVariant {
                members,
                epochs: v.epochs,
                qrows: v.qrows,
                evidence: v.evidence,
            });
        }
    }

    // ---- EM loop ------------------------------------------------------
    s.weights.clear();
    s.weights.resize(s.cand_arena.len(), 0.0);
    let mut current: Vec<Option<DVariant>> = Vec::with_capacity(num_rel);
    current.resize_with(num_rel, || None);
    let mut retired: Vec<Vec<DVariant>> = Vec::with_capacity(num_rel);
    retired.resize_with(num_rel, Vec::new);
    let mut member_rows: Vec<&[f64]> = Vec::new();
    let mut iterations = 0;
    for iter in 0..MAX_ITERATIONS {
        iterations = iter + 1;

        // Members per container from the current assignment.
        count_members(
            &s.assign,
            &s.objects,
            &s.slot_of,
            &mut s.slot_fill,
            &mut s.member_start,
            &mut s.member_arena,
            num_rel,
        );

        // E-step (Eq. 4) over every relevant container.
        for slot in 0..num_rel {
            let ci = s.rel[slot];
            let members =
                &s.member_arena[s.member_start[slot] as usize..s.member_start[slot + 1] as usize];
            if current[slot].as_ref().is_some_and(|v| v.members == members) {
                continue;
            }
            if let Some(old) = current[slot].take() {
                retired[slot].push(old);
            }
            // Cross-run reuse: match the previous run's variant with the
            // same member set (consumed on match, like the reference).
            let matched = prev_slots[slot]
                .iter()
                .position(|v| v.members == members)
                .map(|i| prev_slots[slot].swap_remove(i));
            let (prev_epochs, prev_qrows, prev_evidence) = match matched {
                Some(v) => (v.epochs, v.qrows, v.evidence),
                None => (Vec::new(), Vec::new(), SeriesTable::default()),
            };
            // Dirty union over the container and its members, clamped to
            // the cached horizon.
            s.invalid.clear();
            if !prev_epochs.is_empty() {
                dirty.union_for_until(
                    std::iter::once(s.tags[ci as usize])
                        .chain(members.iter().map(|&m| s.tags[m as usize])),
                    prev_epochs.last().copied(),
                    &mut s.invalid,
                );
            }
            let needed =
                &s.epochs_arena[s.epochs_start[slot] as usize..s.epochs_start[slot + 1] as usize];
            // One point per observation of every object naming the
            // container.
            let points = s.points[slot] as usize;
            // Whole-variant fast path, same condition as the reference.
            let fully_reused = !prev_epochs.is_empty()
                && prev_epochs.as_slice() == needed
                && s.invalid
                    .iter()
                    .all(|t| prev_epochs.binary_search(t).is_err());
            if fully_reused {
                stats.posteriors_reused += prev_epochs.len();
                current[slot] = Some(DVariant {
                    members: members.to_vec(),
                    updated_iter: iter,
                    epochs: prev_epochs,
                    qrows: prev_qrows,
                    reused: Vec::new(),
                    fully_reused: true,
                    prev_evidence,
                    series: Vec::new(),
                    columns: Vec::with_capacity(points),
                });
                continue;
            }
            // Per-epoch path: walk the sorted needed epochs in lockstep
            // with the previous variant, the invalid set and every
            // involved tag's observation list (one cursor each — no
            // binary search per epoch).
            let mut epochs_vec: Vec<Epoch> = Vec::with_capacity(needed.len());
            let mut qrows: Vec<f64> = Vec::with_capacity(needed.len() * nl);
            let mut reused_vec: Vec<Epoch> = Vec::new();
            let mut prev_cur = 0usize;
            let mut invalid_cur = 0usize;
            let own = obs_of[ci as usize];
            let own_sets = &s.set_ids
                [s.set_start[ci as usize] as usize..s.set_start[ci as usize + 1] as usize];
            let mut own_cur = 0usize;
            s.cursors.clear();
            s.cursors.resize(members.len(), 0);
            for &t in needed {
                while prev_cur < prev_epochs.len() && prev_epochs[prev_cur] < t {
                    prev_cur += 1;
                }
                while invalid_cur < s.invalid.len() && s.invalid[invalid_cur] < t {
                    invalid_cur += 1;
                }
                let hit =
                    s.invalid.get(invalid_cur) != Some(&t) && prev_epochs.get(prev_cur) == Some(&t);
                if hit {
                    // The cached row's bits move into the new arena verbatim.
                    stats.posteriors_reused += 1;
                    reused_vec.push(t);
                    qrows.extend_from_slice(&prev_qrows[prev_cur * nl..(prev_cur + 1) * nl]);
                } else {
                    stats.posteriors_computed += 1;
                    while own_cur < own.len() && own[own_cur].epoch < t {
                        own_cur += 1;
                    }
                    let base_row = if own_cur < own.len() && own[own_cur].epoch == t {
                        s.table.row(own_sets[own_cur])
                    } else {
                        model.all_miss_row()
                    };
                    member_rows.clear();
                    for (mi, &m) in members.iter().enumerate() {
                        let list = obs_of[m as usize];
                        let mut cur = s.cursors[mi] as usize;
                        while cur < list.len() && list[cur].epoch < t {
                            cur += 1;
                        }
                        s.cursors[mi] = cur as u32;
                        member_rows.push(if cur < list.len() && list[cur].epoch == t {
                            s.table
                                .row(s.set_ids[s.set_start[m as usize] as usize + cur])
                        } else {
                            model.all_miss_row()
                        });
                    }
                    // The posterior normalizes directly onto the arena tail —
                    // no per-posterior allocation.
                    container_posterior_row_into_vector(
                        base_row,
                        member_rows.iter().copied(),
                        &mut qrows,
                    );
                }
                epochs_vec.push(t);
            }
            current[slot] = Some(DVariant {
                members: members.to_vec(),
                updated_iter: iter,
                epochs: epochs_vec,
                qrows,
                reused: reused_vec,
                fully_reused: false,
                prev_evidence,
                series: Vec::new(),
                columns: Vec::with_capacity(points),
            });
        }

        // M-step (Eq. 5): weight rows and the new assignment.
        for k in 0..num_objects {
            let oi = s.objects[k];
            let range = s.cand_start[k] as usize..s.cand_start[k + 1] as usize;
            if range.is_empty() {
                s.new_assign[k] = NONE_IDX;
                continue;
            }
            // Stable-object fast path: every candidate variant untouched
            // this iteration ⇒ last iteration's weight row is
            // bit-identical; re-derive only the argmax, in ascending
            // container order.
            if iter > 0 {
                let untouched = s.cand_arena[range.clone()].iter().all(|&ci| {
                    current[s.slot_of[ci as usize] as usize]
                        .as_ref()
                        .is_none_or(|v| v.updated_iter < iter)
                });
                if untouched {
                    s.new_assign[k] = argmax_weight(
                        &s.cand_sorted,
                        &s.cand_arena,
                        &s.weights,
                        range,
                        &mut s.argmax_buf,
                    );
                    continue;
                }
            }
            // Lane by lane: each candidate's weight is its prior plus its
            // column of point evidence summed in epoch order — the column
            // this iteration's variant already holds, or one `fill_lane`
            // appends. Which epochs are dirty is worked out once for all
            // lanes of the object.
            let o_obs = obs_of[oi as usize];
            let o_dirty = dirty.epochs_of(s.tags[oi as usize]).unwrap_or_default();
            s.dirty_at.clear();
            if !o_dirty.is_empty() {
                let mut d = 0usize;
                s.dirty_at.extend(o_obs.iter().map(|obs_at| {
                    while d < o_dirty.len() && o_dirty[d] < obs_at.epoch {
                        d += 1;
                    }
                    o_dirty.get(d) == Some(&obs_at.epoch)
                }));
            }
            let lane = LaneInputs {
                object: s.tags[oi as usize],
                obs: o_obs,
                sets: &s.set_ids
                    [s.set_start[oi as usize] as usize..s.set_start[oi as usize + 1] as usize],
                dirty_at: &s.dirty_at,
                clean: o_dirty.is_empty(),
                table: &s.table,
                num_locations: nl,
            };
            for flat in range.clone() {
                let slot = s.slot_of[s.cand_arena[flat] as usize] as usize;
                let mut w = s.prior_w[flat];
                if let Some(v) = current[slot].as_mut() {
                    let start = match find_column(&v.series, oi) {
                        // Same variant as an earlier iteration: identical
                        // inputs, identical column.
                        Some(start) => {
                            stats.evidence_reused += o_obs.len();
                            start
                        }
                        None => fill_lane(v, oi, &lane, &mut s.fresh, &mut stats),
                    };
                    for &e in &v.columns[start..start + o_obs.len()] {
                        w += e;
                    }
                }
                s.weights[flat] = w;
            }
            s.new_assign[k] = argmax_weight(
                &s.cand_sorted,
                &s.cand_arena,
                &s.weights,
                range,
                &mut s.argmax_buf,
            );
        }

        let converged = s.new_assign == s.assign;
        s.assign.copy_from_slice(&s.new_assign);
        if converged {
            break;
        }
    }

    // ---- Run boundary: fill the outcome arenas ------------------------
    let outcome = build_outcome(rf, s, &obs_of, &current, iterations, &mut stats);

    // Refill the cache: the final variant of every container first, then
    // recently retired ones (most recent first), deduplicated by member
    // set and capped — the reference's policy, converted at the boundary.
    let mut containers = BTreeMap::new();
    for (slot, variant) in current.into_iter().enumerate() {
        let Some(variant) = variant else {
            continue;
        };
        let mut chosen: Vec<DVariant> = vec![variant];
        for candidate in retired[slot].drain(..).rev() {
            if chosen.len() >= MAX_CACHED_VARIANTS {
                break;
            }
            if chosen.iter().all(|v| v.members != candidate.members) {
                chosen.push(candidate);
            }
        }
        // A variant's columns become its cached table's values as they
        // are; each series' epochs are its object's observed epochs.
        let variants: Vec<CachedVariant> = chosen
            .into_iter()
            .map(|v| {
                let series = v.series.iter().map(|&(oi, _)| {
                    let own = obs_of[oi as usize].iter().map(|obs_at| obs_at.epoch);
                    (s.tags[oi as usize], own)
                });
                CachedVariant {
                    members: v.members.iter().map(|&m| s.tags[m as usize]).collect(),
                    epochs: v.epochs,
                    qrows: v.qrows,
                    evidence: SeriesTable::from_values(v.columns, series),
                }
            })
            .collect();
        containers.insert(s.tags[s.rel[slot] as usize], variants);
    }
    cache.containers = containers;
    (outcome, stats)
}

/// Build the outcome from the dense EM state — the only place interned
/// indices are translated back. Every arena is appended in row order:
/// candidate slots in ascending container order (the `cand_sorted` order)
/// with their final weights, each row's observed epochs, each slot's column
/// of point evidence copied out of its final variant's series, and the
/// location runs in one ascending pass over the tag universe. The candidate,
/// epoch and evidence arenas are sized exactly up front: a row with
/// candidates holds one epoch and one point per candidate per observation.
fn build_outcome(
    rf: &RfInfer<'_>,
    s: &mut DenseScratch,
    obs_of: &[&[ObsAt]],
    current: &[Option<DVariant>],
    iterations: usize,
    stats: &mut InferenceStats,
) -> InferenceOutcome {
    let model = rf.model;
    let nl = model.num_locations();
    let num_objects = s.objects.len();
    let num_rel = s.rel.len();
    let sizes = (0..num_objects).map(|k| {
        let candidates = (s.cand_start[k + 1] - s.cand_start[k]) as usize;
        (candidates, obs_of[s.objects[k] as usize].len())
    });
    let epochs = sizes.clone().map(|(c, n)| usize::from(c > 0) * n).sum();
    let points = sizes.map(|(c, n)| c * n).sum();
    let mut out = InferenceOutcome {
        objects: Vec::with_capacity(num_objects),
        candidates: Vec::with_capacity(s.cand_arena.len()),
        ranked: vec![0; s.cand_arena.len()],
        epochs: Vec::with_capacity(epochs),
        evidence: Vec::with_capacity(points),
        iterations,
        num_locations: nl,
        ..InferenceOutcome::default()
    };
    for k in 0..num_objects {
        let oi = s.objects[k];
        let range = s.cand_start[k] as usize..s.cand_start[k + 1] as usize;
        let base = out.candidates.len();
        let (start, table) = (out.epochs.len(), out.evidence.len());
        let own = obs_of[oi as usize];
        if !range.is_empty() {
            out.epochs.extend(own.iter().map(|obs_at| obs_at.epoch));
        }
        for (slot, &rank) in s.cand_sorted[range.clone()].iter().enumerate() {
            let flat = range.start + rank as usize;
            let ci = s.cand_arena[flat];
            out.ranked[base + rank as usize] = slot as u32;
            // The final M-step iteration stored every series against the
            // final variant (an object it skipped kept the series of an
            // earlier one against the same variant).
            let variant = current[s.slot_of[ci as usize] as usize]
                .as_ref()
                .expect("every candidate's container has a variant");
            let start = find_column(&variant.series, oi)
                .expect("the M-step stores every candidate's column");
            stats.evidence_reused += own.len();
            out.evidence
                .extend_from_slice(&variant.columns[start..start + own.len()]);
            out.candidates.push(Candidate {
                container: s.tags[ci as usize],
                weight: s.weights[flat],
            });
        }
        let assigned = (s.assign[k] != NONE_IDX).then(|| s.tags[s.assign[k] as usize]);
        out.objects.push(ObjectRow {
            object: s.tags[oi as usize],
            container: assigned,
            assigned,
            slots: (base as u32, out.candidates.len() as u32),
            epochs: (start as u32, out.epochs.len() as u32),
            table: table as u32,
        });
    }

    // Location estimates: containers from their posteriors at informative
    // epochs only; objects with no assigned container from their own
    // readings. Members come from the *final* assignment (it may have moved
    // after the last E-step), recounted into the member arena.
    count_members(
        &s.assign,
        &s.objects,
        &s.slot_of,
        &mut s.slot_fill,
        &mut s.member_start,
        &mut s.member_arena,
        num_rel,
    );
    let mut k = 0usize;
    for (i, &tag) in s.tags.iter().enumerate() {
        let start = out.locations.len();
        let is_row = s.objects.get(k) == Some(&(i as u32));
        let unassigned = is_row && s.assign[k] == NONE_IDX;
        k += usize::from(is_row);
        let slot = s.slot_of[i] as usize;
        let variant = (s.slot_of[i] != NONE_IDX)
            .then(|| current[slot].as_ref())
            .flatten();
        if unassigned {
            // The memoized row *is* the log-weight vector of the object's
            // own posterior: normalize it into the reusable scratch row and
            // take the later-ties-win MAP scan of `Posterior::map_location`.
            let o_sets = &s.set_ids[s.set_start[i] as usize..s.set_start[i + 1] as usize];
            for (obs_at, &set) in obs_of[i].iter().zip(o_sets) {
                s.row_scratch.clear();
                s.row_scratch.extend_from_slice(s.table.row(set));
                kernels::exp_normalize(&mut s.row_scratch);
                out.locations
                    .push((obs_at.epoch, Posterior::map_location_of_row(&s.row_scratch)));
            }
        } else if let Some(variant) = variant {
            let own = obs_of[i];
            let members =
                &s.member_arena[s.member_start[slot] as usize..s.member_start[slot + 1] as usize];
            let mut own_cur = 0usize;
            s.cursors.clear();
            s.cursors.resize(members.len(), 0);
            for (&t, q) in variant.epochs.iter().zip(variant.qrows.chunks_exact(nl)) {
                while own_cur < own.len() && own[own_cur].epoch < t {
                    own_cur += 1;
                }
                let mut informative = own_cur < own.len() && own[own_cur].epoch == t;
                for (mi, &m) in members.iter().enumerate() {
                    let list = obs_of[m as usize];
                    let mut cur = s.cursors[mi] as usize;
                    while cur < list.len() && list[cur].epoch < t {
                        cur += 1;
                    }
                    s.cursors[mi] = cur as u32;
                    if !informative && cur < list.len() && list[cur].epoch == t {
                        informative = true;
                    }
                }
                if informative {
                    // The later-ties-win scan of `Posterior::map_location`,
                    // over the arena row directly.
                    out.locations.push((t, Posterior::map_location_of_row(q)));
                }
            }
        }
        if out.locations.len() > start {
            out.located
                .push((tag, (start as u32, out.locations.len() as u32)));
        }
    }
    // The outcome lives until the next run: drop the growth slack of the
    // one pair of arenas whose size is known only once filled.
    out.located.shrink_to_fit();
    out.locations.shrink_to_fit();
    out
}

#[cfg(test)]
mod tests {
    use crate::rfinfer::{DirtySet, EvidenceCache, InferenceOutcome, PriorWeights, RfInfer};
    use crate::{reference, DenseScratch, LikelihoodModel, Observations, ReaderSet};
    use rfid_types::{Epoch, LocationId, RawReading, ReadRateTable, ReaderId, TagId};
    use std::collections::BTreeSet;

    fn feed(obs: &mut Observations, dirty: &mut DirtySet, readings: &[(u32, TagId, u16)]) {
        for &(t, tag, reader) in readings {
            if obs.insert(RawReading::new(Epoch(t), tag, ReaderId(reader))) {
                dirty.record(tag, Epoch(t));
            }
        }
    }

    /// Every weight and point-evidence column of `outcome`, as bits.
    fn bits(outcome: &InferenceOutcome) -> Vec<(TagId, TagId, u64, Vec<u64>)> {
        let mut all = Vec::new();
        for row in outcome.objects() {
            for ((c, w), (_, column)) in row.weights().zip(row.columns()) {
                let column = column.iter().map(|e| e.to_bits()).collect();
                all.push((row.object(), c, w.to_bits(), column));
            }
        }
        all
    }

    /// One object, three candidate lanes, three M-step paths in one run.
    /// `item(1)` travels with `case(1)` at reader 0 over epochs 0–5; `case(2)`
    /// shares reader 0 at epochs 0 and 1, `case(3)` at epoch 2. Between the
    /// runs `item(1)` gets no reading (it is clean), so:
    /// * `case(1)`'s variant is reused whole, and so is `item(1)`'s series
    ///   against it — moved from the cache;
    /// * `case(2)` gains a second reader at epoch 3, which invalidates its
    ///   posterior there only — one fresh dot, five values reused;
    /// * `item(3)` appears with `case(3)` at epochs 6–8, so `case(3)`'s member
    ///   set changes and no cached variant matches — a fresh lane of six dots.
    #[test]
    fn one_objects_lanes_take_all_three_paths_bit_identically() {
        let model = LikelihoodModel::new(ReadRateTable::diagonal(3, 0.8, 1e-4));
        let (item, case) = (TagId::item, TagId::case);
        let mut first = Vec::new();
        for t in 0..6 {
            first.push((t, item(1), 0));
            first.push((t, case(1), 0));
            first.push((t, case(2), if t < 2 { 0 } else { 1 }));
            first.push((t, case(3), if t == 2 { 0 } else { 2 }));
        }
        let mut second = vec![(3, case(2), 2)];
        for t in 6..9 {
            second.push((t, item(3), 2));
            second.push((t, case(3), 2));
        }

        let (mut obs, mut dirty) = (Observations::new(), DirtySet::new());
        let (mut cache, mut scratch) = (EvidenceCache::new(), DenseScratch::default());
        let mut tree_cache = EvidenceCache::new();
        feed(&mut obs, &mut dirty, &first);
        let infer = RfInfer::new(&model, &obs);
        infer.run_incremental(&mut cache, &dirty, &mut scratch);
        reference::run_tree(&infer, Some((&mut tree_cache, &dirty)));

        let mut dirty = DirtySet::new();
        feed(&mut obs, &mut dirty, &second);
        assert!(dirty.epochs_of(item(1)).is_none(), "item(1) stays clean");
        let infer = RfInfer::new(&model, &obs);
        let (outcome, stats) = infer.run_incremental(&mut cache, &dirty, &mut scratch);
        let (tree_outcome, tree_stats) =
            reference::run_tree(&infer, Some((&mut tree_cache, &dirty)));

        let full = infer.run();
        assert_eq!(bits(&outcome), bits(&full));
        assert_eq!(bits(&outcome), bits(&tree_outcome));
        let row = outcome.object(item(1)).expect("item(1) is inferred");
        let candidates: Vec<TagId> = row.weights().map(|(c, _)| c).collect();
        assert_eq!(candidates, [case(1), case(2), case(3)]);
        assert_eq!(outcome.iterations, 1);
        // item(1): 6 moved + 5 reused beside 1 fresh + 6 fresh; item(3): 3
        // fresh; then the outcome copies all 3 × 6 + 1 × 3 columns.
        assert_eq!(
            (stats.evidence_reused, stats.evidence_computed),
            (6 + 5 + 21, 1 + 6 + 3)
        );
        assert_eq!(stats, tree_stats);
        assert_eq!(cache, tree_cache);
    }

    /// The set-up's derived columns against their definitions. Every
    /// observation's interned loglik row is `tag_loglik` of its own reader
    /// set — one reader, several, or more than a set holds inline — and ids
    /// come out in first-occurrence order. Every slot's needed epochs are the
    /// `BTreeSet` union of its container's list and the lists of the objects
    /// naming it a candidate, and its points are their observation count,
    /// also when they lie thousands of epochs apart, when the container and a
    /// contributor are read at the same epoch, and for an observed container
    /// that no object names.
    #[test]
    fn set_up_rows_and_needed_epochs_match_their_definitions() {
        let nl = 16u16;
        let model = LikelihoodModel::new(ReadRateTable::diagonal(usize::from(nl), 0.8, 1e-4));
        let (item, case, pallet) = (TagId::item, TagId::case, TagId::pallet);
        let mut readings = Vec::new();
        for t in 0..40u32 {
            for i in 0..6u64 {
                // Objects move between four readers; every third epoch a
                // second reader hears them too.
                let at = ((t / 8 + i as u32) % 4) as u16;
                readings.push((t, item(i), at));
                if t % 3 == 0 {
                    readings.push((t, item(i), at + 4));
                }
            }
            for c in 0..3u64 {
                let at = ((t / 8 + 2 * c as u32) % 4) as u16;
                readings.push((t + (c as u32 % 2), case(c), at));
            }
        }
        // One epoch heard by every reader: a spilled set.
        readings.extend((0..nl).map(|r| (50, case(0), r)));
        // Sparse epochs far apart, and a pallet read where no object is.
        readings.extend([
            (60, pallet(9), 9),
            (61, pallet(9), 9),
            (9_000, item(0), 1),
            (20_000, item(0), 1),
            (20_001, case(0), 1),
            (12_345, case(1), 2),
        ]);
        let (mut obs, mut dirty) = (Observations::new(), DirtySet::new());
        feed(&mut obs, &mut dirty, &readings);
        // A container known only from a prior becomes a slot of its own.
        let mut prior = PriorWeights::empty();
        prior.set(item(0), case(7), 2.5);
        let infer = RfInfer::with_prior(&model, &obs, &prior);
        let mut s = DenseScratch::default();
        let obs_of = super::set_up(&infer, &mut s);

        let mut next = 0u32;
        let mut widths = BTreeSet::new();
        for (i, list) in obs_of.iter().enumerate() {
            let ids = &s.set_ids[s.set_start[i] as usize..s.set_start[i + 1] as usize];
            assert_eq!(ids.len(), list.len());
            for (o, &id) in list.iter().zip(ids) {
                assert!(id <= next, "set ids in first-occurrence order");
                next += u32::from(id == next);
                let expected: Vec<u64> = (0..nl)
                    .map(|a| model.tag_loglik(&o.readers, LocationId(a)).to_bits())
                    .collect();
                let row: Vec<u64> = s.table.row(id).iter().map(|v| v.to_bits()).collect();
                assert_eq!(row, expected, "row of {:?}", o.readers);
                widths.insert(o.readers.len().min(ReaderSet::INLINE + 1));
            }
        }
        assert_eq!(s.table.len(), next as usize);
        assert_eq!(widths, BTreeSet::from([1, 2, ReaderSet::INLINE + 1]));

        let (mut contributed, mut shared) = (0, 0);
        for (slot, &ci) in s.rel.iter().enumerate() {
            let own: BTreeSet<Epoch> = obs_of[ci as usize].iter().map(|o| o.epoch).collect();
            let mut union = own.clone();
            let mut points = 0;
            for (k, &oi) in s.objects.iter().enumerate() {
                let range = s.cand_start[k] as usize..s.cand_start[k + 1] as usize;
                if s.cand_arena[range].contains(&ci) {
                    let list = obs_of[oi as usize];
                    shared += usize::from(list.iter().any(|o| own.contains(&o.epoch)));
                    union.extend(list.iter().map(|o| o.epoch));
                    points += list.len();
                    contributed += 1;
                }
            }
            let needed =
                &s.epochs_arena[s.epochs_start[slot] as usize..s.epochs_start[slot + 1] as usize];
            assert_eq!(needed, union.into_iter().collect::<Vec<_>>(), "slot {slot}");
            assert_eq!(s.points[slot] as usize, points);
        }
        assert!(contributed > s.rel.len(), "slots with several contributors");
        assert!(shared > 0, "a container read with a contributor");
        let lone = s.tags.binary_search(&pallet(9)).expect("the pallet");
        let slot = s.slot_of[lone] as usize;
        assert!(!s.cand_arena.contains(&(lone as u32)), "no object names it");
        assert_eq!(
            &s.epochs_arena[s.epochs_start[slot] as usize..s.epochs_start[slot + 1] as usize],
            [Epoch(60), Epoch(61)]
        );
        assert!(
            s.epochs_arena.contains(&Epoch(20_000)),
            "a far epoch is needed"
        );
        let extra = s
            .tags
            .binary_search(&case(7))
            .expect("the prior's container");
        assert!(obs_of[extra].is_empty() && s.slot_of[extra] != super::NONE_IDX);
    }
}
