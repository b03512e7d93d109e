//! Property-based tests of the inference core: the posterior normalization,
//! the optimized likelihood evaluation, the change-point statistic and the
//! EM invariants hold for arbitrary inputs, not just the hand-picked cases of
//! the unit tests.

use proptest::prelude::*;
use rfid_core::{
    change_statistic, container_posterior, critical_region, detect_changes, reference,
    retention_plan, CollapsedState, DetectedChange, DirtySet, EvidenceCache, InferenceConfig,
    InferenceEngine, InferenceOutcome, InferenceReport, LikelihoodModel, MemoryBudget, MemoryStats,
    MigrationState, Observations, Posterior, ReadingsState, RetentionPlan, RfInfer,
    TruncationPolicy,
};
use rfid_types::{
    Epoch, LocationId, ObjectEvent, RawReading, ReadRateTable, ReaderId, ReadingBatch, TagId,
};
use rfid_wire::{WireCodec, WireFormat};
use std::collections::{BTreeMap, BTreeSet};

/// How one engine of the solver-equivalence matrix runs its inference: the
/// product call, or — through the hidden `run_inference_with` seam — the tree
/// reference and/or a full recompute that bypasses the cross-run cache.
#[derive(Debug, Clone, Copy)]
enum Solve {
    Product,
    TreeIncr,
    DenseFull,
    TreeFull,
}

impl Solve {
    fn run(self, engine: &mut InferenceEngine, now: Epoch) -> InferenceReport {
        match self {
            Solve::Product => engine.run_inference(now),
            Solve::TreeIncr => engine.run_inference_with(now, |infer, cache, dirty, _| {
                reference::run_tree(infer, Some((cache, dirty)))
            }),
            Solve::DenseFull => engine.run_inference_with(now, |infer, _, _, scratch| {
                infer.run_incremental(&mut EvidenceCache::new(), &DirtySet::new(), scratch)
            }),
            Solve::TreeFull => engine.run_inference_with(now, |infer, cache, _, _| {
                cache.clear();
                reference::run_tree(infer, None)
            }),
        }
    }
}

/// One step of an equivalence interleaving: `(kind, dt, object serial,
/// container serial, reader)`.
type Op = (u8, u32, u64, u64, u16);

fn equivalence_engine() -> InferenceEngine {
    InferenceEngine::new(
        InferenceConfig::default()
            .with_period(10)
            .with_recent_history(25)
            .with_fixed_threshold(5.0),
        ReadRateTable::diagonal(3, 0.8, 1e-4),
    )
}

/// Apply one op identically to every engine. Returns `false` when the op is
/// an inference run, which the caller executes (each engine its own way) and
/// compares.
fn feed(engines: &mut [InferenceEngine], now: Epoch, (kind, dt, obj, cont, reader): Op) -> bool {
    let object = TagId::item(obj);
    let container = TagId::case(cont);
    for engine in engines.iter_mut() {
        match kind {
            // co-located readings: object travels with a container
            0 | 1 => {
                engine.observe(RawReading::new(now, object, ReaderId(reader)));
                engine.observe(RawReading::new(now, container, ReaderId(reader)));
            }
            // stray reading of the object alone
            2 => engine.observe(RawReading::new(now, object, ReaderId(reader))),
            // collapsed-weights import from a previous site
            3 => engine.import_state(MigrationState::Collapsed(CollapsedState {
                object,
                weights: BTreeMap::from([
                    (container, 0.0),
                    (TagId::case((cont + 1) % 3), -(dt as f64) * 3.0),
                ]),
                container: Some(container),
            })),
            // critical-region readings import (historical epochs)
            4 => {
                let from = now.minus(8);
                let readings = [object, container]
                    .into_iter()
                    .flat_map(|tag| {
                        (0..4u32).map(move |k| RawReading::new(from.plus(k), tag, ReaderId(reader)))
                    })
                    .collect();
                engine.import_state(MigrationState::Readings(ReadingsState {
                    object,
                    readings,
                    container: Some(container),
                }));
            }
            // the object's state was shipped elsewhere
            5 => engine.forget(object),
            // the site compacts under a small memory budget
            6 => engine.enforce_budget(
                MemoryBudget::capped(6 + 4 * reader as usize),
                now,
                &mut MemoryStats::default(),
            ),
            // the site crashes and restores its last checkpoint
            7 => {
                let snapshot = engine.snapshot();
                engine.restore(snapshot);
            }
            _ => return false,
        }
    }
    true
}

/// Run inference on every engine (each through its own `Solve`) and require
/// everything a driver can observe to equal the first engine's, bit for bit.
fn run_and_compare(
    engines: &mut [InferenceEngine],
    matrix: &[Solve],
    now: Epoch,
    object: TagId,
    op: usize,
) -> Vec<InferenceReport> {
    let reports: Vec<InferenceReport> = engines
        .iter_mut()
        .zip(matrix)
        .map(|(engine, solve)| solve.run(engine, now))
        .collect();
    for (k, solve) in matrix.iter().enumerate().skip(1) {
        assert_eq!(
            reports[0].outcome, reports[k].outcome,
            "{solve:?} outcome diverged at op {op} (epoch {now:?})"
        );
        assert_eq!(
            reports[0].changes, reports[k].changes,
            "{solve:?} changes diverged at op {op}"
        );
        assert_eq!(
            reports[0].retained_observations,
            reports[k].retained_observations
        );
        assert_eq!(engines[0].containment(), engines[k].containment());
        assert_eq!(
            engines[0].export_collapsed(object),
            engines[k].export_collapsed(object)
        );
        assert_eq!(
            engines[0].export_readings(object),
            engines[k].export_readings(object)
        );
    }
    reports
}

/// Feed `ops` to one engine per `matrix` entry, running and comparing all of
/// them at every inference op and once more after the whole interleaving;
/// `after_run` sees each compared set of reports and the op index.
fn drive(matrix: &[Solve], ops: &[Op], mut after_run: impl FnMut(&[InferenceReport], usize)) {
    let mut engines: Vec<InferenceEngine> = matrix.iter().map(|_| equivalence_engine()).collect();
    let mut now = Epoch(0);
    for (i, &op) in ops.iter().enumerate() {
        now = now.plus(op.1);
        if feed(&mut engines, now, op) || engines[0].stored_observations() == 0 {
            continue;
        }
        after_run(
            &run_and_compare(&mut engines, matrix, now, TagId::item(op.2), i),
            i,
        );
    }
    if engines[0].stored_observations() > 0 {
        run_and_compare(&mut engines, matrix, now.plus(1), TagId::item(0), ops.len());
    }
}

/// The shipment rule the driver used before exports deduplicated by tag:
/// export every object on its own and drop each reading an earlier object of
/// the shipment already carried.
fn export_deduplicating_readings(
    engine: &InferenceEngine,
    shipment: &[TagId],
) -> Vec<ReadingsState> {
    let mut shipped: BTreeSet<RawReading> = BTreeSet::new();
    let export = |&object| {
        let mut state = engine.export_readings(object);
        state.readings.retain(|r| shipped.insert(*r));
        state
    };
    shipment.iter().map(export).collect()
}

/// One object's evidence as the outcome held it before the arenas: maps keyed
/// by candidate.
struct MapEvidence {
    candidates: Vec<TagId>,
    weights: BTreeMap<TagId, f64>,
    point_evidence: BTreeMap<TagId, Vec<(Epoch, f64)>>,
    assigned: Option<TagId>,
}

/// The `TagId`-keyed outcome every consumer read before the arenas, built
/// from the outcome's row and run iterators. Its methods are the old
/// accessors, lookup rules and all, so every keyed accessor of the arenas can
/// be checked against them.
struct MapView {
    containment: BTreeMap<TagId, TagId>,
    objects: BTreeMap<TagId, MapEvidence>,
    tag_locations: BTreeMap<TagId, Vec<(Epoch, LocationId)>>,
}

impl MapView {
    fn of(outcome: &InferenceOutcome) -> MapView {
        let objects = outcome
            .objects()
            .map(|e| {
                let evidence = MapEvidence {
                    candidates: e.candidates().collect(),
                    weights: e.weights().collect(),
                    point_evidence: e
                        .columns()
                        .map(|(c, column)| {
                            (
                                c,
                                e.epochs()
                                    .iter()
                                    .copied()
                                    .zip(column.iter().copied())
                                    .collect(),
                            )
                        })
                        .collect(),
                    assigned: e.assigned(),
                };
                (e.object(), evidence)
            })
            .collect();
        MapView {
            containment: outcome.containment().collect(),
            objects,
            tag_locations: outcome
                .locations()
                .map(|(t, run)| (t, run.to_vec()))
                .collect(),
        }
    }

    fn lookup(&self, key: TagId, t: Epoch) -> Option<LocationId> {
        let locs = self.tag_locations.get(&key)?;
        let idx = locs.partition_point(|&(e, _)| e <= t);
        let candidate = if idx == 0 { &locs[0] } else { &locs[idx - 1] };
        let best = match locs.get(idx) {
            Some(after) if after.0.since(t) < t.since(candidate.0) => after,
            _ => candidate,
        };
        Some(best.1)
    }

    fn location_of(&self, tag: TagId, t: Epoch) -> Option<LocationId> {
        let via_container = tag
            .is_object()
            .then(|| self.containment.get(&tag))
            .flatten()
            .and_then(|&c| self.lookup(c, t));
        via_container.or_else(|| self.lookup(tag, t))
    }
}

/// The change statistic as it ran over the candidate-keyed maps.
fn map_change_statistic(
    evidence: &MapEvidence,
) -> Option<(f64, Epoch, Option<TagId>, Option<TagId>)> {
    let candidates: Vec<TagId> = evidence.point_evidence.keys().copied().collect();
    let epochs: Vec<Epoch> = evidence
        .point_evidence
        .values()
        .next()?
        .iter()
        .map(|p| p.0)
        .collect();
    let n = epochs.len();
    if n < 2 {
        return None;
    }
    let prefix: Vec<Vec<f64>> = candidates
        .iter()
        .map(|c| {
            let mut sums = vec![0.0];
            let mut acc = 0.0;
            for &(_, e) in &evidence.point_evidence[c] {
                acc += e;
                sums.push(acc);
            }
            while sums.len() < n + 1 {
                sums.push(acc);
            }
            sums
        })
        .collect();
    let best_of = |score: &dyn Fn(usize) -> f64| {
        (0..candidates.len())
            .map(|ci| (ci, score(ci)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
    };
    let total = best_of(&|ci| prefix[ci][n]).1;
    let mut best = (f64::NEG_INFINITY, epochs[0], None, None);
    for k in 1..n {
        let (pre, pre_score) = best_of(&|ci| prefix[ci][k]);
        let (suf, suf_score) = best_of(&|ci| prefix[ci][n] - prefix[ci][k]);
        let delta = pre_score + suf_score - total;
        if delta > best.0 {
            best = (
                delta,
                epochs[k],
                Some(candidates[pre]),
                Some(candidates[suf]),
            );
        }
    }
    Some(best)
}

/// The critical-region search as the naive forward filter over the maps:
/// the latest window whose two best sums differ by at least `margin`.
fn map_critical_region(evidence: &MapEvidence, window: u32, margin: f64) -> Option<(Epoch, Epoch)> {
    if evidence.point_evidence.len() < 2 {
        return None;
    }
    let epochs: Vec<Epoch> = evidence
        .point_evidence
        .values()
        .next()?
        .iter()
        .map(|p| p.0)
        .collect();
    let mut found = None;
    for &end in &epochs {
        let start = end.minus(window);
        let mut sums: Vec<f64> = evidence
            .point_evidence
            .values()
            .map(|series| {
                series
                    .iter()
                    .filter(|(t, _)| *t >= start && *t <= end)
                    .map(|&(_, e)| e)
                    .sum()
            })
            .collect();
        sums.sort_by(|a, b| b.partial_cmp(a).unwrap());
        if sums[0] - sums[1] >= margin {
            found = Some((start, end));
        }
    }
    found
}

/// Check every accessor of `engine`'s last outcome, and every engine read
/// that goes through it, against the map view of the same outcome; `changes`
/// are the run's detected changes, whose rows must carry the suffix weights.
fn check_outcome_accessors(engine: &InferenceEngine, now: Epoch, changes: &[DetectedChange]) {
    let outcome = engine.last_outcome().expect("a run happened");
    let view = MapView::of(outcome);
    for change in changes {
        // After a change at t' an object's weights are the suffix sums of
        // its point evidence from t' on, and it sits in the new container.
        let old = &view.objects[&change.object];
        assert_eq!(old.assigned, change.new_container);
        for (c, series) in &old.point_evidence {
            let suffix: f64 = series
                .iter()
                .filter(|(t, _)| *t >= change.change_at)
                .map(|(_, e)| e)
                .sum();
            assert_eq!(old.weights[c], suffix, "{:?} / {c:?}", change.object);
        }
    }
    let store = engine.snapshot().store;
    let mut tags: BTreeSet<TagId> = store.tags().collect();
    tags.extend(view.objects.keys());
    tags.extend(view.tag_locations.keys());
    tags.extend(
        view.objects
            .values()
            .flat_map(|e| e.candidates.iter().copied()),
    );
    tags.extend([TagId::item(99), TagId::case(99)]);
    let epochs: Vec<Epoch> = (0..=now.0 + 2).step_by(3).map(Epoch).collect();

    assert_eq!(outcome.objects().len(), view.objects.len());
    for &tag in &tags {
        let row = outcome.object(tag);
        assert_eq!(row.map(|e| e.object()), view.objects.get(&tag).map(|_| tag));
        assert_eq!(
            outcome.container_of(tag),
            view.containment.get(&tag).copied()
        );
        assert_eq!(
            outcome.locations_of(tag),
            view.tag_locations.get(&tag).map_or(&[][..], Vec::as_slice)
        );
        for &t in &epochs {
            assert_eq!(
                outcome.location_of(tag, t),
                view.location_of(tag, t),
                "{tag:?} at {t:?}"
            );
            let engine_rule = engine
                .container_of(tag)
                .filter(|_| tag.is_object())
                .and_then(|c| view.lookup(c, t))
                .or_else(|| view.location_of(tag, t));
            assert_eq!(engine.location_of(tag, t), engine_rule);
        }
        let Some((row, old)) = row.zip(view.objects.get(&tag)) else {
            continue;
        };
        assert_eq!(row.assigned(), old.assigned);
        assert_eq!(row.candidates().len(), old.candidates.len());
        let candidates: BTreeSet<TagId> = old.candidates.iter().copied().collect();
        assert!(
            candidates.iter().eq(old.weights.keys()),
            "one weight per candidate"
        );
        assert!(old.point_evidence.keys().all(|c| candidates.contains(c)));
        for &c in &tags {
            assert_eq!(outcome.weight(tag, c), old.weights.get(&c).copied());
            assert_eq!(
                row.point_evidence(c).map(<[f64]>::to_vec),
                old.point_evidence
                    .get(&c)
                    .map(|s| s.iter().map(|&(_, e)| e).collect())
            );
            let mut total = 0.0;
            let cumulative: Vec<f64> = old
                .point_evidence
                .get(&c)
                .into_iter()
                .flatten()
                .map(|&(_, e)| {
                    total += e;
                    total
                })
                .collect();
            assert_eq!(row.cumulative_evidence(c), cumulative);
        }
        let stat = change_statistic(row)
            .map(|s| (s.delta, s.split_at, s.prefix_container, s.suffix_container));
        assert_eq!(stat, map_change_statistic(old));
        for (window, margin) in [(20, 1.0), (60, 3.0)] {
            let region = critical_region(row, window, margin).map(|cr| (cr.start, cr.end));
            assert_eq!(region, map_critical_region(old, window, margin));
        }
        // Exports read the same rows.
        let collapsed = engine.export_collapsed(tag);
        let max = old
            .weights
            .values()
            .copied()
            .reduce(f64::max)
            .unwrap_or(f64::NEG_INFINITY);
        let relative: BTreeMap<TagId, f64> = old
            .weights
            .iter()
            .map(|(&c, &w)| (c, if max.is_finite() { w - max } else { w }))
            .collect();
        assert_eq!(collapsed.weights, relative);
        let shipped: Vec<RawReading> = std::iter::once(tag)
            .chain(old.candidates.iter().copied())
            .flat_map(|t| {
                store.obs_for(t).iter().flat_map(move |o| {
                    o.readers
                        .iter()
                        .map(move |r| RawReading::new(o.epoch, t, r.reader()))
                })
            })
            .collect();
        assert_eq!(engine.export_readings(tag).readings, shipped);
    }
    for &t in &epochs {
        // The engine's events follow its own location rule, and
        // `events_where` is that stream with the filter asked first, once per
        // examined object in order.
        let expected: Vec<ObjectEvent> = view
            .objects
            .keys()
            .filter_map(|&o| {
                let location = engine
                    .container_of(o)
                    .filter(|_| o.is_object())
                    .and_then(|c| view.lookup(c, t))
                    .or_else(|| view.location_of(o, t))?;
                Some(ObjectEvent::new(t, o, location, engine.container_of(o)))
            })
            .collect();
        assert_eq!(engine.events_at(t), expected);
        let mut asked = Vec::new();
        let odd: Vec<ObjectEvent> = engine
            .events_where(t, |o| {
                asked.push(o);
                o.serial() % 2 == 1
            })
            .collect();
        assert!(asked.iter().eq(view.objects.keys()));
        assert!(odd
            .iter()
            .eq(expected.iter().filter(|e| e.tag.serial() % 2 == 1)));
    }
    for threshold in [0.5, 5.0] {
        let expected: Vec<_> = view
            .objects
            .iter()
            .filter_map(|(&o, e)| map_change_statistic(e).map(|s| (o, s)))
            .filter(|(_, s)| s.0 >= threshold && s.2 != s.3)
            .map(|(o, s)| (o, s.1, s.2, s.3, s.0))
            .collect();
        let found: Vec<_> = detect_changes(outcome, threshold)
            .into_iter()
            .map(|c| {
                (
                    c.object,
                    c.change_at,
                    c.old_container,
                    c.new_container,
                    c.statistic,
                )
            })
            .collect();
        assert_eq!(found, expected);
    }
    let mut per_tag: BTreeMap<TagId, Vec<(Epoch, Epoch)>> = BTreeMap::new();
    for (&o, e) in &view.objects {
        if let Some(region) = map_critical_region(e, 60, 3.0) {
            for tag in std::iter::once(o).chain(e.candidates.iter().copied()) {
                per_tag.entry(tag).or_default().push(region);
            }
        }
    }
    let plan = retention_plan(TruncationPolicy::default(), outcome, now, 25);
    for &tag in &tags {
        let mut ranges = per_tag.get(&tag).cloned().unwrap_or_default();
        ranges.push((now.minus(25), now));
        ranges.sort_unstable();
        let mut merged: Vec<(Epoch, Epoch)> = Vec::new();
        for (lo, hi) in ranges {
            match merged.last_mut() {
                Some(last) if lo <= last.1.plus(1) => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        assert_eq!(plan.ranges_for(tag, now), merged, "{tag:?}");
    }
}

fn naive_loglik(rates: &ReadRateTable, readers: &[LocationId], at: LocationId) -> f64 {
    rates
        .locations()
        .map(|r| {
            if readers.contains(&r) {
                rates.log_hit(r, at)
            } else {
                rates.log_miss(r, at)
            }
        })
        .sum()
}

proptest! {
    /// Posteriors built from arbitrary finite log-weights are normalized and
    /// their MAP is the argmax of the inputs.
    #[test]
    fn posterior_normalizes(weights in prop::collection::vec(-1e4f64..0.0, 1..12)) {
        let posterior = Posterior::from_log_weights(weights.clone());
        let total: f64 = posterior.iter().map(|(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(posterior.iter().all(|(_, p)| (0.0..=1.0 + 1e-12).contains(&p)));
        let argmax = weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        // the MAP location has at least the probability of the true argmax
        prop_assert!(
            posterior.prob(posterior.map_location()) >= posterior.prob(LocationId(argmax as u16)) - 1e-12
        );
    }

    /// The sparse likelihood evaluation (all-miss + corrections) equals the
    /// naive sum over every reader, for arbitrary reader subsets and rates.
    #[test]
    fn optimized_likelihood_matches_naive(
        own in 0.4f64..0.99,
        background in 1e-6f64..1e-2,
        num_locations in 2usize..8,
        reader_mask in prop::collection::vec(any::<bool>(), 8),
        at in 0u16..8,
    ) {
        let at = LocationId(at % num_locations as u16);
        let rates = ReadRateTable::diagonal(num_locations, own, background);
        let model = LikelihoodModel::new(rates.clone());
        let readers: Vec<LocationId> = (0..num_locations as u16)
            .map(LocationId)
            .filter(|l| reader_mask[l.index()])
            .collect();
        let fast = model.tag_loglik(&readers, at);
        let slow = naive_loglik(&rates, &readers, at);
        prop_assert!((fast - slow).abs() < 1e-9);
    }

    /// The E-step posterior favours a location where more of the container's
    /// members were read, whatever the (diagonal) read-rate table looks like.
    #[test]
    fn posterior_favours_majority_location(
        own in 0.5f64..0.95,
        votes_a in 1usize..5,
        votes_b in 0usize..1,
    ) {
        let model = LikelihoodModel::new(ReadRateTable::diagonal(2, own, 1e-4));
        let a = [LocationId(0)];
        let b = [LocationId(1)];
        let mut members: Vec<Option<&[LocationId]>> = Vec::new();
        for _ in 0..votes_a { members.push(Some(&a)); }
        for _ in 0..votes_b { members.push(Some(&b)); }
        let posterior = container_posterior(&model, None, &members);
        prop_assert_eq!(posterior.map_location(), LocationId(0));
    }

    /// RFINFER always assigns every observed object that has at least one
    /// co-located container, and candidate pruning never changes that
    /// guarantee; the change statistic of any object is non-negative.
    #[test]
    fn rfinfer_total_assignment_and_nonnegative_statistic(
        seedlike in prop::collection::vec((0u32..40, 0u64..3, 0u64..3), 20..120),
    ) {
        // Build a co-location structure: each triple (t, object, container)
        // produces a pair of readings at the same reader, so the object is
        // guaranteed a candidate.
        let mut readings = Vec::new();
        for &(t, o, c) in &seedlike {
            let reader = ReaderId((c % 3) as u16);
            readings.push(RawReading::new(Epoch(t), TagId::item(o), reader));
            readings.push(RawReading::new(Epoch(t), TagId::case(c), reader));
        }
        let obs = Observations::from_batch(&ReadingBatch::from_readings(readings));
        let model = LikelihoodModel::new(ReadRateTable::diagonal(3, 0.8, 1e-4));
        let outcome = RfInfer::new(&model, &obs).run();
        for object in obs.objects() {
            let evidence = outcome.object(object).unwrap();
            prop_assert!(evidence.candidates().next().is_some());
            prop_assert!(evidence.assigned().is_some());
            prop_assert!(outcome.container_of(object).is_some());
            if let Some(stat) = change_statistic(evidence) {
                prop_assert!(stat.delta >= -1e-9, "GLR statistic must be non-negative, got {}", stat.delta);
            }
            // weights are finite
            prop_assert!(evidence.weights().all(|(_, w)| w.is_finite()));
        }
        prop_assert!(outcome.iterations >= 1);
    }

    /// The product solver (dense, vector kernels, incremental) is bit-identical
    /// to the `BTreeMap`-keyed tree reference under arbitrary interleavings
    /// of every dirty-journal producer a driver reaches — observations,
    /// collapsed-state and critical-region-readings imports, forgets, budget
    /// compactions, snapshot restores and inference runs — with the cross-run
    /// cache both used and bypassed, and with change-point detection (whose
    /// truncations feed the dirty journal) active throughout.
    #[test]
    fn dense_solver_matches_tree_reference(
        ops in prop::collection::vec(
            (0u8..10, 1u32..5, 0u64..4, 0u64..3, 0u16..3),
            30..120,
        ),
    ) {
        // Four engines fed identically: {dense, tree} × {incremental, full}.
        let matrix = [Solve::Product, Solve::TreeIncr, Solve::DenseFull, Solve::TreeFull];
        drive(&matrix, &ops, |reports, i| {
            // The incremental solvers replay the same reuse decisions, so
            // their accounting matches exactly too.
            prop_assert_eq!(reports[0].stats, reports[1].stats,
                "dense-incr vs tree-incr reuse counters diverged at op {}", i);
        });
    }

    /// Every keyed accessor of the arena outcome — rows, weights, series,
    /// cumulative evidence, containment, location runs, `location_of`,
    /// `events_at` — and every read that goes through it (the change
    /// statistic, detection, the critical region, the retention plan, both
    /// exports, the engine's own location and event reads) agrees with the
    /// candidate-keyed maps the outcome used to be, on engines driven through
    /// observations, both kinds of import, forgets, compactions, restores and
    /// change detection.
    #[test]
    fn outcome_accessors_match_a_btreemap_view(
        ops in prop::collection::vec(
            (0u8..10, 1u32..5, 0u64..4, 0u64..3, 0u16..3),
            30..120,
        ),
    ) {
        let mut engines = [equivalence_engine()];
        let mut now = Epoch(0);
        for &op in &ops {
            now = now.plus(op.1);
            if feed(&mut engines, now, op) || engines[0].stored_observations() == 0 {
                continue;
            }
            let report = engines[0].run_inference(now);
            check_outcome_accessors(&engines[0], now, &report.changes);
        }
    }

    /// Incremental RFINFER is bit-identical to a from-scratch full recompute
    /// under the same arbitrary interleavings — the two-engine slice of the
    /// matrix above, through the product solver only.
    #[test]
    fn incremental_engine_matches_full_recompute(
        ops in prop::collection::vec(
            (0u8..10, 1u32..5, 0u64..4, 0u64..3, 0u16..3),
            30..120,
        ),
    ) {
        drive(&[Solve::Product, Solve::DenseFull], &ops, |_, _| {});
    }

    /// A snapshot restored into a fresh engine continues exactly like the
    /// engine it was cut from, although it carries only the evidence cache's
    /// keys and an outcome without point evidence. The histories mix
    /// critical-region imports at old epochs, forgets, compactions,
    /// truncation and change points; the first cut falls anywhere, and the
    /// history is cut again after every second run and at every crash op.
    /// Both engines run with equal outcomes, changes and reuse counters at
    /// every run, and equal snapshots after the first run of each cut.
    #[test]
    fn a_restored_engine_continues_like_one_that_never_stopped(
        ops in prop::collection::vec(
            (0u8..10, 1u32..5, 0u64..4, 0u64..3, 0u16..3),
            30..120,
        ),
        cut in 0usize..120,
    ) {
        let restored_from = |live: &InferenceEngine| {
            let mut restored = equivalence_engine();
            restored.restore(live.snapshot());
            assert_eq!(restored.snapshot(), live.snapshot());
            restored
        };
        let cut = cut % ops.len();
        let mut live = equivalence_engine();
        let mut now = Epoch(0);
        for &op in &ops[..cut] {
            now = now.plus(op.1);
            if !feed(std::slice::from_mut(&mut live), now, op) && live.stored_observations() > 0 {
                live.run_inference(now);
            }
        }
        let restored = restored_from(&live);
        let mut engines = [live, restored];
        let matrix = [Solve::Product, Solve::Product];
        let mut runs_since_cut = 0;
        let rest = ops[cut..].iter().copied().chain([(8, 10, 0, 0, 0); 2]);
        for (i, op) in rest.enumerate() {
            now = now.plus(op.1);
            if op.0 == 7 {
                engines[1] = restored_from(&engines[0]);
                runs_since_cut = 0;
                continue;
            }
            if feed(&mut engines, now, op) || engines[0].stored_observations() == 0 {
                continue;
            }
            let object = TagId::item(op.2);
            let reports = run_and_compare(&mut engines, &matrix, now, object, cut + i);
            prop_assert_eq!(reports[0].stats, reports[1].stats,
                "reuse counters diverged at op {}", cut + i);
            runs_since_cut += 1;
            if runs_since_cut == 1 {
                prop_assert_eq!(engines[0].snapshot(), engines[1].snapshot());
            } else {
                engines[1] = restored_from(&engines[0]);
                runs_since_cut = 0;
            }
        }
    }

    /// One shipment's critical-region exports, deduplicated by tag before
    /// anything is materialised, are byte for byte the payloads the old rule
    /// produced (one-object exports filtered reading by reading) — with
    /// objects of one case sharing candidates, an object the last run never
    /// saw, a candidate whose observations are gone, an object that never
    /// existed and an object dispatched twice all on the same shipment.
    #[test]
    fn shipment_export_matches_reading_level_dedup(
        co_located in prop::collection::vec((0u32..40, 0u64..4, 0u64..3, 0u16..3), 20..120),
        late_reader in 0u16..3,
        order in prop::collection::vec(0u64..6, 2..10),
    ) {
        let mut engine = equivalence_engine();
        for &(t, obj, cont, reader) in &co_located {
            engine.observe(RawReading::new(Epoch(t), TagId::item(obj), ReaderId(reader)));
            engine.observe(RawReading::new(Epoch(t), TagId::case(cont), ReaderId(reader)));
        }
        let report = engine.run_inference(Epoch(40));
        // Item 4 is read only after the run (stored, but no outcome entry),
        // item 5 never; the most popular candidate loses its observations.
        engine.observe(RawReading::new(Epoch(41), TagId::item(4), ReaderId(late_reader)));
        let mut popularity: BTreeMap<TagId, usize> = BTreeMap::new();
        for evidence in report.outcome.objects() {
            for candidate in evidence.candidates() {
                *popularity.entry(candidate).or_default() += 1;
            }
        }
        if let Some((&shared, _)) = popularity.iter().max_by_key(|(_, &n)| n) {
            engine.forget(shared);
        }

        let shipment: Vec<TagId> = order.iter().map(|&o| TagId::item(o)).collect();
        let codec = WireCodec::new(WireFormat::Binary);
        let mut shipped = BTreeSet::new();
        for (object, old) in shipment.iter().zip(export_deduplicating_readings(&engine, &shipment)) {
            let new = engine.export_readings_for_shipment(*object, &mut shipped);
            prop_assert_eq!(
                codec.encode_migration(&MigrationState::Readings(new)),
                codec.encode_migration(&MigrationState::Readings(old)),
                "payload of {:?} in shipment {:?}", object, shipment
            );
        }
    }

    /// Importing critical-region readings run by run leaves the engine in
    /// exactly the state — store, dirty journal, containment, everything a
    /// snapshot holds — that observing the payload reading by reading left
    /// it in, and reports how many readings were new: for payloads in export
    /// order and shuffled, with duplicates, several readers per epoch, tags
    /// interleaved, and epochs before, among and after what the engine holds.
    #[test]
    fn import_by_runs_matches_observing_each_reading(
        local in prop::collection::vec((0u32..40, 0u64..3, any::<bool>(), 0u16..3), 0..60),
        ran in any::<bool>(),
        payload in prop::collection::vec((0u32..60, 0u64..3, any::<bool>(), 0u16..3), 0..80),
        export_order in any::<bool>(),
    ) {
        let tag = |serial: u64, is_case: bool| if is_case { TagId::case(serial) } else { TagId::item(serial) };
        let mut by_runs = equivalence_engine();
        for &(t, serial, is_case, reader) in &local {
            by_runs.observe(RawReading::new(Epoch(t), tag(serial, is_case), ReaderId(reader)));
        }
        if ran && !local.is_empty() {
            by_runs.run_inference(Epoch(40));
        }
        let mut one_by_one = equivalence_engine();
        one_by_one.restore(by_runs.snapshot());

        let mut readings: Vec<RawReading> = payload
            .iter()
            .map(|&(t, serial, is_case, reader)| RawReading::new(Epoch(t), tag(serial, is_case), ReaderId(reader)))
            .collect();
        if export_order {
            readings.sort_by_key(|r| (r.tag, r.time, r.reader));
        }
        let mut store = by_runs.snapshot().store;
        let fresh = readings.iter().filter(|r| store.insert(**r)).count();

        let state = |readings| MigrationState::Readings(ReadingsState {
            object: TagId::item(0),
            readings,
            container: Some(TagId::case(1)),
        });
        let summary = by_runs.import_late_state(state(readings.clone()));
        one_by_one.import_state(state(Vec::new()));
        for r in readings {
            one_by_one.observe(r);
        }
        prop_assert_eq!(summary.readings, fresh);
        prop_assert_eq!(by_runs.snapshot(), one_by_one.snapshot());
    }

    /// `RetentionPlan::ranges_for` always yields ascending, disjoint,
    /// non-touching, non-empty inclusive ranges, whatever raw (possibly
    /// overlapping, possibly unsorted) ranges the plan holds per tag.
    #[test]
    fn retention_ranges_are_disjoint_and_nonempty(
        raw in prop::collection::vec((0u32..500, 0u32..100), 0..10),
        recent in 0u32..500,
        now in 0u32..600,
    ) {
        let plan = RetentionPlan::new(
            Epoch(recent),
            raw.iter().map(|&(lo, len)| (TagId::item(1), Epoch(lo), Epoch(lo + len))),
        );
        let ranges = plan.ranges_for(TagId::item(1), Epoch(now));
        prop_assert!(!ranges.is_empty(), "the recent history is always retained");
        for &(lo, hi) in &ranges {
            prop_assert!(lo <= hi, "empty range {:?}..{:?}", lo, hi);
        }
        for pair in ranges.windows(2) {
            prop_assert!(pair[1].0.0 > pair[0].1.0 + 1,
                "ranges overlap or touch: {:?}", ranges);
        }
        // a tag with no per-tag ranges keeps exactly the recent history
        prop_assert_eq!(
            plan.ranges_for(TagId::item(99), Epoch(now)),
            vec![(Epoch(recent.min(now)), Epoch(now))]
        );
    }

    /// Budget-driven compaction is monotone — a tighter budget never retains
    /// more observations than a looser one — and an unbounded budget is
    /// bit-identical to never calling `enforce_budget` at all (it only tracks
    /// the high-water mark).
    #[test]
    fn budget_compaction_is_monotone_and_unbounded_is_identity(
        ops in prop::collection::vec((0u32..3, 0u64..4, 0u64..3, 0u16..3), 20..80),
        loose in 8usize..60,
        delta in 1usize..30,
    ) {
        let config = InferenceConfig::default()
            .with_period(10)
            .with_recent_history(40)
            .with_truncation(TruncationPolicy::Full)
            .without_change_detection();
        let rates = ReadRateTable::diagonal(3, 0.8, 1e-4);
        let mut engine = InferenceEngine::new(config.clone(), rates.clone());
        let mut now = Epoch(0);
        for &(dt, obj, cont, reader) in &ops {
            now = now.plus(dt + 1);
            engine.observe(RawReading::new(now, TagId::item(obj), ReaderId(reader)));
            engine.observe(RawReading::new(now, TagId::case(cont), ReaderId(reader)));
        }
        engine.run_inference(now);
        let snapshot = engine.snapshot();

        // Unbounded: bit-identical to not enforcing any budget.
        let mut untouched = InferenceEngine::new(config.clone(), rates.clone());
        untouched.restore(snapshot.clone());
        let mut stats = MemoryStats::default();
        untouched.enforce_budget(MemoryBudget::unbounded(), now, &mut stats);
        prop_assert_eq!(untouched.snapshot(), snapshot.clone());
        prop_assert_eq!(stats.high_water, snapshot.store.len() as u64);
        prop_assert_eq!(stats.compactions, 0);
        prop_assert_eq!(stats.compacted_observations, 0);
        prop_assert_eq!(stats.evicted_cache_entries, 0);

        // Monotone: the halving loop retains nested windows, so tightening
        // the budget can only shrink what survives.
        let tight = loose.saturating_sub(delta);
        let mut a = InferenceEngine::new(config.clone(), rates.clone());
        a.restore(snapshot.clone());
        let mut b = InferenceEngine::new(config, rates);
        b.restore(snapshot);
        a.enforce_budget(MemoryBudget::capped(loose), now, &mut MemoryStats::default());
        b.enforce_budget(MemoryBudget::capped(tight), now, &mut MemoryStats::default());
        prop_assert!(b.stored_observations() <= a.stored_observations(),
            "tight budget {} retained {} > loose budget {} retained {}",
            tight, b.stored_observations(), loose, a.stored_observations());
    }
}
