//! The observation store and the dirty journal against the plain
//! `BTreeMap` / `BTreeSet` rules they replace: whatever the interleaving of
//! operations, the inline reader sets and the sorted per-tag journal lists
//! must hold, and report, exactly what the reference collections do.

use proptest::prelude::*;
use rfid_core::{DirtySet, Observations, ReaderSet};
use rfid_types::{Epoch, LocationId, RawReading, ReaderId, TagId};
use std::collections::{BTreeMap, BTreeSet};

/// Tags 0–2 are items, 3–5 cases.
fn tag(serial: u64) -> TagId {
    if serial < 3 {
        TagId::item(serial)
    } else {
        TagId::case(serial - 3)
    }
}

/// The store rule: one set of readers per `(tag, epoch)`.
type StoreRef = BTreeMap<(TagId, Epoch), BTreeSet<LocationId>>;

/// Insert one reading into the reference; whether it was new.
fn ref_insert(reference: &mut StoreRef, r: &RawReading) -> bool {
    reference
        .entry((r.tag, r.time))
        .or_default()
        .insert(r.reader.location())
}

/// Drop the reference's epochs of `tag` that `keep` rejects; the removed
/// epochs, ascending.
fn ref_remove(reference: &mut StoreRef, tag: TagId, keep: impl Fn(Epoch) -> bool) -> Vec<Epoch> {
    let removed: Vec<Epoch> = reference
        .keys()
        .filter(|(t, e)| *t == tag && !keep(*e))
        .map(|&(_, e)| e)
        .collect();
    for &epoch in &removed {
        reference.remove(&(tag, epoch));
    }
    removed
}

/// The store's full contents, flattened the reference's way.
fn flatten(store: &Observations) -> Vec<((TagId, Epoch), Vec<LocationId>)> {
    store
        .entries()
        .flat_map(|(tag, list)| {
            list.iter()
                .map(move |o| ((tag, o.epoch), o.readers.to_vec()))
        })
        .collect()
}

/// A run of readings of one tag at one epoch, heard by more readers than a
/// reader set holds inline, in a scrambled order with a repeat.
fn wide_run(tag: TagId, epoch: u32) -> Vec<RawReading> {
    let n = ReaderSet::INLINE as u16 + 2;
    let mut run: Vec<RawReading> = (0..n)
        .map(|k| RawReading::new(Epoch(epoch), tag, ReaderId((k * 7) % n)))
        .collect();
    run.push(run[n as usize / 2]);
    run
}

/// One store operation: `(kind, tag serial, epoch, reader, run, ranges)`.
type StoreOp = (u8, u64, u32, u16, Vec<(u32, u16)>, Vec<(u32, u32)>);

/// Apply one operation to the store and to the reference and require the
/// same report from both.
fn apply_store_op(store: &mut Observations, reference: &mut StoreRef, op: &StoreOp) {
    let (kind, serial, epoch, reader, ref run, ref ranges) = *op;
    let subject = tag(serial);
    match kind {
        // one reading
        0..=3 => {
            let r = RawReading::new(Epoch(epoch), subject, ReaderId(reader));
            assert_eq!(store.insert(r), ref_insert(reference, &r), "insert {r:?}");
        }
        // a run of one subject: unsorted, with duplicates, the widest at one
        // epoch past the inline capacity
        4..=6 => {
            let mut readings: Vec<RawReading> = if kind == 6 {
                wide_run(subject, epoch)
            } else {
                let mut readings: Vec<RawReading> = run
                    .iter()
                    .map(|&(t, reader)| RawReading::new(Epoch(t), subject, ReaderId(reader)))
                    .collect();
                readings.extend_from_within(..readings.len() / 2);
                readings
            };
            let mut changed = BTreeSet::new();
            let mut added = 0;
            for r in &readings {
                if ref_insert(reference, r) {
                    changed.insert(r.time);
                    added += 1;
                }
            }
            let mut got = vec![Epoch(u32::MAX)];
            assert_eq!(store.insert_run(subject, &mut readings, &mut got), added);
            assert_eq!(got[0], Epoch(u32::MAX), "insert_run appends");
            assert_eq!(got[1..], changed.into_iter().collect::<Vec<_>>());
        }
        // truncation to arbitrary (unsorted, overlapping) inclusive ranges
        7 => {
            let ranges: Vec<(Epoch, Epoch)> = ranges
                .iter()
                .map(|&(lo, len)| (Epoch(lo), Epoch(lo + len)))
                .collect();
            let expected = ref_remove(reference, subject, |e| {
                ranges.iter().any(|&(lo, hi)| lo <= e && e <= hi)
            });
            let mut removed = Vec::new();
            assert_eq!(
                store.retain_ranges_for(subject, &ranges, &mut removed),
                expected.len()
            );
            assert_eq!(removed, expected);
        }
        // the whole subject
        _ => {
            let expected = ref_remove(reference, subject, |_| false);
            let mut removed = Vec::new();
            store.remove_tag(subject, &mut removed);
            assert_eq!(removed, expected);
        }
    }
    // Every reference entry in the reference's order, readers ascending.
    let expected: Vec<((TagId, Epoch), Vec<LocationId>)> = reference
        .iter()
        .map(|(&key, readers)| (key, readers.iter().copied().collect()))
        .collect();
    assert_eq!(flatten(store), expected, "after {op:?}");
    // The running count matches both the reference and a recount.
    let recount: usize = store.entries().map(|(_, list)| list.len()).sum();
    assert_eq!(store.len(), recount);
    assert_eq!(store.len(), reference.len());
    assert_eq!(store.is_empty(), reference.is_empty());
}

/// The journal rule: one set of changed epochs per dirty tag.
type JournalRef = BTreeMap<TagId, BTreeSet<Epoch>>;

/// One journal operation: `(kind, tag serial, epoch, batch, query tag
/// mask, cutoff)`.
type JournalOp = (u8, u64, u32, Vec<u32>, u8, Option<u32>);

fn apply_journal_op(dirty: &mut DirtySet, reference: &mut JournalRef, op: &JournalOp) {
    let (kind, serial, epoch, ref batch, mask, cutoff) = *op;
    let subject = tag(serial);
    match kind {
        // one epoch, anywhere
        0..=2 => {
            dirty.record(subject, Epoch(epoch));
            reference.entry(subject).or_default().insert(Epoch(epoch));
        }
        // the epoch last recorded again, or one past it
        3 => {
            let last = reference
                .get(&subject)
                .and_then(|set| set.last().copied())
                .unwrap_or(Epoch(epoch));
            let epoch = if epoch % 2 == 0 { last } else { last.plus(1) };
            dirty.record(subject, epoch);
            reference.entry(subject).or_default().insert(epoch);
        }
        // a batch in any order, with duplicates; kind 5 sorted, as store
        // mutations report them
        4 | 5 => {
            let mut epochs: Vec<Epoch> = batch.iter().map(|&t| Epoch(t)).collect();
            if kind == 5 {
                epochs.sort();
                epochs.dedup();
            } else {
                epochs.extend_from_within(..epochs.len() / 2);
            }
            dirty.record_all(subject, epochs.iter().copied());
            if !epochs.is_empty() {
                reference.entry(subject).or_default().extend(epochs);
            }
        }
        // dirty without epochs
        6 => {
            dirty.mark(subject);
            reference.entry(subject).or_default();
        }
        _ => {
            dirty.clear();
            reference.clear();
        }
    }
    assert_eq!(dirty.num_tags(), reference.len(), "after {op:?}");
    assert_eq!(dirty.is_empty(), reference.is_empty());
    let entries: Vec<(TagId, Vec<Epoch>)> = dirty
        .entries()
        .map(|(tag, epochs)| (tag, epochs.to_vec()))
        .collect();
    let expected: Vec<(TagId, Vec<Epoch>)> = reference
        .iter()
        .map(|(&tag, set)| (tag, set.iter().copied().collect()))
        .collect();
    assert_eq!(entries, expected, "after {op:?}");
    // Serial 6 is never journaled.
    for t in (0..7).map(tag) {
        assert_eq!(
            dirty.epochs_of(t).map(<[Epoch]>::to_vec),
            reference.get(&t).map(|set| set.iter().copied().collect())
        );
    }
    let tags: Vec<TagId> = (0..6)
        .filter(|bit| mask & (1 << bit) != 0)
        .map(tag)
        .collect();
    let cutoff = cutoff.map(Epoch);
    let expected: Vec<Epoch> = tags
        .iter()
        .filter_map(|t| reference.get(t))
        .flatten()
        .copied()
        .filter(|&e| cutoff.is_none_or(|c| e <= c))
        .collect::<BTreeSet<Epoch>>()
        .into_iter()
        .collect();
    let mut union = vec![Epoch(u32::MAX)];
    dirty.union_for_until(tags.iter().copied(), cutoff, &mut union);
    assert_eq!(union, expected, "union over {tags:?} until {cutoff:?}");
}

/// `items` in an order drawn from `seed` (a Fisher–Yates shuffle).
fn shuffle<T: Clone>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        out.swap(i, (seed % (i as u64 + 1)) as usize);
    }
    out
}

/// A store of `readings`, inserted in the given order, after each of
/// `churn` was given a reading and removed again: the freed slots go to the
/// tags that come next, so a tag that is both churned and read is removed
/// and re-inserted.
fn build_store(readings: &[RawReading], churn: &[TagId]) -> Observations {
    let mut store = Observations::new();
    for &t in churn {
        store.insert(RawReading::new(Epoch(99), t, ReaderId(0)));
    }
    let mut removed = Vec::new();
    for &t in churn {
        store.remove_tag(t, &mut removed);
    }
    for r in readings {
        store.insert(*r);
    }
    store
}

/// A journal of `records`, in the given order, after each of `churn` was
/// recorded and the journal cleared.
fn build_journal(records: &[(TagId, Epoch)], churn: &[TagId]) -> DirtySet {
    let mut dirty = DirtySet::new();
    for &t in churn {
        dirty.record(t, Epoch(99));
    }
    dirty.clear();
    for &(t, e) in records {
        dirty.record(t, e);
    }
    dirty
}

proptest! {
    /// Any interleaving of single inserts, unsorted and duplicated runs,
    /// truncations and whole-tag removals leaves the store holding, and
    /// reporting, exactly what the `BTreeMap<(tag, epoch), BTreeSet<reader>>`
    /// rule does — including a `(tag, epoch)` heard by more readers than a
    /// reader set keeps inline, which every case starts with.
    #[test]
    fn store_matches_the_btreemap_rule(
        first_tag in 0u64..6,
        ops in prop::collection::vec(
            (
                0u8..9,
                0u64..6,
                0u32..30,
                0u16..16,
                prop::collection::vec((0u32..30, 0u16..16), 0..12),
                prop::collection::vec((0u32..30, 0u32..6), 0..4),
            ),
            1..80,
        ),
    ) {
        let mut store = Observations::new();
        let mut reference = StoreRef::new();
        let wide: StoreOp = (6, first_tag, 11, 0, Vec::new(), Vec::new());
        for op in std::iter::once(&wide).chain(&ops) {
            apply_store_op(&mut store, &mut reference, op);
        }
    }

    /// The sorted per-tag journal lists equal the `BTreeSet` journal under
    /// any interleaving of single records, batches in any order with
    /// duplicates, marks and clears — and so do `epochs_of`, `entries` and
    /// the clamped union.
    #[test]
    fn journal_matches_the_btreeset_rule(
        ops in prop::collection::vec(
            (
                0u8..8,
                0u64..6,
                0u32..40,
                prop::collection::vec(0u32..40, 0..10),
                any::<u8>(),
                prop::option::of(0u32..40),
            ),
            1..80,
        ),
    ) {
        let mut dirty = DirtySet::new();
        let mut reference = JournalRef::new();
        for op in &ops {
            apply_journal_op(&mut dirty, &mut reference, op);
        }
    }

    /// A store and a journal with the same contents compare equal, print
    /// the same and walk their tags in ascending order, whatever order they
    /// were built in and whichever slots their tags were given — including
    /// slots freed by a removed tag (or a cleared journal) and reused, and a
    /// tag removed and inserted again.
    #[test]
    fn equal_contents_are_equal_whatever_the_build_order(
        records in prop::collection::vec((0u64..6, 0u32..30, 0u16..8), 1..60),
        seed in any::<u64>(),
        churn in prop::collection::vec(0u64..8, 0..6),
    ) {
        let shuffled = shuffle(&records, seed);
        let readings = |v: &[(u64, u32, u16)]| -> Vec<RawReading> {
            v.iter()
                .map(|&(t, e, r)| RawReading::new(Epoch(e), tag(t), ReaderId(r)))
                .collect()
        };
        let churn: Vec<TagId> = churn.into_iter().map(tag).collect();
        let a = build_store(&readings(&records), &[]);
        let b = build_store(&readings(&shuffled), &churn);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        prop_assert_eq!(flatten(&a), flatten(&b));
        let tags: Vec<TagId> = b.tags().collect();
        prop_assert!(tags.windows(2).all(|w| w[0] < w[1]), "{:?}", tags);
        prop_assert_eq!(b.entries().map(|(t, _)| t).collect::<Vec<_>>(), tags);

        let pairs = |v: &[(u64, u32, u16)]| -> Vec<(TagId, Epoch)> {
            v.iter().map(|&(t, e, _)| (tag(t), Epoch(e))).collect()
        };
        let a = build_journal(&pairs(&records), &[]);
        let b = build_journal(&pairs(&shuffled), &churn);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let tags: Vec<TagId> = b.entries().map(|(t, _)| t).collect();
        prop_assert!(tags.windows(2).all(|w| w[0] < w[1]), "{:?}", tags);
    }
}
