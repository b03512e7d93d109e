//! Sparse index over raw RFID readings.
//!
//! RFINFER never needs the dense binary matrices `x` and `y` of the paper's
//! notation — almost all entries are zero. What it needs, per tag, is the
//! list of epochs at which the tag was read and by which readers, plus a fast
//! way to find which containers were co-located with an object (same epoch,
//! same reader), which drives candidate pruning (Appendix A.3).

use rfid_types::{Epoch, LocationId, RawReading, ReadingBatch, TagId};
use std::collections::{BTreeMap, BTreeSet};

/// The readers that detected one tag during one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsAt {
    /// The epoch of the observation.
    pub epoch: Epoch,
    /// Sorted, de-duplicated list of reader locations that detected the tag.
    pub readers: Vec<LocationId>,
}

/// Sparse per-tag observation index built from raw readings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observations {
    per_tag: BTreeMap<TagId, Vec<ObsAt>>,
}

impl Observations {
    /// Create an empty index.
    pub fn new() -> Observations {
        Observations::default()
    }

    /// Build an index from a batch of raw readings.
    pub fn from_batch(batch: &ReadingBatch) -> Observations {
        let mut obs = Observations::new();
        for r in batch.readings_unordered() {
            obs.insert(*r);
        }
        obs
    }

    /// Insert a single reading. Returns whether the index changed (a reading
    /// already present is a no-op) — the signal incremental inference uses to
    /// journal dirty `(tag, epoch)` pairs.
    pub fn insert(&mut self, reading: RawReading) -> bool {
        let entry = self.per_tag.entry(reading.tag).or_default();
        let loc = reading.reader.location();
        // Readings arrive roughly in time order: the affected epoch is almost
        // always the last entry (or a brand-new one past it). Check that slot
        // first; anything older is found by binary search — the list is
        // epoch-sorted, so a miss must never walk it linearly.
        let pos = match entry.last() {
            None => Err(0),
            Some(last) if last.epoch == reading.time => Ok(entry.len() - 1),
            Some(last) if last.epoch < reading.time => Err(entry.len()),
            _ => entry.binary_search_by_key(&reading.time, |o| o.epoch),
        };
        match pos {
            Ok(at) => match entry[at].readers.binary_search(&loc) {
                Ok(_) => false,
                Err(pos) => {
                    entry[at].readers.insert(pos, loc);
                    true
                }
            },
            Err(at) => {
                entry.insert(
                    at,
                    ObsAt {
                        epoch: reading.time,
                        readers: vec![loc],
                    },
                );
                true
            }
        }
    }

    /// Merge a run of readings of one tag — in any order, duplicates
    /// included; sorted in place — into the index.
    ///
    /// Equivalent to replaying the run through [`Self::insert`], but the
    /// tag's list is resolved once and merged in `O(n + m)` rather than
    /// searched and shifted per reading. Returns what `insert` reports one
    /// `bool` at a time: the epochs at which the tag's observations changed,
    /// ascending, and the number of readings not already present.
    pub fn insert_run(&mut self, tag: TagId, run: &mut [RawReading]) -> (Vec<Epoch>, usize) {
        debug_assert!(run.iter().all(|r| r.tag == tag), "a run is one tag's");
        if run.is_empty() {
            return (Vec::new(), 0);
        }
        // With the tag fixed, `RawReading`'s order is (epoch, reader) — the
        // order exports produce, which the sort detects in one pass.
        run.sort_unstable();
        let mut src: Vec<ObsAt> = Vec::new();
        for r in run {
            let loc = r.reader.location();
            match src.last_mut() {
                Some(last) if last.epoch == r.time => {
                    if last.readers.last() != Some(&loc) {
                        last.readers.push(loc);
                    }
                }
                _ => src.push(ObsAt {
                    epoch: r.time,
                    readers: vec![loc],
                }),
            }
        }
        merge_obs_lists(self.per_tag.entry(tag).or_default(), src)
    }

    /// All tags with at least one observation.
    pub fn tags(&self) -> impl Iterator<Item = TagId> + '_ {
        self.per_tag.keys().copied()
    }

    /// All observed object (item) tags.
    pub fn objects(&self) -> Vec<TagId> {
        self.tags().filter(|t| t.is_object()).collect()
    }

    /// All observed container (case/pallet) tags.
    pub fn containers(&self) -> Vec<TagId> {
        self.tags().filter(|t| t.is_container()).collect()
    }

    /// Observations of one tag, in epoch order.
    pub fn obs_for(&self, tag: TagId) -> &[ObsAt] {
        self.per_tag.get(&tag).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// All `(tag, observations)` entries in ascending tag order — one walk
    /// over the index instead of one tree lookup per tag. This is how the
    /// dense inference path resolves every per-tag observation slice once,
    /// up front, before entering the EM loops.
    pub fn entries(&self) -> impl Iterator<Item = (TagId, &[ObsAt])> {
        self.per_tag.iter().map(|(t, v)| (*t, v.as_slice()))
    }

    /// The readers that detected `tag` at exactly epoch `t`, if any.
    pub fn readers_at(&self, tag: TagId, t: Epoch) -> Option<&[LocationId]> {
        let all = self.obs_for(tag);
        all.binary_search_by_key(&t, |o| o.epoch)
            .ok()
            .map(|idx| all[idx].readers.as_slice())
    }

    /// Number of distinct (tag, epoch) observations.
    pub fn len(&self) -> usize {
        self.per_tag.values().map(|v| v.len()).sum()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.per_tag.is_empty()
    }

    /// The earliest observed epoch.
    pub fn first_epoch(&self) -> Option<Epoch> {
        self.per_tag
            .values()
            .filter_map(|v| v.first().map(|o| o.epoch))
            .min()
    }

    /// The latest observed epoch.
    pub fn last_epoch(&self) -> Option<Epoch> {
        self.per_tag
            .values()
            .filter_map(|v| v.last().map(|o| o.epoch))
            .max()
    }

    /// Count, for each container, the number of epochs at which it was read
    /// by the *same reader in the same epoch* as `object` — the co-location
    /// signal that seeds containment inference and candidate pruning. The
    /// result is sorted by tag, ascending, and omits zero counts.
    pub fn colocation_counts(&self, object: TagId) -> Vec<(TagId, usize)> {
        let mut counts = Vec::new();
        self.colocation_counts_into(object, &mut counts);
        counts
    }

    /// [`Self::colocation_counts`] into a reusable buffer: `counts` is
    /// cleared and refilled, so a caller ranking candidates for thousands of
    /// objects per inference run pays for one allocation, not one tree
    /// rebuild per object.
    pub fn colocation_counts_into(&self, object: TagId, counts: &mut Vec<(TagId, usize)>) {
        counts.clear();
        let object_obs = self.obs_for(object);
        if object_obs.is_empty() {
            return;
        }
        // `per_tag` iterates in ascending tag order, so pushing keeps
        // `counts` sorted by tag with no post-pass.
        for (tag, obs_list) in &self.per_tag {
            if !tag.is_container() || *tag == object {
                continue;
            }
            let count = colocated_epochs(object_obs, obs_list);
            if count > 0 {
                counts.push((*tag, count));
            }
        }
    }

    /// The `limit` containers most frequently co-located with `object`
    /// (candidate pruning, Appendix A.3), most frequent first.
    pub fn candidate_containers(&self, object: TagId, limit: usize) -> Vec<TagId> {
        let mut scratch = Vec::new();
        self.candidate_containers_with(object, limit, &mut scratch)
    }

    /// [`Self::candidate_containers`] with a caller-owned scratch buffer for
    /// the intermediate counts, reusable across objects of one inference run.
    pub fn candidate_containers_with(
        &self,
        object: TagId,
        limit: usize,
        scratch: &mut Vec<(TagId, usize)>,
    ) -> Vec<TagId> {
        self.colocation_counts_into(object, scratch);
        scratch.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        scratch.iter().take(limit).map(|&(c, _)| c).collect()
    }

    /// Drop, for the given tag, every observation outside the union of the
    /// provided inclusive epoch ranges. Used by per-object history
    /// truncation. Returns the epochs whose observations were removed, so
    /// incremental inference can invalidate exactly the affected cache
    /// entries.
    pub fn retain_ranges_for(&mut self, tag: TagId, ranges: &[(Epoch, Epoch)]) -> Vec<Epoch> {
        let mut removed = Vec::new();
        if let Some(list) = self.per_tag.get_mut(&tag) {
            list.retain(|o| {
                let keep = ranges
                    .iter()
                    .any(|&(lo, hi)| o.epoch >= lo && o.epoch <= hi);
                if !keep {
                    removed.push(o.epoch);
                }
                keep
            });
            if list.is_empty() {
                self.per_tag.remove(&tag);
            }
        }
        removed
    }

    /// Drop every observation of one tag; returns the removed epochs, as
    /// `retain_ranges_for(tag, &[])` would.
    pub fn remove_tag(&mut self, tag: TagId) -> Vec<Epoch> {
        let list = self.per_tag.remove(&tag).unwrap_or_default();
        list.into_iter().map(|o| o.epoch).collect()
    }

    /// The set of epochs at which any of the given tags was observed.
    pub fn epochs_of(&self, tags: &[TagId]) -> BTreeSet<Epoch> {
        let mut set = BTreeSet::new();
        for tag in tags {
            for o in self.obs_for(*tag) {
                set.insert(o.epoch);
            }
        }
        set
    }
}

/// Number of epochs at which two epoch-sorted observation lists share at
/// least one reader — the co-location count of candidate pruning.
fn colocated_epochs(object_obs: &[ObsAt], obs_list: &[ObsAt]) -> usize {
    let mut count = 0usize;
    let mut i = 0usize;
    let mut j = 0usize;
    while i < object_obs.len() && j < obs_list.len() {
        match object_obs[i].epoch.cmp(&obs_list[j].epoch) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let shared = object_obs[i]
                    .readers
                    .iter()
                    .any(|r| obs_list[j].readers.contains(r));
                if shared {
                    count += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Merge one tag's sorted observation list into another, preserving the
/// per-epoch sorted, de-duplicated reader lists. `dst` and `src` are both in
/// strictly ascending epoch order (the invariant [`Observations::insert`]
/// maintains). Returns the epochs of `dst` that changed, ascending, and the
/// number of `(epoch, reader)` pairs added.
fn merge_obs_lists(dst: &mut Vec<ObsAt>, mut src: Vec<ObsAt>) -> (Vec<Epoch>, usize) {
    let (Some(first), Some(last)) = (src.first(), src.last()) else {
        return (Vec::new(), 0);
    };
    // Disjoint fast paths: the run lies wholly after what is stored (or
    // nothing is) or wholly before it — migrated history landing behind the
    // first local readings. Every incoming observation is new either way.
    let after = dst.last().is_none_or(|o| first.epoch > o.epoch);
    let before = dst.first().is_some_and(|o| last.epoch < o.epoch);
    if after || before {
        let changed = src.iter().map(|o| o.epoch).collect();
        let added = src.iter().map(|o| o.readers.len()).sum();
        if before || dst.is_empty() {
            src.append(dst);
            *dst = src;
        } else {
            dst.append(&mut src);
        }
        return (changed, added);
    }
    let mut changed = Vec::new();
    let mut added = 0usize;
    let old = std::mem::take(dst);
    dst.reserve(old.len() + src.len());
    let mut a = old.into_iter().peekable();
    let mut b = src.into_iter().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) if x.epoch < y.epoch => dst.push(a.next().expect("peeked")),
            (Some(x), Some(y)) if x.epoch == y.epoch => {
                let mut obs = a.next().expect("peeked");
                let had = obs.readers.len();
                merge_sorted_readers(&mut obs.readers, &b.next().expect("peeked").readers);
                if obs.readers.len() > had {
                    changed.push(obs.epoch);
                    added += obs.readers.len() - had;
                }
                dst.push(obs);
            }
            (_, Some(_)) => {
                let obs = b.next().expect("peeked");
                changed.push(obs.epoch);
                added += obs.readers.len();
                dst.push(obs);
            }
            (_, None) => {
                dst.extend(a);
                return (changed, added);
            }
        }
    }
}

/// Union two sorted, de-duplicated reader lists into the first.
fn merge_sorted_readers(dst: &mut Vec<LocationId>, src: &[LocationId]) {
    if src.is_empty() {
        return;
    }
    // Disjoint-suffix fast path.
    if dst.last().is_none_or(|last| src[0] > *last) {
        dst.extend_from_slice(src);
        return;
    }
    let old = std::mem::take(dst);
    dst.reserve(old.len() + src.len());
    let mut a = old.into_iter().peekable();
    let mut b = src.iter().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => match x.cmp(y) {
                std::cmp::Ordering::Less => dst.push(a.next().expect("peeked")),
                std::cmp::Ordering::Greater => dst.push(*b.next().expect("peeked")),
                std::cmp::Ordering::Equal => {
                    dst.push(a.next().expect("peeked"));
                    b.next();
                }
            },
            (Some(_), None) => {
                dst.extend(a);
                return;
            }
            (None, Some(_)) => {
                dst.extend(b.copied());
                return;
            }
            (None, None) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_types::ReaderId;

    fn read(t: u32, tag: TagId, reader: u16) -> RawReading {
        RawReading::new(Epoch(t), tag, ReaderId(reader))
    }

    fn sample() -> Observations {
        let batch = ReadingBatch::from_readings(vec![
            read(1, TagId::item(1), 0),
            read(1, TagId::case(1), 0),
            read(2, TagId::item(1), 0),
            read(2, TagId::case(1), 0),
            read(2, TagId::case(2), 1),
            read(3, TagId::item(1), 1),
            read(3, TagId::case(2), 1),
            read(3, TagId::item(1), 2), // two readers in one epoch
        ]);
        Observations::from_batch(&batch)
    }

    #[test]
    fn per_tag_obs_are_ordered_and_merged_per_epoch() {
        let obs = sample();
        let item = obs.obs_for(TagId::item(1));
        assert_eq!(item.len(), 3);
        assert_eq!(item[0].epoch, Epoch(1));
        assert_eq!(item[2].epoch, Epoch(3));
        assert_eq!(item[2].readers, vec![LocationId(1), LocationId(2)]);
        assert_eq!(obs.len(), 3 + 2 + 2);
        assert_eq!(obs.first_epoch(), Some(Epoch(1)));
        assert_eq!(obs.last_epoch(), Some(Epoch(3)));
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut obs = sample();
        let before = obs.len();
        assert!(!obs.insert(read(3, TagId::item(1), 1)), "duplicate reading");
        assert_eq!(obs.len(), before);
        assert_eq!(obs.readers_at(TagId::item(1), Epoch(3)).unwrap().len(), 2);
        assert!(obs.readers_at(TagId::item(1), Epoch(5)).is_none());
        assert!(obs.insert(read(9, TagId::item(1), 1)), "new epoch");
        assert!(obs.insert(read(9, TagId::item(1), 2)), "new reader");
    }

    /// Out-of-order arrivals (a late reading older than everything stored,
    /// one landing in the middle, duplicates of both) must keep the per-tag
    /// list epoch-sorted with merged reader sets — the binary-search insert
    /// path, which the in-order fast path never exercises.
    #[test]
    fn insert_handles_out_of_order_arrivals() {
        let tag = TagId::item(1);
        let mut obs = Observations::new();
        assert!(obs.insert(read(10, tag, 0)), "first reading of a tag");
        assert!(obs.insert(read(20, tag, 0)), "in-order append");
        assert!(obs.insert(read(2, tag, 1)), "older than everything stored");
        assert!(obs.insert(read(15, tag, 2)), "lands in the middle");
        assert!(obs.insert(read(15, tag, 1)), "new reader at a middle epoch");
        assert!(!obs.insert(read(15, tag, 2)), "duplicate middle reading");
        assert!(!obs.insert(read(2, tag, 1)), "duplicate oldest reading");
        let list = obs.obs_for(tag);
        let epochs: Vec<Epoch> = list.iter().map(|o| o.epoch).collect();
        assert_eq!(epochs, vec![Epoch(2), Epoch(10), Epoch(15), Epoch(20)]);
        assert_eq!(list[2].readers, vec![LocationId(1), LocationId(2)]);
        // A replay in any order produces the same index.
        let mut replay = Observations::new();
        for r in [
            read(15, tag, 1),
            read(2, tag, 1),
            read(20, tag, 0),
            read(15, tag, 2),
            read(10, tag, 0),
        ] {
            assert!(replay.insert(r));
        }
        assert_eq!(replay.obs_for(tag), list);
    }

    #[test]
    fn entries_iterate_in_ascending_tag_order() {
        let obs = sample();
        let entries: Vec<(TagId, usize)> = obs.entries().map(|(t, list)| (t, list.len())).collect();
        assert_eq!(
            entries,
            vec![
                (TagId::item(1), 3),
                (TagId::case(1), 2),
                (TagId::case(2), 2)
            ]
        );
    }

    #[test]
    fn objects_and_containers_are_classified() {
        let obs = sample();
        assert_eq!(obs.objects(), vec![TagId::item(1)]);
        assert_eq!(obs.containers(), vec![TagId::case(1), TagId::case(2)]);
    }

    #[test]
    fn colocation_counts_require_same_epoch_and_reader() {
        let obs = sample();
        let counts = obs.colocation_counts(TagId::item(1));
        // case1 co-located with item1 at epochs 1 and 2 (reader 0); case2
        // co-located only at epoch 3 (reader 1) — at epoch 2 they were read
        // by different readers. Sorted by tag, ascending.
        assert_eq!(counts, vec![(TagId::case(1), 2), (TagId::case(2), 1)]);
        let cands = obs.candidate_containers(TagId::item(1), 1);
        assert_eq!(cands, vec![TagId::case(1)]);
        let cands2 = obs.candidate_containers(TagId::item(1), 5);
        assert_eq!(cands2.len(), 2);
        // The reusable-buffer variant agrees and refills the scratch.
        let mut scratch = vec![(TagId::item(9), 99)];
        assert_eq!(
            obs.candidate_containers_with(TagId::item(1), 5, &mut scratch),
            cands2
        );
        assert_eq!(scratch.len(), 2);
        obs.colocation_counts_into(TagId::item(1), &mut scratch);
        assert_eq!(scratch, counts);
        // An unobserved object yields no candidates and an emptied buffer.
        obs.colocation_counts_into(TagId::item(42), &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn retain_ranges_for_prunes_one_tag_only() {
        let mut obs = sample();
        let removed = obs.retain_ranges_for(TagId::item(1), &[(Epoch(3), Epoch(3))]);
        assert_eq!(removed, vec![Epoch(1), Epoch(2)]);
        assert_eq!(obs.obs_for(TagId::item(1)).len(), 1);
        assert_eq!(obs.obs_for(TagId::case(1)).len(), 2, "other tags untouched");
        let removed = obs.retain_ranges_for(TagId::item(1), &[(Epoch(9), Epoch(9))]);
        assert_eq!(removed, vec![Epoch(3)]);
        assert!(obs.obs_for(TagId::item(1)).is_empty());
        assert!(!obs.objects().contains(&TagId::item(1)));
        assert!(obs
            .retain_ranges_for(TagId::item(1), &[(Epoch(0), Epoch(9))])
            .is_empty());
    }

    /// Whole-tag removal is `retain_ranges_for(tag, &[])` by another route:
    /// same removed epochs, same index afterwards — for a tag with
    /// observations, one already removed and one never seen.
    #[test]
    fn remove_tag_matches_retaining_no_range() {
        for tag in [TagId::item(1), TagId::case(2), TagId::item(42)] {
            let mut whole = sample();
            let mut ranged = sample();
            for _ in 0..2 {
                assert_eq!(whole.remove_tag(tag), ranged.retain_ranges_for(tag, &[]));
                assert_eq!(whole, ranged);
            }
            assert!(whole.obs_for(tag).is_empty());
        }
        let mut obs = sample();
        assert_eq!(
            obs.remove_tag(TagId::item(1)),
            vec![Epoch(1), Epoch(2), Epoch(3)]
        );
    }

    #[test]
    fn merge_combines_indexes() {
        let mut a = Observations::new();
        a.insert(read(1, TagId::item(1), 0));
        let mut run = [
            read(2, TagId::item(1), 1),
            read(1, TagId::item(1), 0), // overlap
        ];
        assert_eq!(a.insert_run(TagId::item(1), &mut run), (vec![Epoch(2)], 1));
        assert_eq!(a.obs_for(TagId::item(1)).len(), 2);
    }

    /// The run merge (vacant-tag adoption, append-only extension, and the
    /// general interleaved two-list merge) must produce exactly the index,
    /// the changed epochs and the new-reading count that reading-by-reading
    /// insertion produces — whatever the order of the run.
    #[test]
    fn merge_matches_insert_by_insert_reference() {
        // A deterministic little generator is enough to hit every path:
        // disjoint tags, strictly newer epochs, interleaved epochs, equal
        // epochs with disjoint readers, and exact duplicates.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..50 {
            let mut base = Observations::new();
            let mut reference = Observations::new();
            let mut incoming: BTreeMap<TagId, Vec<RawReading>> = BTreeMap::new();
            for _ in 0..60 {
                let r = read(
                    (next() % 20) as u32,
                    if next() % 2 == 0 {
                        TagId::item(next() % 3)
                    } else {
                        TagId::case(next() % 3)
                    },
                    (next() % 4) as u16,
                );
                if next() % 2 == 0 {
                    base.insert(r);
                    reference.insert(r);
                } else {
                    incoming.entry(r.tag).or_default().push(r);
                }
            }
            for (tag, run) in &mut incoming {
                // the reference replays the (unsorted, duplicated) run
                // through insert()
                let mut changed = BTreeSet::new();
                let mut added = 0;
                for r in run.iter() {
                    if reference.insert(*r) {
                        changed.insert(r.time);
                        added += 1;
                    }
                }
                let changed: Vec<Epoch> = changed.into_iter().collect();
                assert_eq!(base.insert_run(*tag, run), (changed, added));
            }
            assert_eq!(base.per_tag, reference.per_tag);
        }
    }

    #[test]
    fn merge_append_only_and_vacant_fast_paths() {
        let item = TagId::item(1);
        let mut a = Observations::new();
        a.insert(read(1, item, 0));
        a.insert(read(2, item, 1));
        // strictly newer epochs for an existing tag → append path
        let mut newer = [read(5, item, 0), read(6, item, 2)];
        assert_eq!(
            a.insert_run(item, &mut newer),
            (vec![Epoch(5), Epoch(6)], 2)
        );
        // unseen tag → adoption path
        let mut unseen = [read(3, TagId::case(7), 1)];
        assert_eq!(
            a.insert_run(TagId::case(7), &mut unseen),
            (vec![Epoch(3)], 1)
        );
        assert_eq!(a.obs_for(item).len(), 4);
        assert_eq!(a.obs_for(TagId::case(7)).len(), 1);
        // an empty run is a no-op that leaves no empty list behind; a replayed
        // run changes nothing
        let before = a.clone();
        assert_eq!(a.insert_run(TagId::case(9), &mut []), (Vec::new(), 0));
        assert_eq!(a.insert_run(item, &mut newer), (Vec::new(), 0));
        assert_eq!(a, before);
    }

    #[test]
    fn epochs_of_unions_tags() {
        let obs = sample();
        let set = obs.epochs_of(&[TagId::item(1), TagId::case(2)]);
        assert_eq!(set.len(), 3);
    }
}
