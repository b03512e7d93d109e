//! Sparse index over raw RFID readings.
//!
//! RFINFER never needs the dense binary matrices `x` and `y` of the paper's
//! notation — almost all entries are zero. What it needs, per tag, is the
//! list of epochs at which the tag was read and by which readers, plus a fast
//! way to find which containers were co-located with an object (same epoch,
//! same reader), which drives candidate pruning (Appendix A.3).

use crate::tag_index::TagIndex;
use rfid_types::{Epoch, LocationId, RawReading, ReadingBatch, TagId};
use std::fmt;
use std::ops::Deref;

/// A sorted, de-duplicated set of reader locations, stored inline up to
/// [`ReaderSet::INLINE`] readers and on the heap only beyond that.
///
/// The benchmark's reference chains read a tag by one to three readers per
/// epoch, so an inline set makes recording a reading allocation-free and
/// cloning a store a flat copy. Dereferences to the sorted slice.
#[derive(Clone)]
pub struct ReaderSet(Repr);

/// Either form holds its readers in `ids[..len]`; a spilled set doubles its
/// boxed slice when full, so building one reader by reader stays linear.
#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        ids: [LocationId; ReaderSet::INLINE],
    },
    Spilled {
        len: u32,
        ids: Box<[LocationId]>,
    },
}

impl ReaderSet {
    /// Readers held inline: as many `u16` location ids as fit beside the
    /// discriminant and a length byte in the 24 bytes the spilled form (a
    /// boxed slice and its length) takes, so an [`ObsAt`] stays 32 bytes.
    pub const INLINE: usize = 11;

    /// The empty set.
    pub fn new() -> ReaderSet {
        ReaderSet(Repr::Inline {
            len: 0,
            ids: [LocationId(0); ReaderSet::INLINE],
        })
    }

    /// The set of one reader: what every new `(tag, epoch)` starts as.
    pub(crate) fn one(loc: LocationId) -> ReaderSet {
        let mut ids = [LocationId(0); ReaderSet::INLINE];
        ids[0] = loc;
        ReaderSet(Repr::Inline { len: 1, ids })
    }

    /// The readers, ascending.
    pub fn as_slice(&self) -> &[LocationId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Spilled { len, ids } => &ids[..*len as usize],
        }
    }

    /// Add a reader; returns whether it was new. Appending past the largest
    /// reader — the order runs and exports produce — needs no search.
    pub fn insert(&mut self, loc: LocationId) -> bool {
        let len = self.len();
        let at = match self.as_slice() {
            [.., last] if *last < loc => len,
            readers => match readers.binary_search(&loc) {
                Ok(_) => return false,
                Err(at) => at,
            },
        };
        let capacity = match &self.0 {
            Repr::Inline { ids, .. } => ids.len(),
            Repr::Spilled { ids, .. } => ids.len(),
        };
        if len == capacity {
            let mut grown = vec![LocationId(0); 2 * len].into_boxed_slice();
            grown[..len].copy_from_slice(self.as_slice());
            // At most 65,536 distinct `u16` locations: the length fits.
            let len = len as u32;
            self.0 = Repr::Spilled { len, ids: grown };
        }
        let ids: &mut [LocationId] = match &mut self.0 {
            Repr::Inline { len, ids } => {
                *len += 1;
                ids
            }
            Repr::Spilled { len, ids } => {
                *len += 1;
                ids
            }
        };
        ids.copy_within(at..len, at + 1);
        ids[at] = loc;
        true
    }

    /// Add every reader of a sorted slice; returns how many were new.
    pub(crate) fn union_with(&mut self, other: &[LocationId]) -> usize {
        let mut added = 0;
        for &loc in other {
            added += usize::from(self.insert(loc));
        }
        added
    }
}

impl Default for ReaderSet {
    fn default() -> ReaderSet {
        ReaderSet::new()
    }
}

impl Deref for ReaderSet {
    type Target = [LocationId];
    fn deref(&self) -> &[LocationId] {
        self.as_slice()
    }
}

impl PartialEq for ReaderSet {
    fn eq(&self, other: &ReaderSet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ReaderSet {}

impl fmt::Debug for ReaderSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// The readers that detected one tag during one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsAt {
    /// The epoch of the observation.
    pub epoch: Epoch,
    /// Sorted, de-duplicated set of reader locations that detected the tag.
    pub readers: ReaderSet,
}

// The solvers walk per-tag `ObsAt` slices epoch by epoch; two per cache line.
const _: () = assert!(std::mem::size_of::<ObsAt>() <= 32);

/// Sparse per-tag observation index built from raw readings: one hashed
/// lookup per reading, every walk in ascending tag order. Two stores with
/// the same observations are equal whatever order they were built in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observations {
    per_tag: TagIndex<ObsAt>,
    /// Number of `(tag, epoch)` entries over all of `per_tag`.
    len: usize,
}

impl Observations {
    /// Create an empty index.
    pub fn new() -> Observations {
        Observations::default()
    }

    /// Build an index from a batch of raw readings.
    pub fn from_batch(batch: &ReadingBatch) -> Observations {
        let mut obs = Observations::new();
        for r in batch.readings() {
            obs.insert(*r);
        }
        obs
    }

    /// Insert a single reading. Returns whether the index changed (a reading
    /// already present is a no-op) — the signal incremental inference uses to
    /// journal dirty `(tag, epoch)` pairs.
    pub fn insert(&mut self, reading: RawReading) -> bool {
        let entry = self.per_tag.get_or_insert(reading.tag);
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
            Ok(at) => entry[at].readers.insert(loc),
            Err(at) => {
                entry.insert(
                    at,
                    ObsAt {
                        epoch: reading.time,
                        readers: ReaderSet::one(loc),
                    },
                );
                self.len += 1;
                true
            }
        }
    }

    /// Merge a run of readings of one tag — in any order, duplicates
    /// included; sorted in place — into the index.
    ///
    /// Equivalent to replaying the run through [`Self::insert`], but the
    /// tag's list is resolved once and merged in `O(n + m)` rather than
    /// searched and shifted per reading. Appends to `changed` what `insert`
    /// reports one `bool` at a time — the epochs at which the tag's
    /// observations changed, ascending — and returns the number of readings
    /// not already present.
    pub fn insert_run(
        &mut self,
        tag: TagId,
        run: &mut [RawReading],
        changed: &mut Vec<Epoch>,
    ) -> usize {
        debug_assert!(run.iter().all(|r| r.tag == tag), "a run is one tag's");
        if run.is_empty() {
            return 0;
        }
        // With the tag fixed, `RawReading`'s order is (epoch, reader) — the
        // order exports produce, which the sort detects in one pass.
        run.sort_unstable();
        let mut src: Vec<ObsAt> = Vec::new();
        for r in run {
            let loc = r.reader.location();
            match src.last_mut() {
                Some(last) if last.epoch == r.time => {
                    last.readers.insert(loc);
                }
                _ => src.push(ObsAt {
                    epoch: r.time,
                    readers: ReaderSet::one(loc),
                }),
            }
        }
        let (entries, added) = merge_obs_lists(self.per_tag.get_or_insert(tag), src, changed);
        self.len += entries;
        added
    }

    /// All tags with at least one observation.
    pub fn tags(&self) -> impl Iterator<Item = TagId> + '_ {
        self.per_tag.tags()
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
        self.per_tag.get(tag).unwrap_or(&[])
    }

    /// All `(tag, observations)` entries in ascending tag order — one walk
    /// over the index instead of one lookup per tag. This is how the dense
    /// inference path resolves every per-tag observation slice once, up
    /// front, before entering the EM loops.
    pub fn entries(&self) -> impl Iterator<Item = (TagId, &[ObsAt])> {
        self.per_tag.iter()
    }

    /// The readers that detected `tag` at exactly epoch `t`, if any.
    pub fn readers_at(&self, tag: TagId, t: Epoch) -> Option<&[LocationId]> {
        let all = self.obs_for(tag);
        all.binary_search_by_key(&t, |o| o.epoch)
            .ok()
            .map(|idx| all[idx].readers.as_slice())
    }

    /// Number of distinct (tag, epoch) observations, kept as a running count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.per_tag.is_empty()
    }

    /// Fill `counts` (cleared first) with, for each container, the number of
    /// epochs at which it was read by the *same reader in the same epoch* as
    /// `object` — the co-location signal that seeds containment inference and
    /// candidate pruning — sorted by tag, ascending, without zero counts.
    pub fn colocation_counts_into(&self, object: TagId, counts: &mut Vec<(TagId, usize)>) {
        counts.clear();
        let object_obs = self.obs_for(object);
        if object_obs.is_empty() {
            return;
        }
        // `per_tag` iterates in ascending tag order, so pushing keeps
        // `counts` sorted by tag with no post-pass.
        for (tag, obs_list) in self.per_tag.iter() {
            if !tag.is_container() || tag == object {
                continue;
            }
            let count = colocated_epochs(object_obs, obs_list);
            if count > 0 {
                counts.push((tag, count));
            }
        }
    }

    /// The `limit` containers most frequently co-located with `object`
    /// (candidate pruning, Appendix A.3), most frequent first, counted in a
    /// caller-owned scratch buffer reusable across the objects of one run.
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
    /// truncation. Appends the epochs whose observations were removed to
    /// `removed`, ascending, so incremental inference can invalidate exactly
    /// the affected cache entries, and returns how many there were.
    pub fn retain_ranges_for(
        &mut self,
        tag: TagId,
        ranges: &[(Epoch, Epoch)],
        removed: &mut Vec<Epoch>,
    ) -> usize {
        let Some(list) = self.per_tag.get_mut(tag) else {
            return 0;
        };
        let before = list.len();
        list.retain(|o| {
            let keep = ranges
                .iter()
                .any(|&(lo, hi)| o.epoch >= lo && o.epoch <= hi);
            if !keep {
                removed.push(o.epoch);
            }
            keep
        });
        let gone = before - list.len();
        self.len -= gone;
        if list.is_empty() {
            self.per_tag.remove(tag);
        }
        gone
    }

    /// Drop every observation of one tag, appending the removed epochs to
    /// `removed` as `retain_ranges_for(tag, &[], removed)` would.
    pub fn remove_tag(&mut self, tag: TagId, removed: &mut Vec<Epoch>) {
        if let Some(list) = self.per_tag.remove(tag) {
            self.len -= list.len();
            removed.extend(list.iter().map(|o| o.epoch));
        }
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
/// per-epoch reader sets. `dst` and `src` are both in strictly ascending
/// epoch order (the invariant [`Observations::insert`] maintains). Appends
/// the epochs of `dst` that changed to `changed`, ascending, and returns the
/// number of epochs `dst` gained and of `(epoch, reader)` pairs added.
fn merge_obs_lists(
    dst: &mut Vec<ObsAt>,
    mut src: Vec<ObsAt>,
    changed: &mut Vec<Epoch>,
) -> (usize, usize) {
    let (Some(first), Some(last)) = (src.first(), src.last()) else {
        return (0, 0);
    };
    // Disjoint fast paths: the run lies wholly after what is stored (or
    // nothing is) or wholly before it — migrated history landing behind the
    // first local readings. Every incoming observation is new either way.
    let after = dst.last().is_none_or(|o| first.epoch > o.epoch);
    let before = dst.first().is_some_and(|o| last.epoch < o.epoch);
    if after || before {
        changed.extend(src.iter().map(|o| o.epoch));
        let entries = src.len();
        let added = src.iter().map(|o| o.readers.len()).sum();
        if before || dst.is_empty() {
            src.append(dst);
            *dst = src;
        } else {
            dst.append(&mut src);
        }
        return (entries, added);
    }
    let mut entries = 0usize;
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
                let gained = obs.readers.union_with(&b.next().expect("peeked").readers);
                if gained > 0 {
                    changed.push(obs.epoch);
                    added += gained;
                }
                dst.push(obs);
            }
            (_, Some(_)) => {
                let obs = b.next().expect("peeked");
                changed.push(obs.epoch);
                entries += 1;
                added += obs.readers.len();
                dst.push(obs);
            }
            (_, None) => {
                dst.extend(a);
                return (entries, added);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_types::ReaderId;
    use std::collections::{BTreeMap, BTreeSet};

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
        assert_eq!(*item[2].readers, [LocationId(1), LocationId(2)]);
        assert_eq!(obs.len(), 3 + 2 + 2);
    }

    /// Past the inline capacity a reader set spills to the heap (and grows
    /// there twice over) and stays sorted, de-duplicated and equal to the
    /// same set built in another order.
    #[test]
    fn reader_set_spills_past_its_inline_capacity() {
        let n = 4 * ReaderSet::INLINE as u16 + 3;
        let mut up = ReaderSet::new();
        let mut down = ReaderSet::new();
        for k in 0..n {
            assert!(up.insert(LocationId(2 * k)));
            assert!(down.insert(LocationId(2 * (n - 1 - k))));
        }
        assert!(!up.insert(LocationId(4)), "duplicate after the spill");
        assert!(down.insert(LocationId(5)), "middle insert after the spill");
        assert!(down.insert(LocationId(1)), "front insert after the spill");
        assert_eq!(up.union_with(&[LocationId(1), LocationId(5)]), 2);
        assert_eq!(up, down);
        assert_eq!(up.len(), usize::from(n) + 2);
        assert!(up.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ReaderSet::one(LocationId(7)).as_slice(), [LocationId(7)]);
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
        assert_eq!(*list[2].readers, [LocationId(1), LocationId(2)]);
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
        let mut counts = vec![(TagId::item(9), 99)];
        obs.colocation_counts_into(TagId::item(1), &mut counts);
        // case1 co-located with item1 at epochs 1 and 2 (reader 0); case2
        // co-located only at epoch 3 (reader 1) — at epoch 2 they were read
        // by different readers. Sorted by tag, ascending.
        assert_eq!(counts, vec![(TagId::case(1), 2), (TagId::case(2), 1)]);
        let mut scratch = Vec::new();
        let cands = obs.candidate_containers_with(TagId::item(1), 1, &mut scratch);
        assert_eq!(cands, vec![TagId::case(1)]);
        let cands2 = obs.candidate_containers_with(TagId::item(1), 5, &mut scratch);
        assert_eq!(cands2, vec![TagId::case(1), TagId::case(2)]);
        assert_eq!(scratch.len(), 2);
        // An unobserved object yields no candidates and an emptied buffer.
        obs.colocation_counts_into(TagId::item(42), &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn retain_ranges_for_prunes_one_tag_only() {
        let mut obs = sample();
        let mut removed = Vec::new();
        let item = TagId::item(1);
        assert_eq!(
            obs.retain_ranges_for(item, &[(Epoch(3), Epoch(3))], &mut removed),
            2
        );
        assert_eq!(removed, vec![Epoch(1), Epoch(2)]);
        assert_eq!(obs.obs_for(item).len(), 1);
        assert_eq!(obs.obs_for(TagId::case(1)).len(), 2, "other tags untouched");
        assert_eq!(obs.len(), 1 + 2 + 2);
        removed.clear();
        obs.retain_ranges_for(item, &[(Epoch(9), Epoch(9))], &mut removed);
        assert_eq!(removed, vec![Epoch(3)]);
        assert!(obs.obs_for(item).is_empty());
        assert!(!obs.objects().contains(&item));
        removed.clear();
        assert_eq!(
            obs.retain_ranges_for(item, &[(Epoch(0), Epoch(9))], &mut removed),
            0
        );
        assert!(removed.is_empty());
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
                let (mut a, mut b) = (Vec::new(), Vec::new());
                whole.remove_tag(tag, &mut a);
                ranged.retain_ranges_for(tag, &[], &mut b);
                assert_eq!(a, b);
                assert_eq!(whole, ranged);
            }
            assert!(whole.obs_for(tag).is_empty());
        }
        let mut obs = sample();
        let mut removed = vec![Epoch(0)];
        obs.remove_tag(TagId::item(1), &mut removed);
        assert_eq!(removed, vec![Epoch(0), Epoch(1), Epoch(2), Epoch(3)]);
        assert_eq!(obs.len(), 2 + 2);
    }

    #[test]
    fn merge_combines_indexes() {
        let mut a = Observations::new();
        a.insert(read(1, TagId::item(1), 0));
        let mut run = [
            read(2, TagId::item(1), 1),
            read(1, TagId::item(1), 0), // overlap
        ];
        let mut changed = Vec::new();
        assert_eq!(a.insert_run(TagId::item(1), &mut run, &mut changed), 1);
        assert_eq!(changed, vec![Epoch(2)]);
        assert_eq!(a.obs_for(TagId::item(1)).len(), 2);
        assert_eq!(a.len(), 2);
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
                let mut expected = BTreeSet::new();
                let mut added = 0;
                for r in run.iter() {
                    if reference.insert(*r) {
                        expected.insert(r.time);
                        added += 1;
                    }
                }
                let expected: Vec<Epoch> = expected.into_iter().collect();
                let mut changed = Vec::new();
                assert_eq!(base.insert_run(*tag, run, &mut changed), added);
                assert_eq!(changed, expected);
            }
            assert_eq!(base, reference);
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
        let mut changed = Vec::new();
        assert_eq!(a.insert_run(item, &mut newer, &mut changed), 2);
        assert_eq!(changed, vec![Epoch(5), Epoch(6)]);
        // unseen tag → adoption path
        let mut unseen = [read(3, TagId::case(7), 1)];
        changed.clear();
        assert_eq!(a.insert_run(TagId::case(7), &mut unseen, &mut changed), 1);
        assert_eq!(changed, vec![Epoch(3)]);
        assert_eq!(a.obs_for(item).len(), 4);
        assert_eq!(a.obs_for(TagId::case(7)).len(), 1);
        assert_eq!(a.len(), 5);
        // an empty run is a no-op that leaves no empty list behind; a replayed
        // run changes nothing
        let before = a.clone();
        changed.clear();
        assert_eq!(a.insert_run(TagId::case(9), &mut [], &mut changed), 0);
        assert_eq!(a.insert_run(item, &mut newer, &mut changed), 0);
        assert!(changed.is_empty());
        assert_eq!(a, before);
    }
}
