//! One hashed map from a tag to its list, iterated in ascending tag order:
//! the index behind the observation store and the dirty journal.
//!
//! Both are written once per reading and walked in tag order once per run
//! (by the solver, the truncation pass and the checkpoint codec). A tree map
//! pays a walk per write; this map pays one hashed lookup and keeps the
//! ascending order in a side list that changes only when a tag joins or
//! leaves. Lists live in slots, and a slot freed by a leaving tag goes to the
//! next tag that joins. A removed tag's list is freed with it, while a
//! cleared map keeps every list's capacity, so a journal cleared every run
//! rebuilds no per-tag list from empty.

use rfid_types::TagId;
use std::fmt;

/// Multiplicative word hasher (the fx-hash recipe: rotate, xor, multiply by
/// a golden-ratio-derived odd constant) — the crate's one hasher. Its keys
/// are tags and tiny reader sets hashed on every reading or observation,
/// where SipHash's per-call setup dominates. It is deterministic, and no
/// map it keys is ever iterated, so it cannot affect any output.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

/// Builds [`FxHasher`]s for a `HashMap`.
pub(crate) type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// Tag → slot.
#[expect(
    clippy::disallowed_types,
    reason = "names an explicit deterministic hasher and is never iterated: every walk goes through the ascending `order`"
)]
type SlotOf = std::collections::HashMap<TagId, u32, FxBuildHasher>;

/// A map from tag to a list of `T`, one hashed lookup per access, iterated
/// in ascending tag order. A tag is in the map from the first time it is
/// given a list (possibly empty, see [`Self::get_or_insert`]) until it is
/// removed; equality compares tags and lists, never slots.
#[derive(Clone)]
pub(crate) struct TagIndex<T> {
    /// Per-tag lists; a free slot holds an empty list.
    slots: Vec<Vec<T>>,
    /// Free slots, the most recently freed last.
    free: Vec<u32>,
    /// The slot of every tag in the map.
    slot_of: SlotOf,
    /// Every tag in the map with its slot, ascending by tag.
    order: Vec<(TagId, u32)>,
}

impl<T> Default for TagIndex<T> {
    fn default() -> TagIndex<T> {
        TagIndex {
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: SlotOf::default(),
            order: Vec::new(),
        }
    }
}

impl<T> TagIndex<T> {
    /// Number of tags in the map.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no tag is in the map.
    pub(crate) fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The list of `tag`, if it is in the map.
    pub(crate) fn get(&self, tag: TagId) -> Option<&[T]> {
        let &slot = self.slot_of.get(&tag)?;
        Some(&self.slots[slot as usize])
    }

    /// The list of `tag`, mutably, if it is in the map.
    pub(crate) fn get_mut(&mut self, tag: TagId) -> Option<&mut Vec<T>> {
        let &slot = self.slot_of.get(&tag)?;
        Some(&mut self.slots[slot as usize])
    }

    /// The list of `tag`, which joins the map with an empty list if absent.
    pub(crate) fn get_or_insert(&mut self, tag: TagId) -> &mut Vec<T> {
        let slot = match self.slot_of.get(&tag) {
            Some(&slot) => slot,
            None => {
                let slot = self.vacant();
                self.link(tag, slot);
                slot
            }
        };
        &mut self.slots[slot as usize]
    }

    /// Let `fill` change the list of `tag` and return what it returns. An
    /// absent tag gets an empty list to fill, and joins the map only if
    /// `fill` leaves that list non-empty.
    pub(crate) fn update<R>(&mut self, tag: TagId, fill: impl FnOnce(&mut Vec<T>) -> R) -> R {
        if let Some(&slot) = self.slot_of.get(&tag) {
            return fill(&mut self.slots[slot as usize]);
        }
        let slot = self.vacant();
        let out = fill(&mut self.slots[slot as usize]);
        if self.slots[slot as usize].is_empty() {
            self.free.push(slot);
        } else {
            self.link(tag, slot);
        }
        out
    }

    /// Remove `tag` and return its list; `None` if it was absent. The slot
    /// keeps no capacity and goes to the next tag that joins.
    pub(crate) fn remove(&mut self, tag: TagId) -> Option<Vec<T>> {
        let slot = self.slot_of.remove(&tag)?;
        let at = self.order.binary_search_by_key(&tag, |&(t, _)| t);
        self.order.remove(at.expect("every mapped tag is ordered"));
        self.free.push(slot);
        Some(std::mem::take(&mut self.slots[slot as usize]))
    }

    /// Remove every tag; each list keeps its capacity for the tags to come.
    pub(crate) fn clear(&mut self) {
        for &(_, slot) in &self.order {
            self.slots[slot as usize].clear();
            self.free.push(slot);
        }
        self.order.clear();
        self.slot_of.clear();
    }

    /// Every `(tag, list)`, ascending by tag.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (TagId, &[T])> {
        self.order
            .iter()
            .map(|&(tag, slot)| (tag, self.slots[slot as usize].as_slice()))
    }

    /// Every tag, ascending.
    pub(crate) fn tags(&self) -> impl Iterator<Item = TagId> + '_ {
        self.order.iter().map(|&(tag, _)| tag)
    }

    /// A free slot (with an empty list), or a new one.
    fn vacant(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.slots.push(Vec::new());
            (self.slots.len() - 1) as u32
        })
    }

    /// Map `tag`, absent so far, to `slot`. The ordered list shifts every
    /// larger tag up by one; items sort below every case and pallet, so a
    /// joining item shifts at least every container.
    fn link(&mut self, tag: TagId, slot: u32) {
        self.slot_of.insert(tag, slot);
        let at = self.order.partition_point(|&(t, _)| t < tag);
        self.order.insert(at, (tag, slot));
    }
}

impl<T: PartialEq> PartialEq for TagIndex<T> {
    fn eq(&self, other: &TagIndex<T>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for TagIndex<T> {}

impl<T: fmt::Debug> fmt::Debug for TagIndex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tag that leaves frees its slot for the next tag that joins, a
    /// cleared map keeps its lists' capacity, and the map iterates by tag
    /// whatever the slots.
    #[test]
    fn a_freed_slot_is_reused_and_order_ignores_slots() {
        let (a, b, c) = (TagId::item(5), TagId::case(1), TagId::item(2));
        let mut map: TagIndex<u32> = TagIndex::default();
        map.get_or_insert(a).extend([1, 2, 3, 4]);
        map.get_or_insert(b).push(9);
        assert_eq!(map.remove(a), Some(vec![1, 2, 3, 4]));
        assert_eq!(map.remove(a), None);
        map.get_or_insert(c).push(7);
        assert_eq!(map.slot_of[&c], 0, "the freed slot goes to the next tag");
        map.get_or_insert(a).push(1);
        let tags: Vec<TagId> = map.tags().collect();
        assert_eq!(tags, [c, a, b]);

        let mut other: TagIndex<u32> = TagIndex::default();
        for (tag, list) in [(b, vec![9]), (a, vec![1]), (c, vec![7])] {
            other.get_or_insert(tag).extend(list);
        }
        assert_ne!(map.slot_of, other.slot_of);
        assert_eq!(map, other);
        assert_eq!(format!("{map:?}"), format!("{other:?}"));

        // An update that leaves an absent tag's list empty does not map it.
        assert_eq!(map.update(TagId::item(9), |list| list.len()), 0);
        assert_eq!(map.len(), 3);
        map.get_or_insert(b).extend(0..100);
        map.clear();
        assert!(map.is_empty() && map.get(b).is_none());
        assert_eq!(map.free.len(), map.slots.len());
        assert!(map.slots.iter().any(|list| list.capacity() >= 100));
    }
}
