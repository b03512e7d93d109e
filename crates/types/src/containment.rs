//! Containment relations between objects and containers.
//!
//! The paper's set `C` of containment relations is a set of
//! `(object id, container id)` pairs with each object in at most one
//! container ([`ContainmentMap`]). For evaluation we also need the *true*
//! containment as it evolves over time, including injected anomalies; that is
//! the [`ContainmentTimeline`].

use crate::ids::{Epoch, TagId};
use std::collections::BTreeMap;

/// A snapshot of containment relations: each object maps to its (single)
/// immediate container.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContainmentMap {
    map: BTreeMap<TagId, TagId>,
}

impl ContainmentMap {
    /// Create an empty containment map.
    pub fn new() -> ContainmentMap {
        ContainmentMap::default()
    }

    /// Set (or replace) the container of `object`.
    pub fn set(&mut self, object: TagId, container: TagId) {
        self.map.insert(object, container);
    }

    /// Remove `object` from its container (the object is now loose).
    pub fn remove(&mut self, object: TagId) -> Option<TagId> {
        self.map.remove(&object)
    }

    /// The container of `object`, if any.
    pub fn container_of(&self, object: TagId) -> Option<TagId> {
        self.map.get(&object).copied()
    }

    /// All objects currently assigned to `container`.
    pub fn objects_in(&self, container: TagId) -> Vec<TagId> {
        self.map
            .iter()
            .filter(|(_, c)| **c == container)
            .map(|(o, _)| *o)
            .collect()
    }

    /// Iterate over all `(object, container)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, TagId)> + '_ {
        self.map.iter().map(|(o, c)| (*o, *c))
    }

    /// All objects that have a container assigned.
    pub fn objects(&self) -> impl Iterator<Item = TagId> + '_ {
        self.map.keys().copied()
    }

    /// All distinct containers referenced by at least one object.
    pub fn containers(&self) -> Vec<TagId> {
        let mut cs: Vec<TagId> = self.map.values().copied().collect();
        cs.sort_unstable();
        cs.dedup();
        cs
    }

    /// Number of contained objects.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no containment relation is recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Fraction of objects on which `self` and `other` agree, over the union
    /// of objects mentioned by either map. Used by evaluation code.
    pub fn agreement(&self, other: &ContainmentMap) -> f64 {
        let mut objects: Vec<TagId> = self.map.keys().copied().collect();
        objects.extend(other.map.keys().copied());
        objects.sort_unstable();
        objects.dedup();
        if objects.is_empty() {
            return 1.0;
        }
        let agree = objects
            .iter()
            .filter(|o| self.container_of(**o) == other.container_of(**o))
            .count();
        agree as f64 / objects.len() as f64
    }
}

impl FromIterator<(TagId, TagId)> for ContainmentMap {
    fn from_iter<I: IntoIterator<Item = (TagId, TagId)>>(iter: I) -> Self {
        ContainmentMap {
            map: iter.into_iter().collect(),
        }
    }
}

/// A recorded change of containment: at `time`, `object` moved from
/// `old_container` to `new_container` (either may be `None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainmentChange {
    /// Epoch at which the change physically happened.
    pub time: Epoch,
    /// The object that changed containers.
    pub object: TagId,
    /// Container before the change (`None` if the object was loose).
    pub old_container: Option<TagId>,
    /// Container after the change (`None` if the object was removed).
    pub new_container: Option<TagId>,
}

/// The true containment relation as a function of time: an initial map plus a
/// time-ordered list of changes. Supports efficient "containment as of epoch
/// t" queries used by the evaluation harness and the change-point scorer.
#[derive(Debug, Clone, Default)]
pub struct ContainmentTimeline {
    initial: ContainmentMap,
    changes: Vec<ContainmentChange>,
}

impl ContainmentTimeline {
    /// Create a timeline with the given initial containment and no changes.
    pub fn new(initial: ContainmentMap) -> ContainmentTimeline {
        ContainmentTimeline {
            initial,
            changes: Vec::new(),
        }
    }

    /// The containment relation at epoch zero.
    pub fn initial(&self) -> &ContainmentMap {
        &self.initial
    }

    /// Record a change. Changes must be appended in non-decreasing time order.
    ///
    /// # Panics
    /// Panics if `change.time` precedes the last recorded change.
    pub fn record(&mut self, change: ContainmentChange) {
        if let Some(last) = self.changes.last() {
            assert!(
                change.time >= last.time,
                "containment changes must be recorded in time order"
            );
        }
        self.changes.push(change);
    }

    /// All recorded changes in time order.
    pub fn changes(&self) -> &[ContainmentChange] {
        &self.changes
    }

    /// Changes affecting a specific object, in time order.
    pub fn changes_for(&self, object: TagId) -> Vec<ContainmentChange> {
        self.changes
            .iter()
            .copied()
            .filter(|c| c.object == object)
            .collect()
    }

    /// The containment map in force at epoch `t` (changes at exactly `t` are
    /// considered applied).
    pub fn at(&self, t: Epoch) -> ContainmentMap {
        let mut map = self.initial.clone();
        for change in self.changes.iter().take_while(|c| c.time <= t) {
            match change.new_container {
                Some(c) => map.set(change.object, c),
                None => {
                    map.remove(change.object);
                }
            }
        }
        map
    }

    /// The container of `object` at epoch `t`.
    pub fn container_at(&self, object: TagId, t: Epoch) -> Option<TagId> {
        let mut current = self.initial.container_of(object);
        for change in self.changes.iter().take_while(|c| c.time <= t) {
            if change.object == object {
                current = change.new_container;
            }
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(n: u64) -> TagId {
        TagId::item(n)
    }
    fn case(n: u64) -> TagId {
        TagId::case(n)
    }

    #[test]
    fn containment_map_basic_ops() {
        let mut m = ContainmentMap::new();
        assert!(m.is_empty());
        m.set(item(1), case(1));
        m.set(item(2), case(1));
        m.set(item(3), case(2));
        assert_eq!(m.len(), 3);
        assert_eq!(m.container_of(item(1)), Some(case(1)));
        assert_eq!(m.container_of(item(9)), None);
        assert_eq!(m.objects_in(case(1)), vec![item(1), item(2)]);
        assert_eq!(m.containers(), vec![case(1), case(2)]);
        assert_eq!(m.remove(item(2)), Some(case(1)));
        assert_eq!(m.objects_in(case(1)), vec![item(1)]);
    }

    #[test]
    fn containment_map_set_replaces_container() {
        let mut m = ContainmentMap::new();
        m.set(item(1), case(1));
        m.set(item(1), case(2));
        assert_eq!(m.container_of(item(1)), Some(case(2)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn agreement_counts_union_of_objects() {
        let a: ContainmentMap = [(item(1), case(1)), (item(2), case(1))]
            .into_iter()
            .collect();
        let b: ContainmentMap = [(item(1), case(1)), (item(3), case(2))]
            .into_iter()
            .collect();
        // union = {1,2,3}; agreement only on item 1.
        assert!((a.agreement(&b) - 1.0 / 3.0).abs() < 1e-12);
        assert!((a.agreement(&a) - 1.0).abs() < 1e-12);
        assert!((ContainmentMap::new().agreement(&ContainmentMap::new()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timeline_applies_changes_in_order() {
        let initial: ContainmentMap = [(item(1), case(1)), (item(2), case(1))]
            .into_iter()
            .collect();
        let mut tl = ContainmentTimeline::new(initial);
        tl.record(ContainmentChange {
            time: Epoch(10),
            object: item(1),
            old_container: Some(case(1)),
            new_container: Some(case(2)),
        });
        tl.record(ContainmentChange {
            time: Epoch(20),
            object: item(2),
            old_container: Some(case(1)),
            new_container: None,
        });
        assert_eq!(tl.container_at(item(1), Epoch(5)), Some(case(1)));
        assert_eq!(tl.container_at(item(1), Epoch(10)), Some(case(2)));
        assert_eq!(tl.container_at(item(2), Epoch(25)), None);
        assert_eq!(tl.at(Epoch(5)).len(), 2);
        assert_eq!(tl.at(Epoch(25)).len(), 1);
        assert_eq!(tl.changes_for(item(2)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn timeline_rejects_out_of_order_changes() {
        let mut tl = ContainmentTimeline::new(ContainmentMap::new());
        tl.record(ContainmentChange {
            time: Epoch(10),
            object: item(1),
            old_container: None,
            new_container: Some(case(1)),
        });
        tl.record(ContainmentChange {
            time: Epoch(5),
            object: item(1),
            old_container: None,
            new_container: Some(case(2)),
        });
    }
}
