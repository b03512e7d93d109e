//! A minimal object name service (ONS).
//!
//! The paper's distributed architecture (Section 4) assumes an EPCglobal-style
//! name service that records which site currently holds which tag, so that
//! queries about an object can be routed to the site that owns its state.
//! Here the ONS is a custody map updated whenever an object is dispatched to
//! another site; the destination site owns the object's inference and query
//! state from the moment of dispatch (state travels with the shipment).

use rfid_types::{Epoch, SiteId, TagId};
use std::collections::BTreeMap;

/// Wire size of one custody update: the tag id (8) plus the site id (2).
pub const ONS_UPDATE_BYTES: usize = 10;

/// Custody registry mapping each tag to the site that owns its state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ons {
    custody: BTreeMap<TagId, SiteId>,
}

impl Ons {
    /// An empty registry.
    pub fn new() -> Ons {
        Ons::default()
    }

    /// Record that `site` now owns `tag`.
    pub fn register(&mut self, tag: TagId, site: SiteId) {
        self.custody.insert(tag, site);
    }

    /// The site owning `tag`, if the tag has ever been registered.
    pub fn lookup(&self, tag: TagId) -> Option<SiteId> {
        self.custody.get(&tag).copied()
    }

    /// The site owning `tag`, defaulting to the supply chain's source site
    /// for tags that never migrated.
    pub fn site_of(&self, tag: TagId, source: SiteId) -> SiteId {
        self.lookup(tag).unwrap_or(source)
    }

    /// Number of registered tags.
    pub fn len(&self) -> usize {
        self.custody.len()
    }

    /// Whether no tag is registered.
    pub fn is_empty(&self) -> bool {
        self.custody.is_empty()
    }

    /// Iterate over all `(tag, site)` custody entries.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, SiteId)> + '_ {
        self.custody.iter().map(|(t, s)| (*t, *s))
    }
}

/// Custody as a function of the dispatch schedule, built once per run: it
/// depends only on the transfer list, never on inference, so every site
/// reads the one index at any epoch.
pub(crate) struct CustodyIndex {
    /// Every transfer as `(tag, depart, to)`, grouped by tag, each group in
    /// schedule order.
    moves: Vec<(TagId, Epoch, SiteId)>,
}

/// The destination of the last of `moves` departing at or before `t`.
fn last_at(moves: &[(TagId, Epoch, SiteId)], t: Epoch) -> Option<SiteId> {
    let departed = moves.partition_point(|&(_, depart, _)| depart <= t);
    departed.checked_sub(1).map(|last| moves[last].2)
}

impl CustodyIndex {
    /// Index the transfers, given as `(tag, depart, to)` in schedule order.
    pub(crate) fn new(mut moves: Vec<(TagId, Epoch, SiteId)>) -> CustodyIndex {
        // Stable, so each tag's transfers keep their schedule order.
        moves.sort_by_key(|&(tag, _, _)| tag);
        CustodyIndex { moves }
    }

    /// The site holding `tag` at epoch `t`: site 0 before any transfer.
    pub(crate) fn custody_at(&self, tag: TagId, t: Epoch) -> SiteId {
        let start = self.moves.partition_point(|m| m.0 < tag);
        let len = self.moves[start..].partition_point(|m| m.0 == tag);
        last_at(&self.moves[start..start + len], t).unwrap_or(SiteId(0))
    }

    /// The registry as it stands at the end of epoch `t`.
    pub(crate) fn ons_at(&self, t: Epoch) -> Ons {
        let mut ons = Ons::new();
        for moves in self.moves.chunk_by(|a, b| a.0 == b.0) {
            if let Some(site) = last_at(moves, t) {
                ons.register(moves[0].0, site);
            }
        }
        ons
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn custody_updates_override_and_default_to_source() {
        let mut ons = Ons::new();
        assert!(ons.is_empty());
        let item = TagId::item(4);
        assert_eq!(ons.lookup(item), None);
        assert_eq!(ons.site_of(item, SiteId(0)), SiteId(0));
        ons.register(item, SiteId(1));
        ons.register(item, SiteId(2));
        assert_eq!(ons.lookup(item), Some(SiteId(2)));
        assert_eq!(ons.site_of(item, SiteId(0)), SiteId(2));
        assert_eq!(ons.len(), 1);
        assert_eq!(ons.iter().count(), 1);
    }
}
