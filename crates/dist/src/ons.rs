//! A minimal object name service (ONS).
//!
//! The paper's distributed architecture (Section 4) assumes an EPCglobal-style
//! name service that records which site currently holds which tag, so that
//! queries about an object can be routed to the site that owns its state.
//! Here the ONS is a custody map updated whenever an object is dispatched to
//! another site; the destination site owns the object's inference and query
//! state from the moment of dispatch (state travels with the shipment).

use rfid_types::{SiteId, TagId};
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
