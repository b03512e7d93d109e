//! Inference state shipped between sites when an object migrates
//! (Section 4.1).
//!
//! Three flavours are supported, matching the evaluation in Section 5.3 and
//! Table 5:
//!
//! * [`MigrationState::None`] — nothing is transferred; the new site starts
//!   from scratch (the "None" baseline).
//! * [`MigrationState::Readings`] — the raw readings of the object and its
//!   candidate containers inside the critical region and the recent history
//!   (the "CR" method of Section 4.1, *Truncating History*).
//! * [`MigrationState::Collapsed`] — a single number per candidate container:
//!   the accumulated co-location weight `w_co` (*Collapsing Inference
//!   State*). The receiving site adds these weights to the ones it computes
//!   locally.

use crate::rfinfer::PriorWeights;
use rfid_types::{RawReading, TagId};
use std::collections::BTreeMap;

/// Collapsed inference state for one object: one weight per candidate
/// container plus the current containment estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct CollapsedState {
    /// The migrating object.
    pub object: TagId,
    /// Accumulated co-location weight per candidate container.
    pub weights: BTreeMap<TagId, f64>,
    /// The container currently believed to hold the object.
    pub container: Option<TagId>,
}

impl CollapsedState {
    /// Convert into prior weights consumable by [`crate::RfInfer`].
    pub fn to_prior(&self) -> PriorWeights {
        let mut prior = PriorWeights::empty();
        for (&c, &w) in &self.weights {
            prior.set(self.object, c, w);
        }
        prior
    }
}

/// Critical-region inference state for one object: the retained raw readings
/// of the object and its candidate containers.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadingsState {
    /// The migrating object.
    pub object: TagId,
    /// Retained readings (object + candidate containers, CR + recent
    /// history).
    pub readings: Vec<RawReading>,
    /// The container currently believed to hold the object.
    pub container: Option<TagId>,
}

/// The inference state transferred for one object when it leaves a site.
#[derive(Debug, Clone, PartialEq)]
pub enum MigrationState {
    /// Transfer nothing.
    None,
    /// Transfer collapsed co-location weights.
    Collapsed(CollapsedState),
    /// Transfer the critical-region readings.
    Readings(ReadingsState),
}

impl MigrationState {
    /// The object this state belongs to, if any state is carried.
    pub fn object(&self) -> Option<TagId> {
        match self {
            MigrationState::None => None,
            MigrationState::Collapsed(s) => Some(s.object),
            MigrationState::Readings(s) => Some(s.object),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collapsed() -> CollapsedState {
        CollapsedState {
            object: TagId::item(3),
            weights: BTreeMap::from([(TagId::case(1), -12.5), (TagId::case(2), -40.0)]),
            container: Some(TagId::case(1)),
        }
    }

    #[test]
    fn collapsed_state_converts_to_prior() {
        let prior = collapsed().to_prior();
        assert_eq!(prior.get(TagId::item(3), TagId::case(1)), -12.5);
        assert_eq!(prior.get(TagId::item(3), TagId::case(2)), -40.0);
        assert_eq!(prior.get(TagId::item(3), TagId::case(9)), 0.0);
    }

    #[test]
    fn migration_state_accessors() {
        assert_eq!(MigrationState::None.object(), None);
        let c = MigrationState::Collapsed(collapsed());
        assert_eq!(c.object(), Some(TagId::item(3)));
        let r = MigrationState::Readings(ReadingsState {
            object: TagId::item(4),
            readings: vec![],
            container: None,
        });
        assert_eq!(r.object(), Some(TagId::item(4)));
    }
}
