//! Identifier newtypes used throughout the system.
//!
//! The paper assumes the EPC tag-data standard: a tag id encodes the level of
//! packaging (item, case, or pallet). We model that by packing a [`TagKind`]
//! into the high bits of [`TagId`], which lets every component cheaply answer
//! "is this a container tag or an object tag?" without a lookup table —
//! exactly the assumption made in Appendix A.4 ("we know a priori which tags
//! are container tags").

use std::fmt;

/// The packaging level encoded in a tag id (EPC tag-data-standard style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TagKind {
    /// A sellable unit, always packed inside a case.
    Item,
    /// A case holding items; the "container" of the paper's two-level model.
    Case,
    /// A pallet holding cases (used by the hierarchical-containment extension).
    Pallet,
}

impl TagKind {
    /// All tag kinds, in increasing packaging level.
    pub const ALL: [TagKind; 3] = [TagKind::Item, TagKind::Case, TagKind::Pallet];

    fn code(self) -> u64 {
        match self {
            TagKind::Item => 0,
            TagKind::Case => 1,
            TagKind::Pallet => 2,
        }
    }

    fn from_code(code: u64) -> TagKind {
        match code {
            0 => TagKind::Item,
            1 => TagKind::Case,
            _ => TagKind::Pallet,
        }
    }
}

impl fmt::Display for TagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagKind::Item => write!(f, "item"),
            TagKind::Case => write!(f, "case"),
            TagKind::Pallet => write!(f, "pallet"),
        }
    }
}

/// Unique identity of an RFID tag.
///
/// The two high bits carry the [`TagKind`]; the remaining 62 bits carry a
/// serial number. Construct with [`TagId::new`] and query with
/// [`TagId::kind`] / [`TagId::serial`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TagId(u64);

impl TagId {
    const KIND_SHIFT: u32 = 62;
    const SERIAL_MASK: u64 = (1 << Self::KIND_SHIFT) - 1;

    /// Create a tag id for the given packaging level and serial number.
    ///
    /// # Panics
    /// Panics if `serial` does not fit in 62 bits.
    pub fn new(kind: TagKind, serial: u64) -> TagId {
        assert!(
            serial <= Self::SERIAL_MASK,
            "tag serial {serial} does not fit in 62 bits"
        );
        TagId((kind.code() << Self::KIND_SHIFT) | serial)
    }

    /// Convenience constructor for an item tag.
    pub fn item(serial: u64) -> TagId {
        TagId::new(TagKind::Item, serial)
    }

    /// Convenience constructor for a case tag.
    pub fn case(serial: u64) -> TagId {
        TagId::new(TagKind::Case, serial)
    }

    /// Convenience constructor for a pallet tag.
    pub fn pallet(serial: u64) -> TagId {
        TagId::new(TagKind::Pallet, serial)
    }

    /// The packaging level encoded in this tag.
    pub fn kind(self) -> TagKind {
        TagKind::from_code(self.0 >> Self::KIND_SHIFT)
    }

    /// The serial number portion of this tag.
    pub fn serial(self) -> u64 {
        self.0 & Self::SERIAL_MASK
    }

    /// Whether this tag identifies a container (case or pallet).
    pub fn is_container(self) -> bool {
        matches!(self.kind(), TagKind::Case | TagKind::Pallet)
    }

    /// Whether this tag identifies an object (item).
    pub fn is_object(self) -> bool {
        self.kind() == TagKind::Item
    }

    /// Raw 64-bit representation (kind + serial), useful for compact storage.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstruct a tag id from its raw representation.
    pub fn from_raw(raw: u64) -> TagId {
        TagId(raw)
    }
}

impl fmt::Debug for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.kind(), self.serial())
    }
}

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.kind(), self.serial())
    }
}

/// Identity of a physical RFID reader (one antenna at one fixed location).
///
/// The paper localizes objects "to the nearest reader", so reader identity
/// and location identity are in one-to-one correspondence for static readers;
/// [`ReaderId::location`] performs that mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReaderId(pub u16);

impl ReaderId {
    /// The discrete location this (static) reader corresponds to.
    pub fn location(self) -> LocationId {
        LocationId(self.0)
    }
}

impl fmt::Display for ReaderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reader{}", self.0)
    }
}

/// A discrete location — the position of one static reader (Section 3.1:
/// "we model locations as a discrete set R, which is the set of locations of
/// all of the static readers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocationId(pub u16);

impl LocationId {
    /// The reader stationed at this location.
    pub fn reader(self) -> ReaderId {
        ReaderId(self.0)
    }

    /// Index into dense per-location arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loc{}", self.0)
    }
}

/// Identity of a site (warehouse / distribution center / hospital wing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u16);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A discrete time epoch (Section 3.1 discretizes time into epochs of, e.g.,
/// one second). Epochs are measured in seconds since the start of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u32);

impl Epoch {
    /// Epoch zero — the start of a trace.
    pub const ZERO: Epoch = Epoch(0);

    /// The epoch `n` seconds after this one.
    pub fn plus(self, n: u32) -> Epoch {
        Epoch(self.0 + n)
    }

    /// The epoch `n` seconds before this one, saturating at zero.
    pub fn minus(self, n: u32) -> Epoch {
        Epoch(self.0.saturating_sub(n))
    }

    /// Number of whole seconds between `self` and an earlier epoch.
    pub fn since(self, earlier: Epoch) -> u32 {
        self.0.saturating_sub(earlier.0)
    }

    /// Index into dense per-epoch arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_id_roundtrips_kind_and_serial() {
        for kind in TagKind::ALL {
            for serial in [0u64, 1, 17, 1 << 40, (1 << 62) - 1] {
                let tag = TagId::new(kind, serial);
                assert_eq!(tag.kind(), kind);
                assert_eq!(tag.serial(), serial);
                assert_eq!(TagId::from_raw(tag.raw()), tag);
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn tag_id_rejects_oversized_serial() {
        let _ = TagId::new(TagKind::Item, 1 << 62);
    }

    #[test]
    fn tag_kind_classification() {
        assert!(TagId::item(3).is_object());
        assert!(!TagId::item(3).is_container());
        assert!(TagId::case(3).is_container());
        assert!(TagId::pallet(9).is_container());
        assert!(!TagId::pallet(9).is_object());
    }

    #[test]
    fn item_and_case_with_same_serial_are_distinct() {
        assert_ne!(TagId::item(5), TagId::case(5));
        assert_ne!(TagId::case(5), TagId::pallet(5));
    }

    #[test]
    fn reader_location_correspondence() {
        let r = ReaderId(7);
        assert_eq!(r.location(), LocationId(7));
        assert_eq!(r.location().reader(), r);
        assert_eq!(LocationId(7).index(), 7);
    }

    #[test]
    fn epoch_arithmetic() {
        let t = Epoch(100);
        assert_eq!(t.plus(50), Epoch(150));
        assert_eq!(t.minus(30), Epoch(70));
        assert_eq!(t.minus(200), Epoch(0));
        assert_eq!(t.since(Epoch(40)), 60);
        assert_eq!(Epoch(40).since(t), 0);
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(TagId::item(4).to_string(), "item#4");
        assert_eq!(TagId::case(2).to_string(), "case#2");
        assert_eq!(ReaderId(1).to_string(), "reader1");
        assert_eq!(LocationId(3).to_string(), "loc3");
        assert_eq!(SiteId(0).to_string(), "site0");
        assert_eq!(Epoch(9).to_string(), "t=9");
    }
}
