//! # rfid-wire
//!
//! Compact binary wire codec for every payload that crosses a site boundary
//! in the distributed pipeline (Sections 4 and 5.3 of the paper).
//!
//! Communication cost is the headline metric of the paper's federated
//! design — CollapsedWeights hits ~98% of centralized accuracy at ~2% of its
//! bytes — so the wire representation of the migrating state matters as much
//! as *what* migrates. This crate provides a versioned binary format built
//! from varint integers, zigzag delta-encoded epoch sequences, raw IEEE-754
//! float bits, and per-message symbol tables for repeated tag ids.
//!
//! Eight payload kinds are covered (`0x01`–`0x08`, tabulated in [`codec`]):
//! migration state ([`rfid_core::MigrationState`]) and its collapsed form
//! ([`rfid_core::CollapsedState`]), centralized raw-reading batches,
//! per-object query state ([`rfid_query::ObjectQueryState`]) with its tag-less
//! sharing payload, centroid-shared bundles
//! ([`rfid_query::SharedStateBundle`]), site checkpoints ([`SiteCheckpoint`],
//! a site's complete durable state as one serialized artifact) and transport
//! control messages ([`ControlMsg`]).
//!
//! The layout of every type is declared once — a leaf impl, a container
//! impl or a one-line field list — and its encoder, decoder and tag
//! collection are all derived from that declaration (see [`codec`]).
//!
//! Every encoding is bit-exact: `decode(encode(x)) == x` including `f64` bit
//! patterns (round-trip proptests in `tests/roundtrip.rs`), and the bytes of
//! a fully-populated and an all-empty value per payload kind are pinned in
//! `tests/golden_bytes.rs` and `tests/golden_bytes_minimal.rs`. To inspect a
//! payload, print the decoded value with `{:#?}`.

#![warn(missing_docs)]
// Determinism gates (docs/INVARIANTS.md, R3–R5): the lists live in the root
// clippy.toml.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
// R2: bytes from another site are data, never an abort. The whole crate is in
// scope, encode side included; `#[cfg(test)]` code is exempted by the
// `allow-*-in-tests` switches of clippy.toml.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::panic_in_result_fn
)]

pub mod checkpoint;
pub mod codec;
pub mod control;
mod layout;
pub mod primitives;

pub use checkpoint::{
    EdgeLedger, EdgeSeqs, PendingShipment, QuarantineEntry, SiteCheckpoint, TransportStats,
};
pub use codec::{WireCodec, WIRE_VERSION};
pub use control::ControlMsg;

use std::fmt;

/// The wire representation used for cross-site payloads.
///
/// Residue: there is one format. The enum, `DistributedConfig::wire_format`
/// and the parameter of [`WireCodec::new`] survive only because the frozen
/// `benchmark/` package spells all three (see "Wire axes" in
/// docs/INVARIANTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// The compact binary format of [`codec`] (varints, delta-encoded
    /// epochs, per-message tag tables, one-byte version header).
    #[default]
    Binary,
}

/// What went wrong while decoding, machine-matchable.
///
/// The kind says whether the bytes were cut short in transit
/// ([`Truncated`]), speak a different protocol ([`BadHeader`]), or are
/// internally inconsistent ([`LengthOverflow`], [`Malformed`]). It is the
/// typed-error contract `tests/fuzz.rs` asserts for hostile bytes; the
/// distributed layer does not branch on it and quarantines every decode
/// failure alike.
///
/// [`Truncated`]: WireErrorKind::Truncated
/// [`BadHeader`]: WireErrorKind::BadHeader
/// [`LengthOverflow`]: WireErrorKind::LengthOverflow
/// [`Malformed`]: WireErrorKind::Malformed
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireErrorKind {
    /// The buffer ended mid-field: a well-formed prefix of a longer message.
    Truncated,
    /// The version byte or payload-kind tag is not one this codec speaks.
    BadHeader,
    /// A length prefix or delta-encoded value overflows its target type —
    /// the message lies about its own size.
    LengthOverflow,
    /// Structurally invalid content (bad table index, out-of-range enum
    /// discriminant, trailing bytes, …).
    Malformed,
}

/// Decoding failure: corrupted, truncated, mis-versioned or mis-typed bytes.
///
/// Encoding never fails; decoding validates the version header, the payload
/// kind, every length prefix and every table index before building a value.
/// Decoding *never panics* — arbitrary bytes from a peer surface as one of
/// the [`WireErrorKind`]s (the clippy lints denied at the top of this crate
/// keep panicking constructs out of it, and `tests/fuzz.rs` drives every
/// decoder with hostile bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    kind: WireErrorKind,
    message: String,
}

impl WireError {
    /// A structurally-invalid-content error with the given description.
    pub fn new(message: impl Into<String>) -> WireError {
        WireError::with_kind(WireErrorKind::Malformed, message)
    }

    /// An error of an explicit [`WireErrorKind`].
    pub fn with_kind(kind: WireErrorKind, message: impl Into<String>) -> WireError {
        WireError {
            kind,
            message: message.into(),
        }
    }

    /// Which class of failure this is.
    pub fn kind(&self) -> WireErrorKind {
        self.kind
    }

    pub(crate) fn truncated(what: &str) -> WireError {
        WireError::with_kind(
            WireErrorKind::Truncated,
            format!("message truncated while reading {what}"),
        )
    }

    pub(crate) fn bad_header(what: impl Into<String>) -> WireError {
        WireError::with_kind(WireErrorKind::BadHeader, what)
    }

    pub(crate) fn length_overflow(what: &str) -> WireError {
        WireError::with_kind(
            WireErrorKind::LengthOverflow,
            format!("length or delta overflows while reading {what}"),
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_is_the_default_format() {
        assert_eq!(WireFormat::default(), WireFormat::Binary);
    }

    #[test]
    fn errors_format_and_convert() {
        let err = WireError::new("boom");
        assert!(err.to_string().contains("boom"));
        assert_eq!(err.kind(), WireErrorKind::Malformed);
        let err = WireError::truncated("f64");
        assert!(err.to_string().contains("truncated"));
        assert_eq!(err.kind(), WireErrorKind::Truncated);
        let err = WireError::length_overflow("byte-string length");
        assert_eq!(err.kind(), WireErrorKind::LengthOverflow);
        let err = WireError::bad_header("version 9 is from the future");
        assert_eq!(err.kind(), WireErrorKind::BadHeader);
    }
}
