//! # rfid-smurf
//!
//! The baseline the paper compares against: SMURF-style per-tag adaptive
//! window smoothing (Jeffery et al., "An adaptive RFID middleware for
//! supporting metaphysical data independence") extended with the heuristic
//! containment inference and containment-change detection described in
//! Appendix C.3 of the paper — the combination the paper calls **SMURF***.
//!
//! Unlike RFINFER, SMURF* smooths *over time for each tag individually* and
//! then combines the per-tag location estimates with co-location counting
//! heuristics to guess containment. The paper shows (Figures 5(c) and 5(d))
//! that this is considerably less accurate than smoothing over containment
//! relations; this crate exists so the benchmark harness can regenerate that
//! comparison.

#![warn(missing_docs)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod containment;
pub mod smoothing;

pub use containment::{SmurfStar, SmurfStarOutcome};
pub use smoothing::SmurfSmoother;
