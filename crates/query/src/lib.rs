//! # rfid-query
//!
//! CQL-style continuous query processing over the enriched RFID event stream
//! produced by the inference module, reproducing the query-processing side of
//! *"Distributed Inference and Query Processing for RFID Tracking and
//! Monitoring"* (PVLDB 2011).
//!
//! The paper's monitoring queries (Section 2) combine three ingredients, all
//! implemented here:
//!
//! * **window operators** over sensor streams (`[Partition By sensor Rows 1]`
//!   and time-range windows) — see [`windows`];
//! * **pattern matching** (`Pattern SEQ(A+) Where ... A[len].time >
//!   A[1].time + 6 hrs`), evaluated by a per-object automaton — see
//!   [`pattern`];
//! * **hybrid queries** joining object location / containment with sensor
//!   values, such as Q1 ("temperature-sensitive product outside a freezer at
//!   room temperature for 6 hours") and Q2 — see [`exposure`] and
//!   [`processor`].
//!
//! Because monitoring queries move with the objects they track, the query
//! state is partitioned per object ([`state`]) and can be exported, shipped
//! to another site, and imported there; the centroid-based sharing scheme of
//! Section 4.2 ([`sharing`]) compresses the states of co-contained objects.

#![warn(missing_docs)]
// Determinism gates (docs/INVARIANTS.md, R3–R5): the lists live in the root
// clippy.toml.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod exposure;
pub mod pattern;
pub mod processor;
pub mod sharing;
pub mod state;
pub mod windows;

pub use exposure::{Alert, ExposureQuery};
pub use pattern::{AutomatonState, ExposureAutomaton};
pub use processor::{ProcessorSnapshot, QueryProcessor};
pub use sharing::{share_states_with, SharedStateBundle, StateDelta};
pub use state::ObjectQueryState;
pub use windows::{LatestByLocation, SlidingTimeWindow};
