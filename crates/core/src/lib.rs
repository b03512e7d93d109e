//! # rfid-core
//!
//! RFINFER — probabilistic location and containment inference over noisy RFID
//! streams, reproducing the inference module of *"Distributed Inference and
//! Query Processing for RFID Tracking and Monitoring"* (Cao, Sutton, Diao,
//! Shenoy; PVLDB 4(5), 2011).
//!
//! The inference module translates raw noisy RFID readings
//! `(time, tag, reader)` into high-level events
//! `(time, tag, location, container)`. Its key idea is *smoothing over
//! containment relations* rather than over time: whenever any object of a
//! container is read, the container (and with it all of its other objects)
//! is localized, and conversely the repeated co-location of an object with a
//! container is evidence for the containment relation itself.
//!
//! ## Crate layout
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`observations`] | §3.1 | sparse index over raw readings, co-location counting, candidate pruning |
//! | [`likelihood`]   | §3.1, Eq. 1 | per-tag observation likelihoods under the read-rate model `pi(r, a)` |
//! | [`posterior`]    | §3.2, Eq. 4 | the E-step posterior over a container's location |
//! | [`rfinfer`]      | §3.2, Alg. 1 | the EM algorithm, co-location weights (Eq. 5), point evidence (Eq. 7) |
//! | [`dense`]        | App. A.3 | the dense-interned columnar EM solver behind `RfInfer::run*` (bit-identical to the test-only tree reference) |
//! | [`changepoint`]  | §3.3, App. A.2 | GLR change-point statistic and offline threshold calibration |
//! | [`truncate`]     | §4.1 | critical-region history truncation and the simpler window/full policies |
//! | [`state`]        | §4.1 | collapsed / critical-region migration state |
//! | [`engine`]       | §3–4 | the streaming engine a site runs: periodic inference, change detection, truncation, state migration |
//!
//! ## Quick example
//!
//! ```
//! use rfid_core::{InferenceConfig, InferenceEngine};
//! use rfid_types::{Epoch, RawReading, ReadRateTable, ReaderId, TagId};
//!
//! // Two locations, readers detect co-located tags 80% of the time.
//! let rates = ReadRateTable::diagonal(2, 0.8, 1e-4);
//! let mut engine = InferenceEngine::new(
//!     InferenceConfig::default().with_period(10).without_change_detection(),
//!     rates,
//! );
//!
//! // An item and its case are repeatedly read together at location 0.
//! for t in 0..10 {
//!     engine.observe(RawReading::new(Epoch(t), TagId::item(1), ReaderId(0)));
//!     engine.observe(RawReading::new(Epoch(t), TagId::case(1), ReaderId(0)));
//! }
//! engine.run_inference(Epoch(10));
//! assert_eq!(engine.container_of(TagId::item(1)), Some(TagId::case(1)));
//! ```

#![warn(missing_docs)]
// R3–R5: the lists live in the root clippy.toml.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod changepoint;
pub mod config;
pub mod dense;
pub mod engine;
pub mod likelihood;
pub mod observations;
pub mod posterior;
#[doc(hidden)]
pub mod reference;
pub mod rfinfer;
pub mod state;
mod tag_index;
pub mod truncate;

pub use changepoint::{change_statistic, detect_changes, DetectedChange};
pub use config::{InferenceConfig, ThresholdPolicy};
pub use dense::DenseScratch;
pub use engine::{EngineSnapshot, ImportSummary, InferenceEngine, InferenceReport};
pub use likelihood::{LikelihoodModel, ReaderSetTable};
pub use observations::{ObsAt, Observations, ReaderSet};
pub use posterior::{container_posterior, Posterior};
pub use rfinfer::{
    CacheKeys, DirtySet, EvidenceCache, InferenceOutcome, InferenceStats, ObjectEvidence,
    PriorWeights, RfInfer, VariantKey,
};
pub use state::{CollapsedState, MigrationState, ReadingsState};
pub use truncate::{
    critical_region, retention_plan, CriticalRegion, MemoryBudget, MemoryStats, RetentionPlan,
    TruncationPolicy,
};
