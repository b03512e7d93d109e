//! # rfid-dist
//!
//! Distributed inference and query processing — the Section 4 contribution of
//! *"Distributed Inference and Query Processing for RFID Tracking and
//! Monitoring"* (Cao, Sutton, Diao, Shenoy; PVLDB 4(5), 2011).
//!
//! A supply chain spans many sites; each runs its own inference engine and
//! query processor over its own readers. When objects are dispatched to the
//! next site, the interesting question is what state should travel with them:
//!
//! | [`MigrationStrategy`] | what moves | paper |
//! |---|---|---|
//! | `None` | nothing — every site starts cold | Table 5 baseline |
//! | `CriticalRegionReadings` | the retained critical-region readings | §4.1, *Truncating History* |
//! | `CollapsedWeights` | one co-location weight per candidate container | §4.1, *Collapsing Inference State* |
//! | `Centralized` | every raw reading, to one central engine | accuracy upper bound |
//!
//! Query state (the per-object pattern-automaton state of Section 4.2) also
//! migrates, compressed with centroid-based sharing, and an EPCglobal-style
//! [`Ons`] records which site owns which tag. Every byte that crosses a site
//! boundary is charged to a [`MessageKind`] in a [`CommCost`], which is how
//! the Table 5 communication-cost comparison is produced. Every payload is
//! encoded with the binary codec of `rfid-wire`, and the charged bytes are
//! the encoded lengths, not estimates.
//!
//! ## Example
//!
//! ```
//! use rfid_dist::{DistributedConfig, DistributedDriver, MigrationStrategy};
//! use rfid_core::InferenceConfig;
//! use rfid_sim::{ChainConfig, SupplyChainSimulator, WarehouseConfig};
//!
//! let chain = SupplyChainSimulator::new(ChainConfig {
//!     warehouse: WarehouseConfig::default()
//!         .with_length(900)
//!         .with_items_per_case(2)
//!         .with_cases_per_pallet(2),
//!     num_warehouses: 2,
//!     transit_secs: 60,
//!     fanout: 1,
//! })
//! .generate();
//! let outcome = DistributedDriver::new(DistributedConfig {
//!     strategy: MigrationStrategy::CollapsedWeights,
//!     inference: InferenceConfig::default().without_change_detection(),
//!     ..Default::default()
//! })
//! .run(&chain);
//! assert!(outcome.comm.total_bytes() > 0 || chain.transfers.is_empty());
//! ```

#![warn(missing_docs)]
// Determinism gates (docs/INVARIANTS.md, R3–R5): the lists live in the root
// clippy.toml.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

mod centralized;
pub mod comm;
pub mod config;
pub mod driver;
mod inference;
pub mod ons;
pub mod oracle;
mod parallel;
mod site;
mod streams;
pub mod transport;

pub use comm::{CommCost, MessageKind};
pub use config::{DistributedConfig, MigrationStrategy, TransportConfig};
pub use driver::{DistributedDriver, DistributedOutcome};
pub use ons::{Ons, ONS_UPDATE_BYTES};
pub use oracle::{assert_audit, assert_identical, assert_identical_except, audit, Violation};
pub use rfid_wire::{EdgeLedger, QuarantineEntry, WireCodec, WireFormat};
pub use transport::{TransportMode, TransportStats};
