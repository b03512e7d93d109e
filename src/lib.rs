//! # rfid
//!
//! Umbrella crate for the reproduction of *"Distributed Inference and Query
//! Processing for RFID Tracking and Monitoring"* (Cao, Sutton, Diao, Shenoy;
//! PVLDB 4(5), 2011).
//!
//! It re-exports the individual crates of the workspace under one roof so
//! that the examples and integration tests can exercise the whole pipeline —
//! simulate a supply chain, infer locations and containment with RFINFER,
//! answer monitoring queries, and run everything distributed across sites:
//!
//! * [`types`] — the shared data model (tags, readings, events, containment,
//!   read-rate tables);
//! * [`sim`] — supply-chain and lab-deployment simulators;
//! * [`core`] — the RFINFER inference engine (EM, change-point detection,
//!   history truncation, migration state);
//! * [`smurf`] — the SMURF* baseline;
//! * [`query`] — CQL-style stream query processing (pattern matching,
//!   hybrid queries, query-state sharing);
//! * [`dist`] — distributed inference and query processing with state
//!   migration and communication accounting; one barrier-free scheduler
//!   runs the sites on any number of workers
//!   (`DistributedConfig::num_workers`) with bit-identical results, each
//!   site advancing as far as its inbound edges' transit allows, and runs
//!   survive seeded chaos (crashes, loss, partitions, poisoned payloads —
//!   see [`sim::FaultPlan::soak`]) and are audited by invariant oracles over
//!   per-edge conservation ledgers;
//! * [`wire`] — the compact binary wire codec every cross-site payload and
//!   checkpoint is routed through;
//! * [`eval`] — evaluation metrics and table formatting.
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the harness that regenerates every table and figure of the paper.

#![warn(missing_docs)]

pub use rfid_core as core;
pub use rfid_dist as dist;
pub use rfid_eval as eval;
pub use rfid_query as query;
pub use rfid_sim as sim;
pub use rfid_smurf as smurf;
pub use rfid_types as types;
pub use rfid_wire as wire;

// The robustness surface, re-exported at the root: transport accounting,
// poison quarantine, memory-budget degradation and the invariant oracles that
// audit a finished run. Everything else stays behind its crate alias.
pub use rfid_core::{MemoryBudget, MemoryStats};
pub use rfid_dist::{assert_audit, audit, EdgeLedger, QuarantineEntry, TransportStats, Violation};
// The soak plan's old name, kept for the frozen `benchmark/` harness
// (docs/INVARIANTS.md § "Residue").
#[doc(hidden)]
pub use rfid_sim::ChaosPlan;
