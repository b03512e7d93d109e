//! # rfid-sim
//!
//! Workload generators for the reproduction of *"Distributed Inference and
//! Query Processing for RFID Tracking and Monitoring"* (PVLDB 2011).
//!
//! The paper evaluates its inference and query-processing techniques on two
//! kinds of input, both of which this crate can produce:
//!
//! * **Synthetic supply-chain traces** generated by a CSIM-based simulator
//!   parameterised as in Table 2 of the paper: one or more warehouses
//!   arranged in a DAG, pallets injected at the source, cases unpacked at the
//!   entry door, scanned on a conveyor belt one at a time, stored on shelves,
//!   repacked and dispatched from the exit door. Readers are noisy (read
//!   rate RR), shelf readers overlap (overlap rate OR), and anomalies can be
//!   injected that move a random item to a different case (interval FA).
//!   See [`warehouse`] for a single site and [`chain`] for a multi-site
//!   supply chain.
//! * **Lab-deployment traces** (T1–T8) emulating the paper's 7-antenna
//!   laboratory warehouse with 20 cases of 5 items each; see [`lab`].
//!
//! In addition, [`scenario`] builds the three-candidate-container scenario of
//! Figure 4, and [`temperature`] produces the synthetic temperature streams
//! the hybrid queries (Q1/Q2) join against.
//!
//! Every generator is fully deterministic given its seed, so all experiments
//! in `rfid-bench` are reproducible.

#![warn(missing_docs)]
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod anomaly;
pub mod chain;
pub mod config;
pub mod fault;
mod generate;
pub mod lab;
pub mod layout;
pub mod movement;
pub mod presets;
pub mod scenario;
pub mod temperature;
pub mod warehouse;

pub use chain::{ChainTrace, ObjectTransfer, SupplyChainSimulator};
pub use config::{ChainConfig, ShelfScanMode, WarehouseConfig};
pub use fault::{
    CrashFault, FaultPlan, FaultPlanConfig, OutageWindow, PartitionWindow, SiteFaults,
};
pub use lab::{LabConfig, LabTraceId};
pub use layout::WarehouseLayout;
pub use scenario::EvidenceScenario;
pub use temperature::TemperatureModel;
pub use warehouse::WarehouseSimulator;

/// The soak plan's old name, kept for the frozen `benchmark/` harness
/// (docs/INVARIANTS.md § "Residue"): a [`FaultPlan`], see [`FaultPlan::soak`].
#[doc(hidden)]
pub type ChaosPlan = FaultPlan;
