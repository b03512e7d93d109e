//! # rfid-eval
//!
//! Evaluation metrics and table formatting for the reproduction experiments:
//! location/containment error rates (Sections 5.1–5.3), precision / recall /
//! F-measure for containment-change detection, and the aligned-text [`Table`]
//! the benchmark harness's one report type renders its sections through.

#![warn(missing_docs)]

pub mod metrics;
pub mod table;

pub use metrics::{
    changes_f_measure, containment_error, location_error, ChangeMatchConfig, PrecisionRecall,
};
pub use table::Table;
