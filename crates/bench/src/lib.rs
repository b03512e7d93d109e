//! # rfid-bench
//!
//! The benchmark harness: the tables and figures of the paper's evaluation
//! (Section 5 and Appendix C) and the repo's four extension studies, shared
//! by the `experiments` binary and the integration tests. Wall-clock is not
//! measured here: the separate `benchmark/` package owns every timing.
//!
//! Every experiment accepts a [`Scale`], so the same code runs as a quick
//! smoke test (CI) or at a size closer to the paper's setup, and returns a
//! [`report::Report`]: one declaration per column renders both the tables
//! the binary prints and, under its `--out-dir`, the checked-in
//! `BENCH_<experiment>.json`. [`EXPERIMENTS`] names them all; [`paper()`] is
//! the paper's whole Section 5 as one tracked report, closed by the paper's
//! claims judged against its own columns.

#![warn(missing_docs)]

pub mod distributed;
pub mod paper;
pub mod report;
pub mod single_site;

pub use distributed::{
    chaos, degraded, faults, fig5e_fig5f, parallel_scaling, scalability, table5, table_query, wire,
};
pub use paper::paper;
pub use single_site::{
    evaluate_rfinfer, evaluate_smurf_star, fig4, fig5a_fig6a, fig5b_fig6b, fig5c, fig5d,
    table3_table4, SingleSiteEval,
};

use report::{Kind, Report, Section};

/// An experiment: its whole output at one scale.
pub type Experiment = fn(Scale) -> Report;

/// Every name the `experiments` binary accepts. The names before `paper` are
/// its parts — each runs the sweep that carries that figure or table, so two
/// figures of one sweep share a function; `paper` onward is what runs when
/// no name is given.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig4", fig4),
    ("fig5a", fig5a_fig6a),
    ("fig5b", fig5b_fig6b),
    ("fig5c", fig5c),
    ("fig5d", fig5d),
    ("fig5e", fig5e_fig5f),
    ("fig5f", fig5e_fig5f),
    ("fig6a", fig5a_fig6a),
    ("fig6b", fig5b_fig6b),
    ("table3", table3_table4),
    ("table4", table3_table4),
    ("table5", table5),
    ("table_query", table_query),
    ("paper", paper),
    ("scalability", scalability),
    ("parallel_scaling", parallel_scaling),
    ("wire", wire),
    ("faults", faults),
    ("degraded", degraded),
    ("chaos", chaos),
];

/// A percentage: one decimal in the table, two in the JSON.
const PCT: Kind = Kind::Float(1, 2);
/// Three decimals: a line of a figure, or a wall-clock in seconds.
const MILLI: Kind = Kind::Float(3, 3);
/// A read rate.
const RATE: Kind = Kind::Float(1, 1);

/// The report of some of the paper's figures and tables on their simulated
/// workloads.
fn figures(experiment: &'static str, scale: Scale, sections: Vec<Section>) -> Report {
    Report {
        experiment,
        scale,
        reference: "per section: warehouse traces (seed 71), supply chains (seed 97), \
                    lab traces T1-T8, the evidence scenario",
        metric: None,
        plan: None,
        sections,
    }
}

/// How large to make each experiment's workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    /// A few hundred tags, short traces — finishes in seconds; used by tests.
    Smoke,
    /// A few thousand tags, traces of the paper's length — the default for
    /// the `experiments` binary.
    Default,
    /// Closer to the paper's population sizes; takes considerably longer.
    Paper,
}

impl Scale {
    /// Items per case for this scale (the paper uses 20).
    pub fn items_per_case(self) -> u32 {
        match self {
            Scale::Smoke => 4,
            Scale::Default => 10,
            Scale::Paper => 20,
        }
    }

    /// Cases per pallet (the paper uses 5).
    pub fn cases_per_pallet(self) -> u32 {
        match self {
            Scale::Smoke => 2,
            Scale::Default => 3,
            Scale::Paper => 5,
        }
    }

    /// Default single-site trace length in seconds (the paper uses 1500 for
    /// the basic experiments).
    pub fn trace_secs(self) -> u32 {
        match self {
            Scale::Smoke => 900,
            Scale::Default => 1500,
            Scale::Paper => 1500,
        }
    }

    /// Trace length for the change-point experiments (the paper simulates 4
    /// hours).
    pub fn change_trace_secs(self) -> u32 {
        match self {
            Scale::Smoke => 1800,
            Scale::Default => 3600,
            Scale::Paper => 14_400,
        }
    }

    /// Number of warehouses for the distributed experiments (the paper uses
    /// 10).
    pub fn num_warehouses(self) -> u32 {
        match self {
            Scale::Smoke => 2,
            Scale::Default => 4,
            Scale::Paper => 10,
        }
    }

    /// Parse from a command-line string.
    pub fn parse(text: &str) -> Option<Scale> {
        match text {
            "smoke" => Some(Scale::Smoke),
            "default" => Some(Scale::Default),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered_and_parseable() {
        assert!(Scale::Smoke.items_per_case() <= Scale::Default.items_per_case());
        assert!(Scale::Default.items_per_case() <= Scale::Paper.items_per_case());
        assert!(Scale::Smoke.num_warehouses() <= Scale::Paper.num_warehouses());
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("default"), Some(Scale::Default));
        assert_eq!(Scale::parse("huge"), None);
    }
}
