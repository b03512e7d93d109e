//! # rfid-bench
//!
//! The benchmark harness: one function per table and figure of the paper's
//! evaluation (Section 5 and Appendix C), shared by the `experiments` binary
//! and the integration tests, plus criterion micro-benchmarks (in
//! `benches/`).
//!
//! Every experiment accepts a [`Scale`] so that the same code can run as a
//! quick smoke test (CI) or at a size closer to the paper's setup. Results
//! are returned as [`rfid_eval::Table`]s and [`rfid_eval::Series`], which the
//! binary prints and `docs/EXPERIMENTS.md` quotes. The four tracked
//! experiments ([`wire`], [`faults`], [`degraded`], [`chaos`]) return a
//! [`report::Report`] instead: one declaration that renders both their
//! tables and, under the binary's `--out-dir`, the checked-in
//! `BENCH_<experiment>.json`.

#![warn(missing_docs)]

pub mod distributed;
pub mod report;
pub mod single_site;

pub use distributed::{
    chaos, degraded, faults, fig5e, fig5f, parallel_scaling, scalability, table5, table_query, wire,
};
pub use single_site::{
    evaluate_rfinfer, evaluate_smurf_star, fig4, fig5a, fig5b, fig5c, fig5d, fig6a, fig6b, table3,
    table4, SingleSiteEval,
};

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
