//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--scale smoke|default|paper] [--out-dir DIR] [experiment...]
//! ```
//!
//! Every name in [`EXPERIMENTS`] builds one [`Report`], whose sections are
//! printed as plain-text tables. `paper` is the paper's whole Section 5 —
//! each figure and table name before it runs just the sweep that carries it
//! — and `wire`, `faults`, `degraded` and `chaos` are the repo's extension
//! studies; with no name, `paper` and everything after it runs. With
//! `--out-dir DIR` a report's keyed columns are also written to
//! `DIR/BENCH_<experiment>.json` (a wall-clock column has no key, and a
//! report without a keyed column writes nothing); the five checked-in files
//! are `--scale default --out-dir . paper wire faults degraded chaos`.
//! Without the flag nothing is written.

use rfid_bench::report::{Report, Section};
use rfid_bench::{Scale, EXPERIMENTS};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Print a report's tables and, under `--out-dir`, write its JSON.
fn emit(report: &Report, out_dir: Option<&Path>) {
    for section in &report.sections {
        println!("{}", section.table());
    }
    let Some(dir) = out_dir.filter(|_| report.sections.iter().any(Section::is_tracked)) else {
        return;
    };
    let path = dir.join(format!("BENCH_{}.json", report.experiment));
    if let Err(err) = std::fs::write(&path, report.json()) {
        eprintln!("failed to write {}: {err}", path.display());
        std::process::exit(1);
    }
    eprintln!(
        "[{} report written to {}]",
        report.experiment,
        path.display()
    );
}

const USAGE: &str =
    "usage: experiments [--scale smoke|default|paper] [--out-dir DIR] [experiment...]";

fn main() {
    let mut scale = Scale::Default;
    let mut out_dir: Option<PathBuf> = None;
    let mut names: Vec<String> = Vec::new();
    let known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        if arg == "--scale" {
            let value = iter.next().unwrap_or_default();
            scale = Scale::parse(&value).unwrap_or_else(|| {
                eprintln!("unknown scale '{value}' (use smoke, default or paper)");
                std::process::exit(2);
            });
        } else if arg == "--out-dir" {
            out_dir = Some(PathBuf::from(iter.next().unwrap_or_else(|| {
                eprintln!("--out-dir needs a directory\n{USAGE}");
                std::process::exit(2);
            })));
        } else if arg == "--help" || arg == "-h" {
            println!("{USAGE}");
            println!("experiments: {}", known.join(", "));
            return;
        } else {
            names.push(arg);
        }
    }
    // Reject a misspelt name before the first (minutes-long) experiment runs.
    let mut chosen = Vec::new();
    for name in &names {
        let Some(experiment) = EXPERIMENTS.iter().find(|(known, _)| known == name) else {
            eprintln!("unknown experiment '{name}'. known: {}", known.join(", "));
            std::process::exit(2);
        };
        chosen.push(experiment);
    }
    if chosen.is_empty() {
        chosen.extend(EXPERIMENTS.iter().skip_while(|(name, _)| *name != "paper"));
    }
    println!("# Reproduction experiments (scale: {scale:?})\n");
    for (name, experiment) in chosen {
        let started = Instant::now();
        emit(&experiment(scale), out_dir.as_deref());
        eprintln!(
            "[{name} finished in {:.1}s]\n",
            started.elapsed().as_secs_f64()
        );
    }
}
