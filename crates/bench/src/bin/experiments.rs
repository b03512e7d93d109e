//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--scale smoke|default|paper] [--out-dir DIR] [experiment...]
//! ```
//!
//! With no experiment names, every experiment is run. Results are printed as
//! plain-text tables / series; `docs/EXPERIMENTS.md` records one full run.
//!
//! The four tracked experiments — `wire` (communication cost), `faults`
//! (fault degradation), `degraded` (transport loss / partitions) and `chaos`
//! (every fault family at once, all invariant oracles asserted) — each
//! build one [`Report`]. With `--out-dir DIR` its JSON is also written to
//! `DIR/BENCH_<experiment>.json`; the checked-in files are
//! `--scale default --out-dir .`. Without the flag nothing is written.

use rfid_bench::report::{Report, Section};
use rfid_bench::{
    chaos, degraded, faults, fig4, fig5a, fig5b, fig5c, fig5d, fig5e, fig5f, fig6a, fig6b,
    parallel_scaling, scalability, table3, table4, table5, table_query, wire, Scale,
};
use rfid_eval::Series;
use std::path::{Path, PathBuf};
use std::time::Instant;

const ALL: &[&str] = &[
    "fig4",
    "fig5a",
    "fig5b",
    "fig5c",
    "fig5d",
    "fig5e",
    "fig5f",
    "fig6a",
    "fig6b",
    "table3",
    "table4",
    "table5",
    "table_query",
    "scalability",
    "parallel_scaling",
    "wire",
    "faults",
    "degraded",
    "chaos",
];

fn print_series(title: &str, series: &[Series]) {
    println!("## {title}");
    for s in series {
        println!("{s}");
    }
    println!();
}

/// Print a tracked report's tables and, under `--out-dir`, write its JSON.
fn emit(report: &Report, out_dir: Option<&Path>) {
    for section in &report.sections {
        println!("{}", section.table());
    }
    let Some(dir) = out_dir else { return };
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

fn run(name: &str, scale: Scale, out_dir: Option<&Path>) {
    let started = Instant::now();
    match name {
        "fig4" => print_series(
            "Figure 4: point / cumulative evidence of co-location (R, NRC, NRNC)",
            &fig4(scale),
        ),
        "fig5a" => print_series(
            "Figure 5(a): error (%) vs read rate — All / W1200 / CR",
            &fig5a(scale),
        ),
        "fig5b" => print_series(
            "Figure 5(b): inference time (s) vs trace length — All / W1200 / CR",
            &fig5b(scale),
        ),
        "fig5c" => print_series(
            "Figure 5(c): change-detection F-measure (%) vs change interval — RFINFER vs SMURF*",
            &fig5c(scale),
        ),
        "fig5d" => println!("{}", fig5d(scale)),
        "fig5e" => print_series(
            "Figure 5(e): distributed error (%) vs read rate — None / CR / Centralized",
            &fig5e(scale),
        ),
        "fig5f" => print_series(
            "Figure 5(f): distributed error (%) vs change interval — None / CR / Centralized",
            &fig5f(scale),
        ),
        "fig6a" => print_series(
            "Figure 6(a): basic algorithm error (%) vs read rate",
            &fig6a(scale),
        ),
        "fig6b" => print_series(
            "Figure 6(b): containment error (%) vs trace length — All / W1200 / CR",
            &fig6b(scale),
        ),
        "table3" => println!("{}", table3(scale)),
        "table4" => println!("{}", table4(scale)),
        "table5" => println!("{}", table5(scale)),
        "table_query" => println!("{}", table_query(scale)),
        "scalability" => println!("{}", scalability(scale)),
        "parallel_scaling" => println!("{}", parallel_scaling(scale)),
        "wire" => emit(&wire(scale), out_dir),
        "faults" => emit(&faults(scale), out_dir),
        "degraded" => emit(&degraded(scale), out_dir),
        "chaos" => {
            let report = chaos(scale);
            emit(&report, out_dir);
            let (soak, memory) = (&report.sections[0], &report.sections[1]);
            let total = |section: &Section, key| section.ints(key).iter().sum::<u64>();
            eprintln!(
                "[chaos soak: {} runs, {} envelopes quarantined, {} resyncs, \
                 {} cache entries evicted under budget; every run passed all invariant oracles]",
                soak.rows().len() * 2 + memory.rows().len(),
                total(soak, "quarantined"),
                total(soak, "resyncs"),
                total(memory, "evicted_cache_entries"),
            );
        }
        other => unreachable!("main checks '{other}' against ALL"),
    }
    eprintln!(
        "[{name} finished in {:.1}s]\n",
        started.elapsed().as_secs_f64()
    );
}

const USAGE: &str =
    "usage: experiments [--scale smoke|default|paper] [--out-dir DIR] [experiment...]";

fn main() {
    let mut scale = Scale::Default;
    let mut out_dir: Option<PathBuf> = None;
    let mut names: Vec<String> = Vec::new();
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
            println!("experiments: {}", ALL.join(", "));
            return;
        } else {
            names.push(arg);
        }
    }
    // Reject a misspelt name before the first (minutes-long) experiment runs.
    if let Some(unknown) = names.iter().find(|name| !ALL.contains(&name.as_str())) {
        eprintln!("unknown experiment '{unknown}'. known: {}", ALL.join(", "));
        std::process::exit(2);
    }
    if names.is_empty() {
        names = ALL.iter().map(|s| s.to_string()).collect();
    }
    println!("# Reproduction experiments (scale: {scale:?})\n");
    for name in names {
        run(&name, scale, out_dir.as_deref());
    }
}
