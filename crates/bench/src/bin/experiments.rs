//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--scale smoke|default|paper] [experiment...]
//! ```
//!
//! With no experiment names, every experiment is run. Results are printed as
//! plain-text tables / series; `EXPERIMENTS.md` records one full run.
//!
//! The `wire` experiment additionally writes its measurements as
//! machine-readable JSON to `BENCH_wire.json` (override the path with the
//! `BENCH_WIRE_OUT` environment variable), so the communication-cost
//! trajectory is tracked across PRs; the `faults` experiment does the same
//! for fault-degradation tables via `BENCH_faults.json` /
//! `BENCH_FAULTS_OUT`, the `degraded`
//! experiment for transport loss/partition degradation via
//! `BENCH_degraded.json` / `BENCH_DEGRADED_OUT`, and the `chaos` soak
//! (every fault family at once, all invariant oracles asserted) via
//! `BENCH_chaos.json` / `BENCH_CHAOS_OUT`.

use rfid_bench::{
    chaos_json, chaos_measurements, chaos_memory_table, chaos_table, degraded_json,
    degraded_measurements, degraded_table, fault_measurements, faults_json, faults_table, fig4,
    fig5a, fig5b, fig5c, fig5d, fig5e, fig5f, fig6a, fig6b, parallel_scaling, scalability, table3,
    table4, table5, table_query, wire_json, wire_measurements, wire_table, Scale,
};
use rfid_eval::Series;
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

fn run(name: &str, scale: Scale) {
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
        "wire" => {
            let measurements = wire_measurements(scale);
            println!("{}", wire_table(&measurements));
            let path =
                std::env::var("BENCH_WIRE_OUT").unwrap_or_else(|_| "BENCH_wire.json".to_string());
            match std::fs::write(&path, wire_json(scale, &measurements)) {
                Ok(()) => eprintln!("[wire measurements written to {path}]"),
                Err(err) => eprintln!("[failed to write {path}: {err}]"),
            }
        }
        "faults" => {
            let study = fault_measurements(scale);
            println!("{}", faults_table(&study));
            let path = std::env::var("BENCH_FAULTS_OUT")
                .unwrap_or_else(|_| "BENCH_faults.json".to_string());
            match std::fs::write(&path, faults_json(scale, &study)) {
                Ok(()) => eprintln!("[fault measurements written to {path}]"),
                Err(err) => eprintln!("[failed to write {path}: {err}]"),
            }
        }
        "degraded" => {
            let study = degraded_measurements(scale);
            println!("{}", degraded_table(&study));
            let path = std::env::var("BENCH_DEGRADED_OUT")
                .unwrap_or_else(|_| "BENCH_degraded.json".to_string());
            match std::fs::write(&path, degraded_json(scale, &study)) {
                Ok(()) => eprintln!("[degradation measurements written to {path}]"),
                Err(err) => eprintln!("[failed to write {path}: {err}]"),
            }
        }
        "chaos" => {
            let study = chaos_measurements(scale);
            println!("{}", chaos_table(&study));
            println!("{}", chaos_memory_table(&study));
            let quarantined: u64 = study.soak.iter().map(|m| m.quarantined).sum();
            let resyncs: u64 = study.soak.iter().map(|m| m.resyncs).sum();
            let evicted: u64 = study.memory.iter().map(|m| m.evicted_cache_entries).sum();
            eprintln!(
                "[chaos soak: {} runs, {quarantined} envelopes quarantined, \
                 {resyncs} resyncs, {evicted} cache entries evicted under budget; \
                 every run passed all invariant oracles]",
                study.soak.len() * 2 + study.memory.len(),
            );
            let path =
                std::env::var("BENCH_CHAOS_OUT").unwrap_or_else(|_| "BENCH_chaos.json".to_string());
            match std::fs::write(&path, chaos_json(scale, &study)) {
                Ok(()) => eprintln!("[chaos measurements written to {path}]"),
                Err(err) => eprintln!("[failed to write {path}: {err}]"),
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'. known: {}", ALL.join(", "));
            std::process::exit(2);
        }
    }
    eprintln!(
        "[{name} finished in {:.1}s]\n",
        started.elapsed().as_secs_f64()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Default;
    let mut names: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--scale" {
            let value = iter.next().unwrap_or_default();
            scale = Scale::parse(&value).unwrap_or_else(|| {
                eprintln!("unknown scale '{value}' (use smoke, default or paper)");
                std::process::exit(2);
            });
        } else if arg == "--help" || arg == "-h" {
            println!("usage: experiments [--scale smoke|default|paper] [experiment...]");
            println!("experiments: {}", ALL.join(", "));
            return;
        } else {
            names.push(arg);
        }
    }
    if names.is_empty() {
        names = ALL.iter().map(|s| s.to_string()).collect();
    }
    println!("# Reproduction experiments (scale: {scale:?})\n");
    for name in names {
        run(&name, scale);
    }
}
