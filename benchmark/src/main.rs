//! The repo benchmark. See README.md for the metric glossary and the noise
//! study, and `../BENCHMARK.json` for the contract the pipeline runs it by.
//!
//! ```text
//! rfid-benchmark [run|trace] (--workload W | --all) [--seed N] [--seconds S | --reps N]
//!                            [--horizon H] [--out DIR] [--trace 0|1]
//! rfid-benchmark list [--manifest BENCHMARK.json]
//! rfid-benchmark agree DIR_A DIR_B [--exact]
//! ```
//!
//! Without a subcommand, `--trace 0` means `run` and `--trace 1` means
//! `trace`: that is how the pipeline calls it. The last line of standard
//! output is the result, one JSON object.

mod agree;
mod alloc;
mod calib;
mod measure;
mod metrics;
mod replay;
mod result;
mod span;
mod stats;
mod trace;
mod workload;

use measure::{Budget, Request};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Parsed command line.
struct Cli {
    command: String,
    positional: Vec<String>,
    workload: Option<String>,
    all: bool,
    seed: u64,
    budget: Budget,
    horizon: u32,
    out: PathBuf,
    trace: bool,
    exact: bool,
    manifest: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: String::new(),
        positional: Vec::new(),
        workload: None,
        all: false,
        seed: workload::REFERENCE_SEED,
        budget: Budget::Seconds(8.0),
        horizon: workload::REFERENCE_HORIZON,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        trace: false,
        exact: false,
        manifest: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
        }
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(arg)?),
            "--all" => cli.all = true,
            "--exact" => cli.exact = true,
            "--seed" => cli.seed = number(arg, &value(arg)?)?,
            "--seconds" => {
                let seconds: f64 = number(arg, &value(arg)?)?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                cli.budget = Budget::Seconds(seconds);
            }
            "--reps" => {
                let reps: usize = number(arg, &value(arg)?)?;
                if !(1..=10_000).contains(&reps) {
                    return Err(format!("--reps {reps} is outside 1..=10000"));
                }
                cli.budget = Budget::Reps(reps);
            }
            "--horizon" => {
                cli.horizon = number(arg, &value(arg)?)?;
                if !(300..=20_000).contains(&cli.horizon) {
                    return Err(format!("--horizon {} is outside 300..=20000", cli.horizon));
                }
            }
            "--out" => cli.out = PathBuf::from(value(arg)?),
            "--manifest" => cli.manifest = Some(PathBuf::from(value(arg)?)),
            "--trace" => {
                cli.trace = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if cli.command.is_empty() && cli.positional.is_empty() => {
                cli.command = word.to_string();
            }
            word => cli.positional.push(word.to_string()),
        }
    }
    if cli.command.is_empty() {
        cli.command = if cli.trace { "trace" } else { "run" }.to_string();
    }
    Ok(cli)
}

/// `list`: every workload and metric by name, or a check of the manifest
/// against that registry.
fn list(cli: &Cli) -> Result<(), String> {
    if let Some(path) = &cli.manifest {
        return agree::check_manifest(path);
    }
    println!("workloads:");
    for workload in Workload::ALL {
        println!("  {:<22} {}", workload.name(), workload.why());
    }
    println!("end-to-end metrics (name, unit, better, bound as a share of the baseline):");
    for def in metrics::END_TO_END {
        println!(
            "  {:<30} {:<6} {:<7} {:<5} {}",
            def.name,
            def.unit,
            def.better.as_str(),
            def.bound.expect("end-to-end metrics are bounded"),
            def.note
        );
    }
    println!("per-layer metrics (name, unit, better):");
    for def in metrics::PER_LAYER {
        println!(
            "  {:<38} {:<6} {:<7} {}",
            def.name,
            def.unit,
            def.better.as_str(),
            def.note
        );
    }
    Ok(())
}

/// `run`/`trace` of one workload in this process.
fn measure_one(cli: &Cli, workload: Workload) -> Result<(), String> {
    let request = Request {
        workload,
        seed: cli.seed,
        horizon: cli.horizon,
        budget: cli.budget,
    };
    // `trace_<workload>.json` is the span file; the per-layer result sits
    // beside it as `layers_<workload>.json`.
    let (result, table, stem) = if cli.command == "trace" {
        (
            trace::run(&request, &cli.out)?,
            metrics::PER_LAYER,
            "layers",
        )
    } else {
        (measure::run(&request)?, metrics::END_TO_END, "run")
    };
    metrics::check_complete(&result.metrics, table)?;
    result.write(&cli.out, &format!("{stem}_{}.json", workload.name()))?;
    for def in table {
        eprintln!(
            "  {:<38} {:>18.6} {}",
            def.name, result.metrics[def.name], def.unit
        );
    }
    println!("{}", result.to_json());
    Ok(())
}

/// `--all`: each workload in a process of its own, one after the other, so
/// that `peak_rss_mb` and the allocator's state belong to one workload.
fn measure_all(cli: &Cli, args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let passthrough: Vec<&String> = args.iter().filter(|a| *a != "--all").collect();
    for workload in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(&passthrough)
            .args(["--workload", workload.name()])
            .status()
            .map_err(|e| format!("starting {}: {e}", workload.name()))?;
        if !status.success() {
            return Err(format!(
                "{} {} failed: {status}",
                cli.command,
                workload.name()
            ));
        }
    }
    Ok(())
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let cli = parse_cli(args)?;
    match cli.command.as_str() {
        "list" => list(&cli),
        "agree" => match cli.positional.as_slice() {
            [a, b] => agree::agree(&PathBuf::from(a), &PathBuf::from(b), cli.exact),
            _ => Err("agree takes two result directories".into()),
        },
        "run" | "trace" if cli.all => measure_all(&cli, args),
        "run" | "trace" => {
            let name = cli
                .workload
                .as_deref()
                .ok_or("give --workload <name> or --all (see `list`)")?;
            if !metrics::valid_name(name) {
                return Err(format!("`{name}` is not a valid workload name"));
            }
            let workload = Workload::from_name(name)
                .ok_or(format!("unknown workload `{name}` (see `list`)"))?;
            measure_one(&cli, workload)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("rfid-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
