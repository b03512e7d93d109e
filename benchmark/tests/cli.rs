//! The benchmark binary driven as the pipeline drives it: one process per
//! run, the result on the last line of standard output.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bench(args: &[&str], out: &str) -> Output {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out);
    Command::new(env!("CARGO_BIN_EXE_rfid-benchmark"))
        .args(args)
        .arg("--out")
        .arg(out_dir)
        .output()
        .expect("the benchmark binary starts")
}

fn result_line(output: &Output) -> String {
    assert!(
        output.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let end = start
        + line[start..]
            .find(',')
            .expect("value is followed by its unit");
    line[start..end].parse().expect("value is a number")
}

#[test]
fn contract_run_prints_every_end_to_end_metric_last() {
    let output = bench(
        &[
            "--workload",
            "readings_heavy",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--horizon",
            "600",
        ],
        "contract",
    );
    let line = result_line(&output);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    for name in [
        "setup_s",
        "run_wall_cu",
        "comm_bytes",
        "comm_messages",
        "containment_acc_pct",
        "alert_f1_pct",
        "envelopes_delivered_pct",
        "peak_rss_mb",
    ] {
        assert!(metric(&line, name) > 0.0, "{name} must never read 0");
    }
    assert!(
        !line.contains("dist."),
        "--trace 0 prints no per-layer metric"
    );
}

#[test]
fn single_worker_allocation_count_repeats_exactly() {
    let args = [
        "trace",
        "--workload",
        "steady_collapsed",
        "--seed",
        "7",
        "--reps",
        "1",
        "--horizon",
        "600",
    ];
    let first = result_line(&bench(&args, "alloc_a"));
    let second = result_line(&bench(&args, "alloc_b"));
    let allocs = metric(&first, "dist.allocs_per_run");
    assert!(allocs > 1000.0, "a driver run allocates: {allocs}");
    assert_eq!(allocs, metric(&second, "dist.allocs_per_run"));
    assert_eq!(
        metric(&first, "dist.alloc_mb_per_run"),
        metric(&second, "dist.alloc_mb_per_run")
    );
    assert_eq!(metric(&first, "dist.replay_fidelity"), 1.0);
    let spans =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("alloc_a/trace_steady_collapsed.json");
    assert!(spans.exists(), "trace writes its span file");
}

#[test]
fn bad_requests_fail_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--trace", "0"][..],
        &["--workload", "bad name", "--trace", "0"],
        &["--workload", "steady_collapsed", "--trace", "2"],
        &["--workload", "steady_collapsed", "--seconds", "0"],
        &["run"],
        &["frobnicate"],
    ] {
        let output = bench(args, "bad");
        assert!(!output.status.success(), "{args:?} must fail");
        assert!(output.stdout.is_empty(), "{args:?} must print no result");
    }
}
