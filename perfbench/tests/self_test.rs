//! Self-test of the benchmark at tiny scale: every workload prints every
//! end-to-end metric with its unit and checks its answers, the traced run
//! prints every per-layer metric, and a corrupted reference answer fails
//! the run.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["explore", "serve-hot", "ingest"];

const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("late_query_mean_us", "us"),
    ("update_p50_us", "us"),
    ("update_p90_us", "us"),
    ("recover_s", "s"),
    ("disk_bytes_per_value", "B/value"),
    ("peak_rss_mb", "MiB"),
];

/// Runs the benchmark and returns its exit status and last stdout line.
fn run(workload: &str, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "3",
            "--tiny",
        ])
        .args(extra)
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.success(), last)
}

/// The value of metric `name` in a result line, checking its unit.
fn value(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let rest = &line[start..];
    let end = rest.find(',').expect("value ends");
    assert!(
        rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "{name} has the wrong unit in {line}"
    );
    rest[..end].parse().expect("numeric value")
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let (ok, line) = run(workload, &["--trace", "0"]);
        assert!(ok, "{workload} failed: {line}");
        assert!(
            line.starts_with("{\"correct\": true,") && line.contains("\"failed\": 0,"),
            "{workload}: {line}"
        );
        for (name, unit) in END_TO_END {
            assert!(
                value(&line, name, unit) > 0.0,
                "{workload}: {name} is not positive"
            );
        }
    }
}

#[test]
fn traced_run_prints_per_layer_metrics_and_overhead() {
    let (ok, line) = run("ingest", &["--trace", "1"]);
    assert!(ok, "traced ingest failed: {line}");
    for (name, unit) in [
        ("storage.remove_first_us", "us"),
        ("storage.append_us", "us"),
        ("persist.io_ops_per_commit", "count"),
        ("cracking.ripple_delete_us", "us"),
    ] {
        assert!(value(&line, name, unit) > 0.0, "{name} is not positive");
    }
    for (name, unit) in END_TO_END {
        value(&line, &format!("overhead.{name}"), unit);
    }
    assert!(
        !line.contains("\"query_p50_us\""),
        "the traced run prints per-layer metrics only"
    );
}

#[test]
fn corrupted_reference_answer_fails_the_run() {
    for workload in WORKLOADS {
        let (ok, line) = run(workload, &["--trace", "0", "--corrupt-reference"]);
        assert!(!ok, "{workload} passed with a corrupted reference");
        assert!(
            line.starts_with("{\"correct\": false,"),
            "{workload}: {line}"
        );
    }
}
