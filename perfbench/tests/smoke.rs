//! Smoke runs of every workload at a tiny scale: each must pass its
//! output checks and print a well-formed result line with every metric,
//! and a deliberately corrupted fingerprint must be rejected.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

const WORKLOADS: [&str; 3] = ["batch_s4", "serve_s4", "durable_s1"];

/// Runs the benchmark in smoke mode; returns (exit ok, stdout).
fn smoke(workload: &str, trace: &str, extra: &[&str]) -> (bool, String) {
    // The tests run in parallel: every run gets a directory of its own.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-smoke-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "20",
            "--trace",
            trace,
            "--smoke",
        ])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("running the benchmark");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        eprintln!("{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), stdout)
}

fn result_line(stdout: &str) -> serde_json::Value {
    let last = stdout.lines().last().expect("some output");
    serde_json::parse_value_str(last).unwrap_or_else(|e| panic!("bad result line {last:?}: {e}"))
}

fn metric_names(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let spec = serde_json::parse_value_str(&spec).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let names = metric_names(section);
        for workload in WORKLOADS {
            let (ok, stdout) = smoke(workload, trace, &[]);
            assert!(ok, "{workload} --trace {trace} failed");
            let result = result_line(&stdout);
            assert_eq!(result.get("correct").and_then(|v| v.as_bool()), Some(true));
            assert!(result.get("attempted").and_then(|v| v.as_u64()).unwrap() >= 1);
            let metrics = result.get("metrics").and_then(|v| v.as_object()).unwrap();
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            for name in &names {
                assert!(got.contains(&name.as_str()), "{workload} is missing {name}");
            }
            assert_eq!(
                got.len(),
                names.len(),
                "{workload} reports unlisted metrics"
            );
        }
    }
}

#[test]
fn corrupted_fingerprint_is_rejected() {
    for workload in WORKLOADS {
        let (ok, stdout) = smoke(workload, "0", &["--corrupt-fingerprint"]);
        assert!(!ok, "{workload} accepted a corrupted fingerprint");
        let result = result_line(&stdout);
        assert_eq!(result.get("correct").and_then(|v| v.as_bool()), Some(false));
        assert!(
            stdout.contains("check FAIL"),
            "{workload} printed no failed check"
        );
    }
}
