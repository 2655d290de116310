//! ALEX pipeline benchmark: batch curation, interactive serving over TCP,
//! and durable restart, each measured end to end and, in a separate
//! traced run, split into per-layer numbers.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch_s4|serve_s4|durable_s1 --seed N --seconds S --trace 0|1 \
//!     [--data-seed N] [--smoke] [--corrupt-fingerprint]
//! ```
//!
//! `--data-seed` (default 42) generates the dataset pair and its initial
//! links; `--seed` drives the simulated users: the entities queried and
//! the links the serving curators give feedback on. ALEX's own seed is
//! pinned with the other algorithmic settings.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The process exits non-zero when an output check fails.
//! `--smoke` runs a tiny-scale version of the workload for the
//! benchmark's own tests; `--corrupt-fingerprint` flips one fingerprint
//! before it is compared, which the checks must reject.

mod batch;
mod client;
mod data;
mod durable;
mod pipeline;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;

use alex_core::AlexConfig;

use crate::stats::Metrics;

/// Partitions of the left dataset (§6.2), pinned: the count changes both
/// the output and the work.
pub const PARTITIONS: usize = 2;
/// Feature-value threshold θ (paper default).
pub const THETA: f64 = 0.3;
/// Exploration probability ε (paper default).
pub const EPSILON: f64 = 0.1;
/// Exploration step size (paper default).
pub const STEP_SIZE: f64 = 0.05;
/// ALEX's own seed (ε-greedy choices, link sampling), pinned like the
/// other algorithmic settings: the run seed varies what the simulated
/// users ask and judge, not how the engine explores.
pub const ALEX_SEED: u64 = 7;
/// Worker threads for space construction and PARIS; the outputs are
/// identical at every thread count.
pub const THREADS: usize = 2;

/// Everything a workload needs to know about this invocation.
pub struct Ctx {
    pub seed: u64,
    pub data_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Set by `--corrupt-fingerprint`; cleared by the first fingerprint
    /// comparison, which it corrupts.
    pub corrupt: std::sync::atomic::AtomicBool,
    /// Work directory inside the checkout for generated inputs,
    /// server state, and span files.
    pub work: PathBuf,
}

impl Ctx {
    /// Writes a traced run's spans to `.bench_work/<workload>-<seed>-<pid>.spans.jsonl`
    /// in the checkout, where they outlive the run's work directory.
    pub fn write_spans(&self, spans: &[trace::SpanRecord]) {
        let name = self
            .work
            .file_name()
            .expect("work dir name")
            .to_string_lossy();
        let path = self.work.with_file_name(format!("{name}.spans.jsonl"));
        match trace::write_jsonl(spans, &path) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("writing spans to {}: {e}", path.display()),
        }
    }

    /// Compares two fingerprints as an output check; `--corrupt-fingerprint`
    /// flips a bit of the first comparison's left side.
    pub fn check_fingerprint(&self, checks: &mut Checks, what: &str, got: u64, want: u64) {
        let got = if self
            .corrupt
            .swap(false, std::sync::atomic::Ordering::Relaxed)
        {
            got ^ 1
        } else {
            got
        };
        checks.check(&format!("{what}: {got:016x} == {want:016x}"), got == want);
    }
}

/// Named pass/fail output checks.
#[derive(Default)]
pub struct Checks(pub Vec<(String, bool)>);

impl Checks {
    pub fn check(&mut self, what: &str, ok: bool) {
        println!("check {:<4} {what}", if ok { "ok" } else { "FAIL" });
        self.0.push((what.to_string(), ok));
    }

    pub fn all_ok(&self) -> bool {
        !self.0.is_empty() && self.0.iter().all(|(_, ok)| *ok)
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub end_to_end: Metrics,
    /// Filled only by traced runs.
    pub per_layer: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
}

/// The pinned ALEX configuration of every workload.
pub fn alex_config(episode_size: usize, seed: u64) -> AlexConfig {
    AlexConfig {
        partitions: PARTITIONS,
        theta: THETA,
        epsilon: EPSILON,
        step_size: STEP_SIZE,
        episode_size,
        seed,
        threads: THREADS,
        ..AlexConfig::default()
    }
}

/// The same configuration as a `POST /sessions` `config` object (the
/// server resolves its thread count from `ALEX_THREADS`).
pub fn config_json(episode_size: usize, seed: u64, durability: Option<&str>) -> String {
    let mut out = format!(
        "{{\"partitions\": {PARTITIONS}, \"theta\": {THETA}, \"epsilon\": {EPSILON}, \
         \"step_size\": {STEP_SIZE}, \"episode_size\": {episode_size}, \"seed\": {seed}"
    );
    if let Some(d) = durability {
        out.push_str(&format!(", \"durability\": {d}"));
    }
    out.push('}');
    out
}

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload batch_s4|serve_s4|durable_s1 --seed N --seconds S \
         --trace 0|1 [--data-seed N] [--smoke] [--corrupt-fingerprint]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-child") {
        client::serve_child(&args[1..]);
    }
    let workload = arg(&args, "--workload").unwrap_or_else(|| usage("missing --workload"));
    let seed: u64 = arg(&args, "--seed")
        .unwrap_or("1")
        .parse()
        .unwrap_or_else(|_| usage("--seed must be an integer"));
    let data_seed: u64 = arg(&args, "--data-seed")
        .unwrap_or("42")
        .parse()
        .unwrap_or_else(|_| usage("--data-seed must be an integer"));
    let seconds: f64 = arg(&args, "--seconds")
        .unwrap_or("10")
        .parse()
        .unwrap_or_else(|_| usage("--seconds must be a number"));
    let trace = match arg(&args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let work = std::env::current_dir()
        .expect("current directory")
        .join(".bench_work")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("creating the work directory");
    let ctx = Ctx {
        seed,
        data_seed,
        seconds,
        trace,
        smoke: args.iter().any(|a| a == "--smoke"),
        corrupt: std::sync::atomic::AtomicBool::new(
            args.iter().any(|a| a == "--corrupt-fingerprint"),
        ),
        work: work.clone(),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {workload}: seed {seed}, data seed {data_seed}, {seconds} s, trace {}, cores {cores}, \
         server workers {}, partitions {PARTITIONS}, θ {THETA}, ε {EPSILON}, step {STEP_SIZE}{}",
        u8::from(trace),
        client::SERVER_WORKERS,
        if ctx.smoke { ", smoke scale" } else { "" }
    );

    let outcome = match workload {
        "batch_s4" => batch::run(&ctx),
        "serve_s4" => serve::run(&ctx),
        "durable_s1" => durable::run(&ctx),
        other => usage(&format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut outcome = outcome;
    for (name, _) in stats::END_TO_END {
        assert!(
            outcome.end_to_end.get(name).is_some(),
            "{workload} did not measure {name}"
        );
    }
    outcome.per_layer.fill_missing(stats::PER_LAYER);

    outcome
        .end_to_end
        .print_table("end-to-end metrics (tracing off):");
    if trace {
        outcome
            .per_layer
            .print_table("per-layer metrics (traced run):");
    }
    let correct = outcome.checks.all_ok();
    let metrics = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.to_json()
    );
    if !correct {
        eprintln!("perfbench: an output check failed");
        std::process::exit(1);
    }
}
