//! Tracing overhead microbenchmark: proves the disabled flight recorder
//! is free. Measures ns/op for a fixed arithmetic workload (a) bare,
//! (b) with a `trace::emit` call while tracing is off, (c) with the ring
//! recorder on, and (d) with the JSONL sink on; and (e) the cost of one
//! span open and close while tracing is off, which spans always pay for
//! the stage table. Writes `BENCH_trace.json` and exits non-zero when the
//! disabled path costs more than 5% over the bare baseline — the
//! zero-allocation no-op claim, enforced — or a span costs more than 1 µs.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_trace_overhead \
//!     [--iters N] [--reps N] [--out FILE]
//! ```

use std::hint::black_box;
use std::time::Instant;

use alex_bench::runner::Flags;
use alex_core::trace::{self, Payload, TraceMode};
use serde::Serialize;

/// The disabled emit path may cost at most this fraction over baseline.
const MAX_DISABLED_OVERHEAD: f64 = 0.05;

/// A span open and close with tracing off may cost at most this, in ns.
const MAX_SPAN_NS: f64 = 1000.0;

#[derive(Serialize)]
struct Report {
    iters: u64,
    reps: usize,
    /// ns/op of the bare workload (no emit call compiled in).
    baseline_ns: f64,
    /// ns/op with `emit` present but tracing off — the gated number.
    disabled_ns: f64,
    /// ns/op with the ring recorder on (event constructed and stored).
    ring_ns: f64,
    /// ns/op with the JSONL sink on (event serialized and written).
    jsonl_ns: f64,
    /// ns per span open and close with tracing off (two clock reads and
    /// a stage-table update) — gated at `max_span_ns`.
    span_ns: f64,
    max_span_ns: f64,
    disabled_overhead_pct: f64,
    max_disabled_overhead_pct: f64,
    pass: bool,
}

/// ~30–60 ns of un-eliminable integer work per op: xorshift rounds. An
/// LCG chain won't do here — constant multiply-adds compose into one
/// affine map that LLVM folds away; the shift/xor mix does not fold.
#[inline(always)]
fn work(i: u64) -> u64 {
    let mut acc = i | 1;
    for _ in 0..32 {
        acc ^= acc << 13;
        acc ^= acc >> 7;
        acc ^= acc << 17;
    }
    acc
}

/// ns/op of `iters` ops of `f`, minimum over `reps` repetitions (the
/// minimum is the standard noise filter for micro-benchmarks: anything
/// above it is interference, not the code under test). Each op feeds the
/// next, so the loop measures the serial latency of the workload; an
/// independent branch like the disabled-tracing check can only cost what
/// the CPU cannot hide in the chain's spare issue slots.
fn measure(iters: u64, reps: usize, mut f: impl FnMut(u64) -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for i in 0..iters {
            acc = f(acc.wrapping_add(i));
        }
        black_box(acc);
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    best
}

fn emitting(i: u64) -> u64 {
    trace::emit(|| Payload::WalAppend {
        session: format!("s{i}"),
        kind: "feedback".to_string(),
        seq: i,
        bytes: 96,
    });
    work(i)
}

fn configure(mode: TraceMode) {
    trace::configure(mode).expect("configure recorder");
}

fn main() {
    let flags = Flags::parse(&["--iters", "--reps", "--out"]);
    let iters: u64 = flags.get("--iters").unwrap_or(2_000_000);
    let reps: usize = flags.get("--reps").unwrap_or(7);
    let out_path: String = flags.get("--out").unwrap_or("BENCH_trace.json".into());

    // (a) Bare workload — no emit call in the loop at all.
    configure(TraceMode::Off);
    let baseline_ns = measure(iters, reps, work);

    // (b) Same workload + emit while tracing is off. The closure must not
    // run (its format! would allocate); the whole call is one relaxed
    // atomic load and a branch.
    let disabled_ns = measure(iters, reps, emitting);

    // (e) A span open and close with tracing off: what every stage pays
    // for its stage-table entry.
    let span_ns = measure(iters.min(1_000_000), reps, |i| {
        drop(trace::span("bench.span"));
        i
    });

    // (c) Ring recorder on: the payload is built and pushed into the ring.
    configure(TraceMode::Ring);
    let ring_span = trace::root_span("bench.ring");
    let ring_ns = measure(iters.min(200_000), reps.min(3), emitting);
    drop(ring_span);

    // (d) JSONL sink: the event is also serialized and written out.
    let jsonl_path = std::env::temp_dir().join("alex_trace_overhead.jsonl");
    configure(TraceMode::Jsonl(jsonl_path.display().to_string()));
    let jsonl_span = trace::root_span("bench.jsonl");
    let jsonl_ns = measure(iters.min(50_000), reps.min(3), emitting);
    drop(jsonl_span);
    configure(TraceMode::Off);
    let _ = std::fs::remove_file(&jsonl_path);

    let overhead = (disabled_ns - baseline_ns) / baseline_ns;
    let pass = overhead <= MAX_DISABLED_OVERHEAD && span_ns <= MAX_SPAN_NS;
    let report = Report {
        iters,
        reps,
        baseline_ns,
        disabled_ns,
        ring_ns,
        jsonl_ns,
        span_ns,
        max_span_ns: MAX_SPAN_NS,
        disabled_overhead_pct: overhead * 100.0,
        max_disabled_overhead_pct: MAX_DISABLED_OVERHEAD * 100.0,
        pass,
    };
    println!(
        "baseline {baseline_ns:.2} ns/op | disabled {disabled_ns:.2} ns/op ({:+.2}%) | \
         ring {ring_ns:.2} ns/op | jsonl {jsonl_ns:.2} ns/op | span {span_ns:.1} ns",
        overhead * 100.0
    );
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, json + "\n").expect("write benchmark report");
    println!("wrote {out_path}");
    if !pass {
        eprintln!(
            "FAIL: disabled tracing costs {:.2}% over baseline (budget {:.0}%), a span \
             {span_ns:.1} ns (budget {MAX_SPAN_NS} ns)",
            overhead * 100.0,
            MAX_DISABLED_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
}
