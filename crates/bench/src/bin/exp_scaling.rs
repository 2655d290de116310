//! Parallel-scaling benchmark: exploration-space construction and the
//! PARIS pipeline at 1/2/4/8 threads on one datagen scenario, each scoring
//! through one value table. Writes `BENCH_scaling.json` so future PRs have
//! a perf trajectory, and verifies that every thread count produces output
//! bit-identical to the serial run (the determinism guarantee of
//! `alex-core::parallel`) — a mismatch exits non-zero. It also prints
//! FNV-1a digests of the serial run's space and PARIS output as
//! `fingerprint space <hex>` and `fingerprint paris <hex>`, which CI diffs
//! against `crates/bench/golden/exp_scaling_fingerprints.txt`.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_scaling \
//!     [--scale S] [--threads 1,2,4,8] [--data-seed N] [--out FILE]
//! ```

use alex_bench::fnv1a;
use alex_bench::runner::Flags;
use alex_core::parallel::{Executor, THREADS_ENV};
use alex_core::{trace, ExplorationSpace, RightIndex, DEFAULT_MAX_BLOCK};
use alex_datagen::{generate, PaperPair};
use alex_paris::{ParisConfig, ParisLinker, ParisOutput};
use alex_rdf::IriId;
use alex_sim::{SimConfig, ValueTable};
use serde::Serialize;

const THETA: f64 = 0.3;

#[derive(Serialize)]
struct ThreadResult {
    threads: usize,
    /// Value-table and right-index build plus space build, as the driver
    /// times it.
    space_build_ms: f64,
    /// Serial space-build time / this thread count's time.
    space_speedup: f64,
    /// `space_build_ms` per pair kept, in microseconds: the build's cost
    /// per unit of output.
    space_us_per_pair: f64,
    /// Similarity evaluations per pair kept.
    space_evaluations_per_pair: f64,
    blocking_ms: f64,
    /// Evidence-table build: every attribute pair scored once.
    evidence_ms: f64,
    equivalence_ms: f64,
    alignment_ms: f64,
    paris_ms: f64,
    paris_speedup: f64,
    /// Similarity evaluations the space build scored from the table.
    space_evaluations: u64,
    /// Of those, the string comparisons the edit-distance bound decided
    /// without computing an edit distance.
    space_bounded: u64,
    /// Distinct values in the space build's table.
    space_values: u64,
    /// Similarity evaluations PARIS scored from its table (all in the
    /// evidence build).
    paris_evaluations: u64,
    /// Of those, the ones the edit-distance bound decided.
    paris_bounded: u64,
    /// Distinct values in PARIS's table.
    paris_values: u64,
    /// Space and PARIS output bit-identical to the 1-thread run.
    identical_to_serial: bool,
}

#[derive(Serialize)]
struct Report {
    scenario: String,
    scale: f64,
    data_seed: u64,
    /// Available hardware parallelism — speedups are bounded by this.
    cores: usize,
    left_triples: usize,
    right_triples: usize,
    space_pairs: usize,
    paris_links: usize,
    results: Vec<ThreadResult>,
}

/// Every float and id of the space, in iteration order: equal fingerprints
/// mean bit-identical spaces.
fn space_fingerprint(space: &ExplorationSpace) -> Vec<u64> {
    let mut out = Vec::new();
    for link in space.links() {
        out.push((u64::from(link.left.0 .0) << 32) | u64::from(link.right.0 .0));
        let fs = space.feature_set(link).expect("link is in the space");
        for f in fs.features() {
            out.push((u64::from(f.key.left.0 .0) << 32) | u64::from(f.key.right.0 .0));
            out.push(f.score.to_bits());
        }
    }
    out
}

/// Ids and score bits of the final PARIS links, in output order.
fn paris_fingerprint(out: &ParisOutput) -> Vec<u64> {
    let mut fp = Vec::new();
    for s in &out.links {
        fp.push((u64::from(s.link.left.0 .0) << 32) | u64::from(s.link.right.0 .0));
        fp.push(s.score.to_bits());
    }
    fp
}

fn main() {
    // An inherited ALEX_THREADS would override every per-run thread count
    // below; clear it so the sweep measures what it claims to.
    std::env::remove_var(THREADS_ENV);

    let flags = Flags::parse(&["--scale", "--data-seed", "--out", "--threads"]);
    let scale: f64 = flags.get("--scale").unwrap_or(1.0);
    let data_seed: u64 = flags.get("--data-seed").unwrap_or(42);
    let out_path: String = flags.get("--out").unwrap_or("BENCH_scaling.json".into());
    let mut threads: Vec<usize> = flags
        .list("--threads")
        .unwrap_or(vec![1, 2, 4, 8])
        .into_iter()
        .filter(|&t| t >= 1)
        .collect();
    if threads.is_empty() || threads[0] != 1 {
        threads.insert(0, 1); // the serial oracle anchors every comparison
    }

    let kind = PaperPair::DbpediaNytimes;
    let pair = generate(&kind.spec(scale, data_seed));
    let subjects: Vec<IriId> = pair.left.subjects().collect();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "scenario {} at scale {scale}: {} left / {} right triples, {} subjects, {cores} core(s)",
        kind.label(),
        pair.left.len(),
        pair.right.len(),
        subjects.len()
    );
    println!(
        "{:>7} | {:>12} | {:>7} | {:>10} | {:>10} | {:>10} | {:>10} | {:>8} | {:>9}",
        "threads",
        "space ms",
        "speedup",
        "block ms",
        "evid ms",
        "eqv ms",
        "align ms",
        "paris ms",
        "identical"
    );

    let mut baseline_space_ms = 0.0;
    let mut baseline_paris_ms = 0.0;
    let mut baseline_space_fp: Vec<u64> = Vec::new();
    let mut baseline_paris_fp: Vec<u64> = Vec::new();
    let mut space_pairs = 0;
    let mut paris_links = 0;
    let mut results = Vec::new();
    let mut all_identical = true;

    for &t in &threads {
        let executor = Executor::new(t);
        let span = trace::span("exp.space_build");
        let table = ValueTable::from_stores(SimConfig::default(), &pair.left, &pair.right);
        let index = RightIndex::new(&pair.right, &table, DEFAULT_MAX_BLOCK);
        let space = ExplorationSpace::build_with(&pair.left, &subjects, THETA, &executor, &index);
        let space_build_ms = span.finish() * 1000.0;
        let space_stats = table.stats();
        let space_fp = space_fingerprint(&space);

        let paris_cfg = ParisConfig {
            threads: t,
            ..Default::default()
        };
        let span = trace::span("exp.paris");
        let out = ParisLinker::new(paris_cfg).run(&pair.left, &pair.right);
        let paris_ms = span.finish() * 1000.0;
        let paris_fp = paris_fingerprint(&out);

        if t == 1 && baseline_space_fp.is_empty() {
            baseline_space_ms = space_build_ms;
            baseline_paris_ms = paris_ms;
            baseline_space_fp = space_fp.clone();
            baseline_paris_fp = paris_fp.clone();
            space_pairs = space.len();
            paris_links = out.links.len();
        }
        let identical = space_fp == baseline_space_fp && paris_fp == baseline_paris_fp;
        all_identical &= identical;

        let s = out.stats;
        println!(
            "{:>7} | {:>12.1} | {:>6.2}x | {:>10.1} | {:>10.1} | {:>10.1} | {:>10.1} | {:>8.1} | {:>9}",
            t,
            space_build_ms,
            baseline_space_ms / space_build_ms.max(1e-9),
            s.blocking_seconds * 1000.0,
            s.evidence_seconds * 1000.0,
            s.equivalence_seconds * 1000.0,
            s.alignment_seconds * 1000.0,
            paris_ms,
            identical
        );
        results.push(ThreadResult {
            threads: t,
            space_build_ms,
            space_speedup: baseline_space_ms / space_build_ms.max(1e-9),
            space_us_per_pair: space_build_ms * 1000.0 / space.len().max(1) as f64,
            space_evaluations_per_pair: space_stats.hits as f64 / space.len().max(1) as f64,
            blocking_ms: s.blocking_seconds * 1000.0,
            evidence_ms: s.evidence_seconds * 1000.0,
            equivalence_ms: s.equivalence_seconds * 1000.0,
            alignment_ms: s.alignment_seconds * 1000.0,
            paris_ms,
            paris_speedup: baseline_paris_ms / paris_ms.max(1e-9),
            space_evaluations: space_stats.hits,
            space_bounded: space_stats.bounded,
            space_values: space_stats.misses,
            paris_evaluations: s.cache.hits,
            paris_bounded: s.cache.bounded,
            paris_values: s.cache.misses,
            identical_to_serial: identical,
        });
    }

    println!("fingerprint space {:016x}", fnv1a(&baseline_space_fp));
    println!("fingerprint paris {:016x}", fnv1a(&baseline_paris_fp));

    let report = Report {
        scenario: kind.label().to_string(),
        scale,
        data_seed,
        cores,
        left_triples: pair.left.len(),
        right_triples: pair.right.len(),
        space_pairs,
        paris_links,
        results,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write benchmark report");
    println!("wrote {out_path}");

    if !all_identical {
        eprintln!("FAIL: some thread count produced output differing from the serial run");
        std::process::exit(1);
    }
}
