//! Storage-engine benchmark: cold-load speed of the binary `.alexdb`
//! snapshot format against the N-Triples text parser, on a generated
//! paper-scale dataset pair.
//!
//! The scenario mirrors what `alex compact` enables: a dataset is
//! converted to the binary format once, and every later session creation
//! loads the `.alexdb` instead of re-parsing text. The benchmark writes
//! both representations of the DBpedia–NYTimes pair to disk, measures
//! cold loads of each (best of `--iters` runs), and reports the speedup.
//! Writes `BENCH_store.json`.
//!
//! Two gates are enforced with a non-zero exit:
//! - **identity**: the binary-loaded store must fingerprint identically
//!   to the text-parsed store, side by side;
//! - **speed**: the binary load must be at least `--min-speedup`× faster
//!   (default 5×) than the text parse.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_store \
//!     [--scale S] [--seed N] [--iters K] [--min-speedup X] [--out FILE]
//! ```

use std::path::Path;

use alex_bench::runner::Flags;
use alex_core::store::{read_store_file, store_fingerprint, write_store_file};
use alex_core::trace;
use alex_datagen::PaperPair;
use alex_rdf::{ntriples, Interner, Store};
use serde::Serialize;

#[derive(Serialize)]
struct SideResult {
    side: String,
    triples: usize,
    text_bytes: u64,
    binary_bytes: u64,
    text_parse_seconds: f64,
    binary_load_seconds: f64,
    speedup: f64,
    identical: bool,
}

#[derive(Serialize)]
struct Report {
    pair: String,
    scale: f64,
    seed: u64,
    iters: usize,
    min_speedup: f64,
    sides: Vec<SideResult>,
    overall_speedup: f64,
    gate_passed: bool,
}

/// Best-of-`iters` wall time of two loaders, *interleaved*: each
/// iteration times one text parse then one binary load. On a busy
/// machine a noise burst then inflates both sides instead of skewing
/// whichever loader happened to be running, which keeps the reported
/// ratio honest. Returns `(best_text, best_binary, text_result,
/// binary_result)`.
fn best_of_interleaved<A, B>(
    iters: usize,
    mut text: impl FnMut() -> A,
    mut binary: impl FnMut() -> B,
) -> (f64, f64, A, B) {
    let mut best_text = f64::INFINITY;
    let mut best_binary = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters.max(1) {
        let span = trace::span("exp.text_load");
        let a = text();
        best_text = best_text.min(span.finish());
        let span = trace::span("exp.binary_load");
        let b = binary();
        best_binary = best_binary.min(span.finish());
        last = Some((a, b));
    }
    let (a, b) = last.expect("at least one iteration");
    (best_text, best_binary, a, b)
}

fn main() {
    let flags = Flags::parse(&["--scale", "--seed", "--iters", "--min-speedup", "--out"]);
    let scale: f64 = flags.get("--scale").unwrap_or(1.0);
    let seed: u64 = flags.get("--seed").unwrap_or(0x57_0BE);
    let iters: usize = flags.get("--iters").unwrap_or(3);
    let min_speedup: f64 = flags.get("--min-speedup").unwrap_or(5.0);
    let out_path: String = flags.get("--out").unwrap_or("BENCH_store.json".into());

    let pair = alex_datagen::generate(&PaperPair::DbpediaNytimes.spec(scale, seed));
    println!(
        "{}: {} left / {} right triples (scale {scale}, seed {seed:#x})",
        pair.name,
        pair.left.len(),
        pair.right.len()
    );

    let dir = std::env::temp_dir().join(format!("alex-exp-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let mut sides = Vec::new();
    let mut worst_speedup = f64::INFINITY;
    let mut failed = false;
    for (side, store) in [("left", &pair.left), ("right", &pair.right)] {
        let nt_path = dir.join(format!("{side}.nt"));
        let db_path = dir.join(format!("{side}.alexdb"));
        std::fs::write(&nt_path, ntriples::write_string(store)).expect("write N-Triples");
        write_store_file(&db_path, store).expect("write binary snapshot");

        let (text_parse_seconds, binary_load_seconds, parsed, loaded) = best_of_interleaved(
            iters,
            || load_text(&nt_path),
            || {
                let interner = Interner::new_shared();
                read_store_file(&db_path, &interner).expect("binary load")
            },
        );

        let identical = store_fingerprint(&parsed) == store_fingerprint(&loaded)
            && store_fingerprint(&loaded) == store_fingerprint(store);
        if !identical {
            eprintln!("FAIL: {side}: binary-loaded store differs from the text-parsed one");
            failed = true;
        }
        let speedup = text_parse_seconds / binary_load_seconds.max(f64::MIN_POSITIVE);
        worst_speedup = worst_speedup.min(speedup);
        let text_bytes = std::fs::metadata(&nt_path).unwrap().len();
        let binary_bytes = std::fs::metadata(&db_path).unwrap().len();
        println!(
            "{side:>5}: text {text_parse_seconds:.4}s ({text_bytes} B) \
             vs binary {binary_load_seconds:.4}s ({binary_bytes} B) — {speedup:.1}×",
        );
        sides.push(SideResult {
            side: side.to_string(),
            triples: store.len(),
            text_bytes,
            binary_bytes,
            text_parse_seconds,
            binary_load_seconds,
            speedup,
            identical,
        });
    }

    let gate_passed = !failed && worst_speedup >= min_speedup;
    if !failed && worst_speedup < min_speedup {
        eprintln!(
            "FAIL: speedup gate: worst side is {worst_speedup:.1}×, need ≥ {min_speedup:.1}×"
        );
        failed = true;
    }

    let report = Report {
        pair: pair.name.clone(),
        scale,
        seed,
        iters,
        min_speedup,
        sides,
        overall_speedup: worst_speedup,
        gate_passed,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write benchmark report");
    println!("wrote {out_path} (worst-side speedup {worst_speedup:.1}×)");
    let _ = std::fs::remove_dir_all(&dir);

    if failed {
        std::process::exit(1);
    }
}

/// One cold text load: fresh interner, full N-Triples parse — exactly
/// what a session creation without `.alexdb` pays.
fn load_text(path: &Path) -> Store {
    let text = std::fs::read_to_string(path).expect("read N-Triples");
    let interner = Interner::new_shared();
    let mut store = Store::new(interner);
    ntriples::read_str(&text, &mut store).expect("parse N-Triples");
    store
}
