//! # alex-bench — experiment harness for the ALEX reproduction
//!
//! One binary per table/figure of the paper (see `src/bin/exp_*.rs`), plus
//! Criterion micro-benchmarks under `benches/`. This library holds the
//! shared runner: scenario construction, series collection, and plain-text
//! / CSV / JSON rendering so `EXPERIMENTS.md` numbers are regenerable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod runner;
pub mod table;

/// FNV-1a over the little-endian bytes of `words`: a short, stable digest
/// of an output fingerprint, printed as `fingerprint <name> <hex>` so CI
/// can diff it against a golden file.
pub fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checks the shape claims a figure binary makes about the paper's
/// results, each a description and whether it held: every failed claim
/// is printed to stderr, and the process exits non-zero if any failed.
/// Stdout is left alone, so the printed figure stays comparable with its
/// golden file either way.
pub fn check_claims(figure: &str, claims: &[(String, bool)]) {
    let mut failed = false;
    for (claim, _) in claims.iter().filter(|(_, holds)| !holds) {
        eprintln!("FAIL: {figure}: {claim}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
