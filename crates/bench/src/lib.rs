//! # alex-bench — experiment harness for the ALEX reproduction
//!
//! Every table and figure of the paper is a function in [`figures`], which
//! the `exp <figure>` binary prints and `tests/figures.rs` compares with
//! its golden file. This library also holds the shared runner (scenario
//! construction and the experiment binaries' flags) and the plain-text and
//! CSV rendering, so `EXPERIMENTS.md` numbers are regenerable. The other
//! `exp_*` binaries are measurement harnesses that write `BENCH_*.json`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod runner;
pub mod table;

/// FNV-1a over the little-endian bytes of `words`: a short, stable digest
/// of an output fingerprint, printed as `fingerprint <name> <hex>` so it
/// can be diffed against a golden file.
pub fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
