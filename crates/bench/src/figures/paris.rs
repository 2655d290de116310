//! PARIS baseline quality on every synthetic pair (transparency for the
//! DESIGN.md §3 substitution: experiments start from *degraded* candidate
//! sets pinned to each figure's starting quality; this table shows what
//! our rebuilt PARIS itself achieves on the same data).
//!
//! After the table it prints one `fingerprint <pair> <hex>` line per pair:
//! FNV-1a over every link's `left right score-bits` row in `(left, right)`
//! order, then the learned alignment weights' bits in `(left, right)`
//! order. `tests/figures.rs` compares those lines with
//! `golden/exp_paris_fingerprints.txt`.
//!
//! ```sh
//! exp paris [--scale S]
//! ```

use std::io::{self, Write};

use alex_core::Quality;
use alex_datagen::{generate, PaperPair};
use alex_paris::{ParisConfig, ParisLinker, ParisOutput};

use super::{Command, Outcome};
use crate::fnv1a;

/// Every link row and alignment weight of a run, as FNV-1a input.
fn fingerprint(out: &ParisOutput) -> Vec<u64> {
    let mut rows: Vec<_> = out.links.iter().collect();
    rows.sort_unstable_by_key(|s| s.link);
    let mut words = Vec::new();
    for s in rows {
        words.extend([
            u64::from(s.link.left.0 .0),
            u64::from(s.link.right.0 .0),
            s.score.to_bits(),
        ]);
    }
    // `iter` yields learned alignments in ascending `(left, right)` order.
    words.extend(out.alignments.iter().map(|(_, _, w)| w.to_bits()));
    words
}

pub(super) fn run(cmd: &Command, out: &mut dyn Write) -> io::Result<Outcome> {
    let params = cmd.params;
    writeln!(
        out,
        "{:<32} | {:>5} | {:>6} | {:>6} | {:>6} | {:>6}",
        "pair", "GT", "links", "P", "R", "F"
    )?;
    writeln!(out, "{}", "-".repeat(78))?;
    let mut fingerprints = Vec::new();
    for kind in PaperPair::ALL {
        let pair = generate(&kind.spec(params.scale, params.data_seed));
        let paris = ParisLinker::new(ParisConfig::default()).run(&pair.left, &pair.right);
        let links: std::collections::HashSet<_> = paris.above_threshold(0.5).into_iter().collect();
        let q = Quality::compute(&links, &pair.truth);
        writeln!(
            out,
            "{:<32} | {:>5} | {:>5} | {:.3}  | {:.3}  | {:.3}",
            kind.label(),
            pair.truth.len(),
            links.len(),
            q.precision,
            q.recall,
            q.f1
        )?;
        fingerprints.push((kind.label(), fnv1a(&fingerprint(&paris))));
    }
    writeln!(
        out,
        "\nPARIS links what shares near-exact literal evidence; the per-figure starting\n\
         regimes (e.g. Fig 2(a)'s P 0.85 / R 0.2) are instead synthesized by the degrader\n\
         so every figure starts exactly where the paper's does (DESIGN.md §3).\n"
    )?;
    for (label, hash) in fingerprints {
        writeln!(out, "fingerprint {label} {hash:016x}")?;
    }
    Ok(Outcome::default())
}
