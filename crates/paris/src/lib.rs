//! # alex-paris — the PARIS automatic linker, rebuilt
//!
//! ALEX starts from candidate links produced by an automatic linking
//! algorithm; the paper uses PARIS (Suchanek, Abiteboul, Senellart: "PARIS:
//! Probabilistic Alignment of Relations, Instances, and Schema", PVLDB
//! 2011) because it is fully automatic and domain-independent. PARIS is not
//! available as a reusable library, so this crate rebuilds its published
//! model:
//!
//! 1. **Functionality** ([`functionality`]) — for every predicate, how
//!    close it is to a function (`#distinct subjects / #triples`) and an
//!    inverse function. Highly inverse-functional predicates (ISBNs, names)
//!    carry more identification evidence.
//! 2. **Blocking** ([`blocking`]) — candidate entity pairs are generated
//!    from shared literal keys (exact normalized values and tokens), so the
//!    fixpoint never touches the full cross product.
//! 3. **Evidence** ([`evidence`]) — built once per run: for every candidate
//!    pair, the attribute pairs that can ever contribute, each literal pair
//!    scored once. Similarity evaluations therefore happen once per
//!    attribute pair of the run, not once per round.
//! 4. **Relation alignment** ([`alignment`]) — cross-dataset predicate
//!    alignment scores estimated from currently-believed instance matches.
//! 5. **Instance equivalence** ([`equivalence`]) — the noisy-OR fixpoint
//!    `P(x≡x') = 1 − Π (1 − align(r,r')·ifun·eq(y,y'))`, alternating with
//!    relation alignment for a configured number of rounds.
//!
//! The output is a set of [`ScoredLink`]s; the paper keeps links with score
//! above 0.95 ([`ParisOutput::above_threshold`]).
//!
//! ```
//! use alex_rdf::{Interner, Literal, Store};
//! use alex_paris::{ParisConfig, ParisLinker};
//!
//! let interner = Interner::new_shared();
//! let mut left = Store::new(interner.clone());
//! let mut right = Store::new(interner.clone());
//!
//! let a = left.intern_iri("http://db/LeBron");
//! let name_l = left.intern_iri("http://db/name");
//! left.insert_literal(a, name_l, Literal::str(&interner, "LeBron James"));
//!
//! let b = right.intern_iri("http://nyt/lebron_james");
//! let name_r = right.intern_iri("http://nyt/fullName");
//! right.insert_literal(b, name_r, Literal::str(&interner, "LeBron James"));
//!
//! let out = ParisLinker::new(ParisConfig::default()).run(&left, &right);
//! assert_eq!(out.links.len(), 1);
//! assert_eq!(out.links[0].link.left, a);
//! assert_eq!(out.links[0].link.right, b);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alignment;
pub mod blocking;
pub mod equivalence;
pub mod evidence;
pub mod functionality;

use std::ops::Range;

use alex_core::parallel::Executor;
use alex_rdf::{Link, ScoredLink, Store};
use alex_sim::{CacheStats, SimConfig, ValueTable};

/// Tuning knobs for the PARIS fixpoint.
#[derive(Clone, Debug)]
pub struct ParisConfig {
    /// Alternation rounds of (instance equivalence, relation alignment).
    pub iterations: usize,
    /// Literal similarity below this contributes no evidence.
    pub literal_threshold: f64,
    /// Alignment prior used in the first round, before any alignment has
    /// been estimated (PARIS's θ).
    pub initial_alignment: f64,
    /// Keys shared by more than this many entities on either side are
    /// considered stop-words and skipped during blocking.
    pub max_block_size: usize,
    /// Keep only mutually-best matches (both directions agree).
    pub mutual_best: bool,
    /// Worker threads (`0` = auto: honor `ALEX_THREADS`, else available
    /// parallelism). Output is bit-identical at every thread count.
    pub threads: usize,
}

impl Default for ParisConfig {
    fn default() -> Self {
        Self {
            iterations: 4,
            literal_threshold: 0.85,
            initial_alignment: 0.1,
            max_block_size: 50,
            mutual_best: true,
            threads: 0,
        }
    }
}

/// Per-stage observability of one PARIS run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParisStats {
    /// Wall-clock seconds generating candidate pairs (blocking).
    pub blocking_seconds: f64,
    /// Wall-clock seconds building the evidence table: entity rows, and
    /// every attribute pair of every candidate pair scored or resolved.
    pub evidence_seconds: f64,
    /// Wall-clock seconds in equivalence updates, summed over rounds.
    pub equivalence_seconds: f64,
    /// Wall-clock seconds in alignment estimation, summed over rounds.
    pub alignment_seconds: f64,
    /// Worker threads the run used.
    pub threads: usize,
    /// Value-table counters for the whole run: `hits` = similarity
    /// evaluations served from prebuilt forms, `misses` = distinct values
    /// whose forms were built. The evidence build scores each attribute
    /// pair of the run once and no round scores again, so `hits` does not
    /// grow with [`ParisConfig::iterations`], and a ratio such as
    /// `hits / (hits + misses)` is lower than when every round re-scored.
    /// The table has no memo, so that ratio is not a cache hit rate.
    pub cache: CacheStats,
}

/// Result of a PARIS run.
#[derive(Clone, Debug)]
pub struct ParisOutput {
    /// All links that survived assignment, sorted by descending score.
    pub links: Vec<ScoredLink>,
    /// Number of candidate pairs examined (after blocking).
    pub candidates_examined: usize,
    /// Final relation-alignment table, for inspection and tests.
    pub alignments: alignment::AlignmentTable,
    /// Stage timings and value-table counters of this run.
    pub stats: ParisStats,
}

impl ParisOutput {
    /// Links with score at or above `threshold` (the paper uses 0.95).
    pub fn above_threshold(&self, threshold: f64) -> Vec<Link> {
        self.links
            .iter()
            .filter(|l| l.score >= threshold)
            .map(|l| l.link)
            .collect()
    }
}

/// The PARIS linker. See the crate docs for the model.
#[derive(Clone, Debug, Default)]
pub struct ParisLinker {
    config: ParisConfig,
}

impl ParisLinker {
    /// Creates a linker with the given configuration.
    pub fn new(config: ParisConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ParisConfig {
        &self.config
    }

    /// Runs the full PARIS pipeline on two datasets sharing an interner.
    ///
    /// One executor and one value table are shared across all stages:
    /// every object of both stores gets its string forms built once, and
    /// blocking keys are computed once per distinct value. After blocking,
    /// one [`evidence::Evidence`] table scores every attribute pair of the
    /// candidate pairs once; every fixpoint round then reads it, so no
    /// round re-scores a literal. The thread count comes from
    /// [`ParisConfig::threads`] / `ALEX_THREADS`, and the output is
    /// bit-identical at every thread count.
    pub fn run(&self, left: &Store, right: &Store) -> ParisOutput {
        let _span = alex_trace::span("paris.run");
        let cfg = &self.config;
        let executor = Executor::resolve(cfg.threads);
        let table = ValueTable::from_stores(SimConfig::default(), left, right);

        let fun_left = functionality::FunctionalityTable::build(left);
        let fun_right = functionality::FunctionalityTable::build(right);

        let blocking_span = alex_trace::span("paris.blocking");
        let candidates =
            blocking::candidate_pairs_with(left, right, &table, cfg.max_block_size, &executor);
        let blocking_seconds = blocking_span.finish();

        let evidence_span = alex_trace::span("paris.evidence");
        let evidence = evidence::Evidence::build(
            left,
            right,
            &table,
            &candidates,
            &fun_left,
            &fun_right,
            cfg.literal_threshold,
            &executor,
        );
        let evidence_seconds = evidence_span.finish();

        let candidates_examined = candidates.len();
        let mut eqv = equivalence::EquivalenceTable::new(candidates);
        let mut align = alignment::AlignmentTable::uniform(cfg.initial_alignment);
        let mut equivalence_seconds = 0.0;
        let mut alignment_seconds = 0.0;
        for _round in 0..cfg.iterations.max(1) {
            let eq_span = alex_trace::span("paris.equivalence");
            eqv.update_with(&evidence, &align, &executor);
            equivalence_seconds += eq_span.finish();
            let align_span = alex_trace::span("paris.alignment");
            align = alignment::AlignmentTable::estimate_with(&eqv, &evidence);
            alignment_seconds += align_span.finish();
        }

        let links = eqv.assign(cfg.mutual_best);
        ParisOutput {
            links,
            candidates_examined,
            alignments: align,
            stats: ParisStats {
                blocking_seconds,
                evidence_seconds,
                equivalence_seconds,
                alignment_seconds,
                threads: executor.workers(),
                cache: table.stats(),
            },
        }
    }
}

/// Item `i`'s range in a flat array split by `offsets`.
pub(crate) fn slot(offsets: &[u32], i: usize) -> Range<usize> {
    offsets[i] as usize..offsets[i + 1] as usize
}

/// `n` as a `u32` offset or id.
pub(crate) fn id32(n: usize) -> u32 {
    u32::try_from(n).expect("PARIS ids and offsets fit u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::{Interner, Literal};

    /// Two tiny aligned KBs with different predicate vocabularies.
    fn toy_pair() -> (Store, Store, Vec<(alex_rdf::IriId, alex_rdf::IriId)>) {
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        let name_l = left.intern_iri("http://db/ontology/name");
        let born_l = left.intern_iri("http://db/ontology/birthYear");
        let name_r = right.intern_iri("http://nyt/elements/fullName");
        let born_r = right.intern_iri("http://nyt/elements/yearOfBirth");

        let people = [
            ("LeBron James", 1984),
            ("Kobe Bryant", 1978),
            ("Tim Duncan", 1976),
            ("Kevin Durant", 1988),
        ];
        let mut gt = Vec::new();
        for (i, (name, year)) in people.iter().enumerate() {
            let l = left.intern_iri(&format!("http://db/resource/p{i}"));
            let r = right.intern_iri(&format!("http://nyt/people/x{i}"));
            left.insert_literal(l, name_l, Literal::str(&interner, name));
            left.insert_literal(l, born_l, Literal::Integer(*year));
            right.insert_literal(r, name_r, Literal::str(&interner, name));
            right.insert_literal(r, born_r, Literal::Integer(*year));
            gt.push((l, r));
        }
        (left, right, gt)
    }

    #[test]
    fn links_identical_entities_across_vocabularies() {
        let (left, right, gt) = toy_pair();
        let out = ParisLinker::new(ParisConfig::default()).run(&left, &right);
        assert_eq!(out.links.len(), gt.len(), "links: {:?}", out.links);
        for (l, r) in gt {
            assert!(
                out.links
                    .iter()
                    .any(|s| s.link.left == l && s.link.right == r),
                "missing link {l:?} -> {r:?}"
            );
        }
        // High confidence: names are distinctive and inverse functional.
        for s in &out.links {
            assert!(s.score > 0.5, "low score {}", s.score);
        }
    }

    #[test]
    fn scores_sorted_descending() {
        let (left, right, _) = toy_pair();
        let out = ParisLinker::default().run(&left, &right);
        for w in out.links.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn empty_stores_produce_no_links() {
        let interner = Interner::new_shared();
        let left = Store::new(interner.clone());
        let right = Store::new(interner);
        let out = ParisLinker::default().run(&left, &right);
        assert!(out.links.is_empty());
        assert_eq!(out.candidates_examined, 0);
    }

    #[test]
    fn threshold_filters() {
        let (left, right, _) = toy_pair();
        let out = ParisLinker::default().run(&left, &right);
        assert!(out.above_threshold(1.01).is_empty());
        assert_eq!(out.above_threshold(0.0).len(), out.links.len());
    }
}
