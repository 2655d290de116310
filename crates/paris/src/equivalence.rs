//! The instance-equivalence fixpoint (PARIS §4.3).
//!
//! For a candidate pair `(x, x')`, every pair of attributes `r(x, y)` and
//! `r'(x', y')` contributes evidence `align(r, r') · ifun · eq(y, y')`
//! where `ifun` is the identification strength of the predicates and
//! `eq(y, y')` is literal similarity (for literals) or the current
//! equivalence belief (for resources). Evidence combines by noisy-OR:
//!
//! ```text
//! P(x ≡ x') = 1 − Π (1 − evidenceᵢ)
//! ```
//!
//! Per predicate pair only the best `(y, y')` match counts, so multi-valued
//! predicates do not inflate the score. The attribute pairs and their
//! `eq(y, y')` come from the run's [`Evidence`] table; a round only reads
//! the current beliefs and alignments.

use alex_core::parallel::Executor;
use alex_rdf::hash::FastMap;
use alex_rdf::{IriId, Link, ScoredLink};

use crate::alignment::AlignmentTable;
use crate::evidence::Evidence;

/// Equivalence beliefs over the candidate pairs produced by blocking.
#[derive(Clone, Debug)]
pub struct EquivalenceTable {
    pairs: Vec<(IriId, IriId)>,
    /// Belief per candidate pair, in `pairs` order; zero where no evidence
    /// holds, positive otherwise.
    beliefs: Vec<f64>,
}

impl EquivalenceTable {
    /// Creates a table over `pairs` (sorted and distinct, as blocking
    /// returns them) with all beliefs at zero.
    pub fn new(pairs: Vec<(IriId, IriId)>) -> Self {
        Self {
            beliefs: vec![0.0; pairs.len()],
            pairs,
        }
    }

    /// The candidate pairs under consideration.
    pub fn pairs(&self) -> &[(IriId, IriId)] {
        &self.pairs
    }

    /// Current belief that `left ≡ right`; 0 for non-candidates.
    pub fn score(&self, left: IriId, right: IriId) -> f64 {
        self.pairs
            .binary_search(&(left, right))
            .map_or(0.0, |i| self.beliefs[i])
    }

    /// Current beliefs, indexed like [`EquivalenceTable::pairs`].
    pub(crate) fn beliefs(&self) -> &[f64] {
        &self.beliefs
    }

    /// One noisy-OR round on an explicit [`Executor`], reading `evidence`
    /// (built over this table's pairs).
    ///
    /// A pair's evidence entries are sorted by predicate pair; per
    /// predicate pair only the best `eq` counts, and the noisy-OR product
    /// runs in ascending predicate-pair order (predicate pair ids follow
    /// [`IriId`] order). Candidate pairs are sharded into contiguous
    /// chunks; every chunk reads the *previous* round's beliefs (a
    /// synchronous Jacobi update) and each pair's new belief touches only
    /// its own slot, so the result is bit-identical for any worker count.
    ///
    /// # Panics
    ///
    /// If `evidence` covers a different number of pairs.
    pub fn update_with(
        &mut self,
        evidence: &Evidence,
        align: &AlignmentTable,
        executor: &Executor,
    ) {
        assert_eq!(
            evidence.pairs().len(),
            self.pairs.len(),
            "evidence of other pairs"
        );
        let prev = &self.beliefs;
        let chunks: Vec<Vec<f64>> = executor.map_chunks(evidence.pairs(), |chunk| {
            chunk
                .iter()
                .map(|pair| {
                    let mut miss = 1.0;
                    for group in evidence.entries_of(pair).chunk_by(|a, b| a.pp == b.pp) {
                        let pp = group[0].pp;
                        let a = align.weight(pp);
                        if a <= 0.0 {
                            continue;
                        }
                        let eq = group.iter().map(|e| e.eq.get(prev)).fold(0.0, f64::max);
                        if eq <= 0.0 {
                            continue;
                        }
                        // Rounding is monotone, so scaling the best `eq`
                        // equals the best of the scaled ones.
                        miss *= 1.0 - a * evidence.ident(pp) * eq;
                    }
                    let p = 1.0 - miss;
                    if p > 0.0 {
                        p
                    } else {
                        0.0
                    }
                })
                .collect()
        });
        self.beliefs = chunks.into_iter().flatten().collect();
    }

    /// Extracts the final link assignment: each left entity keeps its
    /// best-scoring right entity; with `mutual_best`, the pair must also be
    /// the best for the right entity. Ties break toward the smaller id so
    /// runs are deterministic. Output is sorted by descending score.
    pub fn assign(&self, mutual_best: bool) -> Vec<ScoredLink> {
        let mut best_left: FastMap<IriId, (IriId, f64)> = FastMap::default();
        let mut best_right: FastMap<IriId, (IriId, f64)> = FastMap::default();
        for (&(l, r), &s) in self.pairs.iter().zip(&self.beliefs) {
            if s <= 0.0 {
                continue;
            }
            let bl = best_left.entry(l).or_insert((r, s));
            if s > bl.1 {
                *bl = (r, s);
            }
            let br = best_right.entry(r).or_insert((l, s));
            if s > br.1 {
                *br = (l, s);
            }
        }
        let mut out: Vec<ScoredLink> = best_left
            .into_iter()
            .filter(|&(l, (r, _))| {
                !mutual_best || best_right.get(&r).is_some_and(|&(bl, _)| bl == l)
            })
            .map(|(l, (r, s))| ScoredLink::new(Link::new(l, r), s))
            .collect();
        out.sort_unstable_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then_with(|| a.link.cmp(&b.link))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::{Interner, Store};

    fn iri(store: &Store, s: &str) -> IriId {
        store.intern_iri(s)
    }

    #[test]
    fn assign_picks_best_and_respects_mutuality() {
        let interner = Interner::new_shared();
        let store = Store::new(interner);
        let l1 = iri(&store, "l1");
        let l2 = iri(&store, "l2");
        let r1 = iri(&store, "r1");
        let mut pairs = vec![(l1, r1), (l2, r1)];
        pairs.sort_unstable();
        let mut t = EquivalenceTable::new(pairs);
        for (i, &(l, _)) in t.pairs.iter().enumerate() {
            t.beliefs[i] = if l == l1 { 0.9 } else { 0.7 };
        }

        // Without mutuality both lefts keep their best right.
        let links = t.assign(false);
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].link, Link::new(l1, r1)); // sorted by score

        // With mutuality only the pair r1 prefers survives.
        let links = t.assign(true);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].link, Link::new(l1, r1));
        assert_eq!(t.score(l2, r1), 0.7);
    }

    #[test]
    fn score_defaults_to_zero() {
        let interner = Interner::new_shared();
        let store = Store::new(interner);
        let t = EquivalenceTable::new(vec![]);
        assert_eq!(t.score(iri(&store, "x"), iri(&store, "y")), 0.0);
        assert!(t.pairs().is_empty());
    }
}
