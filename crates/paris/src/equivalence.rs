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
//! predicates do not inflate the score.

use std::collections::HashMap;

use alex_core::parallel::Executor;
use alex_rdf::{IriId, Link, ScoredLink, Store, Term};
use alex_sim::{Scorer, ValueId, ValueTable};

use crate::alignment::AlignmentTable;
use crate::functionality::FunctionalityTable;
use crate::ParisConfig;

/// Equivalence beliefs over the candidate pairs produced by blocking.
#[derive(Clone, Debug)]
pub struct EquivalenceTable {
    pairs: Vec<(IriId, IriId)>,
    scores: HashMap<(IriId, IriId), f64>,
}

/// Similarity of two objects under the current beliefs: literal pairs use
/// value similarity (zeroed below the configured threshold), resource pairs
/// use the current equivalence score (1.0 on identity).
///
/// Objects are ids of the run's [`ValueTable`]; literal similarities are
/// scored from its prebuilt forms. Belief lookups (IRI pairs) change every
/// round and come from `scores`.
pub(crate) fn object_eq(
    y: ValueId,
    y2: ValueId,
    scores: &HashMap<(IriId, IriId), f64>,
    cfg: &ParisConfig,
    scorer: &Scorer<'_>,
) -> f64 {
    let table = scorer.table();
    match (table.term(y), table.term(y2)) {
        (Term::Iri(a), Term::Iri(b)) => {
            if a == b {
                1.0
            } else {
                scores
                    .get(&(a, b))
                    .copied()
                    .unwrap_or_else(|| scores.get(&(b, a)).copied().unwrap_or(0.0))
            }
        }
        _ => {
            let s = scorer.similarity(y, y2);
            if s >= cfg.literal_threshold {
                s
            } else {
                0.0
            }
        }
    }
}

impl EquivalenceTable {
    /// Creates a table over `pairs` with all beliefs at zero.
    pub fn new(pairs: Vec<(IriId, IriId)>) -> Self {
        Self {
            pairs,
            scores: HashMap::new(),
        }
    }

    /// The candidate pairs under consideration.
    pub fn pairs(&self) -> &[(IriId, IriId)] {
        &self.pairs
    }

    /// Current belief that `left ≡ right`; 0 for non-candidates.
    pub fn score(&self, left: IriId, right: IriId) -> f64 {
        self.scores.get(&(left, right)).copied().unwrap_or(0.0)
    }

    /// Read-only view of all current scores.
    pub(crate) fn scores(&self) -> &HashMap<(IriId, IriId), f64> {
        &self.scores
    }

    /// One round of the noisy-OR update over every candidate pair.
    ///
    /// Honors `ALEX_THREADS`: a thin wrapper over
    /// [`EquivalenceTable::update_with`] with a resolved executor and a
    /// value table over both stores.
    pub fn update(
        &mut self,
        left: &Store,
        right: &Store,
        align: &AlignmentTable,
        fun_left: &FunctionalityTable,
        fun_right: &FunctionalityTable,
        cfg: &ParisConfig,
    ) {
        self.update_with(
            left,
            right,
            align,
            fun_left,
            fun_right,
            cfg,
            &Executor::resolve(0),
            &ValueTable::from_stores(cfg.sim, left, right),
        );
    }

    /// One noisy-OR round on an explicit [`Executor`], scoring literals
    /// through `table` (its config is the one used — pass a table built
    /// from `cfg.sim` and both stores).
    ///
    /// Candidate pairs are sharded into contiguous chunks; every chunk
    /// reads the *previous* round's beliefs (a synchronous Jacobi update,
    /// which is also what the serial loop computes, since `self.scores` is
    /// only replaced at the end). Each pair's new belief touches only its
    /// own key, so merging the chunks is order-independent; within a pair
    /// the noisy-OR product is evaluated in sorted predicate-pair order,
    /// making the result bit-identical for any worker count.
    #[allow(clippy::too_many_arguments)]
    pub fn update_with(
        &mut self,
        left: &Store,
        right: &Store,
        align: &AlignmentTable,
        fun_left: &FunctionalityTable,
        fun_right: &FunctionalityTable,
        cfg: &ParisConfig,
        executor: &Executor,
        table: &ValueTable,
    ) {
        let mut left_entities: HashMap<IriId, Vec<(IriId, ValueId)>> = HashMap::new();
        let mut right_entities: HashMap<IriId, Vec<(IriId, ValueId)>> = HashMap::new();
        for &(l, r) in &self.pairs {
            left_entities
                .entry(l)
                .or_insert_with(|| table.attributes(&left.entity(l)));
            right_entities
                .entry(r)
                .or_insert_with(|| table.attributes(&right.entity(r)));
        }

        let prev_scores = &self.scores;
        let left_entities = &left_entities;
        let right_entities = &right_entities;
        let chunk_results: Vec<Vec<((IriId, IriId), f64)>> =
            executor.map_chunks(&self.pairs, |chunk| {
                let scorer = table.scorer();
                let mut out: Vec<((IriId, IriId), f64)> = Vec::new();
                // Reused per pair: best evidence seen for each predicate pair.
                let mut best: HashMap<(IriId, IriId), f64> = HashMap::new();
                for &(l, r) in chunk {
                    let el = &left_entities[&l];
                    let er = &right_entities[&r];
                    best.clear();
                    for &(lp, ly) in el {
                        for &(rp, ry) in er {
                            let a = align.get(lp, rp);
                            if a <= 0.0 {
                                continue;
                            }
                            let eq = object_eq(ly, ry, prev_scores, cfg, &scorer);
                            if eq <= 0.0 {
                                continue;
                            }
                            let ident = fun_left.ifun(lp).max(fun_right.ifun(rp));
                            let evidence = a * ident * eq;
                            let slot = best.entry((lp, rp)).or_insert(0.0);
                            if evidence > *slot {
                                *slot = evidence;
                            }
                        }
                    }
                    // Noisy-OR over the evidence in sorted key order: float
                    // multiplication is not associative, and HashMap
                    // iteration order varies per process, so an unsorted
                    // product would differ run to run.
                    let mut evidence: Vec<((IriId, IriId), f64)> = best.drain().collect();
                    evidence.sort_unstable_by_key(|&(k, _)| k);
                    let miss: f64 = evidence.iter().map(|&(_, e)| 1.0 - e).product();
                    let p = 1.0 - miss;
                    if p > 0.0 {
                        out.push(((l, r), p));
                    }
                }
                out
            });

        let mut new_scores: HashMap<(IriId, IriId), f64> = HashMap::with_capacity(self.pairs.len());
        for (k, p) in chunk_results.into_iter().flatten() {
            new_scores.insert(k, p);
        }
        self.scores = new_scores;
    }

    /// Extracts the final link assignment: each left entity keeps its
    /// best-scoring right entity; with `mutual_best`, the pair must also be
    /// the best for the right entity. Ties break toward the smaller id so
    /// runs are deterministic. Output is sorted by descending score.
    pub fn assign(&self, mutual_best: bool) -> Vec<ScoredLink> {
        let mut best_left: HashMap<IriId, (IriId, f64)> = HashMap::new();
        let mut best_right: HashMap<IriId, (IriId, f64)> = HashMap::new();
        let mut ordered: Vec<(&(IriId, IriId), &f64)> = self.scores.iter().collect();
        ordered.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (&(l, r), &s) in ordered {
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
    use alex_rdf::{Interner, Literal};

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
        let mut t = EquivalenceTable::new(vec![(l1, r1), (l2, r1)]);
        t.scores.insert((l1, r1), 0.9);
        t.scores.insert((l2, r1), 0.7);

        // Without mutuality both lefts keep their best right.
        let links = t.assign(false);
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].link, Link::new(l1, r1)); // sorted by score

        // With mutuality only the pair r1 prefers survives.
        let links = t.assign(true);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].link, Link::new(l1, r1));
    }

    #[test]
    fn object_eq_thresholds_literals() {
        let interner = Interner::new_shared();
        let cfg = ParisConfig::default();
        let scores = HashMap::new();
        let a: Term = Literal::str(&interner, "LeBron James").into();
        let b: Term = Literal::str(&interner, "LeBron James").into();
        let c: Term = Literal::str(&interner, "zzz qqq").into();
        let table = ValueTable::new(cfg.sim, &interner, [a, b, c]);
        let id = |t: &Term| table.id(t).unwrap();
        {
            let scorer = table.scorer();
            assert_eq!(object_eq(id(&a), id(&b), &scores, &cfg, &scorer), 1.0);
            assert_eq!(object_eq(id(&a), id(&c), &scores, &cfg, &scorer), 0.0);
            // Repeating the comparison scores from the same forms.
            assert_eq!(object_eq(id(&a), id(&c), &scores, &cfg, &scorer), 0.0);
        }
        assert!(table.stats().hits >= 1);
    }

    #[test]
    fn object_eq_uses_current_beliefs_for_resources() {
        let interner = Interner::new_shared();
        let store = Store::new(interner.clone());
        let cfg = ParisConfig::default();
        let a = iri(&store, "a");
        let b = iri(&store, "b");
        let mut scores = HashMap::new();
        scores.insert((a, b), 0.6);
        let ta: Term = a.into();
        let tb: Term = b.into();
        let table = ValueTable::new(cfg.sim, &interner, [ta, tb]);
        let (ia, ib) = (table.id(&ta).unwrap(), table.id(&tb).unwrap());
        {
            let scorer = table.scorer();
            assert_eq!(object_eq(ia, ib, &scores, &cfg, &scorer), 0.6);
            assert_eq!(object_eq(ib, ia, &scores, &cfg, &scorer), 0.6); // symmetric lookup
            assert_eq!(object_eq(ia, ia, &scores, &cfg, &scorer), 1.0);
        }
        // Beliefs are never scored by the table — they change every round.
        assert_eq!(table.stats().hits, 0);
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
