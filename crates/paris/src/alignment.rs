//! Cross-dataset relation alignment (PARIS §4.2).
//!
//! Given current instance-equivalence beliefs, the alignment of a left
//! predicate `r` with a right predicate `r'` is the belief-weighted
//! fraction of `r`-attributes of matched left entities that find an
//! equivalent value under `r'` on the matched right entity:
//!
//! ```text
//! align(r, r') = Σ_matched(x,x') w(x,x') · best_{y,y'} eq(y, y')
//!              / Σ_matched(x,x') w(x,x') · [x has r]
//! ```
//!
//! with `w = P(x ≡ x')²` so that confident matches dominate. Before any
//! beliefs exist, a uniform prior ([`AlignmentTable::uniform`]) lets the
//! first equivalence round bootstrap from literal evidence alone.

use std::sync::Arc;

use alex_rdf::IriId;

use crate::equivalence::EquivalenceTable;
use crate::evidence::Evidence;

/// Pairs below this belief carry no weight in alignment estimation.
///
/// Must sit below the bootstrap prior ([`crate::ParisConfig::initial_alignment`],
/// default 0.1): after the first equivalence round, beliefs are capped by the
/// prior, and a cutoff above it would starve the alignment estimate and kill
/// the fixpoint. The quadratic weighting (`w = belief²`) keeps low-belief
/// noise from dominating.
const MATCH_CUTOFF: f64 = 0.05;

/// Alignment scores between left-dataset and right-dataset predicates.
#[derive(Clone, Debug)]
pub struct AlignmentTable {
    mode: Mode,
}

#[derive(Clone, Debug)]
enum Mode {
    /// Every predicate pair gets the same prior score.
    Uniform(f64),
    /// Learned scores by predicate pair id of the [`Evidence`] they were
    /// estimated from; `None` (unseen) pairs score zero.
    Learned {
        pairs: Arc<[(IriId, IriId)]>,
        weights: Vec<Option<f64>>,
    },
}

impl AlignmentTable {
    /// A uniform prior table assigning `prior` to every predicate pair.
    pub fn uniform(prior: f64) -> Self {
        Self {
            mode: Mode::Uniform(prior.clamp(0.0, 1.0)),
        }
    }

    /// Alignment of `(left predicate, right predicate)`.
    pub fn get(&self, left: IriId, right: IriId) -> f64 {
        match &self.mode {
            Mode::Uniform(p) => *p,
            Mode::Learned { pairs, weights } => pairs
                .binary_search(&(left, right))
                .ok()
                .and_then(|pp| weights[pp])
                .unwrap_or(0.0),
        }
    }

    /// Alignment of predicate pair `pp` of the [`Evidence`] this table was
    /// estimated from (any id for a uniform table).
    #[inline]
    pub(crate) fn weight(&self, pp: u32) -> f64 {
        match &self.mode {
            Mode::Uniform(p) => *p,
            Mode::Learned { weights, .. } => weights[pp as usize].unwrap_or(0.0),
        }
    }

    /// Number of learned predicate pairs (0 for a uniform table).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no alignments have been learned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over learned `(left, right, score)` alignments in
    /// ascending `(left, right)` order (none for a uniform table).
    pub fn iter(&self) -> impl Iterator<Item = (IriId, IriId, f64)> + '_ {
        let learned = match &self.mode {
            Mode::Uniform(_) => None,
            Mode::Learned { pairs, weights } => Some(pairs.iter().zip(weights)),
        };
        learned
            .into_iter()
            .flatten()
            .filter_map(|(&(l, r), w)| w.map(|w| (l, r, w)))
    }

    /// Estimates alignments from the current equivalence beliefs, reading
    /// the attribute pairs of `evidence` (built over `eqv`'s pairs).
    ///
    /// The walk is serial, in candidate order: every numerator and
    /// denominator receives its additions in one fixed sequence (pairs in
    /// order, then left attributes in store order), so the estimate does
    /// not depend on the worker count that built the beliefs.
    pub fn estimate_with(eqv: &EquivalenceTable, evidence: &Evidence) -> Self {
        let mut numer: Vec<Option<f64>> = vec![None; evidence.predicate_pairs().len()];
        let mut denom: Vec<f64> = vec![0.0; evidence.left_predicates()];
        let beliefs = eqv.beliefs();
        for (pair, &belief) in evidence.pairs().iter().zip(beliefs) {
            if belief < MATCH_CUTOFF {
                continue;
            }
            let w = belief * belief;
            for &lp in evidence.left_row(pair) {
                denom[lp as usize] += w;
            }
            // Entries are sorted by `(pp, attr)`: per left attribute and
            // right predicate the best matching value counts once.
            for group in evidence
                .entries_of(pair)
                .chunk_by(|a, b| (a.pp, a.attr) == (b.pp, b.attr))
            {
                let eq = group.iter().map(|e| e.eq.get(beliefs)).fold(0.0, f64::max);
                if eq > 0.0 {
                    *numer[group[0].pp as usize].get_or_insert(0.0) += w * eq;
                }
            }
        }

        let weights = numer
            .into_iter()
            .zip(0..)
            .map(|(n, pp)| {
                let d = denom[evidence.pair_left(pp) as usize];
                n.filter(|_| d > 0.0).map(|n| (n / d).clamp(0.0, 1.0))
            })
            .collect();
        Self {
            mode: Mode::Learned {
                pairs: evidence.predicate_pairs().clone(),
                weights,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functionality::FunctionalityTable;
    use crate::ParisConfig;
    use alex_core::parallel::Executor;
    use alex_rdf::{Interner, Literal, Store};
    use alex_sim::{SimConfig, ValueTable};

    /// One equivalence round from the uniform prior, then one estimate.
    fn one_round(left: &Store, right: &Store, pairs: Vec<(IriId, IriId)>) -> AlignmentTable {
        let cfg = ParisConfig::default();
        let table = ValueTable::from_stores(SimConfig::default(), left, right);
        let evidence = Evidence::build(
            left,
            right,
            &table,
            &pairs,
            &FunctionalityTable::build(left),
            &FunctionalityTable::build(right),
            cfg.literal_threshold,
            &Executor::new(1),
        );
        let mut eqv = EquivalenceTable::new(pairs);
        eqv.update_with(&evidence, &AlignmentTable::uniform(0.1), &Executor::new(1));
        AlignmentTable::estimate_with(&eqv, &evidence)
    }

    #[test]
    fn uniform_table_returns_prior() {
        let interner = Interner::new_shared();
        let store = Store::new(interner);
        let t = AlignmentTable::uniform(0.1);
        let a = store.intern_iri("a");
        let b = store.intern_iri("b");
        assert!((t.get(a, b) - 0.1).abs() < 1e-12);
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn estimate_aligns_corresponding_predicates() {
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        let name_l = left.intern_iri("l/name");
        let name_r = right.intern_iri("r/fullname");
        let other_r = right.intern_iri("r/city");

        let mut pairs = Vec::new();
        for i in 0..6 {
            let l = left.intern_iri(&format!("l/e{i}"));
            let r = right.intern_iri(&format!("r/e{i}"));
            let nm = format!("person number {i}");
            left.insert_literal(l, name_l, Literal::str(&interner, &nm));
            right.insert_literal(r, name_r, Literal::str(&interner, &nm));
            right.insert_literal(r, other_r, Literal::str(&interner, "metropolis"));
            pairs.push((l, r));
        }
        pairs.sort_unstable();
        let t = one_round(&left, &right, pairs);

        let good = t.get(name_l, name_r);
        let bad = t.get(name_l, other_r);
        assert!(good > 0.9, "name alignment should be strong, got {good}");
        assert!(
            bad < 0.1,
            "name/city alignment should be near zero, got {bad}"
        );
        assert!(!t.is_empty());
        // Unknown predicates score zero.
        assert_eq!(t.get(name_r, name_l), 0.0);
    }

    #[test]
    fn estimate_with_no_beliefs_is_empty() {
        let interner = Interner::new_shared();
        let left = Store::new(interner.clone());
        let right = Store::new(interner);
        let t = one_round(&left, &right, vec![]);
        assert!(t.is_empty());
    }

    /// Learned alignments iterate in ascending `(left, right)` order.
    #[test]
    fn iter_is_ascending() {
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        // Interned in descending string order, so id order differs from
        // any order a string sort would give.
        let preds_l = [left.intern_iri("l/z"), left.intern_iri("l/a")];
        let preds_r = [right.intern_iri("r/y"), right.intern_iri("r/b")];
        let mut pairs = Vec::new();
        for i in 0..4 {
            let l = left.intern_iri(&format!("l/e{i}"));
            let r = right.intern_iri(&format!("r/e{i}"));
            for (k, (&pl, &pr)) in preds_l.iter().zip(&preds_r).enumerate() {
                let v = format!("value {k} of entity {i}");
                left.insert_literal(l, pl, Literal::str(&interner, &v));
                right.insert_literal(r, pr, Literal::str(&interner, &v));
            }
            pairs.push((l, r));
        }
        pairs.sort_unstable();
        let t = one_round(&left, &right, pairs);
        let learned: Vec<(IriId, IriId, f64)> = t.iter().collect();
        assert!(learned.len() >= 2, "learned {learned:?}");
        assert_eq!(learned.len(), t.len());
        for w in learned.windows(2) {
            assert!((w[0].0, w[0].1) < (w[1].0, w[1].1), "{learned:?}");
        }
    }
}
