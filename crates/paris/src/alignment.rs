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

use std::collections::HashMap;

use alex_core::parallel::Executor;
use alex_rdf::{IriId, Store};
use alex_sim::{ValueId, ValueTable};

use crate::equivalence::{object_eq, EquivalenceTable};
use crate::ParisConfig;

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
    /// Learned scores; unseen pairs score zero.
    Learned(HashMap<(IriId, IriId), f64>),
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
            Mode::Learned(m) => m.get(&(left, right)).copied().unwrap_or(0.0),
        }
    }

    /// Number of learned predicate pairs (0 for a uniform table).
    pub fn len(&self) -> usize {
        match &self.mode {
            Mode::Uniform(_) => 0,
            Mode::Learned(m) => m.len(),
        }
    }

    /// Whether no alignments have been learned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over learned `(left, right, score)` alignments.
    pub fn iter(&self) -> impl Iterator<Item = (IriId, IriId, f64)> + '_ {
        let learned = match &self.mode {
            Mode::Uniform(_) => None,
            Mode::Learned(m) => Some(m),
        };
        learned.into_iter().flatten().map(|(&(l, r), &s)| (l, r, s))
    }

    /// Estimates alignments from the current equivalence beliefs.
    ///
    /// Honors `ALEX_THREADS`: a thin wrapper over
    /// [`AlignmentTable::estimate_with`] with a resolved executor and a
    /// value table over both stores.
    pub fn estimate(
        left: &Store,
        right: &Store,
        eqv: &EquivalenceTable,
        cfg: &ParisConfig,
    ) -> Self {
        Self::estimate_with(
            left,
            right,
            eqv,
            cfg,
            &Executor::resolve(0),
            &ValueTable::from_stores(cfg.sim, left, right),
        )
    }

    /// Estimates alignments on an explicit [`Executor`], scoring literals
    /// through `table` (pass a table built from `cfg.sim` and both stores).
    ///
    /// Candidate pairs are sharded into contiguous chunks; each chunk
    /// emits its numerator/denominator *contributions* as ordered lists,
    /// and the contributions are replayed serially in input order into the
    /// accumulators. Every accumulator key therefore receives its additions
    /// in exactly the serial order (one addition per pair-attribute, sorted
    /// by right predicate within an attribute), making the estimate
    /// bit-identical for any worker count.
    pub fn estimate_with(
        left: &Store,
        right: &Store,
        eqv: &EquivalenceTable,
        cfg: &ParisConfig,
        executor: &Executor,
        table: &ValueTable,
    ) -> Self {
        // Prefetch the entities of qualifying pairs once, serially.
        let mut left_cache: HashMap<IriId, Vec<(IriId, ValueId)>> = HashMap::new();
        let mut right_cache: HashMap<IriId, Vec<(IriId, ValueId)>> = HashMap::new();
        for &(l, r) in eqv.pairs() {
            if eqv.score(l, r) < MATCH_CUTOFF {
                continue;
            }
            left_cache
                .entry(l)
                .or_insert_with(|| table.attributes(&left.entity(l)));
            right_cache
                .entry(r)
                .or_insert_with(|| table.attributes(&right.entity(r)));
        }

        type Contribs = (Vec<(IriId, f64)>, Vec<((IriId, IriId), f64)>);
        let left_cache = &left_cache;
        let right_cache = &right_cache;
        let chunk_results: Vec<Contribs> = executor.map_chunks(eqv.pairs(), |chunk| {
            let scorer = table.scorer();
            let mut denom_adds: Vec<(IriId, f64)> = Vec::new();
            let mut numer_adds: Vec<((IriId, IriId), f64)> = Vec::new();
            for &(l, r) in chunk {
                let belief = eqv.score(l, r);
                if belief < MATCH_CUTOFF {
                    continue;
                }
                let w = belief * belief;
                let el = &left_cache[&l];
                let er = &right_cache[&r];
                for &(lp, ly) in el {
                    denom_adds.push((lp, w));
                    // Best matching value per right predicate.
                    let mut best: HashMap<IriId, f64> = HashMap::new();
                    for &(rp, ry) in er {
                        let eq = object_eq(ly, ry, eqv.scores(), cfg, &scorer);
                        if eq > 0.0 {
                            let slot = best.entry(rp).or_insert(0.0);
                            if eq > *slot {
                                *slot = eq;
                            }
                        }
                    }
                    // Sorted by right predicate so the contribution list
                    // does not depend on HashMap iteration order.
                    let mut best: Vec<(IriId, f64)> = best.into_iter().collect();
                    best.sort_unstable_by_key(|&(rp, _)| rp);
                    for (rp, eq) in best {
                        numer_adds.push(((lp, rp), w * eq));
                    }
                }
            }
            (denom_adds, numer_adds)
        });

        // Serial replay in input order: each key's additions happen in the
        // same sequence the single-threaded loop would produce.
        let mut numer: HashMap<(IriId, IriId), f64> = HashMap::new();
        let mut denom: HashMap<IriId, f64> = HashMap::new();
        for (denom_adds, numer_adds) in chunk_results {
            for (p, w) in denom_adds {
                *denom.entry(p).or_insert(0.0) += w;
            }
            for (k, v) in numer_adds {
                *numer.entry(k).or_insert(0.0) += v;
            }
        }

        let learned = numer
            .into_iter()
            .filter_map(|((lp, rp), n)| {
                let d = denom.get(&lp).copied().unwrap_or(0.0);
                (d > 0.0).then(|| ((lp, rp), (n / d).clamp(0.0, 1.0)))
            })
            .collect();
        Self {
            mode: Mode::Learned(learned),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::{Interner, Literal};

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

        let cfg = ParisConfig::default();
        let mut eqv = EquivalenceTable::new(pairs);
        let fun_l = crate::functionality::FunctionalityTable::build(&left);
        let fun_r = crate::functionality::FunctionalityTable::build(&right);
        eqv.update(
            &left,
            &right,
            &AlignmentTable::uniform(0.1),
            &fun_l,
            &fun_r,
            &cfg,
        );
        let t = AlignmentTable::estimate(&left, &right, &eqv, &cfg);

        let good = t.get(name_l, name_r);
        let bad = t.get(name_l, other_r);
        assert!(good > 0.9, "name alignment should be strong, got {good}");
        assert!(
            bad < 0.1,
            "name/city alignment should be near zero, got {bad}"
        );
        assert!(!t.is_empty());
    }

    #[test]
    fn estimate_with_no_beliefs_is_empty() {
        let interner = Interner::new_shared();
        let left = Store::new(interner.clone());
        let right = Store::new(interner);
        let eqv = EquivalenceTable::new(vec![]);
        let t = AlignmentTable::estimate(&left, &right, &eqv, &ParisConfig::default());
        assert!(t.is_empty());
    }
}
