//! The evidence table: every attribute pair of every candidate pair that
//! can ever contribute to the fixpoint, resolved once per run.
//!
//! Both fixpoint stages compare the attributes `r(x, y)` of a left entity
//! with the attributes `r'(x', y')` of a right entity through `eq(y, y')`.
//! For literals (and literal vs IRI) that is a thresholded value
//! similarity, which never changes between rounds; for two identical IRIs
//! it is 1.0; for two different IRIs it is the current belief that
//! `y ≡ y'` (or `y' ≡ y`), which is non-zero only if one of the two is a
//! candidate pair. So [`Evidence::build`] scores every literal pair once,
//! keeps only the pairs whose `eq` is or can become non-zero, resolves the
//! candidate-pair indices of every IRI pair once, and numbers the
//! predicate pairs that occur densely in [`IriId`] order. Every round then
//! reads these sparse lists, and arrays indexed by predicate pair and by
//! candidate pair, instead of re-scoring values and rebuilding maps.

use std::sync::Arc;

use alex_core::parallel::Executor;
use alex_rdf::{IriId, Store, Term};
use alex_sim::{ValueId, ValueTable};

use crate::functionality::FunctionalityTable;
use crate::{id32, slot};

/// `eq(y, y')` of one attribute pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum ObjectEq {
    /// A literal similarity at or above the threshold, or 1.0 for
    /// identical IRIs: the same in every round.
    Fixed(f64),
    /// Two different IRIs: the current belief in the candidate pair
    /// `(y, y')`, else in `(y', y)`; `None` where that pair is not a
    /// candidate.
    Belief { ab: Option<u32>, ba: Option<u32> },
}

impl ObjectEq {
    /// The value under `beliefs` (indexed by candidate pair).
    #[inline]
    pub(crate) fn get(self, beliefs: &[f64]) -> f64 {
        match self {
            ObjectEq::Fixed(s) => s,
            ObjectEq::Belief { ab, ba } => {
                let belief = |i: Option<u32>| i.map_or(0.0, |i| beliefs[i as usize]);
                let forward = belief(ab);
                // Beliefs are stored only when positive, so a zero means
                // "no belief in (y, y')" and the reversed pair decides.
                if forward > 0.0 {
                    forward
                } else {
                    belief(ba)
                }
            }
        }
    }
}

/// One attribute pair of a candidate pair: its predicate pair's id, the
/// index of the left attribute in its entity's row, and its `eq`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entry {
    pub(crate) pp: u32,
    pub(crate) attr: u32,
    pub(crate) eq: ObjectEq,
}

/// Where one candidate pair's data lives: its left entity's row and its
/// entry range.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PairEvidence {
    pub(crate) left: u32,
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// The evidence of one PARIS run over its candidate pairs. See the module
/// docs.
#[derive(Debug)]
pub struct Evidence {
    /// Number of left predicates; a left predicate's dense id is its rank
    /// in ascending [`IriId`] order.
    left_predicates: usize,
    /// The `(left, right)` predicate pairs some entry has, ascending: a
    /// predicate pair's id is its index here.
    predicate_pairs: Arc<[(IriId, IriId)]>,
    /// Per predicate pair: the dense id of its left predicate, and
    /// `max(ifun(left), ifun(right))`.
    pair_left: Vec<u32>,
    ident: Vec<f64>,
    /// Left entity `e`'s attribute predicates (dense ids), in store order,
    /// are `row_predicates[slot(&row_offsets, e)]`.
    row_offsets: Vec<u32>,
    row_predicates: Vec<u32>,
    /// One per candidate pair, in candidate order.
    pairs: Vec<PairEvidence>,
    /// Each pair's entries, sorted by `(pp, attr)`.
    entries: Vec<Entry>,
}

/// The CSR rows of `entities`: entity `e`'s `(predicate, value id)`
/// attributes, in store order, are `rows[slot(&offsets, e)]`.
fn rows<P>(
    store: &Store,
    entities: &[IriId],
    table: &ValueTable,
    predicate: impl Fn(IriId) -> P,
) -> (Vec<u32>, Vec<(P, ValueId)>) {
    let mut offsets = vec![0];
    let mut rows = Vec::new();
    for &e in entities {
        let attributes = table.attributes(&store.entity(e));
        rows.extend(attributes.into_iter().map(|(p, v)| (predicate(p), v)));
        offsets.push(id32(rows.len()));
    }
    (offsets, rows)
}

impl Evidence {
    /// Scores and resolves every attribute pair of `pairs` (sorted and
    /// distinct, as blocking returns them) on `executor`. `table` must be
    /// built from both stores; literal similarities below
    /// `literal_threshold` contribute nothing and are dropped.
    ///
    /// Candidate pairs are sharded into contiguous chunks; each pair's
    /// entries depend only on that pair, and the chunks are concatenated
    /// in input order, so the table is identical for any worker count.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        left: &Store,
        right: &Store,
        table: &ValueTable,
        pairs: &[(IriId, IriId)],
        fun_left: &FunctionalityTable,
        fun_right: &FunctionalityTable,
        literal_threshold: f64,
        executor: &Executor,
    ) -> Self {
        let mut left_predicates: Vec<IriId> = left.predicates().collect();
        left_predicates.sort_unstable();
        let mut lefts: Vec<IriId> = pairs.iter().map(|&(l, _)| l).collect();
        lefts.dedup();
        let mut rights: Vec<IriId> = pairs.iter().map(|&(_, r)| r).collect();
        rights.sort_unstable();
        rights.dedup();
        let (row_offsets, left_rows) = rows(left, &lefts, table, |p| {
            id32(left_predicates.binary_search(&p).expect("a left predicate"))
        });
        let (right_offsets, right_rows) = rows(right, &rights, table, |p| p);

        // Each entry is keyed by its dense left predicate and its right
        // predicate until the predicate pairs are numbered below.
        type Keyed = ((u32, IriId), Entry);
        let candidate = |a: IriId, b: IriId| pairs.binary_search(&(a, b)).ok().map(id32);
        let chunks: Vec<(Vec<PairEvidence>, Vec<Keyed>)> = executor.map_chunks(pairs, |chunk| {
            let scorer = table.scorer();
            let mut spans = Vec::with_capacity(chunk.len());
            let mut entries: Vec<Keyed> = Vec::new();
            for &(l, r) in chunk {
                let le = lefts.binary_search(&l).expect("left of a pair");
                let re = rights.binary_search(&r).expect("right of a pair");
                let start = entries.len();
                let er = &right_rows[slot(&right_offsets, re)];
                for (attr, &(lp, ly)) in left_rows[slot(&row_offsets, le)].iter().enumerate() {
                    for &(rp, ry) in er {
                        let eq = match (table.term(ly), table.term(ry)) {
                            (Term::Iri(a), Term::Iri(b)) if a == b => ObjectEq::Fixed(1.0),
                            (Term::Iri(a), Term::Iri(b)) => {
                                let (ab, ba) = (candidate(a, b), candidate(b, a));
                                if ab.is_none() && ba.is_none() {
                                    continue;
                                }
                                ObjectEq::Belief { ab, ba }
                            }
                            _ => match scorer.similarity_at_least(ly, ry, literal_threshold) {
                                Some(s) if s > 0.0 => ObjectEq::Fixed(s),
                                _ => continue,
                            },
                        };
                        let attr = id32(attr);
                        entries.push(((lp, rp), Entry { pp: 0, attr, eq }));
                    }
                }
                entries[start..].sort_unstable_by_key(|&(key, e)| (key, e.attr));
                spans.push(PairEvidence {
                    left: id32(le),
                    start: id32(start),
                    end: id32(entries.len()),
                });
            }
            (spans, entries)
        });

        let mut spans = Vec::with_capacity(pairs.len());
        let mut keyed = Vec::new();
        for (chunk_spans, chunk_entries) in chunks {
            let base = id32(keyed.len());
            spans.extend(chunk_spans.into_iter().map(|p| PairEvidence {
                start: p.start + base,
                end: p.end + base,
                ..p
            }));
            keyed.extend(chunk_entries);
        }
        // Predicate pairs are numbered in key order, which is `(left,
        // right)` `IriId` order, so each pair's entries stay sorted.
        let mut keys: Vec<(u32, IriId)> = keyed.iter().map(|&(key, _)| key).collect();
        keys.sort_unstable();
        keys.dedup();
        let entries = keyed
            .into_iter()
            .map(|(key, e)| Entry {
                pp: id32(keys.binary_search(&key).expect("a listed key")),
                ..e
            })
            .collect();
        let predicate_pairs: Arc<[(IriId, IriId)]> = keys
            .iter()
            .map(|&(lp, rp)| (left_predicates[lp as usize], rp))
            .collect();
        Self {
            left_predicates: left_predicates.len(),
            pair_left: keys.iter().map(|&(lp, _)| lp).collect(),
            ident: predicate_pairs
                .iter()
                .map(|&(lp, rp)| fun_left.ifun(lp).max(fun_right.ifun(rp)))
                .collect(),
            predicate_pairs,
            row_offsets,
            row_predicates: left_rows.into_iter().map(|(p, _)| p).collect(),
            pairs: spans,
            entries,
        }
    }

    /// Number of left predicates (the range of dense left predicate ids).
    pub(crate) fn left_predicates(&self) -> usize {
        self.left_predicates
    }

    /// The `(left, right)` predicate pairs some entry has, ascending;
    /// predicate pair ids index these.
    pub(crate) fn predicate_pairs(&self) -> &Arc<[(IriId, IriId)]> {
        &self.predicate_pairs
    }

    /// The dense left predicate id of predicate pair `pp`.
    pub(crate) fn pair_left(&self, pp: u32) -> u32 {
        self.pair_left[pp as usize]
    }

    /// `max(ifun(r), ifun(r'))` of predicate pair `pp`.
    #[inline]
    pub(crate) fn ident(&self, pp: u32) -> f64 {
        self.ident[pp as usize]
    }

    /// Per-pair spans, in candidate order.
    pub(crate) fn pairs(&self) -> &[PairEvidence] {
        &self.pairs
    }

    /// A pair's entries, sorted by `(pp, attr)`.
    #[inline]
    pub(crate) fn entries_of(&self, pair: &PairEvidence) -> &[Entry] {
        &self.entries[pair.start as usize..pair.end as usize]
    }

    /// A pair's left entity's attribute predicates (dense ids), in store
    /// order.
    pub(crate) fn left_row(&self, pair: &PairEvidence) -> &[u32] {
        &self.row_predicates[slot(&self.row_offsets, pair.left as usize)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::{Interner, Literal};
    use alex_sim::SimConfig;

    fn build(left: &Store, right: &Store, pairs: &[(IriId, IriId)]) -> (Evidence, ValueTable) {
        let table = ValueTable::from_stores(SimConfig::default(), left, right);
        let evidence = Evidence::build(
            left,
            right,
            &table,
            pairs,
            &FunctionalityTable::build(left),
            &FunctionalityTable::build(right),
            0.85,
            &Executor::new(1),
        );
        (evidence, table)
    }

    fn eqs(evidence: &Evidence, pair: usize) -> Vec<ObjectEq> {
        let pair = &evidence.pairs()[pair];
        evidence.entries_of(pair).iter().map(|e| e.eq).collect()
    }

    #[test]
    fn literal_pairs_are_scored_once_and_thresholded() {
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        let name = left.intern_iri("l/name");
        let label = right.intern_iri("r/label");
        let a = left.intern_iri("l/a");
        left.insert_literal(a, name, Literal::str(&interner, "LeBron James"));
        let b = right.intern_iri("r/b");
        right.insert_literal(b, label, Literal::str(&interner, "LeBron James"));
        let c = right.intern_iri("r/c");
        right.insert_literal(c, label, Literal::str(&interner, "zzz qqq"));

        let mut pairs = vec![(a, b), (a, c)];
        pairs.sort_unstable();
        let (evidence, table) = build(&left, &right, &pairs);
        let at = |p| pairs.binary_search(&p).unwrap();
        assert_eq!(eqs(&evidence, at((a, b))), vec![ObjectEq::Fixed(1.0)]);
        // Below the threshold: no entry at all.
        assert!(eqs(&evidence, at((a, c))).is_empty());
        assert_eq!(evidence.entries.len(), 1);
        // Each attribute pair is scored exactly once.
        assert_eq!(table.stats().hits, 2);
    }

    #[test]
    fn iri_pairs_resolve_beliefs_forward_then_reversed() {
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        let team = left.intern_iri("l/team");
        let club = right.intern_iri("r/club");
        let title = left.intern_iri("title");
        let (x, y) = (left.intern_iri("l/x"), right.intern_iri("r/y"));
        let (ta, tb, shared) = (
            left.intern_iri("l/t"),
            right.intern_iri("r/t"),
            left.intern_iri("s/t"),
        );
        left.insert_iri(x, team, ta);
        left.insert_iri(x, team, shared);
        right.insert_iri(y, club, tb);
        right.insert_iri(y, club, shared);
        // `(r/t, l/t)` is a candidate, `(l/t, r/t)` is not.
        left.insert_literal(tb, title, Literal::str(&interner, "t"));
        right.insert_literal(ta, title, Literal::str(&interner, "t"));

        let mut pairs = vec![(x, y), (tb, ta)];
        pairs.sort_unstable();
        let (evidence, table) = build(&left, &right, &pairs);
        let at = |p| pairs.binary_search(&p).unwrap();
        let reversed = Some(id32(at((tb, ta))));
        let mut got = eqs(&evidence, at((x, y)));
        got.retain(|e| *e != ObjectEq::Fixed(1.0));
        // `shared` vs `shared` is the identity; `l/t` vs `r/t` reads the
        // reversed belief; `l/t` vs `shared` and `shared` vs `r/t` can never
        // be believed and are dropped.
        assert_eq!(eqs(&evidence, at((x, y))).len(), 2);
        assert_eq!(
            got,
            vec![ObjectEq::Belief {
                ab: None,
                ba: reversed
            }]
        );
        // IRI pairs are never scored by the value table.
        assert_eq!(table.stats().hits, 1);

        let mut beliefs = vec![0.0; pairs.len()];
        assert_eq!(got[0].get(&beliefs), 0.0);
        beliefs[at((tb, ta))] = 0.6;
        assert_eq!(got[0].get(&beliefs), 0.6);
    }

    #[test]
    fn forward_belief_wins_over_reversed() {
        let eq = ObjectEq::Belief {
            ab: Some(0),
            ba: Some(1),
        };
        assert_eq!(eq.get(&[0.3, 0.6]), 0.3);
        assert_eq!(eq.get(&[0.0, 0.6]), 0.6);
        assert_eq!(eq.get(&[0.0, 0.0]), 0.0);
    }
}
