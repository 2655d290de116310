//! A dense, read-only table of every value one pipeline compares.
//!
//! Exploration-space construction and the PARIS fixpoint score the same
//! few thousand distinct values against each other millions of times.
//! Instead of memoizing scores per pair, a [`ValueTable`] is built once
//! from the object terms of both stores: each distinct term gets a dense
//! [`ValueId`], and the string forms every comparison needs — the IRI
//! local name or lexical form, its numeric parse, the lowercase chars, the
//! sorted token ids — are computed once per distinct string. A similarity
//! evaluation is then a pure function of two ids over immutable data: no
//! lock, no allocation, and no per-pair state.
//!
//! Ids are assigned in ascending [`Term`] order, so the canonical
//! `(min, max)` order of two ids is the canonical order of their terms,
//! and [`ValueTable::similarity`] equals [`crate::value_similarity`]
//! evaluated on `(min(a, b), max(a, b))` bit for bit — which also makes it
//! exactly symmetric.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use alex_rdf::{Entity, Interner, IriId, Literal, Store, Term};

use crate::numeric::date_similarity;
use crate::string;
use crate::value::{numeric_sim, DATE_HALF_LIFE_DAYS};
use crate::SimConfig;

/// Dense id of a value in a [`ValueTable`].
pub type ValueId = u32;

/// Counters of a [`ValueTable`], exported to `/metrics` and run summaries.
///
/// The table has no memo, so these are not cache hits in the usual sense:
/// `misses` counts the values whose forms were built (once each, when the
/// table was built), and `hits` counts the similarity evaluations served
/// from those prebuilt forms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Similarity evaluations served from prebuilt forms.
    pub hits: u64,
    /// Distinct values whose forms were built.
    pub misses: u64,
}

/// How a value takes part in the type dispatch of [`crate::value_similarity`].
#[derive(Clone, Copy, Debug)]
enum Kind {
    Iri,
    /// A plain or language-tagged string.
    Text,
    Int(i64),
    Float(f64),
    Date(alex_rdf::Date),
    Bool(bool),
}

/// One distinct value: its dispatch kind and the index of its string form
/// (IRI local name or lexical form) in [`ValueTable::forms`].
#[derive(Clone, Copy, Debug)]
struct Value {
    kind: Kind,
    form: u32,
}

/// The precomputed forms of one distinct string.
#[derive(Debug)]
struct Form {
    /// `raw.trim().parse::<f64>()`, the numeric shortcut of string comparison.
    numeric: Option<f64>,
    /// Chars of the lowercased string (Levenshtein).
    chars: Box<[char]>,
    /// Sorted, deduplicated lowercase token ids (token Jaccard).
    token_set: Box<[u32]>,
}

impl Form {
    fn build(raw: &str, token_ids: &mut HashMap<String, u32>) -> Self {
        let lower = raw.to_lowercase();
        // Token ids are first-seen order, not string order; Jaccard only
        // counts the intersection, which any consistent order gives.
        let mut ids: Vec<u32> = string::tokens(&lower)
            .into_iter()
            .map(|t| {
                let next = u32::try_from(token_ids.len()).expect("token ids fit in u32");
                *token_ids.entry(t).or_insert(next)
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        Form {
            numeric: raw.trim().parse::<f64>().ok(),
            chars: lower.chars().collect(),
            token_set: ids.into(),
        }
    }
}

/// The read-only value table of one pipeline. Build it once, share it by
/// reference across worker threads and rounds, and score through
/// [`ValueTable::scorer`].
#[derive(Debug)]
pub struct ValueTable {
    cfg: SimConfig,
    /// Distinct terms in ascending order; a term's id is its index.
    terms: Vec<Term>,
    values: Vec<Value>,
    forms: Vec<Form>,
    evaluations: AtomicU64,
}

impl ValueTable {
    /// A table over the object terms of both stores (which share one
    /// interner), computing with `cfg`.
    pub fn from_stores(cfg: SimConfig, left: &Store, right: &Store) -> Self {
        let objects = left.iter().chain(right.iter()).map(|t| t.object);
        Self::new(cfg, left.interner(), objects)
    }

    /// A table over `terms` (duplicates allowed), whose strings resolve in
    /// `interner`, computing with `cfg`.
    pub fn new(cfg: SimConfig, interner: &Interner, terms: impl IntoIterator<Item = Term>) -> Self {
        let mut terms: Vec<Term> = terms.into_iter().collect();
        terms.sort_unstable();
        terms.dedup();
        assert!(
            u32::try_from(terms.len()).is_ok(),
            "value table overflow: more than u32::MAX distinct values"
        );

        let mut form_ids: HashMap<String, u32> = HashMap::new();
        let mut token_ids: HashMap<String, u32> = HashMap::new();
        let mut forms: Vec<Form> = Vec::new();
        let values = terms
            .iter()
            .map(|term| {
                let (kind, raw) = match term {
                    Term::Iri(id) => (
                        Kind::Iri,
                        crate::iri_local_name(&interner.resolve(id.0)).to_string(),
                    ),
                    Term::Literal(lit) => {
                        let kind = match *lit {
                            Literal::Str(_) | Literal::LangStr { .. } => Kind::Text,
                            Literal::Integer(v) => Kind::Int(v),
                            Literal::Float(v) => Kind::Float(v.get()),
                            Literal::Date(v) => Kind::Date(v),
                            Literal::Boolean(v) => Kind::Bool(v),
                        };
                        (kind, lit.lexical(interner).to_string())
                    }
                };
                let form = *form_ids.entry(raw).or_insert_with_key(|raw| {
                    forms.push(Form::build(raw, &mut token_ids));
                    u32::try_from(forms.len() - 1).expect("forms fit in u32")
                });
                Value { kind, form }
            })
            .collect();
        Self {
            cfg,
            terms,
            values,
            forms,
            evaluations: AtomicU64::new(0),
        }
    }

    /// The id of `term`, if the table holds it.
    pub fn id(&self, term: &Term) -> Option<ValueId> {
        self.terms.binary_search(term).ok().map(|i| i as ValueId)
    }

    /// The term with id `id`.
    pub fn term(&self, id: ValueId) -> Term {
        self.terms[id as usize]
    }

    /// Every distinct term, in id order.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// `(predicate, value id)` for every attribute of `entity`, in order.
    ///
    /// # Panics
    ///
    /// If an object of `entity` is not in the table — the entity must come
    /// from one of the stores the table was built from.
    pub fn attributes(&self, entity: &Entity) -> Vec<(IriId, ValueId)> {
        entity
            .attributes
            .iter()
            .map(|a| {
                let id = self
                    .id(&a.object)
                    .expect("entity values come from the stores the table was built from");
                (a.predicate, id)
            })
            .collect()
    }

    /// A per-thread scoring handle that counts its evaluations.
    pub fn scorer(&self) -> Scorer<'_> {
        Scorer {
            table: self,
            evaluations: Cell::new(0),
        }
    }

    /// Counters so far (see [`CacheStats`] for their meaning). Evaluations
    /// are counted when each [`Scorer`] is dropped.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.evaluations.load(Ordering::Relaxed),
            misses: self.terms.len() as u64,
        }
    }

    /// [`crate::value_similarity`] of the two values in canonical term
    /// order: the same type dispatch, computed from prebuilt forms.
    pub fn similarity(&self, a: ValueId, b: ValueId) -> f64 {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (x, y) = (self.values[lo as usize], self.values[hi as usize]);
        match (x.kind, y.kind) {
            (Kind::Iri, Kind::Iri) | (Kind::Text, Kind::Text) => self.string_sim(x.form, y.form),
            // IRI vs literal compares local name with lexical form; a string
            // vs another literal family compares lexical forms. In canonical
            // order the IRI always comes first.
            (Kind::Iri, _) | (_, Kind::Iri) | (Kind::Text, _) | (_, Kind::Text) => {
                self.string_sim(x.form, y.form)
            }
            (Kind::Int(p), Kind::Int(q)) => numeric_sim(&self.cfg, p as f64, q as f64),
            (Kind::Int(p), Kind::Float(q)) | (Kind::Float(q), Kind::Int(p)) => {
                numeric_sim(&self.cfg, p as f64, q)
            }
            (Kind::Float(p), Kind::Float(q)) => numeric_sim(&self.cfg, p, q),
            (Kind::Date(p), Kind::Date(q)) => date_similarity(p, q, DATE_HALF_LIFE_DAYS),
            (Kind::Bool(p), Kind::Bool(q)) if p == q => 1.0,
            _ => 0.0,
        }
    }

    /// String comparison over two forms: equality (equal forms share an
    /// index), the numeric shortcut, then `max(Levenshtein, TokenJaccard)`
    /// on the lowercased forms — the decision ladder of the plain string
    /// path.
    fn string_sim(&self, fa: u32, fb: u32) -> f64 {
        if fa == fb {
            return 1.0;
        }
        let (a, b) = (&self.forms[fa as usize], &self.forms[fb as usize]);
        if let (Some(x), Some(y)) = (a.numeric, b.numeric) {
            return numeric_sim(&self.cfg, x, y);
        }
        string::levenshtein_similarity_chars(&a.chars, &b.chars)
            .max(string::token_jaccard_sorted(&a.token_set, &b.token_set))
    }
}

/// A scoring handle for one thread: [`ValueTable::similarity`] plus a
/// local evaluation count, added to the table's counter on drop so worker
/// threads never contend on a shared atomic.
#[derive(Debug)]
pub struct Scorer<'a> {
    table: &'a ValueTable,
    evaluations: Cell<u64>,
}

impl Scorer<'_> {
    /// [`ValueTable::similarity`], counted.
    #[inline]
    pub fn similarity(&self, a: ValueId, b: ValueId) -> f64 {
        self.evaluations.set(self.evaluations.get() + 1);
        self.table.similarity(a, b)
    }

    /// The table being scored.
    pub fn table(&self) -> &ValueTable {
        self.table
    }
}

impl Drop for Scorer<'_> {
    fn drop(&mut self) {
        self.table
            .evaluations
            .fetch_add(self.evaluations.get(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{value_similarity, NumericSim};
    use alex_rdf::{Date, IriId};

    /// Every term kind, plus strings that reach the numeric shortcut, the
    /// empty-string cases, non-ASCII chars and the >64-char edit-distance
    /// fallback.
    fn terms(interner: &Interner) -> Vec<Term> {
        let long = "the quick brown fox jumps over the lazy dog and keeps running far away";
        let long2 = "the quick brown fox jumped over a lazy dog and kept running far, far away";
        assert!(long.chars().count() > 64 && long2.chars().count() > 64);
        let mut out: Vec<Term> = [
            "LeBron James",
            "lebron raymone james",
            "Kobe Bryant",
            "1984",
            "  1984 ",
            "1985",
            "",
            "x",
            "café crème",
            "cafe creme",
            "Ærøskøbing İstanbul",
            "a-b-c",
            "c b a",
            "true",
            "1984-12-30",
            "LeBron_James",
            long,
            long2,
        ]
        .iter()
        .map(|s| Literal::str(interner, s).into())
        .collect();
        out.extend([
            Literal::LangStr {
                value: interner.intern("LeBron James"),
                lang: interner.intern("en"),
            }
            .into(),
            Literal::Integer(1984).into(),
            Literal::Integer(1986).into(),
            Literal::Integer(0).into(),
            Literal::float(1984.5).into(),
            Literal::float(0.0).into(),
            Literal::Boolean(true).into(),
            Literal::Boolean(false).into(),
            Literal::Date(Date::new(1984, 12, 30).unwrap()).into(),
            Literal::Date(Date::new(1990, 1, 1).unwrap()).into(),
            Term::Iri(IriId(interner.intern("http://db/resource/LeBron_James"))),
            Term::Iri(IriId(interner.intern("http://nyt/people/lebron_james"))),
            Term::Iri(IriId(interner.intern("http://db/resource/Kobe_Bryant"))),
            Term::Iri(IriId(interner.intern("http://db/resource/1984"))),
        ]);
        out
    }

    fn configs() -> [SimConfig; 2] {
        [NumericSim::Ratio, NumericSim::HalfLife].map(|numeric| SimConfig { numeric })
    }

    /// The table score equals the plain function on the canonical order,
    /// for both numeric modes, over every pair of term kinds.
    #[test]
    fn table_matches_value_similarity_in_canonical_order() {
        let interner = Interner::new_shared();
        let all = terms(&interner);
        for cfg in configs() {
            let table = ValueTable::new(cfg, &interner, all.iter().copied());
            assert_eq!(table.stats().misses, all.len() as u64);
            for a in &all {
                for b in &all {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let want = value_similarity(lo, hi, &interner, &cfg);
                    let (ia, ib) = (table.id(a).unwrap(), table.id(b).unwrap());
                    let got = table.similarity(ia, ib);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{cfg:?}: {a:?} vs {b:?} -> {got} want {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn scores_are_exactly_symmetric() {
        let interner = Interner::new_shared();
        let all = terms(&interner);
        for cfg in configs() {
            let table = ValueTable::new(cfg, &interner, all.iter().copied());
            for a in 0..all.len() as ValueId {
                for b in 0..all.len() as ValueId {
                    let (ab, ba) = (table.similarity(a, b), table.similarity(b, a));
                    assert_eq!(ab.to_bits(), ba.to_bits(), "{cfg:?}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn ids_follow_term_order_and_round_trip() {
        let interner = Interner::new_shared();
        let all = terms(&interner);
        // Duplicates collapse to one id.
        let table = ValueTable::new(
            SimConfig::default(),
            &interner,
            all.iter().chain(&all).copied(),
        );
        assert_eq!(table.stats().misses, all.len() as u64);
        for t in &all {
            let id = table.id(t).unwrap();
            assert_eq!(table.term(id), *t);
        }
        for id in 1..all.len() as ValueId {
            assert!(table.term(id - 1) < table.term(id));
        }
        let missing: Term = Literal::Integer(-7).into();
        assert_eq!(table.id(&missing), None);
    }

    #[test]
    fn counters_track_evaluations_and_values() {
        let interner = Interner::new_shared();
        let a: Term = Literal::str(&interner, "alpha beta").into();
        let b: Term = Literal::str(&interner, "beta alpha").into();
        let table = ValueTable::new(SimConfig::default(), &interner, [a, b, a]);
        assert_eq!(table.stats(), CacheStats { hits: 0, misses: 2 });
        {
            let scorer = table.scorer();
            scorer.similarity(0, 1);
            scorer.similarity(1, 0);
            scorer.similarity(1, 1);
            // Evaluations are published when the scorer is dropped.
            assert_eq!(table.stats().hits, 0);
        }
        assert_eq!(table.stats(), CacheStats { hits: 3, misses: 2 });
    }

    /// Reading one table from 4 threads returns the same bits as serial
    /// reads, for every queried pair, and counts every evaluation.
    #[test]
    fn concurrent_reads_are_consistent() {
        let interner = Interner::new_shared();
        let mut all = Vec::new();
        for i in 0..40 {
            all.push(Term::from(Literal::str(
                &interner,
                &format!("entity number {}", i % 13),
            )));
            all.push(Term::Iri(IriId(interner.intern(&format!("e/{}", i % 7)))));
            all.push(Term::from(Literal::Integer(1900 + (i as i64 % 9))));
        }
        let table = ValueTable::new(SimConfig::default(), &interner, all.iter().copied());
        let ids: Vec<ValueId> = all.iter().map(|t| table.id(t).unwrap()).collect();
        let barrier = std::sync::Barrier::new(4);
        let results: Vec<Vec<(usize, usize, u64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (table, ids, barrier) = (&table, &ids, &barrier);
                    s.spawn(move || {
                        let scorer = table.scorer();
                        barrier.wait();
                        let mut out = Vec::new();
                        for i in 0..ids.len() {
                            for j in 0..ids.len() {
                                if (i + j) % 4 == t {
                                    let v = scorer.similarity(ids[i], ids[j]);
                                    out.push((i, j, v.to_bits()));
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, j, bits) in results.into_iter().flatten() {
            let want = table.similarity(ids[i], ids[j]);
            assert_eq!(bits, want.to_bits(), "pair ({i}, {j})");
        }
        assert_eq!(table.stats().hits, (all.len() * all.len()) as u64);
    }
}
