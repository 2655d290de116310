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
//!
//! Callers that keep only scores at or above a threshold (the space
//! build's θ, PARIS's literal threshold) score through
//! [`ValueTable::similarity_at_least`]. Each form carries a 32-byte
//! [`CharHistogram`], whose bag distance bounds the edit distance from
//! below and so the Levenshtein score from above; when that ceiling shows
//! the score is token Jaccard or below the threshold, no edit distance is
//! computed. Every score it returns has the bits of
//! [`ValueTable::similarity`].

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use alex_rdf::{Entity, Interner, IriId, Literal, Store, Term};

use crate::numeric::date_similarity;
use crate::string::{self, CharHistogram, Pattern};
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
    /// Of `hits`, the string comparisons the edit-distance bound decided
    /// without computing an edit distance.
    pub bounded: u64,
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

/// The precomputed forms of one distinct string. Its chars and token ids
/// live in the table's arenas.
#[derive(Debug)]
struct Form {
    /// `raw.trim().parse::<f64>()`, the numeric shortcut of string comparison.
    numeric: Option<f64>,
    /// Class counts of the chars (the edit-distance bound).
    hist: CharHistogram,
    /// Bit `id % 64` set for every token id: forms whose masks are
    /// disjoint share no token.
    token_mask: u64,
    /// Chars of the lowercased string (Levenshtein), in
    /// [`ValueTable::chars`].
    chars: Range<u32>,
    /// Sorted, deduplicated lowercase token ids (token Jaccard), in
    /// [`ValueTable::token_sets`].
    token_set: Range<u32>,
}

impl Form {
    /// The form of `raw`, its chars and token ids appended to the arenas.
    /// Token ids are first-seen order, not string order; Jaccard only
    /// counts the intersection, which any consistent order gives.
    fn build(
        raw: &str,
        chars: &mut Vec<char>,
        token_sets: &mut Vec<u32>,
        token_ids: &mut HashMap<String, u32>,
    ) -> Self {
        let lower = raw.to_lowercase();
        let mut ids: Vec<u32> = string::tokens(&lower)
            .into_iter()
            .map(|t| {
                let next = id32(token_ids.len());
                *token_ids.entry(t).or_insert(next)
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let (chars_start, tokens_start) = (id32(chars.len()), id32(token_sets.len()));
        chars.extend(lower.chars());
        token_sets.extend_from_slice(&ids);
        Form {
            numeric: raw.trim().parse::<f64>().ok(),
            hist: CharHistogram::new(&chars[chars_start as usize..]),
            token_mask: ids.iter().fold(0, |mask, id| mask | 1 << (id % 64)),
            chars: chars_start..id32(chars.len()),
            token_set: tokens_start..id32(token_sets.len()),
        }
    }
}

/// `n` as a `u32` id or arena offset.
fn id32(n: usize) -> u32 {
    u32::try_from(n).expect("value table ids and offsets fit u32")
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
    /// The chars of every form, one after another.
    chars: Vec<char>,
    /// The token ids of every form, one set after another.
    token_sets: Vec<u32>,
    evaluations: AtomicU64,
    bounded: AtomicU64,
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

        // Sized up front: rehashing strings as the maps grow costs as much
        // as filling them.
        let mut form_ids: HashMap<String, u32> = HashMap::with_capacity(terms.len());
        let mut token_ids: HashMap<String, u32> = HashMap::with_capacity(terms.len());
        let (mut forms, mut chars, mut token_sets) = (Vec::new(), Vec::new(), Vec::new());
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
                    forms.push(Form::build(
                        raw,
                        &mut chars,
                        &mut token_sets,
                        &mut token_ids,
                    ));
                    id32(forms.len() - 1)
                });
                Value { kind, form }
            })
            .collect();
        Self {
            cfg,
            terms,
            values,
            forms,
            chars,
            token_sets,
            evaluations: AtomicU64::new(0),
            bounded: AtomicU64::new(0),
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
            bounded: Cell::new(0),
            pattern: RefCell::new(None),
        }
    }

    /// Counters so far (see [`CacheStats`] for their meaning). Evaluations
    /// are counted when each [`Scorer`] is dropped.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.evaluations.load(Ordering::Relaxed),
            bounded: self.bounded.load(Ordering::Relaxed),
            misses: self.terms.len() as u64,
        }
    }

    /// [`crate::value_similarity`] of the two values in canonical term
    /// order: the same type dispatch, computed from prebuilt forms.
    pub fn similarity(&self, a: ValueId, b: ValueId) -> f64 {
        self.score(a, b, f64::NEG_INFINITY, || self.distance(a, b))
            .0
            .expect("every score is at least −∞")
    }

    /// `Some(`[`ValueTable::similarity`]`(a, b))`, the same bits, when
    /// that score is at least `threshold`; `None` when it is below.
    pub fn similarity_at_least(&self, a: ValueId, b: ValueId, threshold: f64) -> Option<f64> {
        self.score(a, b, threshold, || self.distance(a, b)).0
    }

    /// The edit distance between the string forms of `a` and `b`.
    fn distance(&self, a: ValueId, b: ValueId) -> usize {
        let chars = |v: ValueId| self.chars(self.values[v as usize].form);
        string::levenshtein_chars(chars(a), chars(b))
    }

    /// The chars of form `form`.
    fn chars(&self, form: u32) -> &[char] {
        let f = &self.forms[form as usize];
        &self.chars[f.chars.start as usize..f.chars.end as usize]
    }

    /// [`string::token_jaccard_sorted`] of the token sets of two forms,
    /// without the merge when the masks show they share no token (the
    /// score is then 0, or 1 when both are empty).
    fn jaccard(&self, a: &Form, b: &Form) -> f64 {
        if a.token_mask & b.token_mask == 0 {
            return if a.token_set.is_empty() && b.token_set.is_empty() {
                1.0
            } else {
                0.0
            };
        }
        let set = |f: &Form| &self.token_sets[f.token_set.start as usize..f.token_set.end as usize];
        string::token_jaccard_sorted(set(a), set(b))
    }

    /// The type dispatch of [`ValueTable::similarity`] in canonical
    /// order: the score when it is at least `threshold`, and whether the
    /// edit-distance bound decided it. `distance` returns the edit
    /// distance between the string forms of `a` and `b`.
    fn score(
        &self,
        a: ValueId,
        b: ValueId,
        threshold: f64,
        distance: impl FnOnce() -> usize,
    ) -> (Option<f64>, bool) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (x, y) = (self.values[lo as usize], self.values[hi as usize]);
        let score = match (x.kind, y.kind) {
            // Two strings compare their forms; so do an IRI and a literal
            // (local name vs lexical form; in canonical order the IRI comes
            // first) and a string and another literal (lexical forms).
            (Kind::Iri, _) | (_, Kind::Iri) | (Kind::Text, _) | (_, Kind::Text) => {
                return self.string_score(x.form, y.form, threshold, distance)
            }
            (Kind::Int(p), Kind::Int(q)) => numeric_sim(&self.cfg, p as f64, q as f64),
            (Kind::Int(p), Kind::Float(q)) | (Kind::Float(q), Kind::Int(p)) => {
                numeric_sim(&self.cfg, p as f64, q)
            }
            (Kind::Float(p), Kind::Float(q)) => numeric_sim(&self.cfg, p, q),
            (Kind::Date(p), Kind::Date(q)) => date_similarity(p, q, DATE_HALF_LIFE_DAYS),
            (Kind::Bool(p), Kind::Bool(q)) if p == q => 1.0,
            _ => 0.0,
        };
        ((score >= threshold).then_some(score), false)
    }

    /// String comparison over two forms: equality (equal forms share an
    /// index), the numeric shortcut, then `max(Levenshtein, TokenJaccard)`
    /// on the lowercased forms — the decision ladder of the plain string
    /// path — kept only at or above `threshold`.
    ///
    /// Levenshtein is `1 − d / max_len`, and the char histograms bound `d`
    /// from below, so `1 − bound / max_len` is a ceiling on it (the float
    /// operations are monotone, so the computed score never exceeds the
    /// computed ceiling). When the ceiling is at most the token Jaccard
    /// score, the maximum is that score; when it is below the threshold,
    /// only the Jaccard score can reach the threshold. Either way the edit
    /// distance is not needed.
    fn string_score(
        &self,
        fa: u32,
        fb: u32,
        threshold: f64,
        distance: impl FnOnce() -> usize,
    ) -> (Option<f64>, bool) {
        let at_least = |s: f64| (s >= threshold).then_some(s);
        if fa == fb {
            return (at_least(1.0), false);
        }
        let (a, b) = (&self.forms[fa as usize], &self.forms[fb as usize]);
        if let (Some(x), Some(y)) = (a.numeric, b.numeric) {
            return (at_least(numeric_sim(&self.cfg, x, y)), false);
        }
        let jaccard = self.jaccard(a, b);
        let (a_len, b_len) = (a.chars.len(), b.chars.len());
        let max_len = a_len.max(b_len);
        let levenshtein = |d: usize| {
            if max_len == 0 {
                1.0
            } else {
                1.0 - d as f64 / max_len as f64
            }
        };
        let bound = a.hist.distance_bound(a_len, &b.hist, b_len);
        let ceiling = levenshtein(bound);
        if ceiling <= jaccard || ceiling < threshold {
            return (at_least(jaccard), true);
        }
        (at_least(levenshtein(distance()).max(jaccard)), false)
    }
}

/// A scoring handle for one thread: [`ValueTable::similarity_at_least`]
/// plus local counts, added to the table's counters on drop so worker
/// threads never contend on a shared atomic.
///
/// The handle keeps the Myers pattern of the last first argument it
/// computed an edit distance for, so scoring one value against many (a
/// row of a matrix) builds that value's pattern once, not once per cell.
#[derive(Debug)]
pub struct Scorer<'a> {
    table: &'a ValueTable,
    evaluations: Cell<u64>,
    bounded: Cell<u64>,
    /// A form index and the pattern of its chars (`None` when empty or
    /// longer than 64 chars).
    pattern: RefCell<Option<(u32, Option<Pattern>)>>,
}

impl Scorer<'_> {
    /// [`ValueTable::similarity_at_least`], counted.
    #[inline]
    pub fn similarity_at_least(&self, a: ValueId, b: ValueId, threshold: f64) -> Option<f64> {
        self.evaluations.set(self.evaluations.get() + 1);
        let (score, bounded) = self.table.score(a, b, threshold, || self.distance(a, b));
        self.bounded.set(self.bounded.get() + u64::from(bounded));
        score
    }

    /// The edit distance between the forms of `a` and `b`, through the
    /// pattern of `a`'s form, which is built on the first call for it.
    fn distance(&self, a: ValueId, b: ValueId) -> usize {
        let table = self.table;
        let (fa, fb) = (table.values[a as usize].form, table.values[b as usize].form);
        let mut cached = self.pattern.borrow_mut();
        let (_, pattern) = match &mut *cached {
            Some(c) if c.0 == fa => c,
            slot => slot.insert((fa, Pattern::new(table.chars(fa)))),
        };
        match pattern {
            Some(pattern) => pattern.distance(table.chars(fb)),
            None => string::levenshtein_chars(table.chars(fa), table.chars(fb)),
        }
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
        self.table
            .bounded
            .fetch_add(self.bounded.get(), Ordering::Relaxed);
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
        let terms: Vec<Term> = ["alpha beta", "beta alpha", "kitten", "sitting"]
            .iter()
            .map(|s| Literal::str(&interner, s).into())
            .collect();
        let table = ValueTable::new(
            SimConfig::default(),
            &interner,
            terms.iter().chain(&terms[..1]).copied(),
        );
        let id = |i: usize| table.id(&terms[i]).unwrap();
        let zero = CacheStats {
            hits: 0,
            bounded: 0,
            misses: 4,
        };
        assert_eq!(table.stats(), zero);
        {
            let scorer = table.scorer();
            // Equal token sets: the bound shows Jaccard is the maximum.
            assert_eq!(scorer.similarity_at_least(id(0), id(1), 0.5), Some(1.0));
            assert_eq!(scorer.similarity_at_least(id(1), id(0), 0.5), Some(1.0));
            // Equal forms.
            assert_eq!(scorer.similarity_at_least(id(1), id(1), 0.5), Some(1.0));
            // No shared token, and the bound is tight, 1 − 3/7: the edit
            // distance is computed at 0.5, and not needed at 0.6.
            let sitting = Some(1.0 - 3.0 / 7.0);
            assert_eq!(scorer.similarity_at_least(id(2), id(3), 0.5), sitting);
            assert_eq!(scorer.similarity_at_least(id(2), id(3), 0.6), None);
            // Ten chars against six share at most three: below 0.5.
            assert_eq!(scorer.similarity_at_least(id(0), id(2), 0.5), None);
            // Evaluations are published when the scorer is dropped.
            assert_eq!(table.stats(), zero);
        }
        let stats = CacheStats {
            hits: 6,
            bounded: 4,
            misses: 4,
        };
        assert_eq!(table.stats(), stats);
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
                                    let v =
                                        scorer.similarity_at_least(ids[i], ids[j], 0.0).unwrap();
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
