//! An indexed in-memory triple store.
//!
//! The store maintains three single-position indexes (subject, predicate,
//! object). Pattern matching picks the most selective available index and
//! filters the remaining positions; at ALEX's dataset scales this is within
//! noise of compound indexes while using far less memory.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use crate::entity::{Attribute, Entity};
use crate::hash::{FastMap, FastSet};
use crate::interner::Interner;
use crate::term::{IriId, Term, Triple};

/// An append-only, duplicate-free, indexed set of triples.
///
/// Stores in a linking task share one [`Interner`] so ids are comparable
/// across datasets.
///
/// # Examples
///
/// ```
/// use alex_rdf::{Interner, Literal, Store, Term};
///
/// let interner = Interner::new_shared();
/// let mut store = Store::new(interner.clone());
/// let s = store.intern_iri("http://example.org/lebron");
/// let p = store.intern_iri("http://example.org/name");
/// store.insert_literal(s, p, Literal::str(&interner, "LeBron James"));
///
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.match_pattern(Some(s), None, None).count(), 1);
/// ```
#[derive(Clone)]
pub struct Store {
    interner: Arc<Interner>,
    triples: Vec<Triple>,
    /// Exact-triple dedup set. Built eagerly by [`Store::insert`], but
    /// *lazily* after a bulk load ([`Store::from_triples`]): loaded
    /// datasets are read-mostly, so the set is only materialized if the
    /// store is mutated again. `seen_valid` says whether it is current;
    /// when it is not, [`Store::contains`] answers from the subject index
    /// instead.
    seen: FastSet<Triple>,
    seen_valid: bool,
    by_subject: FastMap<IriId, Postings>,
    by_predicate: FastMap<IriId, Postings>,
    by_object: FastMap<Term, Postings>,
    /// Distinct subjects in first-insertion order, so iteration is
    /// deterministic across runs (important for seeded experiments).
    subject_order: Vec<IriId>,
}

impl Store {
    /// Creates an empty store sharing `interner`.
    pub fn new(interner: Arc<Interner>) -> Self {
        Self {
            interner,
            triples: Vec::new(),
            seen: FastSet::default(),
            seen_valid: true,
            by_subject: FastMap::default(),
            by_predicate: FastMap::default(),
            by_object: FastMap::default(),
            subject_order: Vec::new(),
        }
    }

    /// Pre-sizes the store for `additional` more triples, so a bulk load
    /// (snapshot decode, parser with a known count) pays no incremental
    /// rehash growth. Sizing is heuristic for the keyed indexes: objects
    /// are assumed mostly distinct, subjects far fewer than triples.
    pub fn reserve(&mut self, additional: usize) {
        self.triples.reserve(additional);
        self.seen.reserve(additional);
        self.by_object.reserve(additional);
        self.by_subject.reserve(additional / 4);
    }

    /// Builds a store from a triple list in one shot — the bulk-load path
    /// used by the binary snapshot decoder.
    ///
    /// This is much faster than an [`Store::insert`] loop: the dedup set
    /// is left to lazy materialization (duplicate freedom is verified from
    /// the subject index instead, bounded by subject arity), and each
    /// position index is built in one pass, subjects hashed once per run.
    /// The result is observably identical to inserting the triples in
    /// order: same triple order, same subject first-insertion order, same
    /// dedup semantics (if `triples` contains duplicates — possible only
    /// with a crafted snapshot — the build falls back to the sequential
    /// insert loop).
    pub fn from_triples(interner: Arc<Interner>, triples: Vec<Triple>) -> Self {
        const BULK_THRESHOLD: usize = 4096;
        let sequential = |triples: Vec<Triple>| {
            let mut store = Self::new(Arc::clone(&interner));
            store.reserve(triples.len());
            for t in triples {
                store.insert(t);
            }
            store
        };
        if triples.len() < BULK_THRESHOLD {
            return sequential(triples);
        }
        assert!(
            u32::try_from(triples.len()).is_ok(),
            "store overflow: more than u32::MAX triples"
        );
        let n = triples.len();
        let ts: &[Triple] = &triples;

        // Subjects arrive in runs; the run count bounds the distinct
        // subjects tightly, so the map can be sized exactly instead of
        // growing through rehashes.
        let runs = 1 + ts
            .windows(2)
            .filter(|w| w[0].subject != w[1].subject)
            .count();
        let mut by_subject: FastMap<IriId, Postings> = FastMap::default();
        by_subject.reserve(runs);
        let mut subject_order = Vec::with_capacity(runs);
        // Triples arrive grouped into runs of equal subjects (that is how
        // entities are serialized), so hash each run once instead of once
        // per triple.
        let mut i = 0usize;
        while i < n {
            let s = ts[i].subject;
            let mut j = i + 1;
            while j < n && ts[j].subject == s {
                j += 1;
            }
            match by_subject.entry(s) {
                Entry::Vacant(slot) => {
                    subject_order.push(s);
                    if j - i == 1 {
                        slot.insert(Postings::One(i as u32));
                    } else {
                        slot.insert(Postings::Many(Box::new((i as u32..j as u32).collect())));
                    }
                }
                Entry::Occupied(mut slot) => {
                    let postings = slot.get_mut();
                    for k in i..j {
                        postings.push(k as u32);
                    }
                }
            }
            i = j;
        }
        if subject_lists_have_duplicates(ts, &by_subject) {
            return sequential(triples);
        }

        let mut by_predicate: FastMap<IriId, Postings> = FastMap::default();
        for (i, t) in ts.iter().enumerate() {
            by_predicate
                .entry(t.predicate)
                .and_modify(|p| p.push(i as u32))
                .or_insert(Postings::One(i as u32));
        }
        let mut by_object: FastMap<Term, Postings> = FastMap::default();
        by_object.reserve(n);
        for (i, t) in ts.iter().enumerate() {
            by_object
                .entry(t.object)
                .and_modify(|p| p.push(i as u32))
                .or_insert(Postings::One(i as u32));
        }
        Self {
            interner,
            triples,
            seen: FastSet::default(),
            seen_valid: false,
            by_subject,
            by_predicate,
            by_object,
            subject_order,
        }
    }

    /// The shared interner.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Interns an IRI string, returning its id.
    pub fn intern_iri(&self, iri: &str) -> IriId {
        IriId(self.interner.intern(iri))
    }

    /// Resolves an IRI id back to its string.
    pub fn iri_str(&self, id: IriId) -> Arc<str> {
        self.interner.resolve(id.0)
    }

    /// Materializes the dedup set after a bulk load, once, on the first
    /// mutation that needs it.
    fn build_seen(&mut self) {
        self.seen.reserve(self.triples.len());
        for &t in &self.triples {
            self.seen.insert(t);
        }
        self.seen_valid = true;
    }

    /// Inserts a triple. Returns `true` if the triple was new.
    pub fn insert(&mut self, triple: Triple) -> bool {
        if !self.seen_valid {
            self.build_seen();
        }
        if !self.seen.insert(triple) {
            return false;
        }
        let idx =
            u32::try_from(self.triples.len()).expect("store overflow: more than u32::MAX triples");
        match self.by_subject.entry(triple.subject) {
            Entry::Vacant(slot) => {
                self.subject_order.push(triple.subject);
                slot.insert(Postings::One(idx));
            }
            Entry::Occupied(mut slot) => slot.get_mut().push(idx),
        }
        self.by_predicate
            .entry(triple.predicate)
            .and_modify(|p| p.push(idx))
            .or_insert(Postings::One(idx));
        self.by_object
            .entry(triple.object)
            .and_modify(|p| p.push(idx))
            .or_insert(Postings::One(idx));
        self.triples.push(triple);
        true
    }

    /// Inserts `(subject, predicate, object-IRI)`.
    pub fn insert_iri(&mut self, subject: IriId, predicate: IriId, object: IriId) -> bool {
        self.insert(Triple::new(subject, predicate, object))
    }

    /// Inserts `(subject, predicate, literal)`.
    pub fn insert_literal(
        &mut self,
        subject: IriId,
        predicate: IriId,
        literal: crate::term::Literal,
    ) -> bool {
        self.insert(Triple::new(subject, predicate, literal))
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Whether the exact triple is present.
    pub fn contains(&self, triple: &Triple) -> bool {
        if self.seen_valid {
            self.seen.contains(triple)
        } else {
            // Post-bulk-load: answer from the subject index (bounded by
            // the subject's arity) instead of materializing the set.
            self.match_pattern(
                Some(triple.subject),
                Some(triple.predicate),
                Some(triple.object),
            )
            .next()
            .is_some()
        }
    }

    /// All triples, in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Triple> {
        self.triples.iter()
    }

    /// Distinct subjects, in first-insertion order.
    pub fn subjects(&self) -> impl Iterator<Item = IriId> + '_ {
        self.subject_order.iter().copied()
    }

    /// Number of distinct subjects.
    pub fn subject_count(&self) -> usize {
        self.subject_order.len()
    }

    /// Distinct predicates (arbitrary but stable-within-a-run order).
    pub fn predicates(&self) -> impl Iterator<Item = IriId> + '_ {
        self.by_predicate.keys().copied()
    }

    /// Triples matching the given pattern; `None` positions are wildcards.
    ///
    /// Picks the most selective bound position (subject, then object, then
    /// predicate) as the driving index and filters the rest.
    pub fn match_pattern(
        &self,
        subject: Option<IriId>,
        predicate: Option<IriId>,
        object: Option<Term>,
    ) -> TripleIter<'_> {
        let inner = if let Some(s) = subject {
            match self.by_subject.get(&s) {
                Some(ids) => IterInner::Indices(ids.as_slice().iter()),
                None => IterInner::Empty,
            }
        } else if let Some(o) = object {
            match self.by_object.get(&o) {
                Some(ids) => IterInner::Indices(ids.as_slice().iter()),
                None => IterInner::Empty,
            }
        } else if let Some(p) = predicate {
            match self.by_predicate.get(&p) {
                Some(ids) => IterInner::Indices(ids.as_slice().iter()),
                None => IterInner::Empty,
            }
        } else {
            IterInner::All(self.triples.iter())
        };
        TripleIter {
            store: self,
            inner,
            subject,
            predicate,
            object,
        }
    }

    /// Objects of `(subject, predicate, ?o)`.
    pub fn objects(&self, subject: IriId, predicate: IriId) -> impl Iterator<Item = Term> + '_ {
        self.match_pattern(Some(subject), Some(predicate), None)
            .map(|t| t.object)
    }

    /// Materializes the [`Entity`] view of `subject` (empty attribute list
    /// if the subject is unknown).
    pub fn entity(&self, subject: IriId) -> Entity {
        let attributes = self
            .match_pattern(Some(subject), None, None)
            .map(|t| Attribute {
                predicate: t.predicate,
                object: t.object,
            })
            .collect();
        Entity::new(subject, attributes)
    }

    /// Summary statistics, used by the Table 1 experiment.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            triples: self.triples.len(),
            subjects: self.by_subject.len(),
            predicates: self.by_predicate.len(),
            objects: self.by_object.len(),
        }
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("Store")
            .field("triples", &s.triples)
            .field("subjects", &s.subjects)
            .field("predicates", &s.predicates)
            .finish()
    }
}

/// Summary counts for a [`Store`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreStats {
    /// Total triples.
    pub triples: usize,
    /// Distinct subjects.
    pub subjects: usize,
    /// Distinct predicates.
    pub predicates: usize,
    /// Distinct objects.
    pub objects: usize,
}

/// Whether any subject's posting list holds two triples with the same
/// predicate and object — i.e. whether `triples` has an exact duplicate.
/// Short lists (the overwhelming majority; RDF subject arity is small)
/// are checked pairwise with no allocation; long lists get a scratch set
/// so a crafted input with one enormous subject stays linear.
fn subject_lists_have_duplicates(
    triples: &[Triple],
    by_subject: &FastMap<IriId, Postings>,
) -> bool {
    const PAIRWISE_CAP: usize = 16;
    for ids in by_subject.values() {
        let ids = ids.as_slice();
        if ids.len() <= 1 {
            continue;
        }
        if ids.len() <= PAIRWISE_CAP {
            for (k, &a) in ids.iter().enumerate() {
                let ta = triples[a as usize];
                for &b in &ids[k + 1..] {
                    let tb = triples[b as usize];
                    if ta.predicate == tb.predicate && ta.object == tb.object {
                        return true;
                    }
                }
            }
        } else {
            let mut po: FastSet<(IriId, Term)> = FastSet::default();
            po.reserve(ids.len());
            for &i in ids {
                let t = triples[i as usize];
                if !po.insert((t.predicate, t.object)) {
                    return true;
                }
            }
        }
    }
    false
}

/// A posting list of triple indices. Most index keys (distinct objects
/// especially) occur exactly once, so the single-entry case is stored
/// inline and only multi-entry keys pay for a heap allocation — this
/// roughly halves the allocation count of a bulk load. The `Vec` is
/// boxed to keep the enum at 16 bytes, which keeps the hash-table slots
/// compact (more of the index stays in cache during bulk builds).
#[derive(Clone)]
enum Postings {
    One(u32),
    // The indirection is the point: a bare Vec would grow the enum to
    // 32 bytes and bloat every single-entry slot.
    #[allow(clippy::box_collection)]
    Many(Box<Vec<u32>>),
}

impl Postings {
    fn push(&mut self, idx: u32) {
        match self {
            Postings::One(first) => *self = Postings::Many(Box::new(vec![*first, idx])),
            Postings::Many(v) => v.push(idx),
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            Postings::One(first) => std::slice::from_ref(first),
            Postings::Many(v) => v.as_slice(),
        }
    }
}

enum IterInner<'a> {
    Indices(std::slice::Iter<'a, u32>),
    All(std::slice::Iter<'a, Triple>),
    Empty,
}

/// Iterator over triples matching a pattern. See [`Store::match_pattern`].
pub struct TripleIter<'a> {
    store: &'a Store,
    inner: IterInner<'a>,
    subject: Option<IriId>,
    predicate: Option<IriId>,
    object: Option<Term>,
}

impl<'a> TripleIter<'a> {
    fn matches(&self, t: &Triple) -> bool {
        self.subject.is_none_or(|s| s == t.subject)
            && self.predicate.is_none_or(|p| p == t.predicate)
            && self.object.is_none_or(|o| o == t.object)
    }
}

impl<'a> Iterator for TripleIter<'a> {
    type Item = &'a Triple;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let t: &'a Triple = match &mut self.inner {
                IterInner::Indices(it) => {
                    let idx = *it.next()?;
                    &self.store.triples[idx as usize]
                }
                IterInner::All(it) => it.next()?,
                IterInner::Empty => return None,
            };
            if self.matches(t) {
                return Some(t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    fn small_store() -> (Store, IriId, IriId, IriId, IriId) {
        let interner = Interner::new_shared();
        let mut store = Store::new(interner.clone());
        let a = store.intern_iri("http://ex/a");
        let b = store.intern_iri("http://ex/b");
        let name = store.intern_iri("http://ex/name");
        let age = store.intern_iri("http://ex/age");
        store.insert_literal(a, name, Literal::str(&interner, "Alice"));
        store.insert_literal(a, age, Literal::Integer(30));
        store.insert_literal(b, name, Literal::str(&interner, "Bob"));
        (store, a, b, name, age)
    }

    #[test]
    fn insert_deduplicates() {
        let (mut store, a, _, name, _) = small_store();
        let lit = Literal::str(store.interner(), "Alice");
        assert!(!store.insert_literal(a, name, lit));
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn pattern_matching_all_shapes() {
        let (store, a, b, name, age) = small_store();
        let alice: Term = Literal::str(store.interner(), "Alice").into();

        assert_eq!(store.match_pattern(None, None, None).count(), 3);
        assert_eq!(store.match_pattern(Some(a), None, None).count(), 2);
        assert_eq!(store.match_pattern(None, Some(name), None).count(), 2);
        assert_eq!(store.match_pattern(None, None, Some(alice)).count(), 1);
        assert_eq!(store.match_pattern(Some(a), Some(name), None).count(), 1);
        assert_eq!(store.match_pattern(Some(b), Some(age), None).count(), 0);
        assert_eq!(
            store
                .match_pattern(Some(a), Some(name), Some(alice))
                .count(),
            1
        );
        // Unknown ids short-circuit to empty.
        let ghost = store.intern_iri("http://ex/ghost");
        assert_eq!(store.match_pattern(Some(ghost), None, None).count(), 0);
        assert_eq!(store.match_pattern(None, Some(ghost), None).count(), 0);
    }

    #[test]
    fn objects_of_subject_and_predicate() {
        let (store, a, _, name, _) = small_store();
        let objs: Vec<Term> = store.objects(a, name).collect();
        assert_eq!(objs.len(), 1);
    }

    #[test]
    fn entity_view() {
        let (store, a, _, name, age) = small_store();
        let e = store.entity(a);
        assert_eq!(e.id, a);
        assert_eq!(e.arity(), 2);
        assert_eq!(e.predicates(), vec![name, age]);
        let ghost = store.intern_iri("http://ex/ghost");
        assert!(store.entity(ghost).is_empty());
    }

    #[test]
    fn subjects_in_insertion_order() {
        let (store, a, b, _, _) = small_store();
        let subs: Vec<IriId> = store.subjects().collect();
        assert_eq!(subs, vec![a, b]);
        assert_eq!(store.subject_count(), 2);
    }

    #[test]
    fn stats() {
        let (store, ..) = small_store();
        let s = store.stats();
        assert_eq!(s.triples, 3);
        assert_eq!(s.subjects, 2);
        assert_eq!(s.predicates, 2);
        assert_eq!(s.objects, 3);
    }

    #[test]
    fn from_triples_matches_sequential_inserts() {
        // Exercise both the small sequential path and the parallel path
        // (> 4096 triples), with duplicates sprinkled in.
        let interner = Interner::new_shared();
        let p = IriId(interner.intern("http://ex/p"));
        let q = IriId(interner.intern("http://ex/q"));
        let mut triples = Vec::new();
        for i in 0..5000u32 {
            let s = IriId(interner.intern(&format!("http://ex/s{}", i % 700)));
            triples.push(Triple::new(s, p, Literal::Integer(i64::from(i))));
            if i % 17 == 0 {
                triples.push(triples[triples.len() - 1]); // duplicate
            }
            if i % 3 == 0 {
                triples.push(Triple::new(s, q, Literal::Boolean(i % 2 == 0)));
            }
        }
        let mut expected = Store::new(interner.clone());
        for &t in &triples {
            expected.insert(t);
        }
        for len in [10usize, triples.len()] {
            let bulk = Store::from_triples(interner.clone(), triples[..len].to_vec());
            let mut seq = Store::new(interner.clone());
            for &t in &triples[..len] {
                seq.insert(t);
            }
            assert_eq!(bulk.len(), seq.len(), "len {len}");
            assert_eq!(bulk.stats(), seq.stats(), "len {len}");
            assert!(bulk.iter().eq(seq.iter()), "triple order, len {len}");
            assert!(
                bulk.subjects().eq(seq.subjects()),
                "subject order, len {len}"
            );
            // Indexes answer identically through every access path.
            let probe = IriId(interner.intern("http://ex/s123"));
            assert_eq!(
                bulk.match_pattern(Some(probe), None, None).count(),
                seq.match_pattern(Some(probe), None, None).count()
            );
            assert_eq!(
                bulk.match_pattern(None, Some(q), None).count(),
                seq.match_pattern(None, Some(q), None).count()
            );
            let obj: Term = Literal::Integer(42).into();
            assert_eq!(
                bulk.match_pattern(None, None, Some(obj)).count(),
                seq.match_pattern(None, None, Some(obj)).count()
            );
            for &t in &triples[..len] {
                assert!(bulk.contains(&t));
            }
        }

        // Mutating after a duplicate-free bulk load still deduplicates:
        // the lazy dedup set materializes on first insert.
        let unique: Vec<Triple> = expected.iter().copied().collect();
        let mut bulk = Store::from_triples(interner.clone(), unique.clone());
        assert_eq!(bulk.len(), expected.len());
        assert!(!bulk.insert(unique[0]), "re-inserting an existing triple");
        let novel = Triple::new(
            IriId(interner.intern("http://ex/fresh")),
            p,
            Literal::Integer(-1),
        );
        assert!(bulk.insert(novel));
        assert!(bulk.contains(&novel));
        assert_eq!(bulk.len(), expected.len() + 1);
    }

    #[test]
    fn contains_and_iter() {
        let (store, a, _, name, _) = small_store();
        let t = Triple::new(a, name, Literal::str(store.interner(), "Alice"));
        assert!(store.contains(&t));
        assert_eq!(store.iter().count(), store.len());
    }
}
