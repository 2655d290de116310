//! Predicate functionality estimation (PARIS §4.1).
//!
//! The *functionality* of a predicate `r`, `fun(r) = #distinct subjects /
//! #triples`, is 1.0 when every subject has at most one `r` value (a true
//! function, like `birthDate`) and approaches 0 as the predicate becomes
//! multi-valued. The *inverse functionality* `ifun(r)` is the same measure
//! over objects: `ifun(r) = #distinct objects / #triples`. A predicate with
//! high inverse functionality (an ISBN, a full name) nearly identifies its
//! subject, so sharing its value is strong evidence of equivalence.

use alex_rdf::hash::{FastMap, FastSet};
use alex_rdf::{IriId, Store, Term};

/// Per-predicate functionality and inverse functionality for one dataset.
#[derive(Clone, Debug, Default)]
pub struct FunctionalityTable {
    entries: FastMap<IriId, Entry>,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    fun: f64,
    ifun: f64,
    triples: usize,
}

impl FunctionalityTable {
    /// Computes functionalities for every predicate of `store`.
    pub fn build(store: &Store) -> Self {
        struct Acc {
            subjects: FastSet<IriId>,
            objects: FastSet<Term>,
            triples: usize,
        }
        let mut acc: FastMap<IriId, Acc> = FastMap::default();
        for t in store.iter() {
            let e = acc.entry(t.predicate).or_insert_with(|| Acc {
                subjects: FastSet::default(),
                objects: FastSet::default(),
                triples: 0,
            });
            e.subjects.insert(t.subject);
            e.objects.insert(t.object);
            e.triples += 1;
        }
        let entries = acc
            .into_iter()
            .map(|(p, a)| {
                let n = a.triples as f64;
                (
                    p,
                    Entry {
                        fun: a.subjects.len() as f64 / n,
                        ifun: a.objects.len() as f64 / n,
                        triples: a.triples,
                    },
                )
            })
            .collect();
        Self { entries }
    }

    /// Functionality of `predicate`; 0 for unknown predicates.
    pub fn fun(&self, predicate: IriId) -> f64 {
        self.entries.get(&predicate).map_or(0.0, |e| e.fun)
    }

    /// Inverse functionality of `predicate`; 0 for unknown predicates.
    pub fn ifun(&self, predicate: IriId) -> f64 {
        self.entries.get(&predicate).map_or(0.0, |e| e.ifun)
    }

    /// Number of triples observed for `predicate`.
    pub fn triples(&self, predicate: IriId) -> usize {
        self.entries.get(&predicate).map_or(0, |e| e.triples)
    }

    /// Number of predicates in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::{Interner, Literal};

    #[test]
    fn functional_predicate_scores_one() {
        let interner = Interner::new_shared();
        let mut store = Store::new(interner.clone());
        let born = store.intern_iri("born");
        for i in 0..10 {
            let s = store.intern_iri(&format!("e{i}"));
            store.insert_literal(s, born, Literal::Integer(1980 + i));
        }
        let t = FunctionalityTable::build(&store);
        assert!((t.fun(born) - 1.0).abs() < 1e-12);
        assert!((t.ifun(born) - 1.0).abs() < 1e-12); // all years distinct
        assert_eq!(t.triples(born), 10);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn multivalued_predicate_scores_low() {
        let interner = Interner::new_shared();
        let mut store = Store::new(interner.clone());
        let knows = store.intern_iri("knows");
        let s = store.intern_iri("hub");
        for i in 0..10 {
            let o = store.intern_iri(&format!("friend{i}"));
            store.insert_iri(s, knows, o);
        }
        let t = FunctionalityTable::build(&store);
        assert!((t.fun(knows) - 0.1).abs() < 1e-12); // one subject, ten triples
        assert!((t.ifun(knows) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_object_lowers_inverse_functionality() {
        let interner = Interner::new_shared();
        let mut store = Store::new(interner.clone());
        let typ = store.intern_iri("type");
        let thing = store.intern_iri("Thing");
        for i in 0..20 {
            let s = store.intern_iri(&format!("e{i}"));
            store.insert_iri(s, typ, thing);
        }
        let t = FunctionalityTable::build(&store);
        assert!((t.ifun(typ) - 0.05).abs() < 1e-12); // one object, twenty triples
        assert!((t.fun(typ) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_predicate_is_zero() {
        let interner = Interner::new_shared();
        let store = Store::new(interner);
        let t = FunctionalityTable::build(&store);
        assert!(t.is_empty());
        let ghost = store.intern_iri("ghost");
        assert_eq!(t.fun(ghost), 0.0);
        assert_eq!(t.ifun(ghost), 0.0);
        assert_eq!(t.triples(ghost), 0);
    }
}
