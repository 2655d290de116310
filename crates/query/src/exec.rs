//! Row-level evaluation shared by the federated engine: the variable
//! table that lays out a solution row, filter evaluation under SPARQL's
//! error-is-false rule, literal resolution, and the term orderings behind
//! comparisons and `ORDER BY`.

use std::cmp::Ordering;
use std::collections::HashMap;

use alex_rdf::{Date, Interner, Literal, Term};

use crate::ast::{CompareOp, FilterExpr, FilterOperand, LiteralSpec, Query, Variable};

/// A solution row: one term per query variable (by index), `None` until
/// bound.
pub(crate) type Row = Vec<Option<Term>>;

/// Maps variable names to row indices for one query.
#[derive(Clone, Debug, Default)]
pub(crate) struct VarTable {
    index: HashMap<Variable, usize>,
}

impl VarTable {
    /// Builds the table from a query's variables.
    pub(crate) fn from_query(query: &Query) -> Self {
        let index = query
            .all_variables()
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, i))
            .collect();
        Self { index }
    }

    /// Index of `var`, if the query mentions it.
    pub(crate) fn index_of(&self, var: &Variable) -> Option<usize> {
        self.index.get(var).copied()
    }

    /// Number of variables.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }
}

/// Resolves a literal spec against an interner (interning string payloads).
pub(crate) fn resolve_literal(spec: &LiteralSpec, interner: &Interner) -> Option<Literal> {
    Some(match spec {
        LiteralSpec::Str(s) => Literal::Str(interner.intern(s)),
        LiteralSpec::LangStr(s, lang) => Literal::LangStr {
            value: interner.intern(s),
            lang: interner.intern(lang),
        },
        LiteralSpec::Integer(i) => Literal::Integer(*i),
        LiteralSpec::Float(f) => Literal::float(*f),
        LiteralSpec::Boolean(b) => Literal::Boolean(*b),
        LiteralSpec::Date(s) => Literal::Date(Date::parse(s).ok()?),
    })
}

/// Evaluates a filter over a (possibly partially bound) row; unbound
/// variables make the filter fail, matching SPARQL's error-is-false rule.
pub(crate) fn eval_filter(f: &FilterExpr, row: &Row, vars: &VarTable, interner: &Interner) -> bool {
    match f {
        FilterExpr::Compare { left, op, right } => {
            let l = operand_term(left, row, vars, interner);
            let r = operand_term(right, row, vars, interner);
            let (Some(l), Some(r)) = (l, r) else {
                return false;
            };
            match op {
                CompareOp::Eq => term_eq(&l, &r, interner),
                CompareOp::Ne => !term_eq(&l, &r, interner),
                other => match compare_terms(&l, &r, interner) {
                    Some(ord) => match other {
                        CompareOp::Lt => ord == Ordering::Less,
                        CompareOp::Le => ord != Ordering::Greater,
                        CompareOp::Gt => ord == Ordering::Greater,
                        CompareOp::Ge => ord != Ordering::Less,
                        CompareOp::Eq | CompareOp::Ne => unreachable!(),
                    },
                    None => false,
                },
            }
        }
        FilterExpr::Contains { var, needle } => string_value(var, row, vars, interner)
            .is_some_and(|s| s.to_lowercase().contains(&needle.to_lowercase())),
        FilterExpr::StrStarts { var, prefix } => string_value(var, row, vars, interner)
            .is_some_and(|s| s.to_lowercase().starts_with(&prefix.to_lowercase())),
        FilterExpr::And(a, b) => {
            eval_filter(a, row, vars, interner) && eval_filter(b, row, vars, interner)
        }
        FilterExpr::Or(a, b) => {
            eval_filter(a, row, vars, interner) || eval_filter(b, row, vars, interner)
        }
        FilterExpr::Not(a) => !eval_filter(a, row, vars, interner),
    }
}

fn operand_term(
    op: &FilterOperand,
    row: &Row,
    vars: &VarTable,
    interner: &Interner,
) -> Option<Term> {
    match op {
        FilterOperand::Var(v) => vars.index_of(v).and_then(|i| row[i]),
        FilterOperand::Literal(spec) => resolve_literal(spec, interner).map(Term::Literal),
    }
}

fn string_value(var: &Variable, row: &Row, vars: &VarTable, interner: &Interner) -> Option<String> {
    let term = vars.index_of(var).and_then(|i| row[i])?;
    Some(match term {
        Term::Iri(id) => interner.resolve(id.0).to_string(),
        Term::Literal(l) => l.lexical(interner).to_string(),
    })
}

fn numeric_value(t: &Term) -> Option<f64> {
    match t {
        Term::Literal(Literal::Integer(i)) => Some(*i as f64),
        Term::Literal(Literal::Float(f)) => Some(f.get()),
        _ => None,
    }
}

/// Term equality with numeric coercion (`3 = 3.0` holds, as in SPARQL).
fn term_eq(a: &Term, b: &Term, _interner: &Interner) -> bool {
    if let (Some(x), Some(y)) = (numeric_value(a), numeric_value(b)) {
        return x == y;
    }
    a == b
}

/// A *total* order over optional terms, for `ORDER BY`: unbound < IRIs <
/// literals; within literals, numbers < dates < booleans < strings; ties
/// break by value (numeric, chronological, or lexical).
pub(crate) fn total_term_cmp(a: &Option<Term>, b: &Option<Term>, interner: &Interner) -> Ordering {
    fn rank(t: &Term) -> u8 {
        match t {
            Term::Iri(_) => 1,
            Term::Literal(Literal::Integer(_)) | Term::Literal(Literal::Float(_)) => 2,
            Term::Literal(Literal::Date(_)) => 3,
            Term::Literal(Literal::Boolean(_)) => 4,
            Term::Literal(_) => 5,
        }
    }
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => {
            let (rx, ry) = (rank(x), rank(y));
            if rx != ry {
                return rx.cmp(&ry);
            }
            match (x, y) {
                (Term::Iri(i), Term::Iri(j)) => interner.resolve(i.0).cmp(&interner.resolve(j.0)),
                _ => {
                    if let (Some(nx), Some(ny)) = (numeric_value(x), numeric_value(y)) {
                        return nx.total_cmp(&ny);
                    }
                    compare_terms(x, y, interner).unwrap_or_else(|| {
                        // Same rank but incomparable (e.g. bool vs bool is
                        // comparable via Eq only): fall back to Eq/byte order.
                        if x == y {
                            Ordering::Equal
                        } else {
                            format!("{x:?}").cmp(&format!("{y:?}"))
                        }
                    })
                }
            }
        }
    }
}

/// Ordering between comparable terms: numbers numerically, dates
/// chronologically, strings lexically. Cross-type comparison is undefined.
fn compare_terms(a: &Term, b: &Term, interner: &Interner) -> Option<Ordering> {
    if let (Some(x), Some(y)) = (numeric_value(a), numeric_value(b)) {
        return x.partial_cmp(&y);
    }
    match (a, b) {
        (Term::Literal(Literal::Date(x)), Term::Literal(Literal::Date(y))) => Some(x.cmp(y)),
        (Term::Literal(x), Term::Literal(y)) => {
            let (Some(sx), Some(sy)) = (x.as_str_id(), y.as_str_id()) else {
                return None;
            };
            Some(interner.resolve(sx).cmp(&interner.resolve(sy)))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FederatedEngine;
    use alex_rdf::Store;

    fn demo_store() -> Store {
        let interner = Interner::new_shared();
        let mut store = Store::new(interner.clone());
        let name = store.intern_iri("http://ex/name");
        let age = store.intern_iri("http://ex/age");
        let knows = store.intern_iri("http://ex/knows");
        let people = [
            ("alice", "Alice Prandel", 30i64),
            ("bob", "Bob Krane", 25),
            ("carol", "Carol Thorn", 35),
        ];
        for (id, nm, a) in people {
            let s = store.intern_iri(&format!("http://ex/{id}"));
            store.insert_literal(s, name, Literal::str(&interner, nm));
            store.insert_literal(s, age, Literal::Integer(a));
        }
        let alice = store.intern_iri("http://ex/alice");
        let bob = store.intern_iri("http://ex/bob");
        let carol = store.intern_iri("http://ex/carol");
        store.insert_iri(alice, knows, bob);
        store.insert_iri(bob, knows, carol);
        store
    }

    /// Runs `q` on a one-source federation over `store`.
    fn run_opt(store: &Store, q: &str) -> Vec<Vec<Option<Term>>> {
        FederatedEngine::new(vec![("ex".into(), store)])
            .execute_str(q)
            .unwrap()
            .into_iter()
            .map(|a| a.row)
            .collect()
    }

    /// Like [`run_opt`] for queries whose cells are all bound.
    fn run(store: &Store, q: &str) -> Vec<Vec<Term>> {
        run_opt(store, q)
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|c| c.expect("bound in these tests"))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn single_pattern() {
        let store = demo_store();
        let rows = run(
            &store,
            "SELECT ?n WHERE { <http://ex/alice> <http://ex/name> ?n }",
        );
        assert_eq!(rows.len(), 1);
        let lit = rows[0][0].as_literal().unwrap();
        assert_eq!(&*lit.lexical(store.interner()), "Alice Prandel");
    }

    #[test]
    fn join_across_patterns() {
        let store = demo_store();
        let rows = run(
            &store,
            "SELECT ?n WHERE { <http://ex/alice> <http://ex/knows> ?f . ?f <http://ex/name> ?n }",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(
            &*rows[0][0].as_literal().unwrap().lexical(store.interner()),
            "Bob Krane"
        );
    }

    #[test]
    fn two_hop_join() {
        let store = demo_store();
        let rows = run(
            &store,
            "SELECT ?n WHERE { ?a <http://ex/knows> ?b . ?b <http://ex/knows> ?c . ?c <http://ex/name> ?n }",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(
            &*rows[0][0].as_literal().unwrap().lexical(store.interner()),
            "Carol Thorn"
        );
    }

    #[test]
    fn numeric_filter() {
        let store = demo_store();
        let rows = run(
            &store,
            "SELECT ?n WHERE { ?p <http://ex/name> ?n . ?p <http://ex/age> ?a . FILTER(?a >= 30) }",
        );
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn string_filters() {
        let store = demo_store();
        let rows = run(
            &store,
            "SELECT ?n WHERE { ?p <http://ex/name> ?n . FILTER(CONTAINS(?n, \"krane\")) }",
        );
        assert_eq!(rows.len(), 1);
        let rows = run(
            &store,
            "SELECT ?n WHERE { ?p <http://ex/name> ?n . FILTER(STRSTARTS(?n, \"carol\")) }",
        );
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn distinct_and_limit() {
        let store = demo_store();
        let rows = run(&store, "SELECT DISTINCT ?p WHERE { ?p ?pred ?o }");
        assert_eq!(rows.len(), 3);
        let rows = run(&store, "SELECT ?p WHERE { ?p ?pred ?o } LIMIT 2");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn shared_variable_must_agree() {
        let store = demo_store();
        // ?x must be both a subject with age 30 and the object known by bob
        // — no such entity (bob knows carol, who is 35).
        let rows = run(
            &store,
            "SELECT ?x WHERE { <http://ex/bob> <http://ex/knows> ?x . ?x <http://ex/age> 30 }",
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn unknown_iri_yields_empty() {
        let store = demo_store();
        let rows = run(
            &store,
            "SELECT ?o WHERE { <http://ex/ghost> <http://ex/name> ?o }",
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn literal_constant_object() {
        let store = demo_store();
        let rows = run(&store, "SELECT ?p WHERE { ?p <http://ex/age> 25 }");
        assert_eq!(rows.len(), 1);
        let iri = rows[0][0].as_iri().unwrap();
        assert_eq!(&*store.iri_str(iri), "http://ex/bob");
    }

    #[test]
    fn numeric_coercion_in_filters() {
        let store = demo_store();
        let rows = run(
            &store,
            "SELECT ?p WHERE { ?p <http://ex/age> ?a . FILTER(?a = 25.0) }",
        );
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn or_and_not_filters() {
        let store = demo_store();
        let rows = run(
            &store,
            "SELECT ?p WHERE { ?p <http://ex/age> ?a . FILTER(?a < 26 || ?a > 34) }",
        );
        assert_eq!(rows.len(), 2);
        let rows = run(
            &store,
            "SELECT ?p WHERE { ?p <http://ex/age> ?a . FILTER(!(?a < 26 || ?a > 34)) }",
        );
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn order_by_sorts_rows() {
        let store = demo_store();
        let rows = run(
            &store,
            "SELECT ?n ?a WHERE { ?p <http://ex/name> ?n . ?p <http://ex/age> ?a } ORDER BY ?a",
        );
        let ages: Vec<i64> = rows
            .iter()
            .map(|r| match r[1].as_literal().unwrap() {
                Literal::Integer(i) => *i,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ages, vec![25, 30, 35]);
        let rows = run(
            &store,
            "SELECT ?a WHERE { ?p <http://ex/age> ?a } ORDER BY DESC(?a)",
        );
        let first = rows[0][0].as_literal().unwrap();
        assert_eq!(first, &Literal::Integer(35));
    }

    #[test]
    fn offset_skips_rows() {
        let store = demo_store();
        let rows = run(
            &store,
            "SELECT ?a WHERE { ?p <http://ex/age> ?a } ORDER BY ?a OFFSET 1 LIMIT 1",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_literal().unwrap(), &Literal::Integer(30));
    }

    #[test]
    fn order_by_string_values() {
        let store = demo_store();
        let rows = run(
            &store,
            "SELECT ?n WHERE { ?p <http://ex/name> ?n } ORDER BY DESC(?n) LIMIT 1",
        );
        assert_eq!(
            &*rows[0][0].as_literal().unwrap().lexical(store.interner()),
            "Carol Thorn"
        );
    }

    #[test]
    fn select_star_projects_all() {
        let store = demo_store();
        let rows = run(&store, "SELECT * WHERE { ?p <http://ex/age> ?a } LIMIT 1");
        assert_eq!(rows[0].len(), 2);
    }

    #[test]
    fn optional_keeps_rows_without_match() {
        let store = demo_store();
        // Only alice and bob have outgoing knows edges.
        let rows = run_opt(
            &store,
            "SELECT ?n ?f WHERE { ?p <http://ex/name> ?n .              OPTIONAL { ?p <http://ex/knows> ?f } } ORDER BY ?n",
        );
        assert_eq!(rows.len(), 3);
        // Alice knows bob, Bob knows carol, Carol knows nobody (unbound).
        assert!(rows[0][1].is_some(), "alice has a friend");
        assert!(rows[1][1].is_some(), "bob has a friend");
        assert!(rows[2][1].is_none(), "carol's ?f is unbound");
    }

    #[test]
    fn optional_with_filter_scopes_to_group() {
        let store = demo_store();
        // The optional group's filter only prunes *extensions*; rows
        // without a qualifying extension survive unbound.
        let rows = run_opt(
            &store,
            "SELECT ?n ?fa WHERE { ?p <http://ex/name> ?n .              OPTIONAL { ?p <http://ex/knows> ?f . ?f <http://ex/age> ?fa . FILTER(?fa > 30) } }              ORDER BY ?n",
        );
        assert_eq!(rows.len(), 3);
        // Only bob's friend (carol, 35) passes the filter.
        assert!(rows[0][1].is_none(), "alice's friend bob is 25, filtered");
        assert!(rows[1][1].is_some(), "bob's friend carol is 35");
        assert!(rows[2][1].is_none());
    }

    #[test]
    fn union_combines_branches() {
        let store = demo_store();
        let rows = run(
            &store,
            "SELECT ?p WHERE { ?p <http://ex/name> ?n .              { ?p <http://ex/age> 25 } UNION { ?p <http://ex/age> 35 } }",
        );
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn union_dedups_overlap() {
        let store = demo_store();
        // Both branches match the same row for bob.
        let rows = run(
            &store,
            "SELECT ?p WHERE { { ?p <http://ex/age> 25 } UNION { ?p <http://ex/name> \"Bob Krane\" } }",
        );
        assert_eq!(rows.len(), 1);
    }
}
