//! Federated query processing with link provenance (paper §3.2).
//!
//! A federated query spans several datasets: each triple pattern may be
//! answered by any source, and `owl:sameAs` links let a join variable bound
//! to an entity of one dataset match triples about its counterpart in
//! another. Every answer carries **provenance** — the exact links used to
//! produce it — which is the hook ALEX needs: user feedback on an answer is
//! "interpreted as feedback on the link that is used to generate the
//! answer" (§4).
//!
//! Patterns are evaluated one at a time in greedy most-bound-first order.
//! For each intermediate row every source is probed with
//! [`Store::match_pattern`]; there is no source selection, which at
//! in-memory latencies costs no more than keeping predicate summaries.
//! Entity translation tries the bound IRI itself plus every `owl:sameAs`
//! counterpart in ascending link order, accumulating the used links in the
//! row. Execution is serial, so results are identical at any thread count.
//! A query's one record of its probes is its [`QueryReport`]; the trace
//! holds only its `query.federated` span.

use std::borrow::Cow;
use std::sync::Arc;

use alex_rdf::{Interner, IriId, Link, Store, Term};
use alex_trace as trace;

use crate::ast::{Group, PatternTerm, Query, TriplePattern};
use crate::exec::{eval_filter, resolve_literal, total_term_cmp, VarTable};
use crate::parser::{parse, ParseError};
use crate::same_as::{counterpart, SameAsIndex};

/// One answer of a federated query.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Projected terms, in projection order; `None` where a projection
    /// variable is unbound (possible only through `OPTIONAL`).
    pub row: Vec<Option<Term>>,
    /// The `owl:sameAs` links this answer depends on (deduplicated,
    /// unordered). Empty when the answer came from a single source.
    pub links: Vec<Link>,
}

/// Settings for federated execution. It has no knobs: sessions query
/// in-memory stores that always answer, so there is nothing to tune. It
/// is kept in [`FederatedEngine::with_config`] and in session configs as
/// the place a per-query work budget would go. Configs written while it
/// carried the retired failure-model knobs still load: unknown keys are
/// ignored.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FederationConfig {}

/// Per-source accounting of one query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SourceReport {
    /// Source name, as registered.
    pub name: String,
    /// Triple-pattern probes issued against the source.
    pub probes: u64,
}

/// The result of a federated query: its answers plus per-source probe
/// counts.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// The answers, as [`FederatedEngine::execute`] returns them.
    pub answers: Vec<Answer>,
    /// Per-source accounting, in registration order.
    pub sources: Vec<SourceReport>,
}

#[derive(Clone, Debug)]
struct FedRow {
    bindings: Vec<Option<Term>>,
    links: Vec<Link>,
}

/// The owned half of a federation: the `owl:sameAs` index. It borrows no
/// source, so a long-lived owner — a curation session — keeps one,
/// patches its links as they change, and wraps it with its sources per
/// query through [`FederatedEngine::over`].
#[derive(Clone, Default)]
pub struct Federation {
    same_as: SameAsIndex,
}

impl Federation {
    /// Adds `owl:sameAs` links, both directions; links already present
    /// are left alone.
    pub fn add_links(&mut self, links: impl IntoIterator<Item = Link>) {
        let links = links.into_iter();
        self.same_as.reserve(links.size_hint().0);
        for link in links {
            self.same_as.insert(link);
        }
    }

    /// Removes `owl:sameAs` links; absent links are ignored.
    pub fn remove_links(&mut self, links: impl IntoIterator<Item = Link>) {
        for link in links {
            self.same_as.remove(link);
        }
    }

    /// The links naming `entity` in either direction, in ascending order —
    /// the order a query probes its counterparts in.
    pub fn peers(&self, entity: IriId) -> &[Link] {
        self.same_as.peers(entity)
    }

    /// Number of distinct entities with at least one counterpart.
    pub fn linked_entities(&self) -> usize {
        self.same_as.entities()
    }
}

/// A federation of named stores connected by `owl:sameAs` links: the
/// stores plus a [`Federation`], owned (built by
/// [`FederatedEngine::add_links`]) or borrowed from a long-lived owner.
///
/// All member stores must share one [`Interner`] (the workspace-wide
/// convention), so ids are comparable across stores.
pub struct FederatedEngine<'a> {
    sources: Vec<(String, &'a Store)>,
    fed: Cow<'a, Federation>,
}

impl<'a> FederatedEngine<'a> {
    /// Creates a federation over named stores, with no links.
    ///
    /// # Panics
    ///
    /// Panics if the stores do not share an interner, or no store is
    /// given.
    pub fn new(sources: Vec<(String, &'a Store)>) -> Self {
        Self::assemble(sources, Cow::Owned(Federation::default()))
    }

    /// [`FederatedEngine::new`] under explicit settings.
    ///
    /// # Panics
    ///
    /// See [`FederatedEngine::new`].
    pub fn with_config(sources: Vec<(String, &'a Store)>, _cfg: FederationConfig) -> Self {
        Self::new(sources)
    }

    /// Runs queries over `sources` through a borrowed [`Federation`]'s
    /// links. Costs O(sources); nothing is indexed.
    ///
    /// # Panics
    ///
    /// See [`FederatedEngine::new`].
    pub fn over(fed: &'a Federation, sources: Vec<(String, &'a Store)>) -> Self {
        Self::assemble(sources, Cow::Borrowed(fed))
    }

    fn assemble(sources: Vec<(String, &'a Store)>, fed: Cow<'a, Federation>) -> Self {
        assert!(!sources.is_empty(), "federation needs at least one source");
        let first = sources[0].1.interner();
        for (name, store) in &sources {
            assert!(
                Arc::ptr_eq(first, store.interner()),
                "source {name} does not share the federation interner"
            );
        }
        Self { sources, fed }
    }

    /// The shared interner.
    pub fn interner(&self) -> &Interner {
        self.sources[0].1.interner()
    }

    /// The links the engine runs on.
    pub fn federation(&self) -> &Federation {
        &self.fed
    }

    /// Installs (or extends) the `owl:sameAs` link set, both directions.
    /// An engine over a borrowed [`Federation`] first takes a copy of it.
    pub fn add_links(&mut self, links: impl IntoIterator<Item = Link>) {
        self.fed.to_mut().add_links(links);
    }

    /// Removes `owl:sameAs` links. An engine over a borrowed
    /// [`Federation`] first takes a copy of it.
    pub fn remove_links(&mut self, links: impl IntoIterator<Item = Link>) {
        self.fed.to_mut().remove_links(links);
    }

    /// Parses and executes a query.
    pub fn execute_str(&self, text: &str) -> Result<Vec<Answer>, ParseError> {
        Ok(self.execute(&parse(text)?))
    }

    /// Parses and executes a query, returning the full [`QueryReport`].
    pub fn execute_str_report(&self, text: &str) -> Result<QueryReport, ParseError> {
        Ok(self.execute_report(&parse(text)?))
    }

    /// Executes a parsed query across all sources.
    pub fn execute(&self, query: &Query) -> Vec<Answer> {
        self.execute_report(query).answers
    }

    /// Executes a parsed query across all sources, counting each
    /// source's probes.
    pub fn execute_report(&self, query: &Query) -> QueryReport {
        let _span = trace::span("query.federated");
        let mut probes = vec![0; self.sources.len()];
        let answers = self.run_query(query, &mut probes);
        let sources = (self.sources.iter().zip(probes))
            .map(|((name, _), probes)| SourceReport {
                name: name.clone(),
                probes,
            })
            .collect();
        QueryReport { answers, sources }
    }

    fn run_query(&self, query: &Query, probes: &mut [u64]) -> Vec<Answer> {
        let vars = VarTable::from_query(query);
        let interner = self.interner();
        let mut rows = vec![FedRow {
            bindings: vec![None; vars.len()],
            links: Vec::new(),
        }];
        let mut remaining: Vec<&TriplePattern> = query.patterns.iter().collect();

        while !remaining.is_empty() && !rows.is_empty() {
            let pattern = pick_next(&rows, &mut remaining, &vars);
            rows = self.extend(rows, pattern, &vars, probes);
        }

        // UNION blocks: each row extends through either branch.
        for (a, b) in &query.unions {
            let mut next = self.extend_group(rows.clone(), a, &vars, probes);
            next.extend(self.extend_group(rows, b, &vars, probes));
            sort_rows(&mut next);
            next.dedup_by(|x, y| x.bindings == y.bindings && x.links == y.links);
            rows = next;
        }

        // OPTIONAL blocks: left join.
        for g in &query.optionals {
            rows = rows
                .into_iter()
                .flat_map(|r| {
                    let exts = self.extend_group(vec![r.clone()], g, &vars, probes);
                    if exts.is_empty() {
                        vec![r]
                    } else {
                        exts
                    }
                })
                .collect();
        }

        // ORDER BY over full solutions.
        if !query.order_by.is_empty() {
            let keys: Vec<(usize, bool)> = query
                .order_by
                .iter()
                .filter_map(|k| vars.index_of(&k.var).map(|i| (i, k.descending)))
                .collect();
            rows.sort_by(|a, b| {
                for &(i, desc) in &keys {
                    let ord = total_term_cmp(&a.bindings[i], &b.bindings[i], interner);
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        // Filters, projection, DISTINCT, OFFSET, LIMIT.
        let proj: Vec<usize> = query
            .projection()
            .iter()
            .filter_map(|v| vars.index_of(v))
            .collect();
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut to_skip = query.offset.unwrap_or(0);
        for row in rows {
            if !query
                .filters
                .iter()
                .all(|f| eval_filter(f, &row.bindings, &vars, interner))
            {
                continue;
            }
            let projected: Vec<Option<Term>> = proj.iter().map(|&i| row.bindings[i]).collect();
            if query.distinct && !seen.insert(projected.clone()) {
                continue;
            }
            if to_skip > 0 {
                to_skip -= 1;
                continue;
            }
            let mut links = row.links;
            links.sort_unstable();
            links.dedup();
            out.push(Answer {
                row: projected,
                links,
            });
            if let Some(limit) = query.limit {
                if out.len() >= limit {
                    break;
                }
            }
        }
        out
    }

    /// Extends rows through a nested group's patterns and filters.
    fn extend_group(
        &self,
        mut rows: Vec<FedRow>,
        group: &Group,
        vars: &VarTable,
        probes: &mut [u64],
    ) -> Vec<FedRow> {
        let mut remaining: Vec<&TriplePattern> = group.patterns.iter().collect();
        while !remaining.is_empty() && !rows.is_empty() {
            let pattern = pick_next(&rows, &mut remaining, vars);
            rows = self.extend(rows, pattern, vars, probes);
        }
        let interner = self.interner();
        rows.retain(|r| {
            group
                .filters
                .iter()
                .all(|f| eval_filter(f, &r.bindings, vars, interner))
        });
        rows
    }

    /// Entity ids equivalent to `id` (itself first, then its
    /// counterparts in ascending link order), with the link that
    /// justifies each non-identity alternative.
    fn alternatives(&self, id: IriId) -> impl Iterator<Item = (IriId, Option<Link>)> + '_ {
        let peers = self.fed.same_as.peers(id).iter();
        std::iter::once((id, None)).chain(peers.map(move |&l| (counterpart(l, id), Some(l))))
    }

    fn extend(
        &self,
        rows: Vec<FedRow>,
        pattern: &TriplePattern,
        vars: &VarTable,
        probes: &mut [u64],
    ) -> Vec<FedRow> {
        let interner = self.interner();
        let mut out = Vec::new();
        for row in rows {
            // Resolve each position to a concrete term (or None for an
            // unbound variable); a constant unknown to the interner makes
            // the pattern unmatchable for this row.
            let resolve = |term: &PatternTerm| -> Result<Option<Term>, ()> {
                match term {
                    PatternTerm::Var(v) => Ok(row.bindings[vars.index_of(v).expect("known var")]),
                    PatternTerm::Iri(iri) => interner
                        .get(iri)
                        .map(|id| Some(Term::Iri(IriId(id))))
                        .ok_or(()),
                    PatternTerm::Literal(spec) => resolve_literal(spec, interner)
                        .map(|l| Some(Term::Literal(l)))
                        .ok_or(()),
                }
            };
            let (Ok(s), Ok(p), Ok(o)) = (
                resolve(&pattern.subject),
                resolve(&pattern.predicate),
                resolve(&pattern.object),
            ) else {
                continue;
            };
            let p_iri = match p {
                Some(Term::Iri(id)) => Some(id),
                Some(Term::Literal(_)) => continue,
                None => None,
            };

            // Subject alternatives (entity translation across datasets).
            let subject_alts: Vec<(Option<IriId>, Option<Link>)> = match s {
                Some(Term::Iri(id)) => self.alternatives(id).map(|(i, l)| (Some(i), l)).collect(),
                Some(Term::Literal(_)) => continue,
                None => vec![(None, None)],
            };
            // Object alternatives: only IRI objects are translatable.
            let object_alts: Vec<(Option<Term>, Option<Link>)> = match o {
                Some(Term::Iri(id)) => self
                    .alternatives(id)
                    .map(|(i, l)| (Some(Term::Iri(i)), l))
                    .collect(),
                Some(lit) => vec![(Some(lit), None)],
                None => vec![(None, None)],
            };

            for &(s_alt, s_link) in &subject_alts {
                for (o_alt, o_link) in &object_alts {
                    for (count, (_, store)) in probes.iter_mut().zip(&self.sources) {
                        *count += 1;
                        for triple in store.match_pattern(s_alt, p_iri, *o_alt) {
                            let mut new_row = row.clone();
                            let mut ok = true;
                            if let PatternTerm::Var(v) = &pattern.subject {
                                // Bind the *queried* identity, not the
                                // translated one: sameAs makes them one
                                // individual, and downstream joins may need
                                // either — they get their own translation.
                                let value = match s {
                                    Some(t) => t,
                                    None => Term::Iri(triple.subject),
                                };
                                ok &= bind(&mut new_row.bindings, vars.index_of(v).unwrap(), value);
                            }
                            if ok {
                                if let PatternTerm::Var(v) = &pattern.predicate {
                                    ok &= bind(
                                        &mut new_row.bindings,
                                        vars.index_of(v).unwrap(),
                                        Term::Iri(triple.predicate),
                                    );
                                }
                            }
                            if ok {
                                if let PatternTerm::Var(v) = &pattern.object {
                                    let value = match o {
                                        Some(t) => t,
                                        None => triple.object,
                                    };
                                    ok &= bind(
                                        &mut new_row.bindings,
                                        vars.index_of(v).unwrap(),
                                        value,
                                    );
                                }
                            }
                            if ok {
                                if let Some(l) = s_link {
                                    new_row.links.push(l);
                                }
                                if let Some(l) = o_link {
                                    new_row.links.push(*l);
                                }
                                out.push(new_row);
                            }
                        }
                    }
                }
            }
        }
        // Deduplicate identical (bindings, links) rows produced via
        // different sources matching the same data.
        sort_rows(&mut out);
        out.dedup_by(|a, b| a.bindings == b.bindings && a.links == b.links);
        out
    }
}

/// Sorts rows by their rendered `(bindings, links)`, rendering each row
/// once. Rows with equal keys are identical, so the order — and the
/// dedup that follows — is the same for any sort algorithm.
fn sort_rows(rows: &mut [FedRow]) {
    rows.sort_by_cached_key(|r| format!("{:?}", (&r.bindings, &r.links)));
}

fn pick_next<'p>(
    rows: &[FedRow],
    remaining: &mut Vec<&'p TriplePattern>,
    vars: &VarTable,
) -> &'p TriplePattern {
    let bound: Vec<bool> = (0..vars.len())
        .map(|i| rows.iter().any(|r| r.bindings[i].is_some()))
        .collect();
    let score = |p: &TriplePattern| -> usize {
        [&p.subject, &p.predicate, &p.object]
            .iter()
            .filter(|t| match t {
                PatternTerm::Var(v) => vars.index_of(v).is_some_and(|i| bound[i]),
                _ => true,
            })
            .count()
    };
    let (best, _) = remaining
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| score(p))
        .expect("non-empty");
    remaining.swap_remove(best)
}

fn bind(row: &mut [Option<Term>], idx: usize, value: Term) -> bool {
    match row[idx] {
        Some(existing) => existing == value,
        None => {
            row[idx] = Some(value);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::Literal;

    /// The paper's motivating example: NYTimes articles about entities that
    /// DBpedia knows facts about, joined through an owl:sameAs link.
    fn federation_fixture() -> (Store, Store, Link) {
        let interner = Interner::new_shared();
        let mut dbpedia = Store::new(interner.clone());
        let mut nytimes = Store::new(interner.clone());

        let lebron_db = dbpedia.intern_iri("http://dbpedia/LeBron_James");
        let award = dbpedia.intern_iri("http://dbpedia/award");
        let mvp = dbpedia.intern_iri("http://dbpedia/NBA_MVP_2013");
        dbpedia.insert_iri(lebron_db, award, mvp);
        let name_db = dbpedia.intern_iri("http://dbpedia/name");
        dbpedia.insert_literal(lebron_db, name_db, Literal::str(&interner, "LeBron James"));

        let lebron_nyt = nytimes.intern_iri("http://nytimes/lebron");
        let about = nytimes.intern_iri("http://nytimes/about");
        for i in 0..3 {
            let article = nytimes.intern_iri(&format!("http://nytimes/article{i}"));
            nytimes.insert_iri(article, about, lebron_nyt);
        }
        // A decoy person with one article.
        let decoy = nytimes.intern_iri("http://nytimes/decoy");
        let article = nytimes.intern_iri("http://nytimes/article_decoy");
        nytimes.insert_iri(article, about, decoy);

        (dbpedia, nytimes, Link::new(lebron_db, lebron_nyt))
    }

    const JOIN_QUERY: &str = "SELECT ?article WHERE { \
        ?player <http://dbpedia/award> <http://dbpedia/NBA_MVP_2013> . \
        ?article <http://nytimes/about> ?player }";

    #[test]
    fn cross_source_join_uses_links_and_reports_provenance() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);

        // "Find all NYTimes articles about the NBA MVP of 2013."
        let answers = fed.execute_str(JOIN_QUERY).unwrap();
        assert_eq!(answers.len(), 3, "three articles about LeBron: {answers:?}");
        for a in &answers {
            assert_eq!(
                a.links,
                vec![link],
                "every answer depends on the sameAs link"
            );
        }
    }

    #[test]
    fn without_links_the_join_is_empty() {
        let (dbpedia, nytimes, _) = federation_fixture();
        let fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        let answers = fed.execute_str(JOIN_QUERY).unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn single_source_answers_have_no_provenance() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);
        let answers = fed
            .execute_str("SELECT ?n WHERE { ?p <http://dbpedia/name> ?n }")
            .unwrap();
        assert_eq!(answers.len(), 1);
        assert!(answers[0].links.is_empty());
    }

    #[test]
    fn constant_subjects_are_translated() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);
        // Ask for articles about the *DBpedia* identity directly.
        let answers = fed
            .execute_str(
                "SELECT ?article WHERE { ?article <http://nytimes/about> <http://dbpedia/LeBron_James> }",
            )
            .unwrap();
        assert_eq!(answers.len(), 3);
        assert_eq!(answers[0].links, vec![link]);
    }

    #[test]
    fn wrong_link_produces_wrong_answers_with_that_provenance() {
        // The feedback loop scenario: a *wrong* link makes the decoy's
        // article show up; rejecting that answer indicts the wrong link.
        let (dbpedia, nytimes, _) = federation_fixture();
        let lebron_db = dbpedia.intern_iri("http://dbpedia/LeBron_James");
        let decoy = nytimes.intern_iri("http://nytimes/decoy");
        let wrong = Link::new(lebron_db, decoy);
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([wrong]);
        let answers = fed.execute_str(JOIN_QUERY).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].links, vec![wrong]);
    }

    #[test]
    fn remove_links_undoes_add_links() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);
        assert_eq!(fed.federation().linked_entities(), 2);
        assert_eq!(fed.federation().peers(link.left), &[link]);
        fed.remove_links([link]);
        assert_eq!(fed.federation().linked_entities(), 0);
        assert!(fed.execute_str(JOIN_QUERY).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "share the federation interner")]
    fn mixed_interners_are_rejected() {
        let a = Store::new(Interner::new_shared());
        let b = Store::new(Interner::new_shared());
        let _ = FederatedEngine::new(vec![("a".into(), &a), ("b".into(), &b)]);
    }

    #[test]
    fn order_by_and_offset_apply_federated() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);
        let answers = fed
            .execute_str(
                "SELECT ?article WHERE { ?article <http://nytimes/about> <http://dbpedia/LeBron_James> } \
                 ORDER BY DESC(?article) OFFSET 1 LIMIT 1",
            )
            .unwrap();
        assert_eq!(answers.len(), 1);
        let iri = answers[0].row[0].expect("bound").as_iri().unwrap();
        // Articles 0..2 sorted descending → [2, 1, 0]; offset 1 → article1.
        assert_eq!(&*fed.interner().resolve(iri.0), "http://nytimes/article1");
    }

    #[test]
    fn distinct_dedups_translated_duplicates() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);
        let answers = fed
            .execute_str("SELECT DISTINCT ?player WHERE { ?player <http://dbpedia/award> ?a }")
            .unwrap();
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn flawless_sources_report_clean_execution() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);
        // Per-source probe counts, pinned: the join probes each source
        // once for its first pattern and twice for its second (LeBron's
        // DBpedia IRI, then its NYTimes counterpart).
        for (q, answers, probes) in [
            (JOIN_QUERY, 3, 3),
            ("SELECT ?n WHERE { ?p <http://dbpedia/name> ?n }", 1, 1),
            (
                "SELECT DISTINCT ?player WHERE { ?player <http://dbpedia/award> ?a }",
                1,
                1,
            ),
        ] {
            let report = fed.execute_str_report(q).unwrap();
            assert_eq!(report.answers.len(), answers, "{q}");
            assert_eq!(
                report.sources,
                [
                    SourceReport {
                        name: "dbpedia".into(),
                        probes
                    },
                    SourceReport {
                        name: "nytimes".into(),
                        probes
                    }
                ],
                "{q}"
            );
        }
    }

    #[test]
    fn a_query_records_its_span_and_no_event_per_probe() {
        use alex_trace::{Payload, TraceMode};
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);

        alex_trace::configure(TraceMode::Ring).unwrap();
        let span = alex_trace::root_span("test.query");
        let trace_id = span.trace_id();
        let report = fed.execute_str_report(JOIN_QUERY).unwrap();
        drop(span);
        let events = alex_trace::recorder().trace_events(trace_id);
        alex_trace::configure(TraceMode::Off).unwrap();

        assert_eq!(report.answers.len(), 3);
        assert!(report.sources.iter().all(|s| s.probes > 1));
        let names: Vec<&str> = (events.iter())
            .map(|e| match &e.payload {
                Payload::SpanStart { name } | Payload::SpanEnd { name, .. } => name.as_str(),
                other => panic!("a query records spans only, got {other:?}"),
            })
            .collect();
        assert_eq!(
            names,
            [
                "test.query",
                "query.federated",
                "query.federated",
                "test.query"
            ]
        );
    }
}
