//! Deterministic fault-injection integration tests for the federated
//! engine's resilience machinery: retries, per-source budgets, and the
//! circuit breaker's full state walk.
//!
//! Every test is seeded through `ALEX_TEST_SEED` (see
//! [`alex_rdf::test_seed`]): set the variable to re-run the suite under a
//! different fault schedule. The fault model runs on a virtual clock, so
//! results are identical at every thread count — one test pins that down
//! explicitly by sweeping `ALEX_THREADS`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use alex_query::{
    BreakerKind, FaultConfig, FaultySource, FederatedEngine, FederationConfig, InMemorySource,
    Probe, QueryReport, QuerySource, SourceError,
};
use alex_rdf::{Interner, IriId, Link, Literal, Store, Term};

/// The paper's motivating federation: NYTimes articles about entities
/// DBpedia knows facts about, joined through one owl:sameAs link.
fn fixture() -> (Store, Store, Link) {
    let interner = Interner::new_shared();
    let mut dbpedia = Store::new(interner.clone());
    let mut nytimes = Store::new(interner.clone());

    let lebron_db = dbpedia.intern_iri("http://dbpedia/LeBron_James");
    let award = dbpedia.intern_iri("http://dbpedia/award");
    let mvp = dbpedia.intern_iri("http://dbpedia/NBA_MVP_2013");
    dbpedia.insert_iri(lebron_db, award, mvp);
    let name = dbpedia.intern_iri("http://dbpedia/name");
    dbpedia.insert_literal(lebron_db, name, Literal::str(&interner, "LeBron James"));

    let lebron_nyt = nytimes.intern_iri("http://nytimes/lebron");
    let about = nytimes.intern_iri("http://nytimes/about");
    for i in 0..3 {
        let article = nytimes.intern_iri(&format!("http://nytimes/article{i}"));
        nytimes.insert_iri(article, about, lebron_nyt);
    }

    (dbpedia, nytimes, Link::new(lebron_db, lebron_nyt))
}

const JOIN_QUERY: &str = "SELECT ?article WHERE { \
    ?player <http://dbpedia/award> <http://dbpedia/NBA_MVP_2013> . \
    ?article <http://nytimes/about> ?player }";

const DBPEDIA_ONLY_QUERY: &str = "SELECT ?n WHERE { ?p <http://dbpedia/name> ?n }";

/// A source that fails according to an exact script, then serves the
/// wrapped store — for pinning down breaker transitions precisely.
struct ScriptedSource<'a> {
    inner: InMemorySource<'a>,
    script: Mutex<VecDeque<SourceError>>,
    fail_cost_ms: u64,
}

impl<'a> ScriptedSource<'a> {
    fn new(name: &str, store: &'a Store, script: Vec<SourceError>) -> Self {
        Self {
            inner: InMemorySource::new(name, store),
            script: Mutex::new(script.into()),
            fail_cost_ms: 1,
        }
    }
}

impl QuerySource for ScriptedSource<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn interner(&self) -> &Arc<Interner> {
        self.inner.interner()
    }

    fn probe(
        &self,
        subject: Option<IriId>,
        predicate: Option<IriId>,
        object: Option<Term>,
        deadline_ms: u64,
    ) -> Probe {
        if let Some(err) = self.script.lock().unwrap().pop_front() {
            return Probe::fail(err, self.fail_cost_ms);
        }
        self.inner.probe(subject, predicate, object, deadline_ms)
    }
}

/// (answers, degraded, skipped sources, retries, timeouts, breaker opens).
type Digest = (Vec<String>, bool, Vec<String>, u64, u64, u64);

/// Collapses a report into something directly comparable across runs.
fn digest(report: &QueryReport) -> Digest {
    let answers = report
        .answers
        .iter()
        .map(|a| format!("{:?}|{:?}", a.row, a.links))
        .collect();
    let skipped = report
        .skipped_sources()
        .iter()
        .map(|s| s.to_string())
        .collect();
    (
        answers,
        report.degraded,
        skipped,
        report.total_retries(),
        report.total_timeouts(),
        report.total_breaker_opens(),
    )
}

#[test]
fn breaker_walks_closed_open_halfopen_closed() {
    let (dbpedia, nytimes, link) = fixture();
    // Two scripted failures with retries off and threshold 2: the breaker
    // opens during the first query. A short cooldown measured on the
    // virtual clock (advanced by the healthy source's 1 ms probes) lets
    // it reach half-open, and the first success closes it again.
    let cfg = FederationConfig {
        max_retries: 0,
        breaker_threshold: 2,
        breaker_cooldown_ms: 20,
        breaker_halfopen_successes: 1,
        ..FederationConfig::default()
    };
    let healthy = FaultConfig {
        base_latency_ms: 1,
        ..FaultConfig::default()
    };
    let mut fed = FederatedEngine::from_sources(
        vec![
            Box::new(FaultySource::new(
                InMemorySource::new("dbpedia", &dbpedia),
                healthy,
            )),
            Box::new(ScriptedSource::new(
                "nytimes",
                &nytimes,
                vec![
                    SourceError::Transient("script 1".into()),
                    SourceError::Transient("script 2".into()),
                ],
            )),
        ],
        cfg,
    );
    fed.add_links([link]);

    assert_eq!(fed.breaker_states(), vec![BreakerKind::Closed; 2]);

    // Query 1: both scripted failures burn through (no retries), tripping
    // the breaker mid-query. The join degrades to empty.
    let report = fed.execute_str_report(JOIN_QUERY).unwrap();
    assert!(report.degraded);
    assert_eq!(report.skipped_sources(), vec!["nytimes"]);
    assert_eq!(report.total_breaker_opens(), 1);
    assert_eq!(fed.breaker_states()[1], BreakerKind::Open);

    // While open, nytimes is skipped without being probed at all.
    let report = fed.execute_str_report(JOIN_QUERY).unwrap();
    assert!(report.degraded);
    assert_eq!(report.sources[1].probes, 0, "open breaker fails fast");
    assert!(report.sources[1].breaker_skipped > 0);

    // Keep querying: the healthy source's probes advance the virtual
    // clock past the cooldown, the breaker half-opens, the scripted
    // source (script exhausted) answers, and the breaker closes. The
    // walk is bounded: each query advances the clock by at least 1 ms.
    let mut walked = Vec::new();
    for _ in 0..32 {
        let report = fed.execute_str_report(JOIN_QUERY).unwrap();
        walked.push(fed.breaker_states()[1]);
        if fed.breaker_states()[1] == BreakerKind::Closed {
            assert!(!report.degraded, "recovered source serves the join again");
            assert_eq!(report.answers.len(), 3);
            break;
        }
    }
    assert_eq!(
        walked.last(),
        Some(&BreakerKind::Closed),
        "breaker never recovered: {walked:?}"
    );
}

#[test]
fn half_open_failure_reopens_the_breaker() {
    let (dbpedia, nytimes, link) = fixture();
    let cfg = FederationConfig {
        max_retries: 0,
        breaker_threshold: 1,
        breaker_cooldown_ms: 2,
        ..FederationConfig::default()
    };
    let healthy = FaultConfig {
        base_latency_ms: 1,
        ..FaultConfig::default()
    };
    // Script: one failure to open the breaker, then another failure for
    // the half-open probe — which must slam the breaker shut again.
    let mut fed = FederatedEngine::from_sources(
        vec![
            Box::new(FaultySource::new(
                InMemorySource::new("dbpedia", &dbpedia),
                healthy,
            )),
            Box::new(ScriptedSource::new(
                "nytimes",
                &nytimes,
                vec![
                    SourceError::Transient("open it".into()),
                    SourceError::Transient("half-open trial fails".into()),
                ],
            )),
        ],
        cfg,
    );
    fed.add_links([link]);

    // `breaker_opened` counts every transition into Open. The initial
    // failure accounts for one; the failed half-open trial must account
    // for a second — totalled across the whole run, since the virtual
    // clock can carry the breaker through open → half-open → open within
    // a single multi-pattern query.
    let mut opened = 0;
    for _ in 0..32 {
        let report = fed.execute_str_report(JOIN_QUERY).unwrap();
        opened += report.sources[1].breaker_opened;
        if fed.breaker_states()[1] == BreakerKind::Closed {
            break;
        }
    }
    assert_eq!(fed.breaker_states()[1], BreakerKind::Closed);
    assert!(
        opened >= 2,
        "expected the initial open plus a half-open reopen, saw {opened}"
    );
}

#[test]
fn thirty_percent_transient_faults_lose_no_answers() {
    let (dbpedia, nytimes, link) = fixture();
    let seed = alex_rdf::test_seed(0xFA0715);
    // Acceptance bar: at a 30% transient-failure rate the engine still
    // returns every answer derivable from reachable sources.
    let cfg = FederationConfig {
        max_retries: 6,
        source_budget_ms: 60_000,
        ..FederationConfig::default()
    };
    for salt in 0..4u64 {
        let mut fed = FederatedEngine::from_sources(
            vec![
                Box::new(FaultySource::new(
                    InMemorySource::new("dbpedia", &dbpedia),
                    FaultConfig::transient(0.3, seed ^ salt),
                )),
                Box::new(FaultySource::new(
                    InMemorySource::new("nytimes", &nytimes),
                    FaultConfig::transient(0.3, seed ^ salt ^ 0xB00),
                )),
            ],
            cfg,
        );
        fed.add_links([link]);
        let report = fed.execute_str_report(JOIN_QUERY).unwrap();
        assert_eq!(report.answers.len(), 3, "salt {salt}: lost answers");
        assert!(!report.degraded, "salt {salt}: retries should recover");
    }
}

#[test]
fn dead_source_degrades_but_reachable_answers_survive() {
    let (dbpedia, nytimes, link) = fixture();
    let seed = alex_rdf::test_seed(0xDEAD);
    let mut fed = FederatedEngine::from_sources(
        vec![
            Box::new(FaultySource::new(
                InMemorySource::new("dbpedia", &dbpedia),
                FaultConfig::default(),
            )),
            Box::new(FaultySource::new(
                InMemorySource::new("nytimes", &nytimes),
                FaultConfig {
                    outage_rate: 1.0,
                    seed,
                    ..FaultConfig::default()
                },
            )),
        ],
        FederationConfig::default(),
    );
    fed.add_links([link]);

    // The join needs the dead source: degraded, and the skip is reported.
    let report = fed.execute_str_report(JOIN_QUERY).unwrap();
    assert!(report.degraded);
    assert_eq!(report.skipped_sources(), vec!["nytimes"]);

    // Answers derivable from the live source alone still come back whole.
    let report = fed.execute_str_report(DBPEDIA_ONLY_QUERY).unwrap();
    assert_eq!(report.answers.len(), 1);
}

#[test]
fn degraded_results_are_identical_across_thread_counts() {
    let (dbpedia, nytimes, link) = fixture();
    let seed = alex_rdf::test_seed(0x7EAD_C0DE);
    let cfg = FederationConfig {
        max_retries: 1,
        ..FederationConfig::default()
    };

    let run = |threads: &str| -> Vec<Digest> {
        std::env::set_var("ALEX_THREADS", threads);
        let mut fed = FederatedEngine::from_sources(
            vec![
                Box::new(FaultySource::new(
                    InMemorySource::new("dbpedia", &dbpedia),
                    FaultConfig::mixed(0.4, seed),
                )),
                Box::new(FaultySource::new(
                    InMemorySource::new("nytimes", &nytimes),
                    FaultConfig::mixed(0.4, seed ^ 0x99),
                )),
            ],
            cfg,
        );
        fed.add_links([link]);
        // Several queries in sequence: per-pattern attempt counters and
        // breaker state evolve across them, so any thread-dependent
        // wobble would compound and show up here.
        (0..6)
            .map(|_| digest(&fed.execute_str_report(JOIN_QUERY).unwrap()))
            .collect()
    };

    let single = run("1");
    let quad = run("4");
    std::env::remove_var("ALEX_THREADS");
    assert_eq!(
        single, quad,
        "fault schedule must be independent of the thread count"
    );
    // And at least one query in the sequence actually exercised a fault,
    // or the comparison proves nothing.
    assert!(
        single.iter().any(|d| d.3 > 0 || d.1),
        "seed produced a fault-free run — sweep is vacuous: {single:?}"
    );
}

#[test]
fn identical_seeds_reproduce_identical_reports() {
    let (dbpedia, nytimes, link) = fixture();
    let seed = alex_rdf::test_seed(0x5EED);
    let make = || {
        let mut fed = FederatedEngine::from_sources(
            vec![
                Box::new(FaultySource::new(
                    InMemorySource::new("dbpedia", &dbpedia),
                    FaultConfig::mixed(0.5, seed),
                )) as Box<dyn QuerySource>,
                Box::new(FaultySource::new(
                    InMemorySource::new("nytimes", &nytimes),
                    FaultConfig::mixed(0.5, seed ^ 0x42),
                )),
            ],
            FederationConfig::default(),
        );
        fed.add_links([link]);
        (0..4)
            .map(|_| digest(&fed.execute_str_report(JOIN_QUERY).unwrap()))
            .collect::<Vec<_>>()
    };
    assert_eq!(make(), make(), "same seed, same schedule, same reports");
}

#[test]
fn breaker_state_survives_a_link_delta() {
    let (dbpedia, nytimes, link) = fixture();
    let seed = alex_rdf::test_seed(0xB4EA);
    let other = Link::new(
        dbpedia.intern_iri("http://dbpedia/Someone_Else"),
        nytimes.intern_iri("http://nytimes/someone_else"),
    );
    let cfg = FederationConfig {
        breaker_cooldown_ms: 1_000_000,
        ..FederationConfig::default()
    };
    // Two engines kept across their queries, the way `alex query` and
    // `exp_faults` keep one; the breaker state is the engine's own.
    let engine = || {
        let mut fed = FederatedEngine::from_sources(
            vec![
                Box::new(InMemorySource::new("dbpedia", &dbpedia)) as Box<dyn QuerySource>,
                Box::new(FaultySource::new(
                    InMemorySource::new("nytimes", &nytimes),
                    FaultConfig {
                        outage_rate: 1.0,
                        seed,
                        ..FaultConfig::default()
                    },
                )),
            ],
            cfg,
        );
        fed.add_links([link]);
        fed.execute_str_report(JOIN_QUERY).unwrap();
        assert_eq!(fed.breaker_states()[1], BreakerKind::Open, "trip it first");
        fed
    };
    let mut patched = engine();
    let untouched = engine();

    // The delta: one link in, the query's own link out and back in.
    patched.add_links([other]);
    patched.remove_links([link]);
    patched.add_links([link]);

    let after_delta = patched.execute_str_report(JOIN_QUERY).unwrap();
    let no_delta = untouched.execute_str_report(JOIN_QUERY).unwrap();
    assert_eq!(digest(&after_delta), digest(&no_delta));
    assert_eq!(after_delta.sources, no_delta.sources);
    assert_eq!(after_delta.sources[1].breaker, Some(BreakerKind::Open));
    assert_eq!(after_delta.sources[1].probes, 0, "the open breaker held");
    assert_eq!(patched.breaker_states(), untouched.breaker_states());
    assert_eq!(patched.virtual_clock_ms(), untouched.virtual_clock_ms());
    assert!(
        patched.virtual_clock_ms() > 0,
        "the outage cost virtual time"
    );
}
