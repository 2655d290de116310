//! Fault-tolerance benchmark: answer recall and availability of the
//! federated engine under increasing source-fault rates.
//!
//! Builds a synthetic two-source federation (entities with facts on the
//! left, articles about them on the right, joined through owl:sameAs
//! links), then sweeps a mixed fault schedule — transient errors,
//! outages, truncation, latency spikes — over a batch of join queries at
//! each rate. Reports per rate: answer recall against the fault-free
//! baseline, availability (fraction of queries answered undegraded), and
//! the retry/timeout/breaker accounting. Writes `BENCH_faults.json`.
//!
//! Two invariants are enforced with a non-zero exit, mirroring the fault
//! integration suite:
//! - at rate 0 the resilient engine's answers are identical to the plain
//!   in-memory engine's, query for query;
//! - at every rate, answers derivable from sources that were not skipped
//!   are all returned (recall accounting is consistent with skips).
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_faults \
//!     [--entities N] [--queries Q] [--rates 0,0.1,0.3,0.5] [--seed S] [--out FILE]
//! ```

use alex_bench::runner::Flags;
use alex_query::{
    FaultConfig, FaultySource, FederatedEngine, FederationConfig, InMemorySource, QuerySource,
};
use alex_rdf::{Interner, Link, Literal, Store};
use serde::Serialize;

#[derive(Serialize)]
struct RateResult {
    fault_rate: f64,
    queries: usize,
    /// Answers returned across all queries / baseline answers.
    recall: f64,
    /// Fraction of queries answered with no skipped source.
    availability: f64,
    degraded_queries: usize,
    retries: u64,
    timeouts: u64,
    breaker_opens: u64,
    failed_probes: u64,
    /// Rate-0 only: answers byte-identical to the plain engine.
    identical_to_plain: Option<bool>,
}

#[derive(Serialize)]
struct Report {
    entities: usize,
    articles_per_entity: usize,
    queries_per_rate: usize,
    seed: u64,
    baseline_answers: usize,
    results: Vec<RateResult>,
}

struct Fixture {
    left: Store,
    right: Store,
    links: Vec<Link>,
    queries: Vec<String>,
}

/// `entities` left-side subjects each holding one award fact, three
/// right-side articles per entity, one sameAs link per entity. Each
/// per-entity join query returns exactly three answers when healthy.
fn build_fixture(entities: usize) -> Fixture {
    let interner = Interner::new_shared();
    let mut left = Store::new(interner.clone());
    let mut right = Store::new(interner.clone());
    let mut links = Vec::new();
    let mut queries = Vec::new();
    let award = left.intern_iri("http://left/award");
    let about = right.intern_iri("http://right/about");
    for i in 0..entities {
        let person = left.intern_iri(&format!("http://left/person{i}"));
        let prize = left.intern_iri(&format!("http://left/prize{i}"));
        left.insert_iri(person, award, prize);
        left.insert_literal(
            person,
            left.intern_iri("http://left/name"),
            Literal::str(&interner, &format!("person number {i}")),
        );
        let twin = right.intern_iri(&format!("http://right/person{i}"));
        for a in 0..3 {
            let article = right.intern_iri(&format!("http://right/article{i}_{a}"));
            right.insert_iri(article, about, twin);
        }
        links.push(Link::new(person, twin));
        queries.push(format!(
            "SELECT ?article WHERE {{ \
             ?p <http://left/award> <http://left/prize{i}> . \
             ?article <http://right/about> ?p }}"
        ));
    }
    Fixture {
        left,
        right,
        links,
        queries,
    }
}

fn main() {
    let flags = Flags::parse(&["--entities", "--queries", "--seed", "--out", "--rates"]);
    let entities: usize = flags.get("--entities").unwrap_or(24);
    let queries_per_rate: usize = flags.get("--queries").unwrap_or(48);
    let seed: u64 = flags.get("--seed").unwrap_or(0xFA0715);
    let out_path: String = flags.get("--out").unwrap_or("BENCH_faults.json".into());
    let mut rates: Vec<f64> = flags
        .list("--rates")
        .unwrap_or(vec![0.0, 0.1, 0.3, 0.5])
        .into_iter()
        .filter(|r| (0.0..=1.0).contains(r))
        .collect();
    if rates.is_empty() || rates[0] != 0.0 {
        rates.insert(0, 0.0); // rate 0 anchors the identity check
    }

    let fx = build_fixture(entities);
    println!(
        "federation: {} left / {} right triples, {} links, {} queries per rate",
        fx.left.len(),
        fx.right.len(),
        fx.links.len(),
        queries_per_rate
    );

    // The plain (pre-resilience) engine is the ground truth at rate 0.
    let mut plain = FederatedEngine::new(vec![
        ("left".to_string(), &fx.left),
        ("right".to_string(), &fx.right),
    ]);
    plain.add_links(fx.links.iter().copied());
    let plain_answers: Vec<_> = (0..queries_per_rate)
        .map(|q| {
            plain
                .execute_str(&fx.queries[q % fx.queries.len()])
                .unwrap()
        })
        .collect();
    let baseline_answers: usize = plain_answers.iter().map(Vec::len).sum();

    // Generous retry budget: the sweep measures degradation under real
    // pressure, not an artificially hamstrung client.
    let fed_cfg = FederationConfig {
        max_retries: 4,
        ..FederationConfig::default()
    };

    println!(
        "{:>6} | {:>7} | {:>12} | {:>8} | {:>8} | {:>8} | {:>8}",
        "rate", "recall", "availability", "degraded", "retries", "timeouts", "breakers"
    );

    let mut results = Vec::new();
    let mut failed = false;
    for &rate in &rates {
        let mut fed = FederatedEngine::from_sources(
            vec![
                Box::new(FaultySource::new(
                    InMemorySource::new("left", &fx.left),
                    FaultConfig::mixed(rate, seed),
                )) as Box<dyn QuerySource>,
                Box::new(FaultySource::new(
                    InMemorySource::new("right", &fx.right),
                    FaultConfig::mixed(rate, seed ^ 0x9E37),
                )),
            ],
            fed_cfg,
        );
        fed.add_links(fx.links.iter().copied());

        let mut answered = 0usize;
        let mut degraded_queries = 0usize;
        let mut retries = 0u64;
        let mut timeouts = 0u64;
        let mut breaker_opens = 0u64;
        let mut failed_probes = 0u64;
        let mut identical = true;
        for (q, plain) in plain_answers.iter().enumerate() {
            let report = fed
                .execute_str_report(&fx.queries[q % fx.queries.len()])
                .unwrap();
            answered += report.answers.len();
            degraded_queries += usize::from(report.degraded);
            retries += report.total_retries();
            timeouts += report.total_timeouts();
            breaker_opens += report.total_breaker_opens();
            failed_probes += report.total_failed_probes();
            identical &= &report.answers == plain;
            // Consistency: a query that skipped nothing must return the
            // full answer set the plain engine found.
            if !report.degraded && report.answers.len() != plain.len() {
                eprintln!(
                    "FAIL: rate {rate} query {q}: undegraded but {} of {} answers",
                    report.answers.len(),
                    plain.len()
                );
                failed = true;
            }
        }
        let recall = answered as f64 / baseline_answers.max(1) as f64;
        let availability = 1.0 - degraded_queries as f64 / queries_per_rate.max(1) as f64;
        let identical_to_plain = (rate == 0.0).then_some(identical);
        if rate == 0.0 && !identical {
            eprintln!("FAIL: rate 0 diverged from the plain engine's answers");
            failed = true;
        }
        println!(
            "{:>6.2} | {:>6.1}% | {:>11.1}% | {:>8} | {:>8} | {:>8} | {:>8}",
            rate,
            recall * 100.0,
            availability * 100.0,
            degraded_queries,
            retries,
            timeouts,
            breaker_opens
        );
        results.push(RateResult {
            fault_rate: rate,
            queries: queries_per_rate,
            recall,
            availability,
            degraded_queries,
            retries,
            timeouts,
            breaker_opens,
            failed_probes,
            identical_to_plain,
        });
    }

    let report = Report {
        entities,
        articles_per_entity: 3,
        queries_per_rate,
        seed,
        baseline_answers,
        results,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write benchmark report");
    println!("wrote {out_path}");

    if failed {
        std::process::exit(1);
    }
}
