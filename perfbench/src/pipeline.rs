//! Library calls shared by the workloads, each wrapped in a span of its
//! layer: building `AlexDriver`, querying the curated links, capturing the
//! session, and replaying a recorded feedback script in-process.

use std::collections::HashSet;
use std::time::Instant;

use alex_core::{AlexConfig, AlexDriver, PartitionEpisodeStats, SessionSnapshot};
use alex_query::FederatedEngine;
use alex_rdf::{Link, Store};

use crate::data::{self, Dataset, Pairs};
use crate::stats::{quantile, Metrics};
use crate::trace::span;

/// A feedback batch: `(left IRI, right IRI, approve)` items.
pub type Batch = Vec<(String, String, bool)>;

/// A point query about one left entity; the federation follows its
/// sameAs links into the right dataset.
pub fn point_query(iri: &str) -> String {
    format!("SELECT ?p ?o WHERE {{ <{iri}> ?p ?o }}")
}

/// `AlexDriver::new` inside a `space` span.
pub fn build_driver(left: &Store, right: &Store, initial: &[Link], cfg: AlexConfig) -> AlexDriver {
    let _span = span("space", "space.build");
    AlexDriver::new(left, right, initial, cfg).expect("pinned configuration is valid")
}

/// The candidate links and blacklist as sorted IRI pairs, the way
/// `GET /sessions/{id}/links` renders them.
pub fn captured_links(driver: &AlexDriver, left: &Store, right: &Store) -> (Pairs, Pairs) {
    let snap = {
        let _span = span("session", "session.snapshot");
        SessionSnapshot::capture(driver, left, right)
    };
    (snap.candidates, snap.blacklist)
}

/// Timings of one query run the way the serve query route runs it.
pub struct QueryTiming {
    pub engine_build_ms: f64,
    pub execute_ms: f64,
    pub answers: usize,
}

/// Builds a federated engine over both stores plus `AlexDriver`'s candidate
/// links, then executes `text`.
pub fn timed_query(left: &Store, right: &Store, driver: &AlexDriver, text: &str) -> QueryTiming {
    let t = Instant::now();
    let fed = {
        let _span = span("query", "query.engine_build");
        let mut fed = FederatedEngine::with_config(
            vec![("left".to_string(), left), ("right".to_string(), right)],
            driver.config().federation,
        );
        let links = {
            let _span = span("driver", "driver.candidate_links");
            driver.candidate_links()
        };
        fed.add_links(links);
        fed
    };
    let engine_build_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let answers = {
        let _span = span("query", "query.execute");
        fed.execute_str_report(text)
            .expect("benchmark queries parse")
            .answers
            .len()
    };
    QueryTiming {
        engine_build_ms,
        execute_ms: t.elapsed().as_secs_f64() * 1e3,
        answers,
    }
}

/// Per-layer metrics of a batch of timed queries.
pub fn query_layer_metrics(m: &mut Metrics, timings: &[QueryTiming]) {
    let build: Vec<f64> = timings.iter().map(|q| q.engine_build_ms).collect();
    let exec: Vec<f64> = timings.iter().map(|q| q.execute_ms).collect();
    let answers: usize = timings.iter().map(|q| q.answers).sum();
    m.set("query.engine_build_ms.p50", quantile(&build, 0.5));
    m.set("query.execute_ms.p50", quantile(&exec, 0.5));
    m.set("query.execute_ms.p99", quantile(&exec, 0.99));
    m.set(
        "query.answers",
        answers as f64 / timings.len().max(1) as f64,
    );
}

/// Medians of `session.snapshot` and `driver.candidate_links` over a few
/// calls on the same driver.
pub fn session_layer_metrics(m: &mut Metrics, driver: &AlexDriver, left: &Store, right: &Store) {
    let mut snapshot_ms = Vec::new();
    let mut candidates_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let _ = captured_links(driver, left, right);
        snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let _span = span("driver", "driver.candidate_links");
        let _ = driver.candidate_links();
        candidates_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.set("session.snapshot_ms.p50", quantile(&snapshot_ms, 0.5));
    m.set(
        "driver.candidate_links_ms.p50",
        quantile(&candidates_ms, 0.5),
    );
}

/// What replaying a feedback script in-process produced.
pub struct Replay {
    pub candidates: Vec<(String, String)>,
    pub blacklist: Vec<(String, String)>,
    /// `process_feedback` time per approved / rejected item, µs.
    pub approve_us: Vec<f64>,
    pub reject_us: Vec<f64>,
    pub totals: PartitionEpisodeStats,
}

/// Loads `ds`, builds a driver from `initial` with `cfg`, and replays
/// `script` through `AlexDriver::process_feedback` / `end_episode`, as
/// the feedback route does with each batch. Returns the resulting links
/// and `AlexDriver`, stores included, for further in-process calls.
pub fn replay_script(
    ds: &Dataset,
    initial: &[(String, String)],
    cfg: AlexConfig,
    script: &[Batch],
) -> (Replay, AlexDriver, Store, Store) {
    let (left, right) = data::load(ds);
    let links = data::links(initial, &left, &right);
    let mut driver = build_driver(&left, &right, &links, cfg);
    let interner = left.interner().clone();
    let mut approve_us = Vec::new();
    let mut reject_us = Vec::new();
    let mut totals = PartitionEpisodeStats::default();
    for batch in script {
        let _span = span("driver", "driver.feedback_batch");
        for (l, r, approve) in batch {
            let link = Link::new(
                alex_rdf::IriId(interner.get(l).expect("script IRIs are in the dataset")),
                alex_rdf::IriId(interner.get(r).expect("script IRIs are in the dataset")),
            );
            let t = Instant::now();
            let _span = span("engine", "engine.process_feedback");
            driver.process_feedback(link, *approve);
            let us = t.elapsed().as_secs_f64() * 1e6;
            if *approve {
                approve_us.push(us);
            } else {
                reject_us.push(us);
            }
        }
        let _span = span("engine", "engine.end_episode");
        totals.merge(&driver.end_episode());
    }
    let (candidates, blacklist) = captured_links(&driver, &left, &right);
    (
        Replay {
            candidates,
            blacklist,
            approve_us,
            reject_us,
            totals,
        },
        driver,
        left,
        right,
    )
}

/// Engine metrics from per-verdict costs and summed episode counters.
pub fn engine_layer_metrics(
    m: &mut Metrics,
    approve_us: &[f64],
    reject_us: &[f64],
    totals: &PartitionEpisodeStats,
) {
    m.set("engine.approve_us.p50", quantile(approve_us, 0.5));
    m.set("engine.approve_us.p99", quantile(approve_us, 0.99));
    m.set("engine.reject_us.p50", quantile(reject_us, 0.5));
    m.set("engine.reject_us.p99", quantile(reject_us, 0.99));
    m.set("engine.links_added", totals.links_added as f64);
    m.set("engine.links_removed", totals.links_removed as f64);
    m.set("engine.rollbacks", totals.rollbacks as f64);
    let approvals = totals.feedback_items - totals.negative_feedback;
    m.set(
        "engine.added_per_approval",
        totals.links_added as f64 / approvals.max(1) as f64,
    );
}

/// Space-build metrics of a freshly built driver.
pub fn space_layer_metrics(m: &mut Metrics, driver: &AlexDriver) {
    let b = driver.build_stats();
    m.set("space.build_s", b.seconds);
    m.set("space.pairs", b.pairs as f64);
    let lookups = b.cache.hits + b.cache.misses;
    m.set("sim.hit_rate", b.cache.hits as f64 / lookups.max(1) as f64);
}

/// Ground truth as a set of links of the loaded stores.
pub fn truth_set(truth: &[(String, String)], left: &Store, right: &Store) -> HashSet<Link> {
    data::links(truth, left, right).into_iter().collect()
}
