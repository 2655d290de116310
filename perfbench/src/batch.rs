//! `batch_s4`: the paper's batch mode, in-process through library calls.
//!
//! Each repetition parses the `.nt` files, runs PARIS as the automatic
//! linker stage (its output fingerprinted), builds `AlexDriver`, runs a fixed
//! number of 550-item episodes judged by the exact oracle with point queries
//! against the links curated so far after each one, and resumes the session
//! from its JSON snapshot the way `alex curate --session` does after a crash.
//!
//! Feedback latency is per item: the time ALEX takes to process one verdict
//! and sample the next link. Its quantiles, like the queries', are taken
//! over every sample of every repetition, which spreads them across the
//! whole run: on a shared host the same work runs up to half again as slow
//! for a second or more at a time.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Instant;

use alex_core::{ExactOracle, FeedbackOracle, PartitionEpisodeStats, SessionSnapshot};
use alex_paris::{ParisConfig, ParisLinker, ParisOutput};
use alex_rdf::Link;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::data::{self, Dataset};
use crate::pipeline;
use crate::stats::{self, median, quantile, Metrics};
use crate::trace::{self, span};
use crate::{Checks, Ctx, Outcome};

/// Dataset scale (≈41.7k + 23.9k triples).
const SCALE: f64 = 4.0;
/// Feedback items per episode (25% of the scale-4 ground truth).
const EPISODE_SIZE: usize = 550;
/// Episodes per repetition: fixed, not run to convergence, so every
/// repetition does the same work.
const EPISODES: usize = 10;
/// Point queries after each episode against the links curated so far.
const QUERIES_PER_EPISODE: usize = 100;
/// Repetitions per untraced run; they repeat identical work.
const REPS: usize = 4;

struct Sizes {
    scale: f64,
    episode_size: usize,
    episodes: usize,
    queries_per_episode: usize,
    reps: usize,
}

fn sizes(ctx: &Ctx) -> Sizes {
    if ctx.smoke {
        Sizes {
            scale: 0.1,
            episode_size: 25,
            episodes: 3,
            queries_per_episode: 4,
            reps: 2,
        }
    } else {
        Sizes {
            scale: SCALE,
            episode_size: EPISODE_SIZE,
            episodes: EPISODES,
            queries_per_episode: QUERIES_PER_EPISODE,
            reps: REPS,
        }
    }
}

/// One repetition's measurements and outputs.
struct Rep {
    setup_s: f64,
    step_ms: Vec<f64>,
    /// Per-item feedback processing time, approvals and rejections.
    feedback_ms: Vec<f64>,
    query_ms: Vec<f64>,
    restart_s: f64,
    f1: f64,
    paris_fp: u64,
    links_fp: u64,
    restored_fp: u64,
    wall_s: f64,
    paris: ParisOutput,
    layers: Metrics,
}

/// The exact oracle, timing the gap between consecutive `judge` calls on
/// each partition thread: each gap is the cost of processing the previous
/// verdict (plus sampling the next link).
struct TimingOracle<'a> {
    inner: &'a ExactOracle,
    approve_us: Mutex<Vec<f64>>,
    reject_us: Mutex<Vec<f64>>,
}

thread_local! {
    static LAST_JUDGED: Cell<Option<(Instant, bool)>> = const { Cell::new(None) };
}

impl FeedbackOracle for TimingOracle<'_> {
    fn judge(&self, link: Link, rng: &mut StdRng) -> Option<bool> {
        let now = Instant::now();
        if let Some((then, verdict)) = LAST_JUDGED.get() {
            let us = now.duration_since(then).as_secs_f64() * 1e6;
            let sink = if verdict {
                &self.approve_us
            } else {
                &self.reject_us
            };
            sink.lock().expect("timing lock").push(us);
        }
        let verdict = self.inner.judge(link, rng);
        LAST_JUDGED.set(verdict.map(|v| (Instant::now(), v)));
        verdict
    }
}

fn paris_fingerprint(
    out: &ParisOutput,
    ds_left: &alex_rdf::Store,
    ds_right: &alex_rdf::Store,
) -> u64 {
    let mut rows: Vec<String> = out
        .links
        .iter()
        .map(|s| {
            format!(
                "{} {} {:016x}",
                ds_left.iri_str(s.link.left),
                ds_right.iri_str(s.link.right),
                s.score.to_bits()
            )
        })
        .collect();
    rows.sort();
    stats::fingerprint(rows.iter().map(String::as_str))
}

fn rep(ctx: &Ctx, ds: &Dataset, sz: &Sizes, traced: bool, rep_no: usize) -> Rep {
    trace::set_enabled(traced);
    let wall = Instant::now();
    let root = span("bench", "bench.batch_rep");

    // Set-up: parse, PARIS, space build — everything before episode 1.
    let t = Instant::now();
    let setup_span = span("bench", "bench.setup");
    let (left, right) = data::load(ds);
    let paris = {
        let _span = span("paris", "paris.run");
        ParisLinker::new(ParisConfig {
            threads: crate::THREADS,
            ..ParisConfig::default()
        })
        .run(&left, &right)
    };
    let initial = data::links(&ds.initial, &left, &right);
    let cfg = crate::alex_config(sz.episode_size, crate::ALEX_SEED);
    let mut driver = pipeline::build_driver(&left, &right, &initial, cfg);
    drop(setup_span);
    let setup_s = t.elapsed().as_secs_f64();

    let paris_fp = paris_fingerprint(&paris, &left, &right);
    let truth: HashSet<Link> = pipeline::truth_set(&ds.truth, &left, &right);
    let exact = ExactOracle::new(truth);
    let timing = TimingOracle {
        inner: &exact,
        approve_us: Mutex::new(Vec::new()),
        reject_us: Mutex::new(Vec::new()),
    };

    // Each episode is followed by point queries about left entities drawn
    // from the links curated so far, as a curator checks them between
    // episodes. Every repetition draws the same entities.
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xBA7C);
    let mut step_ms = Vec::with_capacity(sz.episodes);
    let mut query = Vec::with_capacity(sz.episodes * sz.queries_per_episode);
    let mut query_ms = Vec::with_capacity(sz.episodes * sz.queries_per_episode);
    let mut totals = PartitionEpisodeStats::default();
    for _ in 0..sz.episodes {
        let t = Instant::now();
        {
            let _span = span("driver", "driver.step");
            totals.merge(&driver.step(&timing));
        }
        step_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let mut entities: Vec<String> = driver
            .candidate_links()
            .iter()
            .map(|l| left.iri_str(l.left).to_string())
            .collect();
        entities.sort_unstable();
        entities.dedup();
        for _ in 0..sz.queries_per_episode {
            let l = &entities[rng.gen_range(0..entities.len())];
            let t = Instant::now();
            let _span = span("bench", "bench.query");
            query.push(pipeline::timed_query(
                &left,
                &right,
                &driver,
                &pipeline::point_query(l),
            ));
            query_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    let (candidates, _) = pipeline::captured_links(&driver, &left, &right);
    let links_fp = stats::link_fingerprint(&candidates);
    let f1 = stats::f1(&candidates, &ds.truth);
    let approve_us = timing.approve_us.into_inner().expect("timing lock");
    let reject_us = timing.reject_us.into_inner().expect("timing lock");
    let feedback_ms: Vec<f64> = approve_us
        .iter()
        .chain(&reject_us)
        .map(|us| us / 1e3)
        .collect();

    let mut layers = Metrics::default();
    if traced {
        pipeline::space_layer_metrics(&mut layers, &driver);
        pipeline::session_layer_metrics(&mut layers, &driver, &left, &right);
        pipeline::query_layer_metrics(&mut layers, &query);
        pipeline::engine_layer_metrics(&mut layers, &approve_us, &reject_us, &totals);
    }

    // Crash and resume: the session snapshot goes to disk, then a fresh
    // process-equivalent reloads the datasets and restores `AlexDriver`.
    let snap_path = ctx.work.join(format!("session-{rep_no}.json"));
    std::fs::write(
        &snap_path,
        SessionSnapshot::capture(&driver, &left, &right).to_json(),
    )
    .expect("writing the session snapshot");
    drop(driver);
    drop(left);
    drop(right);
    let t = Instant::now();
    let restored_fp = {
        let _span = span("bench", "bench.restart");
        let (left, right) = data::load(ds);
        let text = std::fs::read_to_string(&snap_path).expect("reading the session snapshot");
        let snap = SessionSnapshot::from_json(&text).expect("snapshot parses");
        let driver = {
            let _span = span("session", "session.restore");
            snap.restore(&left, &right).expect("snapshot restores")
        };
        let (restored, _) = pipeline::captured_links(&driver, &left, &right);
        stats::link_fingerprint(&restored)
    };
    let restart_s = t.elapsed().as_secs_f64();
    drop(root);
    trace::set_enabled(false);

    Rep {
        setup_s,
        step_ms,
        feedback_ms,
        query_ms,
        restart_s,
        f1,
        paris_fp,
        links_fp,
        restored_fp,
        wall_s: wall.elapsed().as_secs_f64(),
        paris,
        layers,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sz = sizes(ctx);
    let ds = data::write_dataset(&ctx.work.join("data"), sz.scale, ctx.data_seed)
        .expect("writing the generated dataset");
    println!(
        "batch: scale {} ({} + {} triples, {} truth links, {} initial links), \
         {} episodes x {} items, {} point queries after each",
        sz.scale,
        ds.left_triples,
        ds.right_triples,
        ds.truth.len(),
        ds.initial.len(),
        sz.episodes,
        sz.episode_size,
        sz.queries_per_episode
    );

    // Untraced repetitions give the end-to-end numbers; a traced run adds
    // one traced repetition after a single untraced one.
    let untraced = if ctx.trace { 1 } else { sz.reps };
    let reps: Vec<Rep> = (0..untraced)
        .map(|i| rep(ctx, &ds, &sz, false, i))
        .collect();
    let traced = ctx.trace.then(|| rep(ctx, &ds, &sz, true, reps.len()));

    let mut checks = Checks::default();
    let first = &reps[0];
    for (i, r) in reps.iter().chain(traced.as_ref()).enumerate().skip(1) {
        let label = if ctx.trace {
            "traced".to_string()
        } else {
            format!("repeat {i}")
        };
        ctx.check_fingerprint(
            &mut checks,
            &format!("PARIS links, {label} vs first"),
            r.paris_fp,
            first.paris_fp,
        );
        ctx.check_fingerprint(
            &mut checks,
            &format!("final links, {label} vs first"),
            r.links_fp,
            first.links_fp,
        );
    }
    for r in reps.iter().chain(traced.as_ref()) {
        ctx.check_fingerprint(
            &mut checks,
            "restored session links vs curated",
            r.restored_fp,
            r.links_fp,
        );
    }
    checks.check(
        &format!(
            "curation improves F1 over the initial links ({:.4} -> {:.4} after {} episodes)",
            stats::f1(&ds.initial, &ds.truth),
            first.f1,
            sz.episodes
        ),
        first.f1 > stats::f1(&ds.initial, &ds.truth),
    );

    for (i, r) in reps.iter().enumerate() {
        println!(
            "batch: repetition {i}: set-up {:.3} s, curate {:.3} s, feedback p50 {:.4} p95 {:.4} ms \
             ({} items), query p50 {:.4} p95 {:.4} ms ({} queries), restart {:.3} s",
            r.setup_s,
            r.step_ms.iter().sum::<f64>() / 1e3,
            quantile(&r.feedback_ms, 0.5),
            quantile(&r.feedback_ms, 0.95),
            r.feedback_ms.len(),
            quantile(&r.query_ms, 0.5),
            quantile(&r.query_ms, 0.95),
            r.query_ms.len(),
            r.restart_s
        );
    }
    // Repetitions do identical work; latencies pool every repetition's
    // samples, set-up and restart take the median repetition.
    let feedback: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.feedback_ms.iter().copied())
        .collect();
    let queries: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.query_ms.iter().copied())
        .collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let restarts: Vec<f64> = reps.iter().map(|r| r.restart_s).collect();
    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&setups));
    e2e.set("feedback_ms.p50", quantile(&feedback, 0.5));
    e2e.set("feedback_ms.p95", quantile(&feedback, 0.95));
    e2e.set("query_ms.p50", quantile(&queries, 0.5));
    e2e.set("query_ms.p95", quantile(&queries, 0.95));
    e2e.set("rss_mb", stats::peak_rss_mb(None));
    e2e.set("restart_s", median(&restarts));

    let mut per_layer = Metrics::default();
    if let Some(t) = &traced {
        let spans = trace::drain();
        let span_s = |name: &str| trace::durations(&spans, name).iter().sum::<f64>();
        per_layer = t.layers.clone();
        per_layer.set("rdf.load_s", span_s("rdf.load"));
        let p = &t.paris.stats;
        per_layer.set("paris.run_s", span_s("paris.run"));
        per_layer.set("paris.blocking_s", p.blocking_seconds);
        per_layer.set("paris.equivalence_s", p.equivalence_seconds);
        per_layer.set("paris.alignment_s", p.alignment_seconds);
        per_layer.set("paris.candidates", t.paris.candidates_examined as f64);
        let lookups = p.cache.hits + p.cache.misses;
        per_layer.set(
            "paris.sim_hit_rate",
            p.cache.hits as f64 / lookups.max(1) as f64,
        );
        per_layer.set("driver.step_ms.p50", quantile(&t.step_ms, 0.5));
        per_layer.set("driver.step_ms.max", quantile(&t.step_ms, 1.0));
        per_layer.set("trace.overhead_s", t.wall_s - first.wall_s);
        per_layer.set("engine.final_f1", t.f1);
        trace::print_self_times(&spans, "bench.batch_rep", first.wall_s);
        ctx.write_spans(&spans);
    }
    let attempted = reps
        .iter()
        .chain(traced.as_ref())
        .map(|r| (r.step_ms.len() + r.query_ms.len() + 1) as u64)
        .sum();
    Outcome {
        end_to_end: e2e,
        per_layer,
        attempted,
        failed: 0,
        checks,
    }
}
