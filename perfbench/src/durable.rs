//! `durable_s1`: writes beside reads on two scale-1 sessions with the WAL
//! on, then a crash with no shutdown path and a timed boot on the same
//! state until `/healthz` answers, repeated on several fresh servers.
//!
//! At scale 1 a feedback episode costs a fraction of a millisecond, so
//! HTTP, WAL appends, and serial per-session recovery dominate.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::client::{self, Client, Routes, ServerProc};
use crate::data;
use crate::pipeline;
use crate::serve::{self, CuratorMix};
use crate::stats::{self, median, quantile, Metrics};
use crate::trace::{self, span};
use crate::{Checks, Ctx, Outcome};

/// Dataset scale (≈10k + 6k triples).
const SCALE: f64 = 1.0;
/// Sessions on the server, each with its own curator connection.
const SESSIONS: usize = 2;
/// WAL compaction threshold in records; 0 keeps compaction off. With it
/// on (1,024 records), a recovered session did not always come back with
/// the links it acknowledged before the crash (2 of 5 runs), so the
/// sessions keep one log and boot replays all of it.
pub const COMPACT_AFTER_RECORDS: u64 = 0;
/// Fresh servers per run, each set up, put under the same curator load,
/// crashed and booted again: latencies pool all of them and `setup_s` and
/// `restart_s` are medians, so every metric covers several stretches of
/// the run rather than one.
const LOADS: usize = 4;
/// Feedback rounds per curator: with a point query every other round,
/// 6,000 feedback and 3,000 query samples per load.
const ROUNDS: usize = 3000;

/// WAL fsync policy. Every append still reaches the log before the
/// acknowledgement, which is all a process crash needs; flushing is left
/// to the OS because fsync latency on a shared disk swung the feedback
/// median by half between runs of identical work.
pub const FSYNC: &str = "os";

/// The per-session durability override: WAL on, [`FSYNC`], compaction at
/// [`COMPACT_AFTER_RECORDS`].
fn durability_json() -> String {
    format!(
        "{{\"wal\": true, \"fsync\": \"{FSYNC}\", \"compact_after_records\": {COMPACT_AFTER_RECORDS}}}"
    )
}

/// The value of an unlabelled counter in `/metrics` text.
fn counter(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

type Links = (data::Pairs, data::Pairs);

fn fetch_links(addr: &str) -> Vec<Links> {
    let mut c = Client::new(addr);
    (1..=SESSIONS)
        .map(|i| {
            c.request("GET", &format!("/sessions/s{i}/links"), "")
                .map(|b| serve::parse_links(&b))
                .unwrap_or_else(|e| panic!("GET /sessions/s{i}/links failed: {e:?}"))
        })
        .collect()
}

/// One server's set-up, curator load, crash, and reboot.
struct Load {
    setup_s: f64,
    /// Whether the server booted on the crashed state answered `/healthz`.
    healthy: bool,
    /// From spawning a server on the crashed state until `/healthz` answers.
    restart_s: f64,
    /// Each session's `/links` after the reboot.
    recovered: Vec<Links>,
    /// Peak RSS with both sessions loaded, sampled before the load phase.
    rss_mb: f64,
    routes: Routes,
    log: Vec<serve::Logged>,
    /// Each session's acknowledged feedback batches.
    scripts: Vec<Vec<pipeline::Batch>>,
    /// Each session's `/links` just before the crash.
    before: Vec<Links>,
    metrics_text: String,
    state_dir: PathBuf,
}

/// Starts a server on a fresh state dir, creates the sessions, runs one
/// curator per session until its rounds are done, reads back `/links` and
/// `/metrics`, kills the server with SIGKILL (no drain, no checkpoint), and
/// boots a new one on the same state dir.
fn load(
    ctx: &Ctx,
    i: usize,
    bodies: &[String],
    seeds: &[u64],
    truth: &HashSet<(String, String)>,
    rounds: usize,
) -> Load {
    let state_dir = ctx.work.join(format!("state-{i}"));
    let (server, setup_s) = serve::start_with_sessions(Some(&state_dir), true, bodies);
    let rss_mb = stats::peak_rss_mb(Some(server.pid()));

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(ctx.seconds);
    let mix = CuratorMix {
        rounds,
        queries: 1,
        query_every: 2,
        links_every: 8,
    };
    let mut logs: Vec<serve::ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let addr = &server.addr;
                s.spawn(move || {
                    let session = format!("s{}", i + 1);
                    let feedback_seed = serve::FEEDBACK_SEED + i as u64;
                    serve::curator(
                        addr,
                        &session,
                        truth,
                        seed,
                        feedback_seed,
                        mix,
                        deadline,
                        t0,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("curator thread"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let scripts: Vec<Vec<pipeline::Batch>> = logs
        .iter_mut()
        .map(|l| std::mem::take(&mut l.script))
        .collect();
    let (routes, log) = serve::merge(&mut logs);

    let before = fetch_links(&server.addr);
    let metrics_text = Client::new(&server.addr)
        .request("GET", "/metrics", "")
        .expect("GET /metrics");
    drop(server);

    let feedback_requests = routes.get("feedback").map_or(0, |r| r.ok_ms.len());
    let items: usize = scripts
        .iter()
        .map(|s| s.iter().map(Vec::len).sum::<usize>())
        .sum();
    println!(
        "durable: load {i}: set-up {setup_s:.3} s; {feedback_requests} feedback requests \
         ({items} items) in {elapsed:.2} s; WAL {} records, {} bytes, {} fsyncs",
        counter(&metrics_text, "alex_wal_appends_total"),
        counter(&metrics_text, "alex_wal_bytes_total"),
        counter(&metrics_text, "alex_wal_fsyncs_total"),
    );

    // Recovery writes nothing back after a clean SIGKILL (no torn tail, no
    // checkpoint), so the state dir stays as the crash left it.
    let t = Instant::now();
    let booted = ServerProc::spawn(Some(&state_dir), true);
    let healthy = client::wait_healthy(&booted.addr, Duration::from_secs(60));
    let restart_s = t.elapsed().as_secs_f64();
    let recovered = if healthy {
        fetch_links(&booted.addr)
    } else {
        Vec::new()
    };
    drop(booted);
    Load {
        setup_s,
        healthy,
        restart_s,
        recovered,
        rss_mb,
        routes,
        log,
        scripts,
        before,
        metrics_text,
        state_dir,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (scale, rounds, loads) = if ctx.smoke {
        (0.1, 50, 2)
    } else if ctx.trace {
        (SCALE, ROUNDS, 1)
    } else {
        (SCALE, ROUNDS, LOADS)
    };
    let ds = data::write_dataset(&ctx.work.join("data"), scale, ctx.data_seed)
        .expect("writing the generated dataset");
    let episode_size = alex_datagen::PaperPair::DbpediaNytimes.suggested_episode_size(scale);
    let durability = durability_json();
    // Per session: ALEX's seed is pinned; the run seed picks what the
    // session's curator queries (its feedback seed is pinned too).
    let alex_seeds: Vec<u64> = (0..SESSIONS as u64).map(|i| crate::ALEX_SEED + i).collect();
    let seeds: Vec<u64> = (0..SESSIONS as u64)
        .map(|i| ctx.seed.wrapping_mul(31) + i)
        .collect();
    let bodies: Vec<String> = alex_seeds
        .iter()
        .map(|&s| serve::session_body(&ds, &crate::config_json(episode_size, s, Some(&durability))))
        .collect();
    println!(
        "durable: scale {scale} ({} + {} triples), {SESSIONS} sessions with WAL, fsync={FSYNC}, \
         compaction threshold {COMPACT_AFTER_RECORDS} (0 = off), {loads} loads of {rounds} \
         curator rounds per session (each at most {} s)",
        ds.left_triples, ds.right_triples, ctx.seconds
    );

    let truth: HashSet<(String, String)> = ds.truth.iter().cloned().collect();
    let runs: Vec<Load> = (0..loads)
        .map(|i| load(ctx, i, &bodies, &seeds, &truth, rounds))
        .collect();
    let mut routes = Routes::new();
    for l in &runs {
        for (name, s) in &l.routes {
            routes.entry(name).or_default().merge(s);
        }
    }
    client::print_routes(&routes);

    // Every load applies the same script to the same sessions, so every
    // server must end with the same links.
    let mut checks = Checks::default();
    let first = &runs[0];
    for (i, l) in runs.iter().enumerate().skip(1) {
        for (k, (got, want)) in l.before.iter().zip(&first.before).enumerate() {
            ctx.check_fingerprint(
                &mut checks,
                &format!("s{} pre-crash /links, load {i} vs first", k + 1),
                stats::link_fingerprint(&got.0),
                stats::link_fingerprint(&want.0),
            );
        }
    }

    for (i, l) in runs.iter().enumerate() {
        checks.check(
            &format!("recovered server answers /healthz, load {i}"),
            l.healthy,
        );
        for (k, (after, want)) in l.recovered.iter().zip(&l.before).enumerate() {
            ctx.check_fingerprint(
                &mut checks,
                &format!("s{} recovered /links vs pre-crash, load {i}", k + 1),
                stats::link_fingerprint(&after.0),
                stats::link_fingerprint(&want.0),
            );
            ctx.check_fingerprint(
                &mut checks,
                &format!("s{} recovered blacklist vs pre-crash, load {i}", k + 1),
                stats::link_fingerprint(&after.1),
                stats::link_fingerprint(&want.1),
            );
        }
    }

    let pooled = |route: &str| -> Vec<f64> {
        runs.iter()
            .flat_map(|l| serve::latencies(&l.log, route))
            .collect()
    };
    let feedback = pooled("feedback");
    let queries = pooled("query");
    let setups: Vec<f64> = runs.iter().map(|l| l.setup_s).collect();
    let rss: Vec<f64> = runs.iter().map(|l| l.rss_mb).collect();
    let restarts: Vec<f64> = runs.iter().map(|l| l.restart_s).collect();
    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&setups));
    e2e.set("feedback_ms.p50", quantile(&feedback, 0.5));
    e2e.set("feedback_ms.p95", quantile(&feedback, 0.95));
    e2e.set("query_ms.p50", quantile(&queries, 0.5));
    e2e.set("query_ms.p95", quantile(&queries, 0.95));
    e2e.set("rss_mb", median(&rss));
    e2e.set("restart_s", median(&restarts));

    let mut per_layer = Metrics::default();
    if ctx.trace {
        let last = runs.last().expect("at least one load");
        let f1s: Vec<f64> = last
            .before
            .iter()
            .map(|(l, _)| stats::f1(l, &ds.truth))
            .collect();
        per_layer.set(
            "engine.final_f1",
            f1s.iter().sum::<f64>() / f1s.len() as f64,
        );
        // The first session's script, replayed untraced and then traced,
        // must reproduce its pre-crash links.
        let cfg = crate::alex_config(episode_size, alex_seeds[0]);
        let t = Instant::now();
        let (replay, ..) = pipeline::replay_script(&ds, &ds.initial, cfg.clone(), &last.scripts[0]);
        let replay_wall_s = t.elapsed().as_secs_f64();
        let want = stats::link_fingerprint(&last.before[0].0);
        ctx.check_fingerprint(
            &mut checks,
            "s1 in-process replay vs pre-crash /links",
            stats::link_fingerprint(&replay.candidates),
            want,
        );
        let s1_log: Vec<serve::Logged> = last
            .log
            .iter()
            .filter(|e| e.path.starts_with("/sessions/s1/"))
            .cloned()
            .collect();
        serve::traced_replay_layers(
            &mut per_layer,
            &ds,
            cfg,
            &last.scripts[0],
            &s1_log,
            replay_wall_s,
            want,
            ctx,
            &mut checks,
        );
        let replay_dir = ctx.work.join("route-replay");
        serve::replay_routes(&mut per_layer, Some(&replay_dir), true, &bodies, &last.log);

        let opts = alex_core::DurabilityConfig {
            fsync: FSYNC.to_string(),
            ..Default::default()
        }
        .to_options()
        .expect("durability options");
        let t = Instant::now();
        let outcome = {
            let _span = span("store", "store.recover_state_dir");
            alex_core::recover_state_dir(&last.state_dir, opts, COMPACT_AFTER_RECORDS)
                .expect("recovering the state dir")
        };
        per_layer.set("store.recover_state_dir_s", t.elapsed().as_secs_f64());
        per_layer.set(
            "store.replayed_records",
            outcome
                .sessions
                .iter()
                .map(|s| s.report.replayed_records)
                .sum::<u64>() as f64,
        );
        checks.check(
            &format!(
                "offline recovery rebuilt {} sessions",
                outcome.sessions.len()
            ),
            outcome.sessions.len() == SESSIONS && outcome.failures.is_empty(),
        );
        drop(outcome);
        let feedback_requests = last.routes.get("feedback").map_or(0, |r| r.ok_ms.len());
        let items: usize = last
            .scripts
            .iter()
            .map(|s| s.iter().map(Vec::len).sum::<usize>())
            .sum();
        per_layer.set(
            "store.wal_bytes_per_item",
            counter(&last.metrics_text, "alex_wal_bytes_total") / items.max(1) as f64,
        );
        per_layer.set(
            "store.fsyncs_per_request",
            counter(&last.metrics_text, "alex_wal_fsyncs_total") / feedback_requests.max(1) as f64,
        );
        trace::set_enabled(false);
        let spans = trace::drain();
        per_layer.set(
            "rdf.load_s",
            trace::durations(&spans, "rdf.load").iter().sum(),
        );
        trace::print_self_times(&spans, "bench.replay", replay_wall_s);
        ctx.write_spans(&spans);
    }

    let attempted = routes.values().map(|r| r.attempts).sum();
    let failed = routes.values().map(|r| r.failed()).sum();
    Outcome {
        end_to_end: e2e,
        per_layer,
        attempted,
        failed,
        checks,
    }
}
