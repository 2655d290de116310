//! `serve_s4`: interactive curation (the paper's Figure 1) over real TCP
//! against one scale-4 session, plus the closed-loop clients and the
//! in-process replays the serving workloads share.
//!
//! `serve_s4` runs on request but is not listed in BENCHMARK.json: on a
//! shared 2-core host its latency tails spread by more than the bounds
//! allow across runs of identical work (the reader/writer lock contention
//! amplifies every stall of the host). `durable_s1` measures the serving
//! layers at scale 1.
//!
//! Two closed-loop connections, because curators wait for replies:
//! the **curator** (the only writer, so the run is deterministic) runs a
//! fixed number of rounds, each a 5-item feedback batch drawn from its last
//! `/links` listing and judged by ground truth, with a point query about a
//! left entity every other round and a `/links` re-read every fourth; the
//! **reader** sends point queries, `/links`, and one fixed whole-dataset
//! sameAs join per thousand requests until the curator is done.

use std::collections::{BTreeSet, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use alex_serve::http::Request;
use alex_serve::{api, AppState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use crate::client::{self, timed, Client, Routes, ServerProc};
use crate::data::{self, json_str, pairs_json, Dataset, Pairs};
use crate::pipeline::{self, Batch};
use crate::stats::{self, median, sliced_quantile, Metrics};
use crate::trace::{self, span};
use crate::{Checks, Ctx, Outcome};

/// Dataset scale (≈41.7k + 23.9k triples).
const SCALE: f64 = 4.0;
/// Items per feedback request.
pub const BATCH_ITEMS: usize = 5;
/// Seed of the curators' feedback choices, pinned so every run applies the
/// same feedback script; the run seed picks what the clients query.
pub const FEEDBACK_SEED: u64 = 11;
/// Curator feedback rounds: 2,000 feedback samples, 400 per time slice,
/// so 20 per slice lie beyond the 95th percentile.
const ROUNDS: usize = 2000;
/// Set-ups per run; `setup_s` is the faster (nearest-rank median).
const SETUP_REPS: usize = 2;
/// Crash-and-recreate restarts per run; `restart_s` is the faster.
const RESTARTS: usize = 2;
/// Logged requests replayed in-process (traced run) are capped by time.
const ROUTE_REPLAY_BUDGET: Duration = Duration::from_secs(6);

/// The fixed whole-dataset sameAs join: every left entity's name with the
/// right dataset's birth year, reachable only through a sameAs link.
const JOIN_QUERY: &str = "SELECT ?e ?y WHERE { \
    ?e <http://dbpedia.example.org/ontology/name> ?n . \
    ?e <http://nytimes.example.org/elements/yearOfBirth> ?y }";

/// One logged request, for the in-process route replay.
#[derive(Clone)]
pub struct Logged {
    pub done_at: Duration,
    pub route: &'static str,
    pub method: &'static str,
    pub path: String,
    pub body: String,
    pub client_ms: f64,
}

/// How a curator mixes its requests.
#[derive(Clone, Copy)]
pub struct CuratorMix {
    /// Feedback rounds: fixed, so every run applies the same script and
    /// reaches the same links.
    pub rounds: usize,
    /// Point queries per query round.
    pub queries: usize,
    /// A query round every this many rounds.
    pub query_every: usize,
    /// A `/links` refresh every this many rounds.
    pub links_every: usize,
}

/// What a client thread did.
#[derive(Default)]
pub struct ClientLog {
    pub routes: Routes,
    /// The acknowledged feedback batches, in order (curators only).
    pub script: Vec<Batch>,
    pub log: Vec<Logged>,
}

impl ClientLog {
    /// Sends one request, books it, and logs it for the route replay.
    fn send(
        &mut self,
        client: &mut Client,
        t0: Instant,
        route: &'static str,
        method: &'static str,
        path: &str,
        body: &str,
    ) -> Option<String> {
        let out = timed(&mut self.routes, route, client, method, path, body);
        if out.is_some() {
            let client_ms = *self.routes[route].ok_ms.last().expect("just booked");
            self.log.push(Logged {
                done_at: t0.elapsed(),
                route,
                method,
                path: path.to_string(),
                body: body.to_string(),
                client_ms,
            });
        }
        out
    }
}

/// `[[l, r], ...]` under `key` of a JSON response, as IRI pairs.
fn pairs_at(value: &Value, key: &str) -> Vec<(String, String)> {
    value
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| match p.as_array()? {
            [l, r] => Some((l.as_str()?.to_string(), r.as_str()?.to_string())),
            _ => None,
        })
        .collect()
}

fn parse(body: &str) -> Value {
    serde_json::parse_value_str(body).unwrap_or(Value::Null)
}

/// Candidate links and blacklist of a `/links` response.
pub fn parse_links(body: &str) -> (Pairs, Pairs) {
    let v = parse(body);
    (pairs_at(&v, "links"), pairs_at(&v, "blacklist"))
}

pub fn query_body(text: &str) -> String {
    format!("{{\"query\": {}}}", json_str(text))
}

/// The curator: the session's only writer. Each round asks point queries
/// about entities of its last `/links` listing (chosen with `query_seed`)
/// and gives feedback on links of that listing sampled uniformly, like the
/// paper's simulated user (§7.1), with the pinned `feedback_seed`: the
/// feedback script is the same whatever the run seed or the reader does.
/// It stops after `mix.rounds` rounds, or at `deadline` on a machine too
/// slow to finish them.
#[allow(clippy::too_many_arguments)]
pub fn curator(
    addr: &str,
    session: &str,
    truth: &HashSet<(String, String)>,
    query_seed: u64,
    feedback_seed: u64,
    mix: CuratorMix,
    deadline: Instant,
    t0: Instant,
) -> ClientLog {
    let mut out = ClientLog::default();
    let mut client = Client::new(addr);
    let mut query_rng = StdRng::seed_from_u64(query_seed);
    let mut rng = StdRng::seed_from_u64(feedback_seed);
    let links_path = format!("/sessions/{session}/links");
    let query_path = format!("/sessions/{session}/query");
    let feedback_path = format!("/sessions/{session}/feedback");
    let mut candidates = out
        .send(&mut client, t0, "links", "GET", &links_path, "")
        .map(|b| parse_links(&b).0)
        .unwrap_or_default();
    let mut round = 0usize;
    while round < mix.rounds && Instant::now() < deadline {
        if round.is_multiple_of(mix.query_every) && !candidates.is_empty() {
            for _ in 0..mix.queries {
                let (l, _) = &candidates[query_rng.gen_range(0..candidates.len())];
                let body = query_body(&pipeline::point_query(l));
                out.send(&mut client, t0, "query", "POST", &query_path, &body);
            }
        }
        let mut pool: Vec<(String, String)> = Vec::with_capacity(BATCH_ITEMS);
        while pool.len() < BATCH_ITEMS.min(candidates.len()) {
            let pick = candidates[rng.gen_range(0..candidates.len())].clone();
            if !pool.contains(&pick) {
                pool.push(pick);
            }
        }
        if !pool.is_empty() {
            let batch: Batch = pool
                .into_iter()
                .map(|link| {
                    let approve = truth.contains(&link);
                    (link.0, link.1, approve)
                })
                .collect();
            let items: Vec<String> = batch
                .iter()
                .map(|(l, r, a)| {
                    format!(
                        "{{\"left\": {}, \"right\": {}, \"approve\": {a}}}",
                        json_str(l),
                        json_str(r)
                    )
                })
                .collect();
            let body = format!("{{\"items\": [{}]}}", items.join(", "));
            if out
                .send(&mut client, t0, "feedback", "POST", &feedback_path, &body)
                .is_some()
            {
                out.script.push(batch);
            }
        }
        round += 1;
        if round.is_multiple_of(mix.links_every) || candidates.is_empty() {
            if let Some(b) = out.send(&mut client, t0, "links", "GET", &links_path, "") {
                candidates = parse_links(&b).0;
            }
        }
    }
    out
}

/// The reader: in every thousand requests, 900 point queries about the
/// initial links' left entities, 99 `/links`, and one whole-dataset join
/// (rare, so that its lock hold does not decide the feedback tail).
fn reader(
    addr: &str,
    session: &str,
    entities: &[String],
    seed: u64,
    stop: &AtomicBool,
    t0: Instant,
) -> ClientLog {
    let mut out = ClientLog::default();
    let mut client = Client::new(addr);
    let mut rng = StdRng::seed_from_u64(seed);
    let links_path = format!("/sessions/{session}/links");
    let query_path = format!("/sessions/{session}/query");
    let join = query_body(JOIN_QUERY);
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        match i % 1000 {
            0..=899 => {
                let e = &entities[rng.gen_range(0..entities.len())];
                let body = query_body(&pipeline::point_query(e));
                out.send(&mut client, t0, "query", "POST", &query_path, &body);
            }
            900..=998 => {
                out.send(&mut client, t0, "links", "GET", &links_path, "");
            }
            _ => {
                out.send(&mut client, t0, "join", "POST", &query_path, &join);
            }
        }
        i += 1;
    }
    out
}

/// Merges client logs: routes summed, request logs in completion order.
pub fn merge(logs: &mut [ClientLog]) -> (Routes, Vec<Logged>) {
    let mut routes = Routes::new();
    let mut log = Vec::new();
    for l in logs.iter_mut() {
        for (name, s) in &l.routes {
            routes.entry(name).or_default().merge(s);
        }
        log.append(&mut l.log);
    }
    log.sort_by_key(|e| e.done_at);
    (routes, log)
}

/// Client latencies of `route`'s successful requests, in completion order.
pub fn latencies(log: &[Logged], route: &str) -> Vec<f64> {
    log.iter()
        .filter(|e| e.route == route)
        .map(|e| e.client_ms)
        .collect()
}

/// The `POST /sessions` body for `ds` with the pinned configuration.
pub fn session_body(ds: &Dataset, config: &str) -> String {
    let abs = |p: &Path| {
        std::fs::canonicalize(p)
            .expect("dataset path")
            .to_string_lossy()
            .into_owned()
    };
    format!(
        "{{\"left\": {}, \"right\": {}, \"links\": {}, \"config\": {config}}}",
        json_str(&abs(&ds.left)),
        json_str(&abs(&ds.right)),
        pairs_json(&ds.initial)
    )
}

/// Starts a server and creates `bodies` as sessions; returns the server
/// and the time from spawn to the last `201`.
pub fn start_with_sessions(
    state_dir: Option<&Path>,
    wal: bool,
    bodies: &[String],
) -> (ServerProc, f64) {
    let t = Instant::now();
    let server = ServerProc::spawn(state_dir, wal);
    let mut c = Client::new(&server.addr);
    for body in bodies {
        if let Err(e) = c.request("POST", "/sessions", body) {
            panic!("creating a session failed: {e:?}");
        }
    }
    let took = t.elapsed().as_secs_f64();
    (server, took)
}

/// Per-route latency of `api::route` over the logged requests, replayed
/// in order on a fresh in-process `AppState` after creating `bodies`;
/// transport time is each request's client latency minus its route time.
pub fn replay_routes(
    m: &mut Metrics,
    state_dir: Option<&Path>,
    wal: bool,
    bodies: &[String],
    log: &[Logged],
) {
    let mut app = AppState::new(state_dir.map(Path::to_path_buf));
    app.durability = alex_core::DurabilityConfig {
        wal,
        fsync: crate::durable::FSYNC.to_string(),
        compact_after_records: crate::durable::COMPACT_AFTER_RECORDS,
        ..Default::default()
    };
    let request = |method: &str, path: &str, body: &str| Request {
        method: method.to_string(),
        path: path.to_string(),
        query: None,
        http11: true,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    for body in bodies {
        let (_, resp) = api::route(&app, &request("POST", "/sessions", body));
        assert_eq!(resp.status, 201, "in-process session create failed");
    }
    let started = Instant::now();
    let mut route_ms: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut transport_ms = Vec::new();
    for e in log {
        if started.elapsed() > ROUTE_REPLAY_BUDGET {
            break;
        }
        let req = request(e.method, &e.path, &e.body);
        let t = Instant::now();
        let (_, resp) = {
            let _span = span("serve", "serve.route");
            api::route(&app, &req)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if (200..300).contains(&resp.status) {
            route_ms.entry(e.route).or_default().push(ms);
            transport_ms.push(e.client_ms - ms);
        }
    }
    println!(
        "route replay: {} of {} logged requests in {:.2} s",
        transport_ms.len(),
        log.len(),
        started.elapsed().as_secs_f64()
    );
    for (route, metric) in [
        ("query", "serve.route_ms.query.p50"),
        ("feedback", "serve.route_ms.feedback.p50"),
        ("links", "serve.route_ms.links.p50"),
    ] {
        m.set(
            metric,
            median(route_ms.get(route).map_or(&[][..], Vec::as_slice)),
        );
    }
    m.set("serve.transport_ms.p50", median(&transport_ms));
}

/// Per-layer metrics shared by the serving workloads, from a traced
/// in-process replay of `script` (session `config`): load, space build,
/// engine costs, session reads, and the logged point queries.
#[allow(clippy::too_many_arguments)]
pub fn traced_replay_layers(
    m: &mut Metrics,
    ds: &Dataset,
    cfg: alex_core::AlexConfig,
    script: &[Batch],
    log: &[Logged],
    untraced_wall_s: f64,
    want_fp: u64,
    ctx: &Ctx,
    checks: &mut Checks,
) {
    trace::set_enabled(true);
    let t = Instant::now();
    let (replay, driver, left, right) = {
        let _root = span("bench", "bench.replay");
        pipeline::replay_script(ds, &ds.initial, cfg, script)
    };
    let traced_wall_s = t.elapsed().as_secs_f64();
    ctx.check_fingerprint(
        checks,
        "traced replay links vs untraced",
        stats::link_fingerprint(&replay.candidates),
        want_fp,
    );
    pipeline::space_layer_metrics(m, &driver);
    pipeline::engine_layer_metrics(m, &replay.approve_us, &replay.reject_us, &replay.totals);
    pipeline::session_layer_metrics(m, &driver, &left, &right);
    let queries: Vec<pipeline::QueryTiming> = log
        .iter()
        .filter(|e| e.route == "query")
        .take(300)
        .filter_map(|e| {
            let text = parse(&e.body).get("query")?.as_str()?.to_string();
            Some(pipeline::timed_query(&left, &right, &driver, &text))
        })
        .collect();
    pipeline::query_layer_metrics(m, &queries);
    m.set("trace.overhead_s", traced_wall_s - untraced_wall_s);
}

/// Scale, curator rounds, set-ups, and restarts of this invocation.
fn sizes(ctx: &Ctx) -> (f64, usize, usize, usize) {
    if ctx.smoke {
        (0.1, 50, 1, 1)
    } else if ctx.trace {
        (SCALE, ROUNDS, 1, 1)
    } else {
        (SCALE, ROUNDS, SETUP_REPS, RESTARTS)
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (scale, rounds, setup_reps, restarts) = sizes(ctx);
    let ds = data::write_dataset(&ctx.work.join("data"), scale, ctx.data_seed)
        .expect("writing the generated dataset");
    let episode_size = alex_datagen::PaperPair::DbpediaNytimes.suggested_episode_size(scale);
    let config = crate::config_json(episode_size, crate::ALEX_SEED, None);
    let body = session_body(&ds, &config);
    println!(
        "serve: scale {scale} ({} + {} triples, {} truth links, {} initial links), \
         2 closed-loop connections, {rounds} curator rounds (at most {} s)",
        ds.left_triples,
        ds.right_triples,
        ds.truth.len(),
        ds.initial.len(),
        ctx.seconds
    );

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..setup_reps {
        drop(server.take());
        let (s, took) = start_with_sessions(None, false, std::slice::from_ref(&body));
        setups.push(took);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    // Peak RSS of the server holding its loaded session. Sampled before
    // the load phase: during it, the peak moved by a sixth between runs of
    // the same script, depending on which large responses overlapped.
    let rss_mb = stats::peak_rss_mb(Some(server.pid()));

    let truth: HashSet<(String, String)> = ds.truth.iter().cloned().collect();
    let entities: Vec<String> = ds
        .initial
        .iter()
        .map(|(l, _)| l.clone())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(ctx.seconds);
    let mix = CuratorMix {
        rounds,
        queries: 1,
        query_every: 2,
        links_every: 4,
    };
    // The reader runs until the curator is done.
    let mut logs: Vec<ClientLog> = std::thread::scope(|s| {
        let rdr = s.spawn(|| reader(&server.addr, "s1", &entities, ctx.seed ^ 0x5EAD, &stop, t0));
        let cur = curator(
            &server.addr,
            "s1",
            &truth,
            ctx.seed,
            FEEDBACK_SEED,
            mix,
            deadline,
            t0,
        );
        stop.store(true, Ordering::Relaxed);
        vec![cur, rdr.join().expect("reader thread")]
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let script = std::mem::take(&mut logs[0].script);
    let (routes, log) = merge(&mut logs);
    println!(
        "serve: {} feedback batches acknowledged in {elapsed:.2} s",
        script.len()
    );
    client::print_routes(&routes);
    let ok: usize = routes.values().map(|r| r.ok_ms.len()).sum();
    println!("serve: {:.1} requests/s", ok as f64 / elapsed);

    let mut c = Client::new(&server.addr);
    let (final_links, final_blacklist) = c
        .request("GET", "/sessions/s1/links", "")
        .map(|b| parse_links(&b))
        .expect("final /links");
    drop(server);

    // Restart without a WAL: a crashed server comes back only by creating
    // the session again from the `.nt` files.
    let mut restart_s = Vec::new();
    for _ in 0..restarts {
        let (s, took) = start_with_sessions(None, false, std::slice::from_ref(&body));
        restart_s.push(took);
        drop(s);
    }

    // Output check: the final links equal an in-process replay of the
    // curator's acknowledged feedback through `AlexDriver`.
    let mut checks = Checks::default();
    let cfg = crate::alex_config(episode_size, crate::ALEX_SEED);
    let t = Instant::now();
    let (replay, ..) = pipeline::replay_script(&ds, &ds.initial, cfg.clone(), &script);
    let replay_wall_s = t.elapsed().as_secs_f64();
    let served_fp = stats::link_fingerprint(&final_links);
    ctx.check_fingerprint(
        &mut checks,
        "final /links vs in-process replay",
        served_fp,
        stats::link_fingerprint(&replay.candidates),
    );
    ctx.check_fingerprint(
        &mut checks,
        "final blacklist vs in-process replay",
        stats::link_fingerprint(&final_blacklist),
        stats::link_fingerprint(&replay.blacklist),
    );
    checks.check(
        &format!("curator acknowledged feedback ({} batches)", script.len()),
        !script.is_empty(),
    );

    let mut e2e = Metrics::default();
    let feedback = &latencies(&log, "feedback");
    let queries = &latencies(&log, "query");
    e2e.set("setup_s", median(&setups));
    e2e.set("feedback_ms.p50", sliced_quantile(feedback, 0.5));
    e2e.set("feedback_ms.p95", sliced_quantile(feedback, 0.95));
    e2e.set("query_ms.p50", sliced_quantile(queries, 0.5));
    e2e.set("query_ms.p95", sliced_quantile(queries, 0.95));
    e2e.set("rss_mb", rss_mb);
    e2e.set("restart_s", median(&restart_s));

    let mut per_layer = Metrics::default();
    if ctx.trace {
        per_layer.set("engine.final_f1", stats::f1(&final_links, &ds.truth));
        traced_replay_layers(
            &mut per_layer,
            &ds,
            cfg,
            &script,
            &log,
            replay_wall_s,
            served_fp,
            ctx,
            &mut checks,
        );
        replay_routes(
            &mut per_layer,
            None,
            false,
            std::slice::from_ref(&body),
            &log,
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
