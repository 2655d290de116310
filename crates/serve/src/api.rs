//! The JSON curation API: request routing and handlers.
//!
//! Routes (all bodies and responses are JSON unless noted):
//!
//! | method & path               | action |
//! |-----------------------------|--------|
//! | `POST /sessions`            | load a dataset pair + candidate links, start a session |
//! | `GET  /sessions/{id}`       | session summary (counts, episodes, config) |
//! | `POST /sessions/{id}/query` | federated SPARQL; answers carry sameAs provenance |
//! | `POST /sessions/{id}/feedback` | approve/reject links → one feedback episode |
//! | `GET  /sessions/{id}/links` | current candidate links and blacklist |
//! | `GET  /sessions/{id}/explain?left=…&right=…` | why a link is here: candidacy, blacklist, negatives, generating state-action pairs |
//! | `GET  /healthz`             | liveness (text `ok`) |
//! | `GET  /metrics`             | metrics in text exposition format |
//!
//! Handlers never panic on client input: malformed JSON, unknown ids, and
//! unknown IRIs come back as 4xx envelopes `{"error": "..."}`.

use std::collections::HashSet;
use std::path::Path;
use std::sync::{Arc, PoisonError};

use alex_core::store::WalStats;
use alex_core::trace;
use alex_core::{AlexConfig, AlexDriver, DurabilityConfig, LiveSession, SessionHandle};
use alex_rdf::{ntriples, turtle, Interner, Link, Store, Term};
use serde_json::{Number, Value};

use crate::http::{Request, Response};
use crate::metrics::{self, WAL_APPENDS_TOTAL, WAL_BYTES_TOTAL, WAL_FSYNCS_TOTAL};
use crate::state::{AppState, SessionEntry};

/// Shorthand for building an object value.
fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num(n: usize) -> Value {
    Value::Number(Number::U64(n as u64))
}

/// Dispatches one request. Returns the route label used for metrics
/// (pattern form, so label cardinality stays bounded) and the response.
pub fn route(state: &AppState, req: &Request) -> (&'static str, Response) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => ("/healthz", Response::text(200, "ok\n")),
        ("GET", ["metrics"]) => ("/metrics", Response::text(200, metrics::render(state))),
        ("POST", ["sessions"]) => ("/sessions", create_session(state, req)),
        ("GET", ["sessions", id]) => ("/sessions/{id}", session_info(state, id)),
        ("POST", ["sessions", id, "query"]) => ("/sessions/{id}/query", query(state, id, req)),
        ("POST", ["sessions", id, "feedback"]) => {
            ("/sessions/{id}/feedback", feedback(state, id, req))
        }
        ("GET", ["sessions", id, "links"]) => ("/sessions/{id}/links", links(state, id)),
        ("GET", ["sessions", id, "explain"]) => ("/sessions/{id}/explain", explain(state, id, req)),
        ("GET", ["debug", "events"]) => ("/debug/events", debug_events(req)),
        ("GET", ["debug", "trace", rid]) => ("/debug/trace/{request_id}", debug_trace(rid, req)),
        // Known paths with the wrong method get a 405 rather than a 404.
        (_, ["debug", "events"]) | (_, ["debug", "trace", _]) => (
            "(method)",
            Response::error(405, format!("method {} not allowed here", req.method)),
        ),
        (_, ["healthz" | "metrics"]) | (_, ["sessions"]) | (_, ["sessions", _]) => (
            "(method)",
            Response::error(405, format!("method {} not allowed here", req.method)),
        ),
        (_, ["sessions", _, "query" | "feedback" | "links" | "explain"]) => (
            "(method)",
            Response::error(405, format!("method {} not allowed here", req.method)),
        ),
        _ => (
            "(unknown)",
            Response::error(404, format!("no route for {}", req.path)),
        ),
    }
}

/// Looks up a session handle without holding the table lock afterwards.
fn session_handle(state: &AppState, id: &str) -> Result<SessionHandle, Response> {
    state
        .sessions
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(id)
        .map(|e| e.handle.clone())
        .ok_or_else(|| Response::error(404, format!("no session {id:?}")))
}

/// Folds what a mutation logged into the process-wide WAL counters
/// (which appear in `/metrics` once a durable session first logs).
fn record_wal_metrics(state: &AppState, logged: &WalStats) {
    if logged.appends == 0 {
        return;
    }
    state.metrics.counter(WAL_APPENDS_TOTAL).add(logged.appends);
    state.metrics.counter(WAL_BYTES_TOTAL).add(logged.bytes);
    state.metrics.counter(WAL_FSYNCS_TOTAL).add(logged.fsyncs);
}

/// Loads one dataset from either an inline N-Triples string or a file
/// path (`.ttl`/`.turtle` parse as Turtle, anything else as N-Triples).
fn load_side(
    which: &str,
    body: &Value,
    interner: &std::sync::Arc<Interner>,
) -> Result<Store, String> {
    let mut store = Store::new(std::sync::Arc::clone(interner));
    if let Some(data) = body.get(&format!("{which}_data")).and_then(|v| v.as_str()) {
        ntriples::read_str(data, &mut store).map_err(|e| format!("parsing {which}_data: {e}"))?;
        return Ok(store);
    }
    let Some(path) = body.get(which).and_then(|v| v.as_str()) else {
        return Err(format!(
            "missing {which:?} (file path) or \"{which}_data\" (inline N-Triples)"
        ));
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {which} {path:?}: {e}"))?;
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    match ext {
        "ttl" | "turtle" => turtle::read_str(&text, &mut store),
        _ => ntriples::read_str(&text, &mut store),
    }
    .map_err(|e| format!("parsing {which} {path:?}: {e}"))?;
    Ok(store)
}

/// Parses a JSON array of `[left_iri, right_iri]` pairs into links.
fn parse_link_array(items: &[Value], left: &Store, right: &Store) -> Result<Vec<Link>, String> {
    items
        .iter()
        .map(|pair| {
            let [l, r] = pair.as_array().unwrap_or(&[]) else {
                return Err(format!(
                    "link must be a [left, right] pair, got {}",
                    pair.kind()
                ));
            };
            let (Some(l), Some(r)) = (l.as_str(), r.as_str()) else {
                return Err("link sides must be IRI strings".into());
            };
            Ok(Link::new(left.intern_iri(l), right.intern_iri(r)))
        })
        .collect()
}

/// Applies recognized `config` overrides on top of the defaults. The
/// session starts from the server's durability defaults; a
/// `config.durability` object overrides them per session.
fn parse_config(body: &Value, durability: &DurabilityConfig) -> Result<AlexConfig, String> {
    let mut cfg = AlexConfig {
        durability: durability.clone(),
        ..AlexConfig::default()
    };
    let Some(overrides) = body.get("config") else {
        return Ok(cfg);
    };
    let Some(pairs) = overrides.as_object() else {
        return Err("config must be an object".into());
    };
    for (key, value) in pairs {
        let bad = |kind: &str| format!("config.{key} must be {kind}");
        match key.as_str() {
            "partitions" => {
                cfg.partitions = value.as_u64().ok_or_else(|| bad("an integer"))? as usize
            }
            "episode_size" => {
                cfg.episode_size = value.as_u64().ok_or_else(|| bad("an integer"))? as usize
            }
            "max_episodes" => {
                cfg.max_episodes = value.as_u64().ok_or_else(|| bad("an integer"))? as usize
            }
            "seed" => cfg.seed = value.as_u64().ok_or_else(|| bad("an integer"))?,
            "theta" => cfg.theta = value.as_f64().ok_or_else(|| bad("a number"))?,
            "epsilon" => cfg.epsilon = value.as_f64().ok_or_else(|| bad("a number"))?,
            "step_size" => cfg.step_size = value.as_f64().ok_or_else(|| bad("a number"))?,
            "blacklist_threshold" => {
                cfg.blacklist_threshold = value.as_u64().ok_or_else(|| bad("an integer"))? as usize
            }
            "durability" => {
                cfg.durability = serde_json::from_value(value.clone())
                    .map_err(|e| format!("config.durability: {e}"))?;
                cfg.durability
                    .validate()
                    .map_err(|e| format!("config.durability: {e}"))?;
            }
            other => return Err(format!("unknown config key {other:?}")),
        }
    }
    Ok(cfg)
}

/// `POST /sessions` — body:
/// `{"left": path | "left_data": nt, "right": ..., "links": [[l,r],...],
///   "truth": [[l,r],...]?, "config": {...}?}`.
fn create_session(state: &AppState, req: &Request) -> Response {
    let body = match req.json_body() {
        Ok(v) => v,
        Err(e) => return Response::error(400, e),
    };
    let interner = Interner::new_shared();
    let (left, right) = match (
        load_side("left", &body, &interner),
        load_side("right", &body, &interner),
    ) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(e), _) | (_, Err(e)) => return Response::error(400, e),
    };

    let links = match body.get("links").and_then(|v| v.as_array()) {
        Some(items) => match parse_link_array(items, &left, &right) {
            Ok(links) => links,
            Err(e) => return Response::error(400, e),
        },
        None => {
            return Response::error(400, "missing \"links\" (array of [left, right] IRI pairs)")
        }
    };
    let truth = match body.get("truth") {
        Some(v) => match v
            .as_array()
            .map(|items| parse_link_array(items, &left, &right))
        {
            Some(Ok(links)) => Some(Arc::new(links.into_iter().collect::<HashSet<_>>())),
            Some(Err(e)) => return Response::error(400, e),
            None => return Response::error(400, "truth must be an array of [left, right] pairs"),
        },
        None => None,
    };
    let cfg = match parse_config(&body, &state.durability) {
        Ok(cfg) => cfg,
        Err(e) => return Response::error(400, e),
    };
    let durability = cfg.durability.clone();

    let driver = match AlexDriver::new(&left, &right, &links, cfg) {
        Ok(d) => d,
        Err(e) => return Response::error(400, format!("invalid configuration: {e}")),
    };

    let id = state.fresh_id();
    let candidates = driver.candidate_count();
    let left_triples = left.len();
    let right_triples = right.len();

    // Pre-processing observability, exported through /metrics (the
    // build's wall time is the `driver.space_build` stage): the similarity
    // evaluations the space build made and the distinct values of its
    // value table, summed over session creates.
    let build = driver.build_stats();
    state
        .metrics
        .counter("alex_space_similarity_evaluations_total")
        .add(build.cache.hits);
    state
        .metrics
        .counter("alex_space_values_total")
        .add(build.cache.misses);

    let mut session = LiveSession::new(left, right, driver);

    // Persistence: lay down the session's directory (dataset snapshots,
    // space file, initial checkpoint and, when it logs, an empty WAL)
    // *before* acknowledging the session — a crash after the 201 must be
    // able to bring it back.
    let wal = match durability.wal.then(|| durability.to_options()).transpose() {
        Ok(wal) => wal,
        Err(e) => return Response::error(400, format!("config.durability: {e}")),
    };
    match &state.state_dir {
        Some(dir) => {
            if let Err(e) = session.make_durable(dir, &id, wal, durability.compact_after_records) {
                return Response::error(500, format!("creating session storage: {e}"));
            }
        }
        None if wal.is_some() => {
            return Response::error(
                400,
                "durability.wal requires the server to run with a state directory",
            )
        }
        None => {}
    }
    let durable_on = session.is_durable();

    let handle = SessionHandle::new(session);
    state
        .sessions
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(id.clone(), SessionEntry { handle, truth });
    state.metrics.counter("alex_sessions_created_total").inc();

    Response::json(
        201,
        &obj(vec![
            ("id", Value::String(id)),
            ("candidates", num(candidates)),
            ("left_triples", num(left_triples)),
            ("right_triples", num(right_triples)),
            ("durable", Value::Bool(durable_on)),
        ]),
    )
}

/// `GET /sessions/{id}` — summary.
fn session_info(state: &AppState, id: &str) -> Response {
    let handle = match session_handle(state, id) {
        Ok(h) => h,
        Err(resp) => return resp,
    };
    let session = handle.read();
    let config = serde_json::to_value(session.driver().config()).unwrap_or(Value::Null);
    Response::json(
        200,
        &obj(vec![
            ("id", Value::String(id.to_string())),
            ("candidates", num(session.driver().candidate_count())),
            ("episodes", Value::Number(Number::U64(session.episodes))),
            (
                "feedback_items",
                Value::Number(Number::U64(session.feedback_items)),
            ),
            ("left_triples", num(session.left.len())),
            ("right_triples", num(session.right.len())),
            ("durable", Value::Bool(session.is_durable())),
            ("config", config),
        ]),
    )
}

fn render_term(term: &Option<Term>, interner: &Interner) -> Value {
    match term {
        Some(Term::Iri(id)) => obj(vec![
            ("kind", Value::String("iri".into())),
            ("value", Value::String(interner.resolve(id.0).to_string())),
        ]),
        Some(Term::Literal(l)) => obj(vec![
            ("kind", Value::String("literal".into())),
            ("value", Value::String(l.lexical(interner).to_string())),
        ]),
        None => Value::Null,
    }
}

fn render_link(l: &Link, left: &Store, right: &Store) -> Value {
    Value::Array(vec![
        Value::String(left.iri_str(l.left).to_string()),
        Value::String(right.iri_str(l.right).to_string()),
    ])
}

/// `POST /sessions/{id}/query` — body `{"query": "SELECT ..."}`. Answers
/// list their bound terms and the sameAs links each depends on — the
/// provenance a client needs to convert answer feedback into link
/// feedback (Figure 1). The response also reports how many probes each
/// source answered.
fn query(state: &AppState, id: &str, req: &Request) -> Response {
    let handle = match session_handle(state, id) {
        Ok(h) => h,
        Err(resp) => return resp,
    };
    let body = match req.json_body() {
        Ok(v) => v,
        Err(e) => return Response::error(400, e),
    };
    let Some(text) = body.get("query").and_then(|v| v.as_str()) else {
        return Response::error(400, "missing \"query\" (SPARQL text)");
    };

    let session = handle.read();
    let report = match session.federation().execute_str_report(text) {
        Ok(r) => r,
        Err(e) => return Response::error(400, format!("query error: {e}")),
    };

    let interner = session.left.interner();
    let rendered: Vec<Value> = report
        .answers
        .iter()
        .map(|a| {
            obj(vec![
                (
                    "row",
                    Value::Array(a.row.iter().map(|t| render_term(t, interner)).collect()),
                ),
                (
                    "links",
                    Value::Array(
                        a.links
                            .iter()
                            .map(|l| render_link(l, &session.left, &session.right))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    drop(session);

    state.metrics.counter("alex_queries_total").inc();
    let sources: Vec<Value> = report
        .sources
        .iter()
        .map(|s| {
            obj(vec![
                ("name", Value::String(s.name.clone())),
                ("probes", Value::Number(Number::U64(s.probes))),
            ])
        })
        .collect();
    Response::json(
        200,
        &obj(vec![
            ("count", num(rendered.len())),
            ("answers", Value::Array(rendered)),
            ("sources", Value::Array(sources)),
        ]),
    )
}

/// `POST /sessions/{id}/feedback` — body
/// `{"items": [{"left": iri, "right": iri, "approve": bool}, ...]}`.
/// Runs one feedback episode and reports what changed.
fn feedback(state: &AppState, id: &str, req: &Request) -> Response {
    let handle = match session_handle(state, id) {
        Ok(h) => h,
        Err(resp) => return resp,
    };
    let body = match req.json_body() {
        Ok(v) => v,
        Err(e) => return Response::error(400, e),
    };
    let Some(items) = body.get("items").and_then(|v| v.as_array()) else {
        return Response::error(400, "missing \"items\" (array of {left, right, approve})");
    };
    if items.is_empty() {
        return Response::error(400, "items is empty — nothing to give feedback on");
    }

    let mut session = handle.write();
    // Resolve every item before mutating anything, so a bad item rejects
    // the whole batch instead of applying half an episode.
    let interner = session.left.interner().clone();
    let mut batch = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let field = |name: &str| item.get(name);
        let (Some(l), Some(r), Some(approve)) = (
            field("left").and_then(|v| v.as_str()),
            field("right").and_then(|v| v.as_str()),
            field("approve").and_then(|v| v.as_bool()),
        ) else {
            return Response::error(400, format!("items[{i}] needs left, right, approve"));
        };
        let (Some(lid), Some(rid)) = (interner.get(l), interner.get(r)) else {
            return Response::error(
                400,
                format!("items[{i}]: unknown IRI (not in either dataset): {l} / {r}"),
            );
        };
        batch.push((
            Link::new(alex_rdf::IriId(lid), alex_rdf::IriId(rid)),
            approve,
        ));
    }

    // The episode is logged before it touches the driver; a failed
    // append leaves the session as it was.
    let candidates_before = session.driver().candidate_count();
    let episode = match session.feedback_episode(&batch) {
        Ok(episode) => episode,
        Err(e) => return Response::error(500, format!("write-ahead log append failed: {e}")),
    };
    record_wal_metrics(state, &episode.logged);
    let candidates = session.driver().candidate_count();
    let episodes = session.episodes;
    drop(session);

    state
        .metrics
        .counter("alex_feedback_items_total")
        .add(batch.len() as u64);

    Response::json(
        200,
        &obj(vec![
            ("accepted", num(batch.len())),
            ("links_added", num(episode.stats.links_added)),
            ("links_removed", num(episode.stats.links_removed)),
            ("rollbacks", num(episode.stats.rollbacks)),
            ("candidates_before", num(candidates_before)),
            ("candidates", num(candidates)),
            ("episode", Value::Number(Number::U64(episodes))),
        ]),
    )
}

/// `GET /sessions/{id}/links` — the current candidate set and blacklist,
/// as sorted IRI pairs, read straight from the engines (no snapshot of the
/// learned state), so feedback writers wait on the read lock only as long
/// as the two lists take to copy.
fn links(state: &AppState, id: &str) -> Response {
    let handle = match session_handle(state, id) {
        Ok(h) => h,
        Err(resp) => return resp,
    };
    let (candidates, blacklist) = handle.read().link_pairs();
    let pairs = |links: Vec<(String, String)>| {
        Value::Array(
            links
                .into_iter()
                .map(|(l, r)| Value::Array(vec![Value::String(l), Value::String(r)]))
                .collect(),
        )
    };
    Response::json(
        200,
        &obj(vec![
            ("count", num(candidates.len())),
            ("links", pairs(candidates)),
            ("blacklist", pairs(blacklist)),
        ]),
    )
}

/// `GET /sessions/{id}/explain?left=<iri>&right=<iri>` — what the owning
/// engine holds about one link ([`alex_core::LinkExplanation`]), read
/// under the session's read lock. 404 for an unknown IRI or a link the
/// engine holds nothing about.
fn explain(state: &AppState, id: &str, req: &Request) -> Response {
    let handle = match session_handle(state, id) {
        Ok(h) => h,
        Err(resp) => return resp,
    };
    let params = req.query_params();
    let param = |name: &str| params.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    let (Some(l), Some(r)) = (param("left"), param("right")) else {
        return Response::error(400, "explain needs ?left=<iri>&right=<iri>");
    };
    let session = handle.read();
    let interner = session.left.interner();
    let (Some(lid), Some(rid)) = (interner.get(l), interner.get(r)) else {
        return Response::error(
            404,
            format!("unknown IRI (not in either dataset): {l} / {r}"),
        );
    };
    let link = Link::new(alex_rdf::IriId(lid), alex_rdf::IriId(rid));
    match session.driver().explain(link) {
        Some(x) => Response::json(200, &serde_json::to_value(&x).unwrap_or(Value::Null)),
        None => Response::error(404, format!("session {id:?} holds nothing about {l} / {r}")),
    }
}

/// Renders events as JSON lines (one event per line, oldest first).
fn events_as_jsonl(events: &[trace::Event]) -> Response {
    let mut body = String::new();
    for e in events {
        body.push_str(&e.to_json_line());
        body.push('\n');
    }
    Response::text(200, body)
}

/// The 503 returned by debug endpoints when the flight recorder is off.
fn tracing_disabled() -> Response {
    Response::error(
        503,
        "tracing is disabled: set ALEX_TRACE=ring (or jsonl:<path>) and restart",
    )
}

/// `GET /debug/events?limit=N` — the most recent flight-recorder events
/// across all traces, as JSON lines. `limit` defaults to 256.
fn debug_events(req: &Request) -> Response {
    if !trace::enabled() {
        return tracing_disabled();
    }
    let limit = req
        .query_params()
        .iter()
        .find(|(k, _)| k == "limit")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(256);
    events_as_jsonl(&trace::recorder().snapshot(limit))
}

/// `GET /debug/trace/{request_id}` — every event of the trace that served
/// the given `X-Request-Id`, as JSON lines (or an indented span tree with
/// `?format=tree`). 404 when the id was never seen or its events have
/// been evicted from the ring.
fn debug_trace(request_id: &str, req: &Request) -> Response {
    if !trace::enabled() {
        return tracing_disabled();
    }
    let rec = trace::recorder();
    let Some(trace_id) = rec.find_request(request_id) else {
        return Response::error(
            404,
            format!("no trace for request id {request_id:?} (unknown or evicted from the ring)"),
        );
    };
    let events = rec.trace_events(trace_id);
    let wants_tree = req
        .query_params()
        .iter()
        .any(|(k, v)| k == "format" && v == "tree");
    if wants_tree {
        Response::text(200, trace::render_tree(&events))
    } else {
        events_as_jsonl(&events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            query: None,
            http11: true,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// Two tiny matching datasets inlined as N-Triples.
    fn create_body() -> String {
        let mut left = String::new();
        let mut right = String::new();
        for i in 0..4 {
            // Quotes are double-escaped: once for the embedded JSON string,
            // once more so the N-Triples literal keeps its quotes.
            left.push_str(&format!(
                "<http://l/e{i}> <http://l/name> \\\"player number {i}\\\" .\\n"
            ));
            right.push_str(&format!(
                "<http://r/e{i}> <http://r/label> \\\"player number {i}\\\" .\\n"
            ));
        }
        format!(
            r#"{{"left_data": "{left}", "right_data": "{right}",
                "links": [["http://l/e0", "http://r/e0"], ["http://l/e1", "http://r/e1"]],
                "config": {{"partitions": 1, "epsilon": 0.0, "seed": 7}}}}"#
        )
    }

    fn created_session(state: &AppState) -> String {
        let (_, resp) = route(state, &request("POST", "/sessions", &create_body()));
        assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
        let v = serde_json::parse_value_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        v.get("id").unwrap().as_str().unwrap().to_string()
    }

    #[test]
    fn create_query_feedback_links_round_trip() {
        let state = AppState::new(None);
        let id = created_session(&state);

        // Query joins across the sameAs links.
        let q = r#"{"query": "SELECT ?n WHERE { ?l <http://l/name> ?n }"}"#;
        let (_, resp) = route(
            &state,
            &request("POST", &format!("/sessions/{id}/query"), q),
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v = serde_json::parse_value_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("count").unwrap().as_u64(), Some(4));

        // Reject one link.
        let fb =
            r#"{"items": [{"left": "http://l/e1", "right": "http://r/e1", "approve": false}]}"#;
        let (_, resp) = route(
            &state,
            &request("POST", &format!("/sessions/{id}/feedback"), fb),
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v = serde_json::parse_value_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("links_removed").unwrap().as_u64(), Some(1));

        // The links endpoint moves it from candidates to the blacklist.
        let (_, resp) = route(
            &state,
            &request("GET", &format!("/sessions/{id}/links"), ""),
        );
        let v = serde_json::parse_value_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let flat = |key: &str| {
            v.get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|p| p.as_array().unwrap()[1].as_str().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        assert!(!flat("links").contains(&"http://r/e1".to_string()));
        assert!(flat("links").contains(&"http://r/e0".to_string()));
        assert!(flat("blacklist").contains(&"http://r/e1".to_string()));
    }

    #[test]
    fn explain_reads_the_engine_and_reports_every_status() {
        let state = AppState::new(None);
        // An entity IRI with `#` and `+`, which a query string must escape.
        let body = create_body().replace("http://l/e3", "http://l/e3#x+y");
        let (_, resp) = route(&state, &request("POST", "/sessions", &body));
        assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
        let fb = r#"{"items": [{"left": "http://l/e0", "right": "http://r/e0", "approve": true}]}"#;
        let (_, resp) = route(&state, &request("POST", "/sessions/s1/feedback", fb));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

        let explain = |method: &str, id: &str, query: &str| {
            let req = Request {
                query: Some(query.into()),
                ..request(method, &format!("/sessions/{id}/explain"), "")
            };
            let (label, resp) = route(&state, &req);
            let text = String::from_utf8(resp.body).unwrap();
            (
                label,
                resp.status,
                serde_json::parse_value_str(&text).unwrap(),
            )
        };

        // An explored link, named through percent escapes.
        let encoded = "left=http%3A%2F%2Fl%2Fe3%23x%2By&right=http%3A%2F%2Fr%2Fe3";
        let (label, status, v) = explain("GET", "s1", encoded);
        assert_eq!((label, status), ("/sessions/{id}/explain", 200), "{v:?}");
        assert_eq!(v.get("left").unwrap().as_str(), Some("http://l/e3#x+y"));
        assert_eq!(v.get("candidate").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("origin").unwrap().as_str(), Some("explored"));
        let by = v.get("generated_by").unwrap().as_array().unwrap();
        assert_eq!(by.len(), 1);
        let state_iris: Vec<&str> = (by[0].get("state").unwrap().as_array().unwrap())
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(state_iris, ["http://l/e0", "http://r/e0"]);
        assert_eq!(by[0].get("rolled_back").unwrap().as_bool(), Some(false));
        // The approved state itself is an initial candidate.
        let (_, status, v) = explain("GET", "s1", "left=http://l/e0&right=http://r/e0");
        assert_eq!(status, 200);
        assert_eq!(v.get("origin").unwrap().as_str(), Some("initial"));
        assert_eq!(v.get("approved").unwrap().as_bool(), Some(true));

        // A missing parameter is a 400.
        assert_eq!(explain("GET", "s1", "left=http://l/e0").1, 400);
        // Unknown session, unknown IRI (an unescaped `+` decodes to a
        // space), and two known IRIs the engine holds nothing about: 404.
        assert_eq!(explain("GET", "s9", encoded).1, 404);
        let raw = "left=http://l/e3%23x+y&right=http://r/e3";
        assert_eq!(explain("GET", "s1", raw).1, 404);
        assert_eq!(
            explain("GET", "s1", "left=http://l/e0&right=http://l/e1").1,
            404
        );
        // Any other method: 405.
        assert_eq!(explain("POST", "s1", encoded).1, 405);
        assert_eq!(explain("DELETE", "s1", encoded).1, 405);
    }

    #[test]
    fn error_paths_are_4xx_envelopes() {
        let state = AppState::new(None);
        // Unknown route and method.
        assert_eq!(route(&state, &request("GET", "/nope", "")).1.status, 404);
        assert_eq!(
            route(&state, &request("DELETE", "/healthz", "")).1.status,
            405
        );
        // Bad JSON.
        assert_eq!(
            route(&state, &request("POST", "/sessions", "{oops"))
                .1
                .status,
            400
        );
        // Missing dataset.
        assert_eq!(
            route(&state, &request("POST", "/sessions", "{}")).1.status,
            400
        );
        // Unknown session.
        assert_eq!(
            route(&state, &request("GET", "/sessions/s99/links", ""))
                .1
                .status,
            404
        );
        // Unknown config key.
        let body = create_body().replace("\"partitions\"", "\"warp_factor\"");
        let resp = route(&state, &request("POST", "/sessions", &body)).1;
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8_lossy(&resp.body).contains("warp_factor"));
        // Feedback on an IRI the datasets never mention.
        let id = created_session(&state);
        let fb =
            r#"{"items": [{"left": "http://nowhere/x", "right": "http://r/e0", "approve": true}]}"#;
        let resp = route(
            &state,
            &request("POST", &format!("/sessions/{id}/feedback"), fb),
        )
        .1;
        assert_eq!(resp.status, 400);
        // Malformed SPARQL is a 400, not a crash.
        let resp = route(
            &state,
            &request(
                "POST",
                &format!("/sessions/{id}/query"),
                r#"{"query": "SELECT WHERE {"}"#,
            ),
        )
        .1;
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn query_response_reports_probes_per_source() {
        let state = AppState::new(None);
        let id = created_session(&state);
        let q = r#"{"query": "SELECT ?n WHERE { ?l <http://l/name> ?n }"}"#;
        let (_, resp) = route(
            &state,
            &request("POST", &format!("/sessions/{id}/query"), q),
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v = serde_json::parse_value_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let Value::Object(fields) = &v else {
            panic!("the response is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["count", "answers", "sources"]);
        let sources = v.get("sources").unwrap().as_array().unwrap();
        let names: Vec<&str> = (sources.iter())
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, ["left", "right"]);
        for s in sources {
            let Value::Object(fields) = s else {
                panic!("a source is an object");
            };
            assert_eq!(fields.len(), 2, "name and probes only");
            assert!(s.get("probes").unwrap().as_u64().unwrap() > 0);
        }
        // Sessions keep no query accounting, and /metrics serves none.
        let (_, resp) = route(&state, &request("GET", "/metrics", ""));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(!text.contains("alex_query_source_"), "{text}");
        assert!(!text.contains("degraded"), "{text}");
    }

    #[test]
    fn metrics_render_after_traffic() {
        let state = AppState::new(None);
        let id = created_session(&state);
        let q = r#"{"query": "SELECT ?n WHERE { ?l <http://l/name> ?n }"}"#;
        route(
            &state,
            &request("POST", &format!("/sessions/{id}/query"), q),
        );
        let (_, resp) = route(&state, &request("GET", "/metrics", ""));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("alex_sessions_created_total 1"), "{text}");
        assert!(text.contains("alex_queries_total 1"));
        assert!(text.contains(&format!("alex_session_candidates{{session=\"{id}\"}} 2")));
    }

    fn temp_state_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("alex-serve-api-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durable_sessions_survive_a_restart() {
        use alex_core::store::WalOptions;

        let dir = temp_state_dir("durable");
        let mut state = AppState::new(Some(dir.clone()));
        state.durability = DurabilityConfig {
            wal: true,
            ..DurabilityConfig::default()
        };

        let (_, resp) = route(&state, &request("POST", "/sessions", &create_body()));
        assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
        let v = serde_json::parse_value_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("durable").unwrap().as_bool(), Some(true));
        let id = v.get("id").unwrap().as_str().unwrap().to_string();

        // One rejected link: the mutation is WAL-logged before it acks.
        let fb =
            r#"{"items": [{"left": "http://l/e1", "right": "http://r/e1", "approve": false}]}"#;
        let (_, resp) = route(
            &state,
            &request("POST", &format!("/sessions/{id}/feedback"), fb),
        );
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

        // The WAL counters are moving.
        let (_, resp) = route(&state, &request("GET", "/metrics", ""));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("alex_wal_appends_total"), "{text}");
        assert!(!text.contains("alex_wal_appends_total 0"), "{text}");
        assert!(text.contains("alex_wal_bytes_total"), "{text}");

        let (_, resp) = route(
            &state,
            &request("GET", &format!("/sessions/{id}/links"), ""),
        );
        let live_links = String::from_utf8(resp.body).unwrap();

        // Simulate a crash: the state is dropped without persist_sessions
        // ever running. Recovery rebuilds the session from snapshots +
        // WAL replay, exactly as `Server::start` does at boot.
        drop(state);
        let outcome = alex_core::recover_state_dir(&dir, WalOptions::default(), 0).unwrap();
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert_eq!(outcome.sessions.len(), 1);
        let recovered = outcome.sessions.into_iter().next().unwrap();
        assert_eq!(recovered.id, id);
        assert!(recovered.report.replayed_records > 0);
        assert!(!recovered.report.policy_mismatch);
        assert_eq!(recovered.session.episodes, 1);
        assert_eq!(recovered.session.feedback_items, 1);

        // A fresh server serving the recovered session reports the exact
        // same candidate set and blacklist the crashed one had.
        let state2 = AppState::new(Some(dir.clone()));
        state2.advance_ids_past(&recovered.id);
        state2
            .sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                recovered.id.clone(),
                SessionEntry {
                    handle: SessionHandle::new(recovered.session),
                    truth: None,
                },
            );
        let (_, resp) = route(
            &state2,
            &request("GET", &format!("/sessions/{id}/links"), ""),
        );
        let recovered_links = String::from_utf8(resp.body).unwrap();
        assert_eq!(live_links, recovered_links);
        assert_eq!(state2.fresh_id(), "s2", "ids continue past recovered ones");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_session_id_cannot_escape_the_state_dir() {
        let dir = temp_state_dir("hostile");
        let state = AppState::new(Some(dir.clone()));
        let id = created_session(&state);
        let handle = state
            .sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)[&id]
            .handle
            .clone();
        // The API only ever generates `s{n}` ids, but the filesystem
        // boundary must hold even if a hostile id reaches the table.
        state
            .sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                "../../escape".to_string(),
                SessionEntry {
                    handle,
                    truth: None,
                },
            );
        // Shutdown checkpoints through the session's own directory, named
        // by the id it was created with; the table key never becomes a
        // path.
        let results = state.persist_sessions();
        let checkpoint = dir.join(format!("session-{id}")).join("checkpoint.json");
        assert_eq!(results.len(), 2, "{results:?}");
        for written in &results {
            assert_eq!(written.as_ref().unwrap(), &checkpoint);
        }
        // Nothing was written outside the state directory, and inside it
        // only the honest session's directory.
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries, [format!("session-{id}")]);
        let parent = dir.parent().unwrap();
        for escape in ["escape", "escape.json"] {
            assert!(!parent.join(escape).exists());
            assert!(!parent.parent().unwrap().join(escape).exists());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_durability_config_is_a_400() {
        let state = AppState::new(None);
        let body = create_body().replace(
            "\"config\": {",
            r#""config": {"durability": {"fsync": "sometimes"}, "#,
        );
        let resp = route(&state, &request("POST", "/sessions", &body)).1;
        assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
        assert!(String::from_utf8_lossy(&resp.body).contains("durability"));
        // Enabling the WAL without a state dir is rejected, not ignored.
        let body = create_body().replace(
            "\"config\": {",
            r#""config": {"durability": {"wal": true}, "#,
        );
        let resp = route(&state, &request("POST", "/sessions", &body)).1;
        assert_eq!(resp.status, 400, "{}", String::from_utf8_lossy(&resp.body));
        assert!(String::from_utf8_lossy(&resp.body).contains("state directory"));
    }

    #[test]
    fn truth_enables_quality_gauges() {
        let state = AppState::new(None);
        let body = create_body().replace(
            "\"links\":",
            r#""truth": [["http://l/e0", "http://r/e0"], ["http://l/e1", "http://r/e1"]], "links":"#,
        );
        let (_, resp) = route(&state, &request("POST", "/sessions", &body));
        assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
        let (_, resp) = route(&state, &request("GET", "/metrics", ""));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(
            text.contains("alex_session_precision{session=\"s1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("alex_session_recall{session=\"s1\"} 1"),
            "{text}"
        );
    }
}
