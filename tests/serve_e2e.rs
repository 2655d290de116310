//! End-to-end tests for `alex-serve` over real TCP sockets: the Figure-1
//! loop (query → answer feedback → link change) through the HTTP API,
//! saturation backpressure (503), request timeouts (408), response
//! framing (pipelined keep-alive, close), and the session directories a
//! `state_dir` server restores after a graceful shutdown or a crash.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use alex::serve::{ServeConfig, Server};
use alex_core::SessionSnapshot;
use alex_rdf::{ntriples, Interner, Store};
use serde_json::Value;

/// Sends one HTTP/1.1 request on a fresh connection and returns
/// `(status, parsed JSON body)`. Plain-text bodies come back as
/// `Value::String`.
fn http(addr: &str, method: &str, path: &str, body: Option<&Value>) -> (u16, Value) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body_text = body.map(|v| v.to_json_string(false)).unwrap_or_default();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body_text}",
        body_text.len()
    )
    .expect("send request");
    read_response(&mut stream)
}

/// Reads a full `Connection: close` response from `stream`.
fn read_response(stream: &mut TcpStream) -> (u16, Value) {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {text:?}"));
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    let value =
        serde_json::parse_value_str(body).unwrap_or_else(|_| Value::String(body.to_string()));
    (status, value)
}

/// Reads one response framed by its `Content-Length` and returns
/// `(head, body)`. Fails if the stream ends before the body is whole.
fn read_framed(stream: &mut TcpStream) -> (String, Vec<u8>) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read response head");
        assert_eq!(n, 1, "stream ended in the head: {head:?}");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf-8 head");
    let len: usize = (head.lines())
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no Content-Length: {head:?}"));
    let mut body = vec![0; len];
    stream.read_exact(&mut body).expect("whole body");
    (head, body)
}

/// Asserts the peer has closed: the next read is EOF.
fn assert_eof(stream: &mut TcpStream) {
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "bytes after the response: {rest:?}");
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(text: &str) -> Value {
    Value::String(text.into())
}

fn pair(l: &str, r: &str) -> Value {
    Value::Array(vec![s(l), s(r)])
}

/// The paper's motivating example as inline N-Triples: four NBA players
/// in a DBpedia-like source, their namesakes plus one article each in a
/// NYTimes-like source, and the 2013 MVP award on player 0.
fn figure1_world() -> (String, String) {
    let players = ["LeBron James", "Kobe Bryant", "Tim Duncan", "Kevin Durant"];
    let mut left = String::new();
    let mut right = String::new();
    for (i, name) in players.iter().enumerate() {
        left.push_str(&format!(
            "<http://db/player{i}> <http://db/name> \"{name}\" .\n"
        ));
        right.push_str(&format!(
            "<http://ny/person{i}> <http://ny/fullName> \"{name}\" .\n"
        ));
        right.push_str(&format!(
            "<http://ny/article{i}> <http://ny/about> <http://ny/person{i}> .\n"
        ));
    }
    left.push_str("<http://db/player0> <http://db/award> <http://db/NBA_MVP_2013> .\n");
    (left, right)
}

fn start(cfg: ServeConfig) -> (Server, String) {
    let server = Server::start(cfg).expect("server starts");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn local(overrides: impl FnOnce(&mut ServeConfig)) -> ServeConfig {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    overrides(&mut cfg);
    cfg
}

/// Creates the Figure-1 session (one correct link, one wrong link) and
/// returns its id.
fn create_session(addr: &str) -> String {
    create_session_with(addr, Vec::new())
}

/// [`create_session`] with extra `config` keys.
fn create_session_with(addr: &str, config: Vec<(&str, Value)>) -> String {
    let (left, right) = figure1_world();
    let body = obj(vec![
        ("left_data", s(&left)),
        ("right_data", s(&right)),
        (
            "links",
            Value::Array(vec![
                pair("http://db/player0", "http://ny/person0"), // correct
                pair("http://db/player0", "http://ny/person1"), // wrong (LeBron = Kobe)
            ]),
        ),
        (
            "config",
            obj([
                ("partitions", Value::Number(serde_json::Number::U64(1))),
                ("epsilon", Value::Number(serde_json::Number::F64(0.0))),
                ("seed", Value::Number(serde_json::Number::U64(7))),
            ]
            .into_iter()
            .chain(config)
            .collect()),
        ),
    ]);
    let (status, v) = http(addr, "POST", "/sessions", Some(&body));
    assert_eq!(status, 201, "session create failed: {v:?}");
    assert_eq!(v.get("candidates").unwrap().as_u64(), Some(2));
    v.get("id").unwrap().as_str().unwrap().to_string()
}

/// One feedback episode on the Figure-1 link player0 ≡ `right`.
fn judge(addr: &str, id: &str, right: &str, approve: bool) -> Value {
    let (status, v) = http(
        addr,
        "POST",
        &format!("/sessions/{id}/feedback"),
        Some(&obj(vec![(
            "items",
            Value::Array(vec![obj(vec![
                ("left", s("http://db/player0")),
                ("right", s(right)),
                ("approve", Value::Bool(approve)),
            ])]),
        )])),
    );
    assert_eq!(status, 200, "feedback failed: {v:?}");
    v
}

/// One feedback episode: rejects the Figure-1 session's wrong link.
fn reject_wrong_link(addr: &str, id: &str) {
    judge(addr, id, "http://ny/person1", false);
}

/// One feedback episode: approves the Figure-1 session's correct link,
/// which explores the name feature and adds the other players' links.
fn approve_correct_link(addr: &str, id: &str) {
    let v = judge(addr, id, "http://ny/person0", true);
    assert!(v.get("links_added").unwrap().as_u64().unwrap() > 0, "{v:?}");
}

/// The explanation of the link player1 ≡ person1, which approving the
/// correct link explores.
fn explain_explored_link(addr: &str, id: &str) -> Value {
    let (status, v) = http(
        addr,
        "GET",
        &format!("/sessions/{id}/explain?left=http://db/player1&right=http://ny/person1"),
        None,
    );
    assert_eq!(status, 200, "explain failed: {v:?}");
    assert_eq!(v.get("origin").unwrap().as_str(), Some("explored"), "{v:?}");
    v
}

/// Sorted `(left, right)` IRI pairs.
type Pairs = Vec<(String, String)>;

/// Everything a restart must bring back of session `id`: candidates,
/// blacklist, episode and feedback counters, and every engine's
/// `state_fingerprint`.
fn session_state(server: &Server, id: &str) -> (Pairs, Pairs, u64, u64, Vec<u64>) {
    let sessions = server.state().sessions.read().unwrap();
    let session = sessions
        .get(id)
        .unwrap_or_else(|| panic!("no session {id:?}"))
        .handle
        .read();
    let (candidates, blacklist) = session.link_pairs();
    let engines = session.driver().engines().iter();
    let fingerprints = engines.map(|e| e.state_fingerprint()).collect();
    let (episodes, items) = (session.episodes, session.feedback_items);
    (candidates, blacklist, episodes, items, fingerprints)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alex-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, by path, with its bytes.
fn files_under(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(files_under(&path));
        } else {
            files.insert(path.clone(), std::fs::read(&path).unwrap());
        }
    }
    files
}

const MVP_QUERY: &str = "SELECT ?article WHERE { \
    ?player <http://db/award> <http://db/NBA_MVP_2013> . \
    ?article <http://ny/about> ?player }";

fn run_query(addr: &str, id: &str) -> Vec<(String, Vec<(String, String)>)> {
    let (status, v) = http(
        addr,
        "POST",
        &format!("/sessions/{id}/query"),
        Some(&obj(vec![("query", s(MVP_QUERY))])),
    );
    assert_eq!(status, 200, "query failed: {v:?}");
    v.get("answers")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|a| {
            let row = a.get("row").unwrap().as_array().unwrap();
            let article = row[0].get("value").unwrap().as_str().unwrap().to_string();
            let links = a
                .get("links")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|p| {
                    let p = p.as_array().unwrap();
                    (
                        p[0].as_str().unwrap().to_string(),
                        p[1].as_str().unwrap().to_string(),
                    )
                })
                .collect();
            (article, links)
        })
        .collect()
}

#[test]
fn figure1_loop_over_tcp_query_feedback_link_change() {
    let (server, addr) = start(local(|_| {}));

    let (status, v) = http(&addr, "GET", "/healthz", None);
    assert_eq!((status, v), (200, Value::String("ok\n".into())));

    let id = create_session(&addr);

    // Both links produce an answer: the correct and the wrong article.
    let answers = run_query(&addr, &id);
    assert_eq!(
        answers.len(),
        2,
        "correct + wrong link each answer: {answers:?}"
    );
    assert!(
        answers.iter().all(|(_, links)| !links.is_empty()),
        "answers carry provenance"
    );

    // The user marks article0 correct, everything else wrong — exactly
    // the provenance links the answers reported.
    let items: Vec<Value> = answers
        .iter()
        .flat_map(|(article, links)| {
            let approve = article.ends_with("article0");
            links.iter().map(move |(l, r)| {
                obj(vec![
                    ("left", s(l)),
                    ("right", s(r)),
                    ("approve", Value::Bool(approve)),
                ])
            })
        })
        .collect();
    let (status, v) = http(
        &addr,
        "POST",
        &format!("/sessions/{id}/feedback"),
        Some(&obj(vec![("items", Value::Array(items))])),
    );
    assert_eq!(status, 200, "feedback failed: {v:?}");
    assert!(
        v.get("links_removed").unwrap().as_u64().unwrap() >= 1,
        "{v:?}"
    );
    // Positive feedback explores around LeBron=LeBron and discovers the
    // other identically-named players.
    assert!(
        v.get("links_added").unwrap().as_u64().unwrap() >= 3,
        "{v:?}"
    );

    // The wrong link is gone from the candidate list.
    let (status, v) = http(&addr, "GET", &format!("/sessions/{id}/links"), None);
    assert_eq!(status, 200);
    let links: Vec<(String, String)> = v
        .get("links")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|p| {
            let p = p.as_array().unwrap();
            (
                p[0].as_str().unwrap().to_string(),
                p[1].as_str().unwrap().to_string(),
            )
        })
        .collect();
    assert!(links.contains(&("http://db/player0".into(), "http://ny/person0".into())));
    assert!(!links.contains(&("http://db/player0".into(), "http://ny/person1".into())));

    // Re-running the query yields only the correct article.
    let answers = run_query(&addr, &id);
    assert!(
        answers
            .iter()
            .all(|(article, _)| article.ends_with("article0")),
        "wrong answers remain: {answers:?}"
    );

    // Metrics saw the traffic.
    let (status, v) = http(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let Value::String(text) = v else {
        panic!("metrics is text")
    };
    assert!(text.contains("alex_sessions_created_total 1"), "{text}");
    assert!(text.contains("alex_queries_total 2"));
    assert!(text.contains("alex_feedback_items_total 2"));
    assert!(
        text.contains("alex_http_requests_total{route=\"/sessions/{id}/query\",status=\"200\"} 2"),
        "{text}"
    );
    assert!(text.contains(
        "alex_http_request_seconds_bucket{route=\"/sessions/{id}/query\",le=\"+Inf\"} 2"
    ));
    assert!(text.contains("alex_http_request_seconds_count{route=\"/sessions/{id}/query\"} 2"));
    assert!(text.contains("alex_connections_total"));
    // The space build's work, under names that say what they count.
    for counter in [
        "alex_space_similarity_evaluations_total",
        "alex_space_values_total",
    ] {
        let value: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix(counter)?.trim().parse().ok())
            .unwrap_or(0);
        assert!(value > 0, "{counter} missing or zero: {text}");
    }
    // Stage times come from the spans; the table is process-wide, so
    // other tests' closes may add to these counts.
    for stage in ["query.federated", "http.request", "driver.space_build"] {
        assert!(
            text.contains(&format!("alex_stage_seconds_count{{stage=\"{stage}\"}}")),
            "missing stage {stage}: {text}"
        );
    }

    server.shutdown();
}

/// A `/metrics` page after traffic on two sessions, several routes and
/// several stages parses as Prometheus text: every family's `# TYPE` line
/// comes once, before its first sample, and its samples follow it
/// without another family in between.
#[test]
fn metrics_page_types_each_family_once() {
    let (server, addr) = start(local(|_| {}));
    let ids = [create_session(&addr), create_session(&addr)];
    for id in &ids {
        run_query(&addr, id);
        reject_wrong_link(&addr, id);
        http(&addr, "GET", &format!("/sessions/{id}/links"), None);
    }
    approve_correct_link(&addr, &ids[0]);
    http(&addr, "GET", "/healthz", None);
    http(&addr, "GET", "/no/such/route", None);
    let (status, v) = http(&addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let Value::String(page) = v else {
        panic!("/metrics is plain text: {v:?}")
    };

    let mut typed: BTreeMap<&str, &str> = BTreeMap::new();
    let mut samples: BTreeMap<&str, usize> = BTreeMap::new();
    let mut current: Option<(&str, &str)> = None;
    for line in page.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (family, kind) = decl.split_once(' ').expect("# TYPE <family> <kind>");
            assert!(
                typed.insert(family, kind).is_none(),
                "second # TYPE for {family}: {page}"
            );
            current = Some((family, kind));
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        let series = line.split([' ', '{']).next().unwrap();
        let (family, kind) = current.unwrap_or_else(|| panic!("{line:?} before any # TYPE"));
        let own = match kind {
            "histogram" => ["_bucket", "_sum", "_count"]
                .iter()
                .any(|suffix| series.strip_suffix(suffix) == Some(family)),
            _ => series == family,
        };
        assert!(own, "{line:?} under # TYPE {family} {kind}: {page}");
        *samples.entry(family).or_default() += 1;
    }
    // The families that used to repeat their `# TYPE` line did get
    // several series each.
    assert!(samples["alex_http_requests_total"] >= 5, "{samples:?}");
    assert!(samples["alex_stage_seconds"] > samples["alex_http_request_seconds"]);
    for family in ["alex_session_candidates", "alex_session_feedback_total"] {
        assert_eq!(samples[family], 2, "{family}: {page}");
    }
    assert_eq!(typed["alex_session_feedback_total"], "counter");
    assert_eq!(typed["alex_queue_depth"], "gauge");
    assert_eq!(typed["alex_sessions_active"], "gauge");
    server.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let (server, addr) = start(local(|_| {}));
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for i in 0..3 {
        write!(stream, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        // Read exactly one response (headers + 3-byte body "ok\n").
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\nok\n") {
            let n = stream.read(&mut byte).unwrap();
            assert!(n > 0, "connection closed early on request {i}");
            buf.push(byte[0]);
        }
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("Connection: keep-alive"), "{text}");
    }
    server.shutdown();
}

#[test]
fn pipelined_requests_in_one_write_get_complete_responses_in_order() {
    let (server, addr) = start(local(|_| {}));
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nX-Request-Id: first\r\n\r\n\
              GET /nope HTTP/1.1\r\nHost: t\r\nX-Request-Id: second\r\n\r\n",
        )
        .unwrap();
    let (head, body) = read_framed(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
    assert!(head.contains("X-Request-Id: first\r\n"), "{head}");
    assert_eq!(body, b"ok\n");
    let (head, body) = read_framed(&mut stream);
    assert!(head.starts_with("HTTP/1.1 404 Not Found\r\n"), "{head}");
    assert!(head.contains("X-Request-Id: second\r\n"), "{head}");
    let body = serde_json::parse_value_str(std::str::from_utf8(&body).unwrap()).unwrap();
    assert!(body.get("error").is_some(), "{body:?}");
    // The connection is still open for a third request.
    write!(stream, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let (head, body) = read_framed(&mut stream);
    assert!(head.contains("Connection: close\r\n"), "{head}");
    assert_eq!(body, b"ok\n");
    assert_eof(&mut stream);
    server.shutdown();
}

#[test]
fn a_close_request_gets_its_whole_response_before_eof() {
    let (server, addr) = start(local(|_| {}));
    let id = create_session(&addr);
    // The links listing and /metrics are the largest bodies the API sends.
    for path in [format!("/sessions/{id}/links"), "/metrics".to_string()] {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let (head, body) = read_framed(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert!(head.contains("Connection: close\r\n"), "{head}");
        assert!(!body.is_empty(), "{path}");
        assert_eof(&mut stream);
    }
    server.shutdown();
}

#[test]
fn idle_keep_alive_connection_does_not_block_other_workers() {
    // Two workers: one sits on an idle keep-alive connection, waiting for
    // a next request that never comes; the other must serve a second
    // connection at once, not after the idle one times out.
    let timeout = Duration::from_secs(4);
    let (server, addr) = start(local(|cfg| {
        cfg.workers = 2;
        cfg.request_timeout = timeout;
    }));
    let mut idle = TcpStream::connect(&addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(idle, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\nok\n") {
        assert!(idle.read(&mut byte).unwrap() > 0, "idle connection closed");
        buf.push(byte[0]);
    }

    let started = std::time::Instant::now();
    let (status, _) = http(&addr, "GET", "/healthz", None);
    let waited = started.elapsed();
    assert_eq!(status, 200);
    assert!(
        waited < timeout / 2,
        "second connection waited {waited:?} behind the idle one"
    );
    drop(idle);
    server.shutdown();
}

#[test]
fn saturated_queue_answers_503_and_stalled_requests_408() {
    // One worker, queue of one: a stalled connection occupies the worker,
    // a second fills the queue, the third must be rejected immediately.
    let (server, addr) = start(local(|cfg| {
        cfg.workers = 1;
        cfg.queue_depth = 1;
        cfg.request_timeout = Duration::from_millis(600);
    }));

    let mut stalled_busy = TcpStream::connect(&addr).unwrap();
    write!(stalled_busy, "POST /sessions HTTP/1.1\r\n").unwrap(); // never finished
    std::thread::sleep(Duration::from_millis(150)); // worker picks it up
    let mut stalled_queued = TcpStream::connect(&addr).unwrap();
    write!(stalled_queued, "POST /sessions HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(150)); // sits in the queue

    let (status, v) = http(&addr, "GET", "/healthz", None);
    assert_eq!(status, 503, "expected saturation rejection, got {v:?}");
    let Some(error) = v.get("error").and_then(|e| e.as_str()) else {
        panic!("503 carries an error envelope: {v:?}")
    };
    assert!(error.contains("saturated"), "{error}");

    // The stalled in-flight request times out as a 408 and frees the
    // worker; afterwards the server serves normally again.
    stalled_busy
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let (status, _) = read_response(&mut stalled_busy);
    assert_eq!(status, 408);
    stalled_queued
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let (status, _) = read_response(&mut stalled_queued);
    assert_eq!(status, 408);

    let (status, _) = http(&addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "server recovers after drain");

    let (_, v) = http(&addr, "GET", "/metrics", None);
    let Value::String(text) = v else { panic!() };
    assert!(text.contains("alex_connections_rejected_total 1"), "{text}");

    server.shutdown();
}

#[test]
fn the_full_queue_503_arrives_complete() {
    let (server, addr) = start(local(|cfg| {
        cfg.workers = 1;
        cfg.queue_depth = 1;
        cfg.request_timeout = Duration::from_millis(600);
    }));
    // One stalled connection occupies the worker, a second the queue.
    let mut stalled = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(&addr).unwrap();
        write!(stream, "POST /sessions HTTP/1.1\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(150));
        stalled.push(stream);
    }
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let (head, body) = read_framed(&mut stream);
    assert!(
        head.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
        "{head}"
    );
    assert!(head.contains("Connection: close\r\n"), "{head}");
    assert_eq!(
        body,
        b"{\"error\":\"server saturated: connection queue is full\"}\n"
    );
    assert_eof(&mut stream);
    drop(stalled);
    server.shutdown();
}

#[test]
fn graceful_shutdown_persists_restorable_snapshots() {
    let dir = fresh_dir("graceful");
    let cfg = || local(|cfg| cfg.state_dir = Some(dir.clone()));
    let (server, addr) = start(cfg());

    let id = create_session(&addr);
    // Two feedback episodes so the persisted state differs from the input
    // and holds an explored link.
    reject_wrong_link(&addr, &id);
    approve_correct_link(&addr, &id);
    let before = session_state(&server, &id);
    assert!(!before
        .0
        .contains(&("http://db/player0".into(), "http://ny/person1".into())));
    assert_eq!((before.2, before.3), (2, 2));
    let explained = explain_explored_link(&addr, &id);

    let written = server.shutdown();
    assert_eq!(written.len(), 1);
    let path = written[0].as_ref().expect("checkpoint written").clone();
    assert_eq!(
        path,
        dir.join(format!("session-{id}")).join("checkpoint.json")
    );

    // The server is really gone: new connections are refused.
    assert!(
        TcpStream::connect(&addr).is_err(),
        "listener still accepting after shutdown"
    );

    // The checkpoint is a snapshot that restores against reloaded datasets.
    let snap = SessionSnapshot::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let (left_text, right_text) = figure1_world();
    let interner = Interner::new_shared();
    let mut left = Store::new(interner.clone());
    let mut right = Store::new(interner.clone());
    ntriples::read_str(&left_text, &mut left).unwrap();
    ntriples::read_str(&right_text, &mut right).unwrap();
    let driver = snap.restore(&left, &right).expect("snapshot restores");
    assert_eq!(driver.candidate_links().len(), snap.candidates.len());

    // A new server on the same directory has the session back exactly,
    // and allocates ids past it.
    let (server, addr) = start(cfg());
    assert_eq!(session_state(&server, &id), before);
    assert_eq!(explain_explored_link(&addr, &id), explained);
    assert_ne!(create_session(&addr), id);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_per_session_wal_survives_a_crash_without_server_wal() {
    let dir = fresh_dir("crash");
    let cfg = || local(|cfg| cfg.state_dir = Some(dir.clone()));
    let (server, addr) = start(cfg());
    let logged = create_session_with(
        &addr,
        vec![("durability", obj(vec![("wal", Value::Bool(true))]))],
    );
    let unlogged = create_session(&addr);
    let unlogged_at_creation = session_state(&server, &unlogged);
    reject_wrong_link(&addr, &logged);
    approve_correct_link(&addr, &logged);
    reject_wrong_link(&addr, &unlogged);
    let before = session_state(&server, &logged);
    assert_eq!((before.2, before.3), (2, 2));
    let explained = explain_explored_link(&addr, &logged);
    assert_ne!(session_state(&server, &unlogged), unlogged_at_creation);

    // A crash: no shutdown path, so nothing is checkpointed.
    drop(server);
    let (server, addr) = start(cfg());
    // The logged session replays its episodes; the other comes back at
    // its last checkpoint, taken when it was created.
    assert_eq!(session_state(&server, &logged), before);
    assert_eq!(explain_explored_link(&addr, &logged), explained);
    assert_eq!(session_state(&server, &unlogged), unlogged_at_creation);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Session `id`'s learning-health gauges and feedback counter as
/// `/metrics` reports them, by series name.
fn learning_metrics(addr: &str, id: &str) -> BTreeMap<String, u64> {
    let (status, v) = http(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let Value::String(text) = v else {
        panic!("/metrics is plain text: {v:?}")
    };
    let names = [
        "alex_session_choices{",
        "alex_session_rollbacks{",
        "alex_session_q_entries{",
        "alex_session_blacklisted{",
        "alex_session_feedback_total{",
    ];
    (text.lines())
        .filter(|l| names.iter().any(|n| l.starts_with(n)))
        .filter(|l| l.contains(&format!("session=\"{id}\"")))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').unwrap();
            (series.to_string(), value.parse().unwrap())
        })
        .collect()
}

/// The learning-health gauges read session state, and the feedback
/// counter is seeded from it at boot, so a restart after a crash (WAL
/// replay) or a graceful shutdown (checkpoint) reports the same values.
#[test]
fn learning_gauges_and_feedback_total_survive_restarts() {
    let dir = fresh_dir("gauges");
    let cfg = || {
        local(|cfg| {
            cfg.state_dir = Some(dir.clone());
            cfg.durability.wal = true;
        })
    };
    let (server, addr) = start(cfg());
    let id = create_session_with(
        &addr,
        vec![("epsilon", Value::Number(serde_json::Number::F64(0.5)))],
    );
    reject_wrong_link(&addr, &id);
    approve_correct_link(&addr, &id);
    // Five negatives on a link the approval explored reach the rollback
    // threshold of the pair that generated it.
    let explored = obj(vec![
        ("left", s("http://db/player1")),
        ("right", s("http://ny/person1")),
        ("approve", Value::Bool(false)),
    ]);
    let (status, v) = http(
        &addr,
        "POST",
        &format!("/sessions/{id}/feedback"),
        Some(&obj(vec![("items", Value::Array(vec![explored; 5]))])),
    );
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("rollbacks").unwrap().as_u64(), Some(1), "{v:?}");
    judge(&addr, &id, "http://ny/person0", true);

    let before = learning_metrics(&addr, &id);
    let get = |name: &str| before[&format!("{name}{{session=\"{id}\"}}")];
    let choice =
        |c: &str| before[&format!("alex_session_choices{{session=\"{id}\",choice=\"{c}\"}}")];
    assert_eq!(get("alex_session_feedback_total"), 8);
    assert_eq!(choice("explore") + choice("exploit"), 2, "{before:?}");
    assert_eq!(get("alex_session_rollbacks"), 1);
    assert_eq!(get("alex_session_blacklisted"), 2);
    assert!(get("alex_session_q_entries") > 0, "{before:?}");
    {
        let sessions = server.state().sessions.read().unwrap();
        let session = sessions[&id].handle.read();
        assert_eq!(
            (choice("explore"), choice("exploit")),
            (session.explored, session.exploited)
        );
    }

    drop(server); // a crash: the log replays at boot
    let (server, addr) = start(cfg());
    assert_eq!(learning_metrics(&addr, &id), before, "after WAL replay");
    server.shutdown(); // a checkpoint folds the log
    let (server, addr) = start(cfg());
    assert_eq!(learning_metrics(&addr, &id), before, "after a checkpoint");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn boot_reserves_the_ids_of_sessions_it_cannot_recover() {
    let dir = fresh_dir("unrecoverable");
    let cfg = || {
        local(|cfg| {
            cfg.state_dir = Some(dir.clone());
            cfg.durability.wal = true;
        })
    };
    let (server, addr) = start(cfg());
    assert_eq!(create_session(&addr), "s1");
    reject_wrong_link(&addr, "s1");
    drop(server);

    // The checkpoint is damaged, so `s1` cannot be recovered; its log
    // still holds the acknowledged episode.
    let session = dir.join("session-s1");
    std::fs::write(session.join("checkpoint.json"), b"{ not a checkpoint").unwrap();
    let files = files_under(&session);
    assert!(
        files
            .iter()
            .any(|(p, bytes)| p.starts_with(session.join("wal")) && !bytes.is_empty()),
        "{:?}",
        files.keys()
    );

    let (server, addr) = start(cfg());
    assert_eq!(create_session(&addr), "s2");
    assert!(files_under(&session) == files, "session-s1/ was modified");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A query the parser rejects is a 400 envelope, and the worker that read
/// it lives on: with two workers, three non-ASCII queries (each of which
/// once panicked the worker it reached) and one nested past the filter
/// depth limit leave the server answering `/healthz` and valid queries.
#[test]
fn unparsable_queries_are_400s_and_workers_survive() {
    let (server, addr) = start(local(|cfg| cfg.workers = 2));
    let id = create_session(&addr);
    let path = format!("/sessions/{id}/query");
    let deep = format!("SELECT ?x WHERE {{ ?x ?p ?o FILTER({}", "(".repeat(100_000));
    for query in ["lang ⽆", "lang ⽆", "lang ⽆", &deep] {
        let (status, v) = http(&addr, "POST", &path, Some(&obj(vec![("query", s(query))])));
        assert_eq!(status, 400, "{v:?}");
        assert!(v.get("error").and_then(Value::as_str).is_some(), "{v:?}");
    }
    assert_eq!(http(&addr, "GET", "/healthz", None).0, 200);
    assert_eq!(run_query(&addr, &id).len(), 2, "both links still answer");
    server.shutdown();
}

#[test]
fn protocol_probes_get_clean_errors() {
    let (server, addr) = start(local(|cfg| cfg.request_timeout = Duration::from_secs(2)));

    // Garbage on the socket → 400, connection closed.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "NOT HTTP AT ALL\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 400);

    // Unknown route → 404; wrong method → 405; bad JSON → 400.
    assert_eq!(http(&addr, "GET", "/nope", None).0, 404);
    assert_eq!(http(&addr, "DELETE", "/healthz", None).0, 405);
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "POST /sessions HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\n{{oop"
    )
    .unwrap();
    write!(stream, "s").unwrap();
    let (status, v) = read_response(&mut stream);
    assert_eq!(status, 400, "{v:?}");

    server.shutdown();
}
