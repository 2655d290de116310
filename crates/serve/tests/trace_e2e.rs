//! End-to-end tracing through a live server: a real TCP client issues a
//! federated sameAs join with an `X-Request-Id`, then reads that
//! request's trace back through `GET /debug/trace/{id}`: its spans, and
//! no event per source probe, however many probes the query response
//! reports. The trace is still there after feedback episodes on the same
//! worker, and each episode records its `rl.episode` span.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

use alex_core::trace::{self, Payload, TraceMode};
use alex_serve::{ServeConfig, Server};

/// One HTTP/1.0-style exchange on a fresh connection (`Connection:
/// close`), returning (status, headers, body).
fn exchange(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("response framing");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// The flight recorder is process-global: each test holds this lock
/// while it configures the recorder and reads it back.
static RECORDER: Mutex<()> = Mutex::new(());

/// A session of `n` entity pairs named alike, starting from two links.
fn session_body(n: usize) -> String {
    let mut left = String::new();
    let mut right = String::new();
    for i in 0..n {
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

/// Every left entity's name and its counterpart's label: each of the
/// first pattern's rows probes both sources for the entity and for each
/// of its sameAs counterparts.
const JOIN_QUERY: &str =
    "SELECT ?l ?label WHERE { ?l <http://l/name> ?n . ?l <http://r/label> ?label }";

#[test]
fn a_join_traces_its_spans_not_its_probes() {
    let _recorder = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    // With tracing off, the debug endpoints refuse rather than serve an
    // empty trace.
    {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("server start");
        trace::configure(TraceMode::Off).expect("reset trace config");
        let (status, _, body) = exchange(server.local_addr(), "GET", "/debug/events", "", "");
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("ALEX_TRACE"), "{body}");
        server.shutdown();
    }

    trace::configure(TraceMode::Ring).expect("enable ring recorder");

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr();

    // Create a session; the server assigns a request id when the client
    // brings none.
    let (status, headers, body) = exchange(addr, "POST", "/sessions", "", &session_body(4));
    assert_eq!(status, 201, "{body}");
    assert!(
        header(&headers, "x-request-id").is_some_and(|id| id.starts_with('r')),
        "server should assign an X-Request-Id: {headers:?}"
    );
    let created = serde_json::parse_value_str(&body).unwrap();
    let id = created.get("id").unwrap().as_str().unwrap().to_string();

    // Query with a client-supplied request id; it must be echoed back.
    let rid = "e2e-trace-42";
    let (status, headers, body) = exchange(
        addr,
        "POST",
        &format!("/sessions/{id}/query"),
        &format!("X-Request-Id: {rid}\r\n"),
        &format!(r#"{{"query": "{JOIN_QUERY}"}}"#),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(header(&headers, "x-request-id"), Some(rid));
    let report = serde_json::parse_value_str(&body).unwrap();
    assert_eq!(
        report.get("count").unwrap().as_u64(),
        Some(2),
        "the two linked pairs join: {body}"
    );

    // The request's trace is retrievable by its id and holds the request,
    // the response and two spans: fewer events than the join's probes.
    let (status, _, jsonl) = exchange(addr, "GET", &format!("/debug/trace/{rid}"), "", "");
    assert_eq!(status, 200, "{jsonl}");
    let events = trace::parse_jsonl(&jsonl).expect("trace endpoint returns valid JSONL");
    assert!(
        events.iter().any(|e| matches!(
            &e.payload,
            Payload::HttpRequest { request_id, path, .. }
                if request_id == rid && path.contains("/query")
        )),
        "trace should open with the http_request event: {jsonl}"
    );
    let probes: u64 = (report.get("sources").unwrap().as_array().unwrap().iter())
        .map(|source| source.get("probes").unwrap().as_u64().unwrap())
        .sum();
    let kinds: Vec<&str> = events.iter().map(|e| e.payload.kind()).collect();
    assert_eq!(
        kinds,
        [
            "span_start",
            "http_request",
            "span_start",
            "span_end",
            "http_response",
            "span_end"
        ],
        "{jsonl}"
    );
    assert!(
        probes > events.len() as u64,
        "{probes} probes, {} events:\n{jsonl}",
        events.len()
    );

    // The tree rendering shows the span hierarchy under the HTTP request.
    let (status, _, tree) = exchange(
        addr,
        "GET",
        &format!("/debug/trace/{rid}?format=tree"),
        "",
        "",
    );
    assert_eq!(status, 200);
    assert!(tree.contains("http.request"), "{tree}");
    assert!(tree.contains("query.federated"), "{tree}");

    // /debug/events honors its limit.
    let (status, _, jsonl) = exchange(addr, "GET", "/debug/events?limit=5", "", "");
    assert_eq!(status, 200);
    assert!(jsonl.lines().count() <= 5, "{jsonl}");

    // Unknown request ids are a 404, not an empty 200.
    let (status, _, _) = exchange(addr, "GET", "/debug/trace/never-seen", "", "");
    assert_eq!(status, 404);

    server.shutdown();
    trace::configure(TraceMode::Off).expect("reset trace config");
}

/// `/debug/trace/{request_id}` exists to show a request's events after
/// the fact, so the feedback episodes that follow a query on the same
/// worker must not evict them from the 16,384-event ring: the engine
/// records no event per feedback item, choice or link change. Each
/// episode's own work is one `rl.episode` span, in its request's trace
/// and in the `/metrics` stage table.
#[test]
fn query_trace_survives_feedback_episodes_on_the_same_worker() {
    let _recorder = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    trace::configure(TraceMode::Ring).expect("enable ring recorder");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server start");
    let addr = server.local_addr();

    const PAIRS: usize = 300;
    let (status, _, body) = exchange(addr, "POST", "/sessions", "", &session_body(PAIRS));
    assert_eq!(status, 201, "{body}");
    let created = serde_json::parse_value_str(&body).unwrap();
    let id = created.get("id").unwrap().as_str().unwrap().to_string();

    let rid = "survives-feedback";
    let (status, _, body) = exchange(
        addr,
        "POST",
        &format!("/sessions/{id}/query"),
        &format!("X-Request-Id: {rid}\r\n"),
        r#"{"query": "SELECT ?n WHERE { ?l <http://l/name> ?n }"}"#,
    );
    assert_eq!(status, 200, "{body}");

    // Four episodes, each approving every true pair: one exploration per
    // item, and the first one adds every other pair.
    let items: Vec<String> = (0..PAIRS)
        .map(|i| {
            format!(r#"{{"left": "http://l/e{i}", "right": "http://r/e{i}", "approve": true}}"#)
        })
        .collect();
    let feedback = format!(r#"{{"items": [{}]}}"#, items.join(","));
    for round in 0..4 {
        let (status, _, body) = exchange(
            addr,
            "POST",
            &format!("/sessions/{id}/feedback"),
            &format!("X-Request-Id: feedback-{round}\r\n"),
            &feedback,
        );
        assert_eq!(status, 200, "{body}");
    }
    let (status, _, jsonl) = exchange(addr, "GET", "/debug/trace/feedback-0", "", "");
    assert_eq!(status, 200, "{jsonl}");
    let events = trace::parse_jsonl(&jsonl).expect("trace endpoint returns valid JSONL");
    let spans: Vec<&str> = (events.iter())
        .filter_map(|e| match &e.payload {
            Payload::SpanStart { name } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(spans, ["http.request", "rl.episode"], "{jsonl}");
    let (status, _, metrics) = exchange(addr, "GET", "/metrics", "", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains(r#"alex_stage_seconds_count{stage="rl.episode"} "#),
        "{metrics}"
    );

    let (status, _, jsonl) = exchange(addr, "GET", &format!("/debug/trace/{rid}"), "", "");
    assert_eq!(status, 200, "the query's trace was evicted: {jsonl}");
    let events = trace::parse_jsonl(&jsonl).expect("trace endpoint returns valid JSONL");
    assert!(
        (events.iter()).any(|e| matches!(
            &e.payload,
            Payload::HttpRequest { request_id, .. } if request_id == rid
        )),
        "{jsonl}"
    );
    assert!(
        (events.iter()).any(|e| matches!(
            &e.payload,
            Payload::SpanStart { name } if name == "query.federated"
        )),
        "{jsonl}"
    );

    server.shutdown();
    trace::configure(TraceMode::Off).expect("reset trace config");
}
