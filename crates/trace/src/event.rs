//! Typed trace events and their JSON-lines encoding.
//!
//! Every event is one flat JSON object per line, tagged by `kind`, with
//! scalar values only. The schema is part of the tool surface: `alex
//! trace` and the `/debug/*` endpoints parse these lines back, so
//! [`Event::to_json_line`] and [`Event::parse_json_line`] must stay exact
//! inverses, and logs written by older builds must keep parsing (locked
//! by tests). Both directions go through `serde_json::Value`, whose
//! objects keep insertion order, so field order is the order written
//! here.

use serde_json::{Number, Value};

/// The typed body of one trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// A span opened (`span` is its id, `parent` the enclosing span).
    SpanStart {
        /// Span name, dotted taxonomy (e.g. `http.request`, `rl.episode`).
        name: String,
    },
    /// A span closed.
    SpanEnd {
        /// Name repeated from the matching start, for greppability.
        name: String,
        /// Wall time between start and end, in microseconds.
        elapsed_us: u64,
    },
    /// An HTTP request entered the server.
    HttpRequest {
        /// The `X-Request-Id` (client-supplied or server-assigned).
        request_id: String,
        /// HTTP method.
        method: String,
        /// Request path.
        path: String,
    },
    /// An HTTP response left the server.
    HttpResponse {
        /// The request id this response answers.
        request_id: String,
        /// The route label the request resolved to.
        route: String,
        /// HTTP status code.
        status: u64,
    },
    /// Records were appended to a session's write-ahead log.
    WalAppend {
        /// Session id owning the log.
        session: String,
        /// Record kind of the first record in the batch.
        kind: String,
        /// Sequence number of the last record in the batch.
        seq: u64,
        /// Frame bytes written (headers included).
        bytes: u64,
    },
    /// A write-ahead log rotated to a new segment.
    WalRotate {
        /// Session id owning the log.
        session: String,
        /// Index of the segment rotated into.
        segment: u64,
    },
    /// A write-ahead log was replayed at boot.
    WalReplay {
        /// Session id owning the log.
        session: String,
        /// Records recovered.
        records: u64,
        /// Torn-tail bytes discarded.
        truncated_bytes: u64,
    },
    /// A write-ahead log was compacted into a checkpoint.
    WalCompact {
        /// Session id owning the log.
        session: String,
        /// Every record at or below this sequence is in the checkpoint.
        up_to_seq: u64,
        /// Dead segment files deleted.
        segments_removed: u64,
    },
    /// A free-form diagnostic routed through the event log.
    Message {
        /// `info`, `warn`, or `error`.
        level: String,
        /// The message text.
        text: String,
    },
}

impl Payload {
    /// The `kind` tag this payload serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::SpanStart { .. } => "span_start",
            Payload::SpanEnd { .. } => "span_end",
            Payload::HttpRequest { .. } => "http_request",
            Payload::HttpResponse { .. } => "http_response",
            Payload::WalAppend { .. } => "wal_append",
            Payload::WalRotate { .. } => "wal_rotate",
            Payload::WalReplay { .. } => "wal_replay",
            Payload::WalCompact { .. } => "wal_compact",
            Payload::Message { .. } => "message",
        }
    }
}

/// Kinds that earlier builds wrote once per feedback item, choice, link
/// change, rollback and episode, and once per federated source probe,
/// breaker change, skipped source and degraded query. Engine state
/// (`explain`), the per-session `/metrics` gauges and a query's
/// per-source report replaced them, so logs that hold them still parse
/// through [`parse_jsonl`], which skips those lines.
pub const RETIRED_KINDS: [&str; 10] = [
    "feedback",
    "decision",
    "link_added",
    "link_removed",
    "rollback",
    "episode_end",
    "source_attempt",
    "breaker_transition",
    "source_skipped",
    "query_degraded",
];

/// One recorded event: ring-buffer ordering metadata plus the payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Microseconds since the recorder's monotonic epoch.
    pub ts_us: u64,
    /// Trace this event belongs to (`0` = outside any trace).
    pub trace: u64,
    /// Span this event was emitted under (`0` = none).
    pub span: u64,
    /// Parent span (only meaningful on `span_start`/`span_end`).
    pub parent: u64,
    /// The typed body.
    pub payload: Payload,
}

fn string(v: &str) -> Value {
    Value::String(v.to_owned())
}

fn uint(v: u64) -> Value {
    Value::Number(Number::U64(v))
}

impl Event {
    /// Serializes the event to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut o: Vec<(String, Value)> = Vec::with_capacity(16);
        let mut put = |key: &str, v: Value| o.push((key.to_owned(), v));
        put("seq", uint(self.seq));
        put("ts_us", uint(self.ts_us));
        put("trace", uint(self.trace));
        put("span", uint(self.span));
        put("parent", uint(self.parent));
        put("kind", string(self.payload.kind()));
        match &self.payload {
            Payload::SpanStart { name } => put("name", string(name)),
            Payload::SpanEnd { name, elapsed_us } => {
                put("name", string(name));
                put("elapsed_us", uint(*elapsed_us));
            }
            Payload::HttpRequest {
                request_id,
                method,
                path,
            } => {
                put("request_id", string(request_id));
                put("method", string(method));
                put("path", string(path));
            }
            Payload::HttpResponse {
                request_id,
                route,
                status,
            } => {
                put("request_id", string(request_id));
                put("route", string(route));
                put("status", uint(*status));
            }
            Payload::WalAppend {
                session,
                kind,
                seq,
                bytes,
            } => {
                put("session", string(session));
                put("record", string(kind));
                put("wal_seq", uint(*seq));
                put("bytes", uint(*bytes));
            }
            Payload::WalRotate { session, segment } => {
                put("session", string(session));
                put("segment", uint(*segment));
            }
            Payload::WalReplay {
                session,
                records,
                truncated_bytes,
            } => {
                put("session", string(session));
                put("records", uint(*records));
                put("truncated_bytes", uint(*truncated_bytes));
            }
            Payload::WalCompact {
                session,
                up_to_seq,
                segments_removed,
            } => {
                put("session", string(session));
                put("up_to_seq", uint(*up_to_seq));
                put("segments_removed", uint(*segments_removed));
            }
            Payload::Message { level, text } => {
                put("level", string(level));
                put("text", string(text));
            }
        }
        Value::Object(o).to_json_string(false)
    }

    /// Parses one line produced by [`Event::to_json_line`]. A line of a
    /// retired kind is an error here; [`parse_jsonl`] skips it.
    pub fn parse_json_line(line: &str) -> Result<Event, String> {
        Event::parse_kept_line(line)?.ok_or_else(|| format!("retired event kind: {line}"))
    }

    /// [`Event::parse_json_line`], with `None` for a line of a
    /// [`RETIRED_KINDS`] kind.
    fn parse_kept_line(line: &str) -> Result<Option<Event>, String> {
        let Value::Object(kv) = serde_json::parse_value_str(line).map_err(|e| e.to_string())?
        else {
            return Err("an event line must be a JSON object".into());
        };
        if let Some((key, _)) = kv
            .iter()
            .find(|(_, v)| matches!(v, Value::Array(_) | Value::Object(_)))
        {
            return Err(format!("field {key:?}: event fields are scalars"));
        }
        let get = |key: &str| kv.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let req_str = |key: &str| -> Result<String, String> {
            get(key)
                .and_then(|v| v.as_str())
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let num = |key: &str| get(key).and_then(|v| v.as_u64()).unwrap_or(0);

        let kind = req_str("kind")?;
        let payload = match kind.as_str() {
            "span_start" => Payload::SpanStart {
                name: req_str("name")?,
            },
            "span_end" => Payload::SpanEnd {
                name: req_str("name")?,
                elapsed_us: num("elapsed_us"),
            },
            "http_request" => Payload::HttpRequest {
                request_id: req_str("request_id")?,
                method: req_str("method")?,
                path: req_str("path")?,
            },
            "http_response" => Payload::HttpResponse {
                request_id: req_str("request_id")?,
                route: req_str("route")?,
                status: num("status"),
            },
            "wal_append" => Payload::WalAppend {
                session: req_str("session")?,
                kind: req_str("record")?,
                seq: num("wal_seq"),
                bytes: num("bytes"),
            },
            "wal_rotate" => Payload::WalRotate {
                session: req_str("session")?,
                segment: num("segment"),
            },
            "wal_replay" => Payload::WalReplay {
                session: req_str("session")?,
                records: num("records"),
                truncated_bytes: num("truncated_bytes"),
            },
            "wal_compact" => Payload::WalCompact {
                session: req_str("session")?,
                up_to_seq: num("up_to_seq"),
                segments_removed: num("segments_removed"),
            },
            "message" => Payload::Message {
                level: req_str("level")?,
                text: req_str("text")?,
            },
            other if RETIRED_KINDS.contains(&other) => return Ok(None),
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(Some(Event {
            seq: num("seq"),
            ts_us: num("ts_us"),
            trace: num("trace"),
            span: num("span"),
            parent: num("parent"),
            payload,
        }))
    }
}

/// Serializes events to JSON lines (one per line, trailing newline).
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json_line());
        out.push('\n');
    }
    out
}

/// Parses a JSON-lines document back into events; blank lines and lines
/// of a [`RETIRED_KINDS`] kind are skipped.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .filter_map(|l| Event::parse_kept_line(l).transpose())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let mk = |seq, payload| Event {
            seq,
            ts_us: seq * 10,
            trace: 1,
            span: seq,
            parent: seq.saturating_sub(1),
            payload,
        };
        vec![
            mk(
                1,
                Payload::SpanStart {
                    name: "http.request".into(),
                },
            ),
            mk(
                2,
                Payload::HttpResponse {
                    request_id: "probe-1".into(),
                    route: "query".into(),
                    status: 200,
                },
            ),
            mk(
                3,
                Payload::HttpRequest {
                    request_id: "probe-1".into(),
                    method: "POST".into(),
                    path: "/sessions/s1/query".into(),
                },
            ),
            mk(
                4,
                Payload::Message {
                    level: "warn".into(),
                    text: "needs \"escaping\"\nand newlines".into(),
                },
            ),
            mk(
                5,
                Payload::SpanEnd {
                    name: "http.request".into(),
                    elapsed_us: 870,
                },
            ),
            mk(
                6,
                Payload::WalAppend {
                    session: "s1".into(),
                    kind: "feedback".into(),
                    seq: 42,
                    bytes: 96,
                },
            ),
            mk(
                7,
                Payload::WalRotate {
                    session: "s1".into(),
                    segment: 3,
                },
            ),
            mk(
                8,
                Payload::WalReplay {
                    session: "s1".into(),
                    records: 41,
                    truncated_bytes: 17,
                },
            ),
            mk(
                9,
                Payload::WalCompact {
                    session: "s1".into(),
                    up_to_seq: 42,
                    segments_removed: 2,
                },
            ),
        ]
    }

    #[test]
    fn every_payload_kind_round_trips() {
        for e in sample_events() {
            let line = e.to_json_line();
            let back = Event::parse_json_line(&line).unwrap();
            assert_eq!(back, e, "line: {line}");
        }
    }

    #[test]
    fn jsonl_document_round_trips() {
        let events = sample_events();
        let doc = to_jsonl(&events);
        assert_eq!(doc.lines().count(), events.len());
        assert_eq!(parse_jsonl(&doc).unwrap(), events);
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let line = r#"{"seq":1,"kind":"martian"}"#;
        assert!(Event::parse_json_line(line).is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let text = "a \"b\"\n\t\r\\ ü 東京 😀 \u{1} \u{1f}";
        let mut e = sample_events().swap_remove(3);
        e.payload = Payload::Message {
            level: "warn".into(),
            text: text.into(),
        };
        let line = e.to_json_line();
        assert!(
            line.contains(r"\u0001") && line.contains(r"\u001f"),
            "{line}"
        );
        assert!(!line.contains('\n'), "one event, one line: {line}");
        assert_eq!(Event::parse_json_line(&line).unwrap(), e);
    }

    #[test]
    fn retired_kinds_are_skipped_by_the_document_parser_only() {
        let kept = sample_events().swap_remove(0);
        let mut doc = String::new();
        for kind in RETIRED_KINDS {
            doc.push_str(&format!(
                "{{\"seq\":9,\"kind\":\"{kind}\",\"link\":\"a\\tb\"}}\n"
            ));
        }
        doc.push_str(&kept.to_json_line());
        assert_eq!(parse_jsonl(&doc).unwrap(), vec![kept]);
        for line in doc.lines().take(RETIRED_KINDS.len()) {
            let err = Event::parse_json_line(line).unwrap_err();
            assert!(err.starts_with("retired event kind"), "{err}");
        }
    }

    #[test]
    fn garbage_and_nested_values_are_errors() {
        for line in [
            "not json",
            "",
            r#"["span_start"]"#,
            r#"{"seq":}"#,
            r#"{"seq":1,"kind":"span_start","name":"unterminated"#,
            r#"{"seq":1,"kind":"span_start","name":"x"} trailing"#,
            r#"{"seq":1,"kind":{"nested":1},"name":"x"}"#,
            r#"{"seq":1,"kind":"span_start","name":"x","extra":[1]}"#,
            r#"{"seq":1,"kind":"span_start"}"#,
        ] {
            assert!(Event::parse_json_line(line).is_err(), "{line}");
        }
    }
}
