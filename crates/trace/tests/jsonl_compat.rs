//! Backward compatibility of the JSON-lines trace format: `alex trace
//! --input` must keep reading logs written by older builds.
//!
//! `data/events-v1.jsonl` holds one line per [`Payload`] kind exactly as
//! the original hand-rolled encoder wrote them: floats in `{:?}` form
//! (`1.0`, `1e-9`), a `\u0001` escape and multi-byte UTF-8.

use alex_trace::{parse_jsonl, Event, Payload};

const V1: &str = include_str!("data/events-v1.jsonl");

fn expected() -> Vec<Event> {
    let payloads = vec![
        Payload::SpanStart {
            name: "http.request".into(),
        },
        Payload::SpanEnd {
            name: "http.request".into(),
            elapsed_us: 870,
        },
        Payload::HttpRequest {
            request_id: "probe-1".into(),
            method: "POST".into(),
            path: "/sessions/s1/query".into(),
        },
        Payload::HttpResponse {
            request_id: "probe-1".into(),
            route: "query".into(),
            status: 200,
        },
        Payload::SourceAttempt {
            source: "dbpedia".into(),
            attempt: 2,
            outcome: "timeout".into(),
            wait_ms: 120,
            backoff_ms: 45,
            breaker: "closed".into(),
        },
        Payload::BreakerTransition {
            source: "nytimes".into(),
            from: "closed".into(),
            to: "open".into(),
        },
        Payload::SourceSkipped {
            source: "nytimes".into(),
            reason: "breaker_open".into(),
        },
        Payload::QueryDegraded { skipped: 1 },
        Payload::Feedback {
            link: "http://l/Zoë\thttp://r/Zoë".into(),
            positive: true,
        },
        Payload::Decision {
            state: "http://l/e1\thttp://r/e1".into(),
            epsilon: 1e-9,
            explored: true,
            chosen: "l/name\tr/label".into(),
            greedy: "".into(),
            q: 1.0,
            q_defined: true,
            observations: 8,
            actions: 3,
            space: 420,
        },
        Payload::LinkAdded {
            link: "http://l/東京\thttp://r/東京".into(),
            state: "http://l/e1\thttp://r/e1".into(),
            feature: "l/name\tr/label".into(),
            score: 0.8125,
        },
        Payload::LinkRemoved {
            link: "http://l/e2\thttp://r/e9".into(),
            reason: "rollback".into(),
        },
        Payload::Rollback {
            state: "http://l/e1\thttp://r/e1".into(),
            feature: "l/year\tr/born".into(),
            removed: 3,
        },
        Payload::EpisodeEnd {
            partition: 1,
            feedback: 55,
            added: 7,
            removed: 2,
        },
        Payload::WalAppend {
            session: "s1".into(),
            kind: "feedback".into(),
            seq: 42,
            bytes: 96,
        },
        Payload::WalRotate {
            session: "s1".into(),
            segment: 3,
        },
        Payload::WalReplay {
            session: "s1".into(),
            records: 41,
            truncated_bytes: 17,
        },
        Payload::WalCompact {
            session: "s1".into(),
            up_to_seq: 42,
            segments_removed: 2,
        },
        Payload::Message {
            level: "warn".into(),
            text: "ctrl \u{1} quote \" backslash \\ newline \n tab \t cr \r emoji 😀".into(),
        },
    ];
    payloads
        .into_iter()
        .enumerate()
        .map(|(i, payload)| {
            let seq = i as u64 + 1;
            Event {
                seq,
                ts_us: 1_000_000 + seq * 137,
                trace: 0x5eed_1234,
                span: 100 + seq,
                parent: 100,
                payload,
            }
        })
        .collect()
}

#[test]
fn v1_lines_parse_to_the_same_events() {
    let events = expected();
    let lines: Vec<&str> = V1.lines().collect();
    assert_eq!(lines.len(), events.len(), "one fixture line per event");
    for (line, want) in lines.iter().zip(&events) {
        assert_eq!(&Event::parse_json_line(line).unwrap(), want, "{line}");
    }
    assert_eq!(parse_jsonl(V1).unwrap(), events);
}

#[test]
fn fixture_covers_every_payload_kind() {
    let mut kinds: Vec<&str> = expected().iter().map(|e| e.payload.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 19);
}

#[test]
fn new_lines_differ_from_v1_only_in_float_rendering() {
    // Floats now render in `{}` form; every other byte, field order
    // included, is what the original encoder wrote.
    for (line, event) in V1.lines().zip(expected()) {
        let v1 = line
            .replace(r#""epsilon":1e-9"#, r#""epsilon":0.000000001"#)
            .replace(r#""q":1.0"#, r#""q":1"#);
        assert_eq!(event.to_json_line(), v1);
    }
}
