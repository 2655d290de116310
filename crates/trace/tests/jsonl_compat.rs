//! Backward compatibility of the JSON-lines trace format: `alex trace
//! --input` must keep reading logs written by older builds.
//!
//! `data/events-v1.jsonl` holds one line per payload kind the original
//! hand-rolled encoder wrote, exactly as it wrote them: a `\u0001` escape
//! and multi-byte UTF-8 included. Lines 5–8 (the per-probe federation
//! kinds) and 9–14 (the per-link learning kinds) are kinds later builds
//! retired ([`RETIRED_KINDS`]); the document parser skips them.

use alex_trace::{parse_jsonl, Event, Payload, RETIRED_KINDS};

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
    // Line numbers of the kept lines: 1–4, then 15–19 after the ten
    // retired ones.
    let seqs = (1..=4).chain(15..=19);
    payloads
        .into_iter()
        .zip(seqs)
        .map(|(payload, seq)| Event {
            seq,
            ts_us: 1_000_000 + seq * 137,
            trace: 0x5eed_1234,
            span: 100 + seq,
            parent: 100,
            payload,
        })
        .collect()
}

/// The fixture lines of kinds this build still records.
fn kept_lines() -> Vec<&'static str> {
    V1.lines().filter(|l| !is_retired(l)).collect()
}

fn is_retired(line: &str) -> bool {
    (RETIRED_KINDS.iter()).any(|k| line.contains(&format!(r#""kind":"{k}""#)))
}

#[test]
fn v1_lines_parse_to_the_same_events() {
    let events = expected();
    let lines = kept_lines();
    assert_eq!(lines.len(), events.len(), "one kept fixture line per event");
    for (line, want) in lines.iter().zip(&events) {
        assert_eq!(&Event::parse_json_line(line).unwrap(), want, "{line}");
    }
    assert_eq!(parse_jsonl(V1).unwrap(), events);
}

#[test]
fn retired_lines_are_skipped() {
    let retired: Vec<&str> = V1.lines().filter(|l| is_retired(l)).collect();
    assert_eq!(
        retired.len(),
        RETIRED_KINDS.len(),
        "one line per retired kind"
    );
    for line in &retired {
        assert!(Event::parse_json_line(line).is_err(), "{line}");
    }
    assert!(parse_jsonl(&retired.join("\n")).unwrap().is_empty());
}

#[test]
fn fixture_covers_every_payload_kind() {
    let mut kinds: Vec<&str> = expected().iter().map(|e| e.payload.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 9);
    assert_eq!(V1.lines().count(), kinds.len() + RETIRED_KINDS.len());
}

#[test]
fn kept_lines_encode_exactly_as_v1() {
    // Every byte, field order included, is what the original encoder
    // wrote.
    for (line, event) in kept_lines().into_iter().zip(expected()) {
        assert_eq!(event.to_json_line(), line);
    }
}

#[test]
fn two_and_three_byte_utf8_round_trip_in_a_kept_kind() {
    // The fixture's 2- and 3-byte characters sit in retired lines (9 and
    // 11), so this line carries them in a kept kind, written the way the
    // original encoder wrote non-ASCII text: raw, unescaped.
    let line = r#"{"seq":20,"ts_us":1002740,"trace":1592594996,"span":120,"parent":100,"kind":"http_request","request_id":"probe-Zoë","method":"GET","path":"/sessions/東京/links"}"#;
    let event = Event::parse_json_line(line).unwrap();
    assert_eq!(
        event.payload,
        Payload::HttpRequest {
            request_id: "probe-Zoë".into(),
            method: "GET".into(),
            path: "/sessions/東京/links".into(),
        }
    );
    assert_eq!(event.to_json_line(), line);
}
