//! Pretty-printing a recorded trace as an indented span tree.

use crate::event::{Event, Payload};
use std::collections::HashMap;
use std::fmt::Write as _;

fn one_line(e: &Event) -> String {
    match &e.payload {
        Payload::SpanStart { name } => format!("▶ {name}"),
        Payload::SpanEnd { name, elapsed_us } => {
            format!("◀ {name} ({:.3} ms)", *elapsed_us as f64 / 1000.0)
        }
        Payload::HttpRequest {
            request_id,
            method,
            path,
        } => format!("http {method} {path} [request_id={request_id}]"),
        Payload::HttpResponse {
            request_id,
            route,
            status,
        } => format!("http → {status} route={route} [request_id={request_id}]"),
        Payload::WalAppend {
            session,
            kind,
            seq,
            bytes,
        } => format!("wal append ({session}): {kind} seq={seq} ({bytes} B)"),
        Payload::WalRotate { session, segment } => {
            format!("wal rotate ({session}): → segment {segment}")
        }
        Payload::WalReplay {
            session,
            records,
            truncated_bytes,
        } => format!(
            "wal replay ({session}): {records} record(s), {truncated_bytes} torn byte(s)"
        ),
        Payload::WalCompact {
            session,
            up_to_seq,
            segments_removed,
        } => format!(
            "wal compact ({session}): checkpoint ≤ seq {up_to_seq}, removed {segments_removed} segment(s)"
        ),
        Payload::Message { level, text } => format!("[{level}] {text}"),
    }
}

/// Renders events (typically one trace) as an indented tree: spans nest by
/// parent id, events sit under the span that emitted them. Events outside
/// any span print at the root. The input need not be sorted.
pub fn render_tree(events: &[Event]) -> String {
    let mut events: Vec<&Event> = events.iter().collect();
    events.sort_by_key(|e| e.seq);

    // Depth of each span = 1 + depth of its parent.
    let mut depth: HashMap<u64, usize> = HashMap::new();
    for e in &events {
        if let Payload::SpanStart { .. } = e.payload {
            let d = depth.get(&e.parent).copied().unwrap_or(0) + 1;
            depth.insert(e.span, d);
        }
    }

    let mut out = String::new();
    for e in events {
        let d = match e.payload {
            // Span boundaries print at the span's own depth − 1.
            Payload::SpanStart { .. } | Payload::SpanEnd { .. } => {
                depth.get(&e.span).copied().unwrap_or(1) - 1
            }
            _ => depth.get(&e.span).copied().unwrap_or(0),
        };
        let _ = writeln!(
            out,
            "{:>9.3}ms {}{}",
            e.ts_us as f64 / 1000.0,
            "  ".repeat(d),
            one_line(e)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_nests_spans_and_inlines_events() {
        let events = vec![
            Event {
                seq: 1,
                ts_us: 0,
                trace: 1,
                span: 10,
                parent: 0,
                payload: Payload::SpanStart {
                    name: "http.request".into(),
                },
            },
            Event {
                seq: 2,
                ts_us: 5,
                trace: 1,
                span: 11,
                parent: 10,
                payload: Payload::SpanStart {
                    name: "query.federated".into(),
                },
            },
            Event {
                seq: 3,
                ts_us: 9,
                trace: 1,
                span: 11,
                parent: 0,
                payload: Payload::Message {
                    level: "info".into(),
                    text: "inside the query".into(),
                },
            },
            Event {
                seq: 4,
                ts_us: 12,
                trace: 1,
                span: 11,
                parent: 10,
                payload: Payload::SpanEnd {
                    name: "query.federated".into(),
                    elapsed_us: 7,
                },
            },
            Event {
                seq: 5,
                ts_us: 14,
                trace: 1,
                span: 10,
                parent: 0,
                payload: Payload::SpanEnd {
                    name: "http.request".into(),
                    elapsed_us: 14,
                },
            },
        ];
        let text = render_tree(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("▶ http.request"));
        // The child span is indented one level deeper than the root.
        let indent = |l: &str| l.chars().skip_while(|c| *c != ' ').count();
        assert!(lines[1].contains("▶ query.federated"));
        assert!(indent(lines[1]) < indent(lines[0]) || lines[1].contains("  ▶"));
        assert!(lines[2].contains("[info] inside the query"));
        assert!(lines[4].contains("◀ http.request"));
    }
}
