//! The `/metrics` page as a scraper sees it: the per-session sample lines
//! a fixed create/feedback/query script leaves behind, value by value.

use alex_serve::api::route;
use alex_serve::http::Request;
use alex_serve::AppState;

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

/// Six entity pairs named alike; the candidate links are the first two
/// true pairs plus one wrong pair, and `truth` (when given) is all six.
fn create_body(with_truth: bool) -> String {
    let mut left = String::new();
    let mut right = String::new();
    for i in 0..6 {
        // Quotes are double-escaped: once for the embedded JSON string,
        // once more so the N-Triples literal keeps its quotes.
        left.push_str(&format!(
            "<http://l/e{i}> <http://l/name> \\\"player number {i}\\\" .\\n"
        ));
        right.push_str(&format!(
            "<http://r/e{i}> <http://r/label> \\\"player number {i}\\\" .\\n"
        ));
    }
    let truth = if with_truth {
        let pairs: Vec<String> = (0..6)
            .map(|i| format!(r#"["http://l/e{i}", "http://r/e{i}"]"#))
            .collect();
        format!(r#""truth": [{}],"#, pairs.join(", "))
    } else {
        String::new()
    };
    format!(
        r#"{{"left_data": "{left}", "right_data": "{right}", {truth}
            "links": [["http://l/e0", "http://r/e0"], ["http://l/e1", "http://r/e1"],
                      ["http://l/e2", "http://r/e3"]],
            "config": {{"partitions": 1, "epsilon": 0.0, "seed": 7}}}}"#
    )
}

fn send(state: &AppState, method: &str, path: &str, body: &str) -> String {
    let (_, resp) = route(state, &request(method, path, body));
    let text = String::from_utf8(resp.body).unwrap();
    assert!(resp.status < 300, "{method} {path}: {} {text}", resp.status);
    text
}

fn judge(left: usize, right: usize, approve: bool) -> String {
    format!(r#"{{"left": "http://l/e{left}", "right": "http://r/e{right}", "approve": {approve}}}"#)
}

fn feedback(state: &AppState, id: &str, items: &[String]) {
    let body = format!(r#"{{"items": [{}]}}"#, items.join(", "));
    send(state, "POST", &format!("/sessions/{id}/feedback"), &body);
}

/// Every sample line naming a session, after two sessions (the second
/// with ground truth) have been created, queried and given feedback that
/// moves their candidate sets and, for the second, its precision and
/// recall. The values are written out, so a change in how `/metrics`
/// reads them cannot move one unseen.
#[test]
fn per_session_sample_lines_after_a_fixed_script() {
    let state = AppState::new(None);
    send(&state, "POST", "/sessions", &create_body(false));
    send(&state, "POST", "/sessions", &create_body(true));
    let query = r#"{"query": "SELECT ?n WHERE { ?l <http://l/name> ?n }"}"#;
    for id in ["s1", "s2"] {
        send(&state, "POST", &format!("/sessions/{id}/query"), query);
    }
    feedback(&state, "s1", &[judge(0, 0, true)]);
    feedback(&state, "s2", &[judge(0, 0, true), judge(1, 1, false)]);
    feedback(&state, "s2", &[judge(2, 3, false)]);
    send(&state, "POST", "/sessions/s2/query", query);

    let page = send(&state, "GET", "/metrics", "");
    let mut lines: Vec<&str> = (page.lines())
        .filter(|l| !l.starts_with('#') && l.contains("session="))
        .collect();
    lines.sort_unstable();
    assert_eq!(lines, PINNED, "{page}");
}

const PINNED: &[&str] = &[
    r#"alex_session_blacklisted{session="s1"} 0"#,
    r#"alex_session_blacklisted{session="s2"} 2"#,
    r#"alex_session_candidates{session="s1"} 7"#,
    r#"alex_session_candidates{session="s2"} 5"#,
    r#"alex_session_choices{session="s1",choice="exploit"} 1"#,
    r#"alex_session_choices{session="s1",choice="explore"} 0"#,
    r#"alex_session_choices{session="s2",choice="exploit"} 1"#,
    r#"alex_session_choices{session="s2",choice="explore"} 0"#,
    r#"alex_session_episodes{session="s1"} 1"#,
    r#"alex_session_episodes{session="s2"} 2"#,
    r#"alex_session_feedback_total{session="s1"} 1"#,
    r#"alex_session_feedback_total{session="s2"} 3"#,
    r#"alex_session_precision{session="s2"} 1"#,
    r#"alex_session_q_entries{session="s1"} 0"#,
    r#"alex_session_q_entries{session="s2"} 0"#,
    r#"alex_session_recall{session="s2"} 0.8333333333333334"#,
    r#"alex_session_rollbacks{session="s1"} 0"#,
    r#"alex_session_rollbacks{session="s2"} 0"#,
];
