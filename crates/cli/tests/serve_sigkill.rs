//! `alex serve` crash-recovery test over real TCP: a SIGKILLed server
//! (no shutdown path at all) restarted on the same state dir must resume
//! every session from WAL replay, with the acknowledged feedback intact.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Spawns the server and returns the child, its bound address, and the
/// stdout reader — which the caller must keep alive: dropping it closes
/// the pipe and the server's own startup prints would die on EPIPE.
fn spawn_server(dir: &std::path::Path) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_alex"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--state-dir",
            dir.to_str().unwrap(),
            "--wal",
            "--fsync",
            "always",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn alex serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("alex-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    (child, addr, stdout)
}

fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .unwrap_or_else(|e| panic!("read {method} {path}: {e}"));
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn wait_for_exit(child: &mut Child, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if child.try_wait().unwrap().is_some() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "server did not exit after {what}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn sigkilled_server_resumes_sessions_from_wal_replay() {
    let dir = std::env::temp_dir().join(format!("alex-sigkill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let (mut child, addr, _stdout) = spawn_server(&dir);

    // Two sessions: one that takes feedback, one left untouched — both
    // must come back after the crash.
    let create = r#"{
        "left_data": "<http://l/a> <http://p/n> \"x\" .\n<http://l/b> <http://p/n> \"y\" .\n",
        "right_data": "<http://r/a> <http://p/n> \"x\" .\n<http://r/b> <http://p/n> \"y\" .\n",
        "links": [["http://l/a", "http://r/a"]],
        "config": {"partitions": 1, "seed": 3}
    }"#;
    let (status, body) = request(&addr, "POST", "/sessions", create);
    assert_eq!(status, 201, "create s1: {body}");
    assert!(body.contains("\"s1\""), "unexpected session id: {body}");
    let (status, body) = request(&addr, "POST", "/sessions", create);
    assert_eq!(status, 201, "create s2: {body}");

    // Two acknowledged feedback batches on s1. Once the 200 comes back,
    // log-before-ack means they are on disk.
    for items in [
        r#"{"items": [{"left": "http://l/a", "right": "http://r/a", "approve": true}]}"#,
        r#"{"items": [{"left": "http://l/b", "right": "http://r/b", "approve": false}]}"#,
    ] {
        let (status, body) = request(&addr, "POST", "/sessions/s1/feedback", items);
        assert_eq!(status, 200, "feedback: {body}");
    }

    // SIGKILL: no flush, no drain, no snapshot write. Everything the
    // restart sees must come from the WAL and the creation-time
    // checkpoint.
    let pid = child.id();
    let status = Command::new("sh")
        .args(["-c", &format!("kill -KILL {pid}")])
        .status()
        .unwrap();
    assert!(status.success(), "sending SIGKILL failed");
    wait_for_exit(&mut child, "SIGKILL");

    let (mut child, addr, _stdout) = spawn_server(&dir);

    let (status, body) = request(&addr, "GET", "/sessions/s1", "");
    assert_eq!(status, 200, "s1 did not come back: {body}");
    assert!(
        body.contains("\"feedback_items\": 2") || body.contains("\"feedback_items\":2"),
        "s1 lost acknowledged feedback: {body}"
    );
    assert!(
        body.contains("\"durable\": true") || body.contains("\"durable\":true"),
        "s1 resumed without durable storage: {body}"
    );
    let (status, body) = request(&addr, "GET", "/sessions/s2", "");
    assert_eq!(status, 200, "s2 did not come back: {body}");

    // Recovery counters are visible to operators.
    let (status, metrics) = request(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("alex_recoveries_total 2"),
        "metrics missing recovery count: {metrics}"
    );
    // Both sessions loaded their spaces from the space file, and boot
    // recovery ran once. `space.load` also times a load that fails its
    // checks; the restarted server creates no sessions, so only such a
    // failure (and the rebuild after it) could build a space here.
    for series in [
        "alex_stage_seconds_count{stage=\"space.load\"} 2",
        "alex_stage_seconds_count{stage=\"store.recover_state_dir\"} 1",
    ] {
        assert!(
            metrics.contains(series),
            "metrics missing {series}: {metrics}"
        );
    }
    assert!(
        !metrics.contains("alex_stage_seconds_count{stage=\"driver.space_build\"}"),
        "a recovered session rebuilt its spaces: {metrics}"
    );

    // The resumed session keeps working: another feedback batch lands.
    let (status, body) = request(
        &addr,
        "POST",
        "/sessions/s1/feedback",
        r#"{"items": [{"left": "http://l/a", "right": "http://r/a", "approve": true}]}"#,
    );
    assert_eq!(status, 200, "post-recovery feedback: {body}");

    let pid = child.id();
    let _ = Command::new("sh")
        .args(["-c", &format!("kill -INT {pid}")])
        .status();
    wait_for_exit(&mut child, "SIGINT");
    let _ = std::fs::remove_dir_all(&dir);
}
