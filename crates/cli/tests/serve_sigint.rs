//! `alex serve` process-level test: SIGINT drains the server and
//! checkpoints every session into its directory, and a second server on
//! the same state directory serves the sessions exactly as they were —
//! the graceful restart a deployment relies on, for a session without a
//! write-ahead log.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Spawns `alex serve --state-dir dir` (no `--wal`) and returns the child,
/// its bound address, and the stdout reader, which the caller must keep
/// alive: dropping it closes the pipe and the server's own prints would
/// die on EPIPE.
fn spawn_server(dir: &Path) -> (Child, String, BufReader<ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_alex"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--state-dir",
            dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn alex serve");
    // First stdout line announces the bound address.
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

/// One `Connection: close` request; returns the status line's code and
/// the body.
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
    stream.read_to_string(&mut response).unwrap();
    let status = response
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

/// Sends SIGINT and waits for a clean exit.
fn interrupt(child: &mut Child) {
    let pid = child.id();
    let status = Command::new("sh")
        .args(["-c", &format!("kill -INT {pid}")])
        .status()
        .unwrap();
    assert!(status.success(), "sending SIGINT failed");

    let deadline = Instant::now() + Duration::from_secs(10);
    let exit = loop {
        if let Some(st) = child.try_wait().unwrap() {
            break st;
        }
        assert!(
            Instant::now() < deadline,
            "server did not exit after SIGINT"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(exit.success(), "non-zero exit after SIGINT: {exit:?}");
}

#[test]
fn sigint_drains_and_persists_snapshots() {
    let dir = std::env::temp_dir().join(format!("alex-sigint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let (mut child, addr, _stdout) = spawn_server(&dir);
    // A session with one right and one wrong link, then one feedback
    // episode that rejects the wrong one.
    let body = r#"{
        "left_data": "<http://l/a> <http://p/n> \"x\" .\n<http://l/b> <http://p/n> \"y\" .\n",
        "right_data": "<http://r/a> <http://p/n> \"x\" .\n<http://r/b> <http://p/n> \"y\" .\n",
        "links": [["http://l/a", "http://r/a"], ["http://l/a", "http://r/b"]],
        "config": {"partitions": 1, "seed": 3}
    }"#;
    let (status, created) = request(&addr, "POST", "/sessions", body);
    assert_eq!(status, 201, "create failed: {created}");
    assert!(created.contains(r#""id":"s1""#), "{created}");
    assert!(created.contains(r#""durable":false"#), "{created}");
    let feedback =
        r#"{"items": [{"left": "http://l/a", "right": "http://r/b", "approve": false}]}"#;
    let (status, reply) = request(&addr, "POST", "/sessions/s1/feedback", feedback);
    assert_eq!(status, 200, "feedback failed: {reply}");
    let (status, links) = request(&addr, "GET", "/sessions/s1/links", "");
    assert_eq!(status, 200);
    assert!(
        links.contains(r#""blacklist":[["http://l/a","http://r/b"]]"#),
        "{links}"
    );

    // Ctrl-C. The process must exit cleanly on its own.
    interrupt(&mut child);
    let loose: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    assert!(
        loose.is_empty(),
        "files beside the session directories: {loose:?}"
    );
    assert!(dir.join("session-s1").join("checkpoint.json").is_file());

    // A second server on the same directory serves the session as it was.
    let (mut child, addr, _stdout) = spawn_server(&dir);
    let (status, restored) = request(&addr, "GET", "/sessions/s1/links", "");
    assert_eq!(status, 200, "session not restored: {restored}");
    assert_eq!(restored, links);
    let (_, info) = request(&addr, "GET", "/sessions/s1", "");
    assert!(info.contains(r#""episodes":1"#), "{info}");
    interrupt(&mut child);

    let _ = std::fs::remove_dir_all(&dir);
}
