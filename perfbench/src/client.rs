//! The HTTP side of the serving workloads: a keep-alive client that counts
//! every failure, and the server child process it talks to.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Per-request socket timeout; a request that takes longer counts as a
/// timeout failure.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);

/// Server worker threads, pinned rather than derived from the machine.
pub const SERVER_WORKERS: usize = 2;

/// One closed-loop keep-alive connection.
pub struct Client {
    addr: String,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

/// Why a request produced no 2xx response.
#[derive(Debug)]
pub enum Failure {
    Status(u16, String),
    Transport(String),
    Timeout,
}

impl Client {
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
        }
    }

    fn connect(&mut self) -> std::io::Result<&mut (BufReader<TcpStream>, TcpStream)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
            self.conn = Some((BufReader::new(stream.try_clone()?), stream));
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Sends one request; `Ok(body)` only for a 2xx status. A transport
    /// error or timeout drops the connection so the next request
    /// reconnects.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<String, Failure> {
        let result = self.exchange(method, path, body);
        match result {
            Ok((status, text)) if (200..300).contains(&status) => Ok(text),
            Ok((status, text)) => Err(Failure::Status(status, text)),
            Err(e) => {
                self.conn = None;
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    Err(Failure::Timeout)
                } else {
                    Err(Failure::Transport(e.to_string()))
                }
            }
        }
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let (reader, writer) = self.connect()?;
        write!(
            writer,
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        let bad = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line".into()));
        }
        let status: u16 = line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut content_length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let header = line.trim().to_ascii_lowercase();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("content-length:") {
                content_length = v.trim().parse().map_err(|_| bad(header.clone()))?;
            } else if header.starts_with("connection:") && header.contains("close") {
                close = true;
            }
        }
        let mut buf = vec![0u8; content_length];
        reader.read_exact(&mut buf)?;
        if close {
            self.conn = None;
        }
        Ok((status, String::from_utf8_lossy(&buf).into_owned()))
    }
}

/// Attempts, failures by kind, and successful latencies of one route.
#[derive(Clone, Debug, Default)]
pub struct RouteStats {
    pub attempts: u64,
    pub non_2xx: u64,
    pub transport: u64,
    pub timeouts: u64,
    /// Client-side latency of each 2xx request, in ms.
    pub ok_ms: Vec<f64>,
}

impl RouteStats {
    pub fn failed(&self) -> u64 {
        self.non_2xx + self.transport + self.timeouts
    }

    pub fn merge(&mut self, other: &RouteStats) {
        self.attempts += other.attempts;
        self.non_2xx += other.non_2xx;
        self.transport += other.transport;
        self.timeouts += other.timeouts;
        self.ok_ms.extend_from_slice(&other.ok_ms);
    }
}

/// Route name → stats, for one client or merged over clients.
pub type Routes = BTreeMap<&'static str, RouteStats>;

/// Times one request and books it under `route`.
pub fn timed(
    routes: &mut Routes,
    route: &'static str,
    client: &mut Client,
    method: &str,
    path: &str,
    body: &str,
) -> Option<String> {
    let stats = routes.entry(route).or_default();
    stats.attempts += 1;
    let t = Instant::now();
    match client.request(method, path, body) {
        Ok(text) => {
            stats.ok_ms.push(t.elapsed().as_secs_f64() * 1e3);
            Some(text)
        }
        Err(Failure::Status(status, text)) => {
            stats.non_2xx += 1;
            eprintln!("{method} {path}: HTTP {status}: {}", text.trim());
            None
        }
        Err(Failure::Transport(e)) => {
            stats.transport += 1;
            eprintln!("{method} {path}: transport error: {e}");
            None
        }
        Err(Failure::Timeout) => {
            stats.timeouts += 1;
            eprintln!("{method} {path}: timed out");
            None
        }
    }
}

/// Prints attempts and failures next to the latencies of every route.
pub fn print_routes(routes: &Routes) {
    println!(
        "  {:<10} {:>8} {:>7} {:>9} {:>8} {:>9} {:>9} {:>9}",
        "route", "attempts", "non2xx", "transport", "timeouts", "p50 ms", "p99 ms", "max ms"
    );
    for (name, s) in routes {
        println!(
            "  {:<10} {:>8} {:>7} {:>9} {:>8} {:>9.3} {:>9.3} {:>9.3}",
            name,
            s.attempts,
            s.non_2xx,
            s.transport,
            s.timeouts,
            crate::stats::quantile(&s.ok_ms, 0.5),
            crate::stats::quantile(&s.ok_ms, 0.99),
            crate::stats::quantile(&s.ok_ms, 1.0),
        );
    }
}

/// A server running in a child process (this binary's `serve-child`
/// mode). Dropping it kills the child without any shutdown path and waits
/// for it to exit.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    // Held open: closing stdin asks the child to shut down, and closing
    // stdout would kill its prints with EPIPE.
    _stdin: ChildStdin,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Starts a server with 2 workers; `state_dir` and `wal` configure
    /// durability (the WAL policy of the durable workload).
    pub fn spawn(state_dir: Option<&Path>, wal: bool) -> ServerProc {
        let exe = std::env::current_exe().expect("locating the benchmark binary");
        let mut cmd = Command::new(exe);
        cmd.arg("serve-child");
        if let Some(dir) = state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        if wal {
            cmd.arg("--wal");
        }
        let mut child = cmd
            // Space build threads match the 2 cores; outputs do not depend
            // on the thread count.
            .env("ALEX_THREADS", "2")
            .env_remove("ALEX_TRACE")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawning the server child");
        let stdin = child.stdin.take().expect("child stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .expect("reading the server banner");
        let Some(addr) = line.trim().strip_prefix("listening ") else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("server child did not start: {line:?}");
        };
        ServerProc {
            addr: addr.to_string(),
            child,
            _stdin: stdin,
            _stdout: stdout,
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // SIGKILL: no drain, no snapshot. Durable state must come from the
        // WAL alone.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Polls `GET /healthz` until it answers 200 (or `limit` passes).
pub fn wait_healthy(addr: &str, limit: Duration) -> bool {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if Client::new(addr).request("GET", "/healthz", "").is_ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// Runs the server in this process until stdin closes, then shuts down
/// gracefully. Prints `listening <addr>` once the listener is live.
pub fn serve_child(args: &[String]) -> ! {
    use alex_serve::{ServeConfig, Server};
    let state_dir = args
        .iter()
        .position(|a| a == "--state-dir")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    let wal = args.iter().any(|a| a == "--wal");
    let durability = alex_core::DurabilityConfig {
        wal,
        fsync: crate::durable::FSYNC.to_string(),
        compact_after_records: crate::durable::COMPACT_AFTER_RECORDS,
        ..Default::default()
    };
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: SERVER_WORKERS,
        queue_depth: 64,
        request_timeout: REQUEST_TIMEOUT,
        state_dir,
        durability,
    })
    .unwrap_or_else(|e| {
        eprintln!("server failed to start: {e}");
        std::process::exit(2)
    });
    println!("listening {}", server.local_addr());
    let _ = std::io::stdout().flush();
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
    std::process::exit(0)
}
