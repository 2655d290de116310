//! The TCP server: acceptor, bounded worker pool, graceful shutdown.
//!
//! Architecture (one paragraph): a single acceptor thread owns the
//! listener in non-blocking mode and polls it alongside the shutdown
//! flag; accepted connections are `try_send`-ed into a bounded std
//! `sync_channel`. A fixed pool of worker threads shares the receiver
//! behind a mutex, takes one connection at a time from it, and runs
//! each one's full keep-alive loop (parse → route → respond). When the
//! queue is full the acceptor answers `503 Service Unavailable` inline
//! and closes — backpressure is explicit and immediate, never an unbounded
//! backlog. Every response, the error envelopes and the 503 included,
//! leaves the server in one socket write ([`Response::write_to`]).
//! Shutdown sets the flag, joins the acceptor, drops the sender (workers
//! drain what was already queued, then exit), joins the workers, and
//! finally checkpoints every session into its directory under the state
//! directory.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use alex_core::telemetry::{
    RECOVERED_RECORDS_TOTAL, RECOVERIES_TOTAL, WAL_APPENDS_TOTAL, WAL_BYTES_TOTAL, WAL_FSYNCS_TOTAL,
};
use alex_core::trace::{self, Payload};
use alex_core::{DurabilityConfig, SessionHandle};

use crate::api;
use crate::http::{read_request, HttpError, Response};
use crate::state::{AppState, SessionEntry};

/// How the server should run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded connection-queue depth; beyond it new connections get 503.
    pub queue_depth: usize,
    /// Per-connection socket read/write timeout.
    pub request_timeout: Duration,
    /// Where every session lives as a `session-<id>/` directory: written
    /// at creation, checkpointed at shutdown, and restored at boot before
    /// the listener accepts traffic (replaying the session's WAL when it
    /// has one).
    pub state_dir: Option<PathBuf>,
    /// Server-wide durability defaults: whether sessions write a WAL,
    /// the fsync policy, and the compaction threshold. Boot recovery opens
    /// every WAL it finds with these options.
    pub durability: DurabilityConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            queue_depth: 64,
            request_timeout: Duration::from_secs(10),
            state_dir: None,
            durability: DurabilityConfig::default(),
        }
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// detaches the threads (the process exit will reap them); call
/// `shutdown` for the graceful path.
pub struct Server {
    local_addr: SocketAddr,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    sender: Option<SyncSender<TcpStream>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting. Returns once the listener is live.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        // Fail fast on a bad durability config instead of discovering it
        // on the first session creation.
        let wal_opts = cfg.durability.to_options().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("durability config: {e}"),
            )
        })?;
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let mut app = AppState::new(cfg.state_dir.clone());
        app.durability = cfg.durability.clone();
        let state = Arc::new(app);
        for name in [
            WAL_APPENDS_TOTAL,
            WAL_FSYNCS_TOTAL,
            WAL_BYTES_TOTAL,
            RECOVERIES_TOTAL,
            RECOVERED_RECORDS_TOTAL,
        ] {
            // Register at zero so the counters are visible in /metrics
            // from the first scrape on.
            state.metrics.counter(name).add(0);
        }
        // Boot recovery: restore every session directory found in the
        // state directory before the listener starts accepting traffic,
        // so a client that reconnects right away sees its sessions back.
        if let Some(dir) = &cfg.state_dir {
            recover_sessions(&state, dir, wal_opts, cfg.durability.compact_after_records);
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::sync_channel(cfg.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        // Connections sent but not yet taken by a worker: the
        // `alex_queue_depth` gauge (std channels do not expose a length).
        let queued = Arc::new(AtomicUsize::new(0));

        let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let queued = Arc::clone(&queued);
                let state = Arc::clone(&state);
                let shutdown = Arc::clone(&shutdown);
                let timeout = cfg.request_timeout;
                std::thread::Builder::new()
                    .name(format!("alex-serve-worker-{i}"))
                    .spawn(move || worker_loop(rx, queued, state, shutdown, timeout))
                    .expect("spawning worker thread")
            })
            .collect();

        let acceptor = {
            let tx = tx.clone();
            let state = Arc::clone(&state);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("alex-serve-acceptor".into())
                .spawn(move || acceptor_loop(listener, tx, queued, state, shutdown))
                .expect("spawning acceptor thread")
        };

        Ok(Server {
            local_addr,
            state,
            shutdown,
            sender: Some(tx),
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The actually bound address (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared application state (sessions, metrics).
    pub fn state(&self) -> &Arc<AppState> {
        &self.state
    }

    /// Gracefully stops: no new connections, in-flight and queued
    /// requests finish, then every session is checkpointed into its
    /// `session-<id>/` directory, which the next start on the same state
    /// directory restores. Returns the checkpoint files written (empty
    /// without a state dir).
    pub fn shutdown(mut self) -> Vec<Result<PathBuf, String>> {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // All senders dropped → workers drain the queue and exit.
        drop(self.sender.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.state.persist_sessions()
    }
}

/// Restores every `session-<id>/` directory under `dir` into the session
/// table: dataset snapshots decode, the checkpoint restores the learned
/// policy, and the WAL tail, if any, replays through the deterministic
/// feedback path. Failures (aborted creations, damaged snapshots) are
/// diagnosed and skipped — one broken session must not keep the server
/// down — but their ids stay reserved, so no new session overwrites
/// their directories.
fn recover_sessions(
    state: &AppState,
    dir: &std::path::Path,
    opts: alex_core::store::WalOptions,
    compact_after: u64,
) {
    let outcome = match alex_core::recover_state_dir(dir, opts, compact_after) {
        Ok(o) => o,
        Err(e) => {
            trace::diag(
                "error",
                &format!("scanning state dir {} failed: {e}", dir.display()),
            );
            return;
        }
    };
    for (id, _) in &outcome.failures {
        state.advance_ids_past(id);
    }
    for recovered in outcome.sessions {
        state.metrics.counter(RECOVERIES_TOTAL).inc();
        state
            .metrics
            .counter(RECOVERED_RECORDS_TOTAL)
            .add(recovered.report.replayed_records);
        state.advance_ids_past(&recovered.id);
        (state.metrics)
            .counter(&format!(
                "alex_session_feedback_total{{session=\"{}\"}}",
                recovered.id
            ))
            .add(recovered.session.feedback_items);
        let handle = SessionHandle::new(recovered.session);
        api::update_session_gauges(state, &recovered.id, &handle, None);
        state
            .sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                recovered.id.clone(),
                SessionEntry {
                    handle,
                    truth: None,
                },
            );
        trace::diag(
            "info",
            &format!(
                "recovered session {}: {} episode(s), {} feedback item(s), \
                 {} candidate link(s), {} WAL record(s) replayed",
                recovered.id,
                recovered.report.episodes,
                recovered.report.feedback_items,
                recovered.report.candidates,
                recovered.report.replayed_records
            ),
        );
    }
    state.metrics.gauge("alex_sessions_active").set(
        state
            .sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len() as i64,
    );
}

/// Poll interval for the non-blocking accept loop; bounds shutdown
/// latency without burning CPU.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

fn acceptor_loop(
    listener: TcpListener,
    tx: SyncSender<TcpStream>,
    queued: Arc<AtomicUsize>,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
) {
    let queue_gauge = state.metrics.gauge("alex_queue_depth");
    let conns = state.metrics.counter("alex_connections_total");
    let rejected = state.metrics.counter("alex_connections_rejected_total");
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                conns.inc();
                // Count before sending so a worker's decrement can never
                // run ahead of this increment.
                queued.fetch_add(1, Ordering::SeqCst);
                match tx.try_send(stream) {
                    Ok(()) => queue_gauge.set(queued.load(Ordering::SeqCst) as i64),
                    Err(TrySendError::Full(stream)) => {
                        queued.fetch_sub(1, Ordering::SeqCst);
                        rejected.inc();
                        state
                            .metrics
                            .counter(
                                "alex_http_requests_total{route=\"(rejected)\",status=\"503\"}",
                            )
                            .inc();
                        // Off-thread so a slow peer can't stall accepting;
                        // bounded to ~2s of socket timeouts per rejection.
                        let _ = std::thread::Builder::new()
                            .name("alex-serve-reject".into())
                            .spawn(move || reject_connection(stream));
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Writes a `503` to a connection the queue couldn't take, then
/// half-closes and drains whatever the client already sent. Dropping the
/// socket with unread bytes in the receive buffer would make the kernel
/// answer with RST, which can destroy the 503 before the client reads it;
/// the drain turns the close into an orderly FIN.
fn reject_connection(mut stream: TcpStream) {
    let resp = Response::error(503, "server saturated: connection queue is full");
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    if resp.write_to(&mut stream, false).is_err() {
        return;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
    let mut sink = [0u8; 512];
    while matches!(std::io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
}

fn worker_loop(
    rx: Arc<Mutex<Receiver<TcpStream>>>,
    queued: Arc<AtomicUsize>,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    timeout: Duration,
) {
    let queue_gauge = state.metrics.gauge("alex_queue_depth");
    loop {
        // A statement of its own: the receiver guard is a temporary and
        // must drop before the connection is served. In a `while let`
        // scrutinee it would live for the whole body and serialize the
        // workers.
        let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(stream) = next else { break };
        let depth = queued.fetch_sub(1, Ordering::SeqCst) - 1;
        queue_gauge.set(depth as i64);
        handle_connection(stream, &state, &shutdown, timeout);
    }
}

/// Runs one connection's keep-alive loop until close, error, timeout, or
/// server shutdown.
fn handle_connection(
    stream: TcpStream,
    state: &AppState,
    shutdown: &AtomicBool,
    timeout: Duration,
) {
    if stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;

    loop {
        match read_request(&mut reader) {
            Ok(req) => {
                // Propagate the client's request id (or assign one); the
                // id is echoed back as `X-Request-Id` and keys this
                // request's trace for `GET /debug/trace/{id}`.
                let request_id = match req.header("x-request-id") {
                    Some(id) if !id.trim().is_empty() => id.trim().to_string(),
                    _ => state.fresh_request_id(),
                };
                let span = trace::root_span("http.request");
                trace::emit(|| Payload::HttpRequest {
                    request_id: request_id.clone(),
                    method: req.method.clone(),
                    path: req.path.clone(),
                });
                let (route_label, mut resp) = api::route(state, &req);
                trace::emit(|| Payload::HttpResponse {
                    request_id: request_id.clone(),
                    route: route_label.to_string(),
                    status: u64::from(resp.status),
                });
                let elapsed = span.finish();
                resp.extra_headers.push(("X-Request-Id", request_id));
                // During shutdown, finish this response but don't linger
                // for another request on the connection.
                let keep =
                    req.wants_keep_alive() && !resp.close && !shutdown.load(Ordering::SeqCst);
                state
                    .metrics
                    .counter(&format!(
                        "alex_http_requests_total{{route=\"{route_label}\",status=\"{}\"}}",
                        resp.status
                    ))
                    .inc();
                state
                    .metrics
                    .histogram(&format!(
                        "alex_http_request_seconds{{route=\"{route_label}\"}}"
                    ))
                    .record(elapsed);
                if resp.write_to(&mut writer, keep).is_err() || !keep {
                    break;
                }
            }
            Err(HttpError::Closed) => break,
            Err(HttpError::Timeout { started }) => {
                if started {
                    count_error(state, 408);
                    let _ = Response::error(408, "timed out reading request")
                        .write_to(&mut writer, false);
                }
                break;
            }
            Err(HttpError::TooLarge(what)) => {
                count_error(state, 413);
                let _ =
                    Response::error(413, format!("{what} too large")).write_to(&mut writer, false);
                break;
            }
            Err(HttpError::Malformed(m)) => {
                count_error(state, 400);
                let _ = Response::error(400, format!("malformed request: {m}"))
                    .write_to(&mut writer, false);
                break;
            }
            Err(HttpError::Io(_)) => break,
        }
    }
}

fn count_error(state: &AppState, status: u16) {
    state
        .metrics
        .counter(&format!(
            "alex_http_requests_total{{route=\"(protocol)\",status=\"{status}\"}}"
        ))
        .inc();
}
