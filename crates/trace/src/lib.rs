//! # alex-trace — structured tracing and the flight recorder
//!
//! The tracing subsystem, re-exported as `alex_core::trace`:
//! [`Span`]s with ids/parents and monotonic timestamps, typed [`Event`]s,
//! a ring buffer of the most recent [`RING_CAPACITY`] events (the
//! "flight recorder"), a JSON-lines exporter, and the stage table
//! ([`stages`]): every span's duration aggregated by span name into a
//! [`Histogram`], the process's one stage clock.
//!
//! ## Cost model
//!
//! With recording off, [`emit`] is a single relaxed atomic load and a
//! branch: it takes a closure so payloads (and their string allocations)
//! are only ever built when recording is on, and `exp_trace_overhead`
//! gates that path at <5% over a no-tracing baseline. A [`Span`] is not
//! free even then: it reads the clock when it opens and when it closes,
//! then takes a short lock to find its name's stage-table entry and adds
//! to it with relaxed atomics, allocating nothing after the name's first
//! close. `exp_trace_overhead` gates that at 1 µs per span, so spans mark
//! stages (a request, a query, an episode, a build phase), never per-item
//! work. When enabled, events always land in the ring (so `/debug/*` and
//! `alex trace` work in every mode) and `jsonl:<path>` additionally
//! streams each event to a file as it is recorded. One lock guards the
//! ring, the sink and the `seq` counter, so the ring and the file are
//! both in `seq` order. Nothing records per feedback item, per link or
//! per source probe: a query or an episode records a handful of events,
//! too few for writers to contend on the lock.
//!
//! ## Context propagation
//!
//! The current `(trace, span)` pair lives in a thread-local; [`span`]
//! starts a child of it (or a new root when there is none) and
//! restores it on drop. Crossing a thread boundary is explicit: capture
//! [`current`] before spawning and [`attach`] it inside the worker.
//!
//! Tracing is strictly observational: it never draws from any engine RNG
//! and never reorders work, so enabling it cannot change link-quality
//! output (CI runs the full suite both ways to enforce this).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod event;
mod render;
mod stage;

pub use event::{parse_jsonl, to_jsonl, Event, Payload, RETIRED_KINDS};
pub use render::render_tree;
pub use stage::{stages, Histogram};

use std::cell::Cell;
use std::fs::File;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable selecting the mode: `off`, `ring`, `jsonl:<path>`.
pub const ENV_MODE: &str = "ALEX_TRACE";

/// Flight-recorder capacity, in events: the most recent this many are
/// kept, whichever threads recorded them.
pub const RING_CAPACITY: usize = 16_384;

/// Where recorded events go.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Recording disabled (the zero-cost path).
    #[default]
    Off,
    /// Record into the in-memory ring buffer only.
    Ring,
    /// Record into the ring *and* stream JSON lines to a file.
    Jsonl(String),
}

impl TraceMode {
    /// Parses `off` / `ring` / `jsonl:<path>`.
    pub fn parse(s: &str) -> Result<TraceMode, String> {
        let s = s.trim();
        match s {
            "" | "off" | "0" | "false" => Ok(TraceMode::Off),
            "ring" | "on" | "1" | "true" => Ok(TraceMode::Ring),
            other => match other.strip_prefix("jsonl:") {
                Some(path) if !path.is_empty() => Ok(TraceMode::Jsonl(path.to_string())),
                _ => Err(format!(
                    "bad trace mode {other:?}: expected off | ring | jsonl:<path>"
                )),
            },
        }
    }
}

/// The recorder's state behind its one lock: the ring, the `seq`
/// counter and the JSON-lines sink.
#[derive(Default)]
struct Ring {
    /// Grows to [`RING_CAPACITY`] as events arrive, so a recorder that
    /// never records allocates nothing.
    buf: Vec<Event>,
    /// Next overwrite position once the buffer is full (the oldest event).
    head: usize,
    /// Events ever recorded, evicted ones included; the last `seq` issued.
    written: u64,
    sink: Option<File>,
}

impl Ring {
    fn push(&mut self, e: Event) {
        if self.buf.len() < RING_CAPACITY {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % RING_CAPACITY;
        }
    }

    /// Retained events, oldest first (which is `seq` order).
    fn iter(&self) -> impl DoubleEndedIterator<Item = &Event> {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }
}

/// The flight recorder: a bounded ring buffer plus an optional
/// JSON-lines sink, both behind one lock that also issues `seq`, so the
/// ring and the file hold events in `seq` order. One global instance
/// backs the free functions in this crate; standalone instances exist
/// for tests.
pub struct Recorder {
    enabled: AtomicBool,
    ring: Mutex<Ring>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    epoch: Instant,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates a disabled recorder.
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            ring: Mutex::default(),
            next_trace: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Applies a mode: flips the enabled flag, empties the ring, and
    /// (re)opens the JSON-lines sink for `jsonl:` mode.
    pub fn configure(&self, mode: &TraceMode) -> Result<(), String> {
        let mut ring = self.ring.lock().expect("ring lock");
        *ring = Ring {
            written: ring.written,
            ..Ring::default()
        };
        self.enabled.store(false, Relaxed);
        if let TraceMode::Jsonl(path) = mode {
            let file =
                File::create(path).map_err(|e| format!("cannot open trace sink {path:?}: {e}"))?;
            ring.sink = Some(file);
        }
        self.enabled.store(*mode != TraceMode::Off, Relaxed);
        Ok(())
    }

    /// Allocates a fresh trace id (starting at 1).
    pub fn alloc_trace(&self) -> u64 {
        self.next_trace.fetch_add(1, Relaxed) + 1
    }

    /// Allocates a fresh span id (starting at 1).
    pub fn alloc_span(&self) -> u64 {
        self.next_span.fetch_add(1, Relaxed) + 1
    }

    /// Records one event under `(trace, span, parent)`. No-op when
    /// disabled.
    pub fn record(&self, trace: u64, span: u64, parent: u64, payload: Payload) {
        if !self.enabled.load(Relaxed) {
            return;
        }
        let mut ring = self.ring.lock().expect("ring lock");
        ring.written += 1;
        let ev = Event {
            seq: ring.written,
            ts_us: self.epoch.elapsed().as_micros() as u64,
            trace,
            span,
            parent,
            payload,
        };
        if let Some(f) = ring.sink.as_mut() {
            let mut line = ev.to_json_line();
            line.push('\n');
            let _ = f.write_all(line.as_bytes());
        }
        ring.push(ev);
    }

    /// Total events ever recorded, including ones the ring has evicted.
    pub fn written(&self) -> u64 {
        self.ring.lock().expect("ring lock").written
    }

    /// The most recent `limit` retained events, in `seq` order.
    pub fn snapshot(&self, limit: usize) -> Vec<Event> {
        let ring = self.ring.lock().expect("ring lock");
        let skip = ring.buf.len().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Every retained event of one trace, in `seq` order.
    pub fn trace_events(&self, trace: u64) -> Vec<Event> {
        let ring = self.ring.lock().expect("ring lock");
        ring.iter().filter(|e| e.trace == trace).cloned().collect()
    }

    /// Finds the trace id serving `request_id`, scanning retained
    /// `http_request` events (most recent wins).
    pub fn find_request(&self, request_id: &str) -> Option<u64> {
        self.ring
            .lock()
            .expect("ring lock")
            .iter()
            .rev()
            .find_map(|e| match &e.payload {
                Payload::HttpRequest {
                    request_id: rid, ..
                } if rid == request_id => Some(e.trace),
                _ => None,
            })
    }
}

// ---------------------------------------------------------------------------
// The global recorder and its thread-local context.

/// Three-state fast flag: 0 = not yet initialized from the environment,
/// 1 = off, 2 = on. Keeping it outside the `OnceLock` makes the disabled
/// check a single relaxed load.
static STATE: AtomicU8 = AtomicU8::new(0);
static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-wide recorder instance.
pub fn recorder() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

/// Whether tracing is enabled, initializing from `ALEX_TRACE` on first
/// use. This is the hot-path check: one relaxed atomic load once
/// initialized.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Relaxed) {
        2 => true,
        1 => false,
        _ => {
            configure_from_env();
            STATE.load(Relaxed) == 2
        }
    }
}

/// Installs a mode on the global recorder (overriding `ALEX_TRACE`).
/// Returns `Err` if a `jsonl:` sink cannot be opened, in which case
/// tracing is left off.
pub fn configure(mode: TraceMode) -> Result<(), String> {
    let result = recorder().configure(&mode);
    let on = result.is_ok() && mode != TraceMode::Off;
    STATE.store(if on { 2 } else { 1 }, Relaxed);
    result
}

/// Re-reads `ALEX_TRACE` and installs the result. Entry points call this
/// explicitly; everything else relies on lazy init via [`enabled`].
/// Unset or unparsable means off: a typo in an env var must not take a
/// server down.
pub fn configure_from_env() {
    let mode = std::env::var(ENV_MODE)
        .ok()
        .and_then(|v| TraceMode::parse(&v).ok())
        .unwrap_or_default();
    let _ = configure(mode);
}

/// The current trace/span context of this thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Ctx {
    /// Active trace id (`0` = none).
    pub trace: u64,
    /// Active span id.
    pub span: u64,
}

thread_local! {
    static CTX: Cell<Ctx> = const { Cell::new(Ctx { trace: 0, span: 0 }) };
}

/// The calling thread's current context; capture before spawning workers
/// and [`attach`] inside them.
pub fn current() -> Ctx {
    CTX.get()
}

/// Restores the previous context on drop.
pub struct CtxGuard {
    prev: Ctx,
}

/// Sets this thread's context (for explicit cross-thread propagation).
pub fn attach(ctx: Ctx) -> CtxGuard {
    let prev = CTX.replace(ctx);
    CtxGuard { prev }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.set(self.prev);
    }
}

/// Emits one event under the current context. `f` runs only when
/// recording is on, so the disabled path never allocates.
#[inline]
pub fn emit(f: impl FnOnce() -> Payload) {
    if !enabled() {
        return;
    }
    let ctx = current();
    recorder().record(ctx.trace, ctx.span, 0, f());
}

/// A RAII span. It reads the clock when it opens and again when it
/// closes (on drop or [`Span::finish`]), adds the duration to the stage
/// table ([`stages`]) under its name, and, while recording is on, emits
/// `span_start`/`span_end` events and maintains the thread-local context
/// in between.
pub struct Span {
    name: &'static str,
    /// `None` once the span has closed.
    start: Option<Instant>,
    /// The recorded half; `None` when recording is off.
    recorded: Option<Recorded>,
}

struct Recorded {
    prev: Ctx,
    trace: u64,
    id: u64,
    parent: u64,
}

impl Span {
    /// The span's trace id (`0` when not recorded).
    pub fn trace_id(&self) -> u64 {
        self.recorded.as_ref().map_or(0, |r| r.trace)
    }

    /// The context this span establishes, for cross-thread [`attach`].
    pub fn ctx(&self) -> Ctx {
        match &self.recorded {
            Some(r) => Ctx {
                trace: r.trace,
                span: r.id,
            },
            None => current(),
        }
    }

    /// Closes the span and returns its duration in seconds: the same
    /// clock read the stage table and the `span_end` event get.
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let Some(start) = self.start.take() else {
            return 0.0;
        };
        let elapsed = start.elapsed();
        stage::observe(self.name, elapsed);
        if let Some(r) = self.recorded.take() {
            recorder().record(
                r.trace,
                r.id,
                r.parent,
                Payload::SpanEnd {
                    name: self.name.to_string(),
                    elapsed_us: elapsed.as_micros() as u64,
                },
            );
            CTX.set(r.prev);
        }
        elapsed.as_secs_f64()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

fn open_span(name: &'static str, force_root: bool) -> Span {
    Span {
        name,
        recorded: enabled().then(|| record_start(name, force_root)),
        start: Some(Instant::now()),
    }
}

/// The recorded half of opening a span: allocates ids, emits
/// `span_start` and installs the span's context.
fn record_start(name: &'static str, force_root: bool) -> Recorded {
    let cur = current();
    let r = recorder();
    let (trace, parent) = if cur.trace == 0 || force_root {
        (r.alloc_trace(), 0)
    } else {
        (cur.trace, cur.span)
    };
    let id = r.alloc_span();
    let prev = CTX.replace(Ctx { trace, span: id });
    r.record(
        trace,
        id,
        parent,
        Payload::SpanStart {
            name: name.to_string(),
        },
    );
    Recorded {
        prev,
        trace,
        id,
        parent,
    }
}

/// Opens a span as a child of the current context, or as a new root
/// trace when the thread has none.
pub fn span(name: &'static str) -> Span {
    open_span(name, false)
}

/// Opens a new root trace unconditionally (one per HTTP request).
pub fn root_span(name: &'static str) -> Span {
    open_span(name, true)
}

/// Routes a diagnostic through the event log and mirrors it to stderr —
/// the single sink for what used to be stray `eprintln!` call sites.
pub fn diag(level: &str, text: &str) {
    emit(|| Payload::Message {
        level: level.to_string(),
        text: text.to_string(),
    });
    eprintln!("{text}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(i: u64) -> Payload {
        Payload::Message {
            level: "info".into(),
            text: format!("event {i}"),
        }
    }

    #[test]
    fn mode_parses() {
        assert_eq!(TraceMode::parse("off").unwrap(), TraceMode::Off);
        assert_eq!(TraceMode::parse("ring").unwrap(), TraceMode::Ring);
        assert_eq!(
            TraceMode::parse("jsonl:/tmp/t.jsonl").unwrap(),
            TraceMode::Jsonl("/tmp/t.jsonl".into())
        );
        assert!(TraceMode::parse("martian").is_err());
        assert!(TraceMode::parse("jsonl:").is_err());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new();
        r.record(1, 1, 0, msg(1));
        assert_eq!(r.written(), 0);
        assert!(r.snapshot(usize::MAX).is_empty());
    }

    /// Asserts that `events` carry exactly the consecutive `seq` numbers
    /// `first..=last`, in that order.
    fn assert_seq_run(events: &[Event], first: u64, last: u64) {
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (first..=last).collect::<Vec<u64>>());
    }

    #[test]
    fn ring_retains_most_recent_events_after_wraparound() {
        let r = Recorder::new();
        r.configure(&TraceMode::Ring).unwrap();
        let total = RING_CAPACITY as u64 + 1000;
        for i in 0..total {
            r.record(1, 1, 0, msg(i));
        }
        assert_eq!(r.written(), total);
        // The retained window is the most recent suffix, in order.
        let snap = r.snapshot(usize::MAX);
        assert_eq!(snap.len(), RING_CAPACITY);
        assert_seq_run(&snap, total - RING_CAPACITY as u64 + 1, total);
    }

    #[test]
    fn ring_wraparound_under_concurrent_writers_is_sound() {
        let path = std::env::temp_dir().join(format!(
            "alex_trace_concurrent_{}.jsonl",
            std::process::id()
        ));
        let r = Recorder::new();
        r.configure(&TraceMode::Jsonl(path.to_string_lossy().to_string()))
            .unwrap();
        const WRITERS: u64 = 8;
        let per_writer = RING_CAPACITY as u64 / 4;
        let start = std::sync::Barrier::new(WRITERS as usize);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (r, start) = (&r, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..per_writer {
                        r.record(w + 1, 1, 0, msg(i));
                    }
                });
            }
        });
        let total = WRITERS * per_writer;
        assert_eq!(r.written(), total);
        // Every thread writes to the one ring, which keeps the newest
        // RING_CAPACITY events; its order is `seq` order, with no gaps,
        // even though the writers raced.
        let snap = r.snapshot(usize::MAX);
        assert_eq!(snap.len(), RING_CAPACITY);
        assert_seq_run(&snap, total - RING_CAPACITY as u64 + 1, total);
        // The sink is written under the same lock: the file is in `seq`
        // order too, and holds every event.
        r.configure(&TraceMode::Off).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_seq_run(&parse_jsonl(&text).unwrap(), 1, total);
    }

    #[test]
    fn snapshot_limit_keeps_the_tail() {
        let r = Recorder::new();
        r.configure(&TraceMode::Ring).unwrap();
        for i in 0..100u64 {
            r.record(1, 1, 0, msg(i));
        }
        let snap = r.snapshot(10);
        assert_eq!(snap.len(), 10);
        assert_eq!(snap[0].seq, 91);
        assert_eq!(snap[9].seq, 100);
    }

    #[test]
    fn jsonl_sink_streams_every_event() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("alex_trace_test_{}.jsonl", std::process::id()));
        let path_str = path.to_string_lossy().to_string();
        let r = Recorder::new();
        r.configure(&TraceMode::Jsonl(path_str)).unwrap();
        for i in 0..20u64 {
            r.record(3, 7, 2, msg(i));
        }
        // Drop the sink (flush) by reconfiguring off.
        r.configure(&TraceMode::Off).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let events = parse_jsonl(&text).unwrap();
        assert_eq!(events.len(), 20);
        assert!(events.iter().all(|e| e.trace == 3 && e.span == 7));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_jsonl_path_is_an_error_and_stays_off() {
        let r = Recorder::new();
        let err = r.configure(&TraceMode::Jsonl("/nonexistent-dir-xyz/t.jsonl".into()));
        assert!(err.is_err());
        r.record(1, 1, 0, msg(1));
        assert_eq!(r.written(), 0);
    }

    #[test]
    fn mode_defaults_to_off() {
        // Not asserting on the live env var (other tests may set it).
        assert_eq!(TraceMode::default(), TraceMode::Off);
    }

    fn stage_of(name: &str) -> &'static Histogram {
        stages()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
            .expect("stage recorded")
    }

    #[test]
    fn span_closed_with_the_recorder_off_is_counted() {
        configure(TraceMode::Off).unwrap();
        for _ in 0..3 {
            let span = span("test.stage_off");
            assert_eq!(span.trace_id(), 0);
        }
        assert_eq!(stage_of("test.stage_off").count(), 3);
    }

    #[test]
    fn finish_returns_the_stage_sum_increment() {
        let span = span("test.finish");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let seconds = span.finish();
        let h = stage_of("test.finish");
        assert_eq!(h.count(), 1, "finish closes the span once");
        assert_eq!(h.sum().as_secs_f64(), seconds);
        assert!(seconds >= 0.002);
    }

    #[test]
    fn concurrent_closes_add_up_to_the_exact_count() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2_000;
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..PER_THREAD {
                        drop(span("test.concurrent"));
                    }
                });
            }
        });
        let h = stage_of("test.concurrent");
        assert_eq!(h.count(), (THREADS * PER_THREAD) as u64);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two_nanoseconds() {
        let h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64 / 1000.0); // 1ms .. 100ms
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), std::time::Duration::from_millis(5050));
        // 2^20 ns ≈ 1.05 ms holds the 1 ms observation only; 2^28 ns ≈
        // 268 ms holds them all.
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 16);
        assert!(buckets.contains(&((1u64 << 20) as f64 / 1e9, 1)));
        assert!(buckets.contains(&((1u64 << 28) as f64 / 1e9, 100)));
        h.record(-1.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 102);
        assert_eq!(h.sum(), std::time::Duration::from_millis(5050));
    }

    #[test]
    fn find_request_resolves_latest_trace() {
        let r = Recorder::new();
        r.configure(&TraceMode::Ring).unwrap();
        for trace in [4u64, 9u64] {
            r.record(
                trace,
                1,
                0,
                Payload::HttpRequest {
                    request_id: "req-1".into(),
                    method: "GET".into(),
                    path: "/query".into(),
                },
            );
        }
        assert_eq!(r.find_request("req-1"), Some(9));
        assert_eq!(r.find_request("req-2"), None);
    }
}
