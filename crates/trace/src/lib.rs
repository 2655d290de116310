//! # alex-trace — structured tracing and the flight recorder
//!
//! The tracing subsystem, re-exported as `alex_core::trace`:
//! [`Span`]s with ids/parents and monotonic timestamps, typed [`Event`]s,
//! a lock-sharded bounded ring buffer (the "flight recorder"), a
//! JSON-lines exporter, and the stage table ([`stages`]): every span's
//! duration aggregated by span name into a [`Histogram`], the process's
//! one stage clock.
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
//! streams each event to a file as it is recorded.
//!
//! ## Context propagation
//!
//! The current `(trace, span)` pair lives in a thread-local; [`span`]
//! starts a child of it (or a new sampled root when there is none) and
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
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Environment variable selecting the mode: `off`, `ring`, `jsonl:<path>`.
pub const ENV_MODE: &str = "ALEX_TRACE";
/// Environment variable for the per-trace sampling rate in `[0, 1]`.
pub const ENV_SAMPLE: &str = "ALEX_TRACE_SAMPLE";
/// Environment variable for the ring capacity (total events retained).
pub const ENV_RING: &str = "ALEX_TRACE_RING";

/// Default flight-recorder capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

/// Sentinel trace id marking an unsampled trace: context is threaded
/// through (so child spans stay suppressed) but nothing is recorded.
const SUPPRESSED: u64 = u64::MAX;

/// Number of independently locked ring shards. Writers on different
/// threads usually hit different shards, so hot paths rarely contend.
const SHARDS: usize = 8;

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

/// Runtime settings for the recorder.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSettings {
    /// Recording mode.
    pub mode: TraceMode,
    /// Per-trace sampling rate in `[0, 1]`; traces are kept or dropped
    /// whole, decided deterministically from the trace id (no RNG).
    pub sample: f64,
    /// Total ring capacity in events (split across shards).
    pub ring_capacity: usize,
}

impl Default for TraceSettings {
    fn default() -> Self {
        Self {
            mode: TraceMode::Off,
            sample: 1.0,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

impl TraceSettings {
    /// Reads `ALEX_TRACE`, `ALEX_TRACE_SAMPLE`, and `ALEX_TRACE_RING`.
    /// Unset or unparsable values fall back to the defaults (off / 1.0 /
    /// 16384) — a typo in an env var must not take a server down.
    pub fn from_env() -> Self {
        let mode = std::env::var(ENV_MODE)
            .ok()
            .and_then(|v| TraceMode::parse(&v).ok())
            .unwrap_or_default();
        let sample = std::env::var(ENV_SAMPLE)
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|s| s.is_finite())
            .map(|s| s.clamp(0.0, 1.0))
            .unwrap_or(1.0);
        let ring_capacity = std::env::var(ENV_RING)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_RING_CAPACITY);
        Self {
            mode,
            sample,
            ring_capacity,
        }
    }
}

/// One bounded ring shard.
struct Shard {
    buf: Vec<Event>,
    cap: usize,
    /// Next overwrite position once the buffer is full.
    head: usize,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Self {
            buf: Vec::new(),
            cap: cap.max(1),
            head: 0,
        }
    }

    fn push(&mut self, e: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.cap;
        }
    }

    fn reset(&mut self, cap: usize) {
        self.buf = Vec::new();
        self.cap = cap.max(1);
        self.head = 0;
    }
}

/// The flight recorder: a lock-sharded bounded ring buffer plus an
/// optional JSON-lines sink. One global instance backs the free functions
/// in this crate; standalone instances exist for tests.
pub struct Recorder {
    enabled: AtomicBool,
    /// Sampling rate in parts-per-million, compared against a hash of the
    /// trace id (deterministic, RNG-free).
    sample_ppm: AtomicU64,
    shards: Vec<Mutex<Shard>>,
    has_sink: AtomicBool,
    sink: Mutex<Option<File>>,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    next_seq: AtomicU64,
    /// Total events ever recorded (keeps counting past ring wraparound).
    written: AtomicU64,
    epoch: Instant,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates a disabled recorder with default capacity.
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            sample_ppm: AtomicU64::new(1_000_000),
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Shard::new(DEFAULT_RING_CAPACITY / SHARDS)))
                .collect(),
            has_sink: AtomicBool::new(false),
            sink: Mutex::new(None),
            next_trace: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            written: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Applies settings: flips the enabled flag, clears and resizes the
    /// ring, and (re)opens the JSON-lines sink for `jsonl:` mode.
    pub fn configure(&self, settings: &TraceSettings) -> Result<(), String> {
        let per_shard = (settings.ring_capacity / SHARDS).max(1);
        for s in &self.shards {
            s.lock().expect("shard lock").reset(per_shard);
        }
        self.sample_ppm.store(
            (settings.sample.clamp(0.0, 1.0) * 1_000_000.0).round() as u64,
            Relaxed,
        );
        let mut sink = self.sink.lock().expect("sink lock");
        *sink = None;
        self.has_sink.store(false, Relaxed);
        match &settings.mode {
            TraceMode::Off => {
                self.enabled.store(false, Relaxed);
            }
            TraceMode::Ring => {
                self.enabled.store(true, Relaxed);
            }
            TraceMode::Jsonl(path) => {
                let file = File::create(path)
                    .map_err(|e| format!("cannot open trace sink {path:?}: {e}"))?;
                *sink = Some(file);
                self.has_sink.store(true, Relaxed);
                self.enabled.store(true, Relaxed);
            }
        }
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

    /// Deterministic per-trace sampling decision.
    pub fn sampled(&self, trace: u64) -> bool {
        let ppm = self.sample_ppm.load(Relaxed);
        if ppm >= 1_000_000 {
            return true;
        }
        splitmix64(trace) % 1_000_000 < ppm
    }

    /// Records one event under `(trace, span, parent)`. No-op when
    /// disabled; events in suppressed traces are dropped.
    pub fn record(&self, trace: u64, span: u64, parent: u64, payload: Payload) {
        if !self.enabled.load(Relaxed) || trace == SUPPRESSED {
            return;
        }
        let seq = self.next_seq.fetch_add(1, Relaxed) + 1;
        let ev = Event {
            seq,
            ts_us: self.epoch.elapsed().as_micros() as u64,
            trace,
            span,
            parent,
            payload,
        };
        if self.has_sink.load(Relaxed) {
            if let Some(f) = self.sink.lock().expect("sink lock").as_mut() {
                let _ = writeln!(f, "{}", ev.to_json_line());
            }
        }
        let shard = shard_for_current_thread(self.shards.len());
        self.shards[shard].lock().expect("shard lock").push(ev);
        self.written.fetch_add(1, Relaxed);
    }

    /// Total events ever recorded, including ones the ring has evicted.
    pub fn written(&self) -> u64 {
        self.written.load(Relaxed)
    }

    /// The ring's current contents in global `seq` order, keeping only the
    /// most recent `limit` events.
    pub fn snapshot(&self, limit: usize) -> Vec<Event> {
        let mut out = Vec::new();
        for s in &self.shards {
            let shard = s.lock().expect("shard lock");
            // Ring order within a shard: oldest is at `head` once full.
            out.extend_from_slice(&shard.buf[shard.head..]);
            out.extend_from_slice(&shard.buf[..shard.head]);
        }
        out.sort_by_key(|e| e.seq);
        if out.len() > limit {
            out.drain(..out.len() - limit);
        }
        out
    }

    /// Every retained event of one trace, in `seq` order.
    pub fn trace_events(&self, trace: u64) -> Vec<Event> {
        let mut out = self.snapshot(usize::MAX);
        out.retain(|e| e.trace == trace);
        out
    }

    /// Finds the trace id serving `request_id`, scanning retained
    /// `http_request` events (most recent wins).
    pub fn find_request(&self, request_id: &str) -> Option<u64> {
        self.snapshot(usize::MAX)
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

fn shard_for_current_thread(n: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    (h.finish() as usize) % n
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
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
            let _ = configure(&TraceSettings::from_env());
            STATE.load(Relaxed) == 2
        }
    }
}

/// Installs settings on the global recorder (overriding any environment
/// configuration). Returns `Err` if a `jsonl:` sink cannot be opened, in
/// which case tracing is left off.
pub fn configure(settings: &TraceSettings) -> Result<(), String> {
    let result = recorder().configure(settings);
    let on = result.is_ok() && settings.mode != TraceMode::Off;
    STATE.store(if on { 2 } else { 1 }, Relaxed);
    result
}

/// Re-reads the environment and installs the result. Entry points call
/// this explicitly; everything else relies on lazy init via [`enabled`].
pub fn configure_from_env() {
    let _ = configure(&TraceSettings::from_env());
}

/// The current trace/span context of this thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Ctx {
    /// Active trace id (`0` = none, `u64::MAX` = suppressed by sampling).
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
/// recording is on *and* the current trace is not suppressed, so the
/// disabled path never allocates.
#[inline]
pub fn emit(f: impl FnOnce() -> Payload) {
    if !enabled() {
        return;
    }
    let ctx = current();
    if ctx.trace == SUPPRESSED {
        return;
    }
    recorder().record(ctx.trace, ctx.span, 0, f());
}

/// A RAII span. It reads the clock when it opens and again when it
/// closes (on drop or [`Span::finish`]), adds the duration to the stage
/// table ([`stages`]) under its name, and, while recording is on and its
/// trace is sampled, emits `span_start`/`span_end` events and maintains
/// the thread-local context in between.
pub struct Span {
    name: &'static str,
    /// `None` once the span has closed.
    start: Option<Instant>,
    /// The recorded half; `None` when recording is off or the parent
    /// trace is suppressed.
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
        match &self.recorded {
            Some(r) if r.trace != SUPPRESSED => r.trace,
            _ => 0,
        }
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
            if r.trace != SUPPRESSED {
                recorder().record(
                    r.trace,
                    r.id,
                    r.parent,
                    Payload::SpanEnd {
                        name: self.name.to_string(),
                        elapsed_us: elapsed.as_micros() as u64,
                    },
                );
            }
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
        recorded: enabled().then(|| record_start(name, force_root)).flatten(),
        start: Some(Instant::now()),
    }
}

/// The recorded half of opening a span: allocates ids, emits
/// `span_start` and installs the span's context.
fn record_start(name: &'static str, force_root: bool) -> Option<Recorded> {
    let cur = current();
    if cur.trace == SUPPRESSED && !force_root {
        return None;
    }
    let r = recorder();
    let (trace, parent) = if cur.trace == 0 || force_root {
        let t = r.alloc_trace();
        if !r.sampled(t) {
            // Mark the whole trace suppressed: children skip themselves
            // via the context; closing restores the previous context.
            let prev = CTX.replace(Ctx {
                trace: SUPPRESSED,
                span: 0,
            });
            return Some(Recorded {
                prev,
                trace: SUPPRESSED,
                id: 0,
                parent: 0,
            });
        }
        (t, 0)
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
    Some(Recorded {
        prev,
        trace,
        id,
        parent,
    })
}

/// Opens a span as a child of the current context, or as a new (sampled)
/// root trace when the thread has none.
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
    if enabled() {
        let ctx = current();
        if ctx.trace != SUPPRESSED {
            recorder().record(
                ctx.trace,
                ctx.span,
                0,
                Payload::Message {
                    level: level.to_string(),
                    text: text.to_string(),
                },
            );
        }
    }
    eprintln!("{text}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_settings(cap: usize) -> TraceSettings {
        TraceSettings {
            mode: TraceMode::Ring,
            sample: 1.0,
            ring_capacity: cap,
        }
    }

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

    #[test]
    fn ring_retains_most_recent_events_after_wraparound() {
        let r = Recorder::new();
        r.configure(&ring_settings(64)).unwrap();
        // Single-threaded: one shard gets every event, so its 8-slot
        // budget wraps many times.
        for i in 0..1000u64 {
            r.record(1, 1, 0, msg(i));
        }
        assert_eq!(r.written(), 1000);
        let snap = r.snapshot(usize::MAX);
        assert!(!snap.is_empty());
        assert!(snap.len() <= 64);
        // The retained window is the most recent suffix, in order.
        for w in snap.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        assert_eq!(snap.last().unwrap().seq, 1000);
    }

    #[test]
    fn ring_wraparound_under_concurrent_writers_is_sound() {
        let r = std::sync::Arc::new(Recorder::new());
        r.configure(&ring_settings(128)).unwrap();
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 500;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..PER_WRITER {
                        r.record(w + 1, 1, 0, msg(i));
                    }
                });
            }
        });
        assert_eq!(r.written(), WRITERS * PER_WRITER);
        let snap = r.snapshot(usize::MAX);
        assert!(!snap.is_empty());
        assert!(snap.len() <= 128, "ring stayed bounded: {}", snap.len());
        // Sequence numbers are unique and sorted even though writers
        // raced across shards.
        for w in snap.windows(2) {
            assert!(w[0].seq < w[1].seq, "duplicate or unsorted seq");
        }
        // Snapshot keeps a recent window: the newest event survived.
        assert_eq!(
            snap.last().unwrap().seq,
            WRITERS * PER_WRITER,
            "most recent event must be retained"
        );
    }

    #[test]
    fn snapshot_limit_keeps_the_tail() {
        let r = Recorder::new();
        r.configure(&ring_settings(256)).unwrap();
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
        r.configure(&TraceSettings {
            mode: TraceMode::Jsonl(path_str.clone()),
            sample: 1.0,
            ring_capacity: 64,
        })
        .unwrap();
        for i in 0..20u64 {
            r.record(3, 7, 2, msg(i));
        }
        // Drop the sink (flush) by reconfiguring off.
        r.configure(&TraceSettings::default()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let events = parse_jsonl(&text).unwrap();
        assert_eq!(events.len(), 20);
        assert!(events.iter().all(|e| e.trace == 3 && e.span == 7));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_jsonl_path_is_an_error_and_stays_off() {
        let r = Recorder::new();
        let err = r.configure(&TraceSettings {
            mode: TraceMode::Jsonl("/nonexistent-dir-xyz/t.jsonl".into()),
            sample: 1.0,
            ring_capacity: 64,
        });
        assert!(err.is_err());
        r.record(1, 1, 0, msg(1));
        assert_eq!(r.written(), 0);
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_proportional() {
        let r = Recorder::new();
        r.configure(&TraceSettings {
            mode: TraceMode::Ring,
            sample: 0.25,
            ring_capacity: 64,
        })
        .unwrap();
        let kept: Vec<bool> = (1..=10_000u64).map(|t| r.sampled(t)).collect();
        let count = kept.iter().filter(|&&k| k).count();
        assert!(
            (2_000..=3_000).contains(&count),
            "~25% of traces kept, got {count}"
        );
        // Deterministic: the same trace ids give the same decisions.
        let again: Vec<bool> = (1..=10_000u64).map(|t| r.sampled(t)).collect();
        assert_eq!(kept, again);
    }

    #[test]
    fn settings_from_env_defaults_are_safe() {
        // Not asserting on live env vars (other tests may set them);
        // just exercise the clamp/fallback logic via parse.
        let s = TraceSettings::default();
        assert_eq!(s.mode, TraceMode::Off);
        assert_eq!(s.sample, 1.0);
        assert_eq!(s.ring_capacity, DEFAULT_RING_CAPACITY);
    }

    /// Serializes the tests that reconfigure the global recorder.
    static GLOBAL_RECORDER: Mutex<()> = Mutex::new(());

    fn stage_of(name: &str) -> &'static Histogram {
        stages()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
            .expect("stage recorded")
    }

    #[test]
    fn span_closed_with_the_recorder_off_is_counted() {
        let _lock = GLOBAL_RECORDER.lock().unwrap();
        configure(&TraceSettings::default()).unwrap();
        for _ in 0..3 {
            let span = span("test.stage_off");
            assert_eq!(span.trace_id(), 0);
        }
        assert_eq!(stage_of("test.stage_off").count(), 3);
    }

    #[test]
    fn sampled_out_span_is_counted() {
        let _lock = GLOBAL_RECORDER.lock().unwrap();
        configure(&TraceSettings {
            mode: TraceMode::Ring,
            sample: 0.0,
            ring_capacity: 64,
        })
        .unwrap();
        let written = recorder().written();
        {
            let root = root_span("test.sampled_out");
            assert_eq!(root.trace_id(), 0, "the trace is sampled out");
            drop(span("test.sampled_out_child"));
        }
        assert_eq!(recorder().written(), written, "nothing recorded");
        configure(&TraceSettings::default()).unwrap();
        assert_eq!(stage_of("test.sampled_out").count(), 1);
        assert_eq!(stage_of("test.sampled_out_child").count(), 1);
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
        r.configure(&ring_settings(256)).unwrap();
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
