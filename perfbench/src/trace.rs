//! In-memory span recorder for the benchmark's own calls into each layer.
//!
//! Spans are recorded only while tracing is on (`--trace 1`); otherwise a
//! span costs one relaxed atomic load. Each span remembers the span that was
//! open on the same thread when it started, so a layer's self time is its
//! spans' durations minus the parts their child spans cover. Spans stay in
//! memory until the run ends and writes them into its report.
//!
//! This is not `alex_trace`: a run must keep every span it records, where
//! alex-trace's in-memory ring is bounded, and switching alex-trace on
//! would also record the library's own spans, which stay off so that the
//! traced run times only the benchmark's calls into each layer.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are microseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    /// The enclosing span on the same thread, or 0 for a root span.
    pub parent: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub thread: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl SpanRecord {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

struct Recorder {
    on: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        on: AtomicBool::new(false),
        origin: Instant::now(),
        next_id: AtomicU64::new(1),
        next_thread: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = recorder().next_thread.fetch_add(1, Ordering::Relaxed);
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    recorder().on.store(on, Ordering::Relaxed);
}

/// A span that records itself when dropped (if tracing was on when it
/// opened).
pub struct Span(Option<OpenSpan>);

struct OpenSpan {
    id: u64,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    start: Instant,
}

/// Opens a span named `name` in `layer`.
pub fn span(layer: &'static str, name: &'static str) -> Span {
    let rec = recorder();
    if !rec.on.load(Ordering::Relaxed) {
        return Span(None);
    }
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Span(Some(OpenSpan {
        id,
        parent,
        layer,
        name,
        start: Instant::now(),
    }))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == open.id) {
                stack.truncate(pos);
            }
        });
        let rec = recorder();
        let micros = |t: Instant| t.duration_since(rec.origin).as_secs_f64() * 1e6;
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            layer: open.layer,
            name: open.name,
            thread: THREAD.with(|t| *t),
            start_us: micros(open.start),
            end_us: micros(end),
        };
        // A poisoned lock only means another thread panicked mid-push;
        // the run fails on that panic anyway, so dropping the span is fine.
        if let Ok(mut spans) = rec.spans.lock() {
            spans.push(record);
        }
    }
}

/// Takes every recorded span, ordered by start time.
pub fn drain() -> Vec<SpanRecord> {
    let mut spans = std::mem::take(&mut *recorder().spans.lock().expect("span lock poisoned"));
    spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    spans
}

/// Durations in seconds of every span called `name`, in start order.
pub fn durations(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRecord::seconds)
        .collect()
}

/// Total and self time of one layer's spans.
#[derive(Clone, Debug, Default)]
pub struct LayerTime {
    pub spans: usize,
    pub total_s: f64,
    pub self_s: f64,
}

/// Per-layer span count, total time and self time (total minus the time
/// covered by child spans).
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_s: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_s.entry(s.parent).or_default() += s.seconds();
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let entry = out.entry(s.layer).or_default();
        entry.spans += 1;
        entry.total_s += s.seconds();
        entry.self_s += (s.seconds() - child_s.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
    }
    out
}

/// Writes `spans` as JSON lines (one span per line) to `path`.
pub fn write_jsonl(spans: &[SpanRecord], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"thread\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}\n",
            s.id, s.parent, s.layer, s.name, s.thread, s.start_us, s.end_us
        ));
    }
    std::fs::write(path, out)
}

/// Prints the per-layer self-time table and each layer's share of the
/// summed self time, then reconciles the `root` spans with `untraced_s`,
/// the untraced wall time of the same work.
pub fn print_self_times(spans: &[SpanRecord], root: &str, untraced_s: f64) {
    let table = self_times(spans);
    let total_self: f64 = table.values().map(|t| t.self_s).sum();
    println!("traced self time per layer (spans from the benchmark's own calls):");
    println!(
        "  {:<14} {:>7} {:>11} {:>11} {:>7}",
        "layer", "spans", "total s", "self s", "share"
    );
    for (layer, t) in &table {
        println!(
            "  {:<14} {:>7} {:>11.4} {:>11.4} {:>6.1}%",
            layer,
            t.spans,
            t.total_s,
            t.self_s,
            100.0 * t.self_s / total_self.max(f64::MIN_POSITIVE)
        );
    }
    let traced: f64 = durations(spans, root).iter().sum();
    println!(
        "  {root}: traced {traced:.4} s, untraced {untraced_s:.4} s, tracing overhead {:.4} s",
        traced - untraced_s
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                layer: "outer",
                name: "a",
                thread: 1,
                start_us: 0.0,
                end_us: 10.0,
            },
            SpanRecord {
                id: 2,
                parent: 1,
                layer: "inner",
                name: "b",
                thread: 1,
                start_us: 2.0,
                end_us: 6.0,
            },
        ];
        let table = self_times(&spans);
        assert!((table["outer"].self_s - 6e-6).abs() < 1e-12);
        assert!((table["inner"].self_s - 4e-6).abs() < 1e-12);
        assert_eq!(durations(&spans, "b"), vec![4e-6]);
    }
}
