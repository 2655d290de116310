//! Operational metrics for long-running ALEX deployments.
//!
//! The paper's system is interactive — users query, give feedback, and the
//! curation state evolves over days — so a deployment needs visibility into
//! request rates, latencies, and per-session curation progress. This module
//! provides the three standard instrument kinds behind a [`MetricsRegistry`]:
//!
//! * [`Counter`] — monotonically increasing event count (lock-free).
//! * [`Gauge`] — a value that can go up and down (queue depth, sessions).
//! * [`Histogram`] — latency distribution over log buckets (the
//!   `alex-trace` type that also backs the stage table).
//!
//! [`MetricsRegistry::render`] emits the whole registry in the plain-text
//! exposition format (`name{labels} value` lines, `# TYPE` comments), so a
//! scrape endpoint can serve it directly, followed by the process-wide
//! stage table as `alex_stage_seconds{stage="<span name>"}`. Instruments
//! are identified by their full name *including* any `{label="…"}`
//! suffix; the registry interns each name once and hands out shared
//! handles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use alex_trace::Histogram;

/// Counter name: records appended to session write-ahead logs.
pub const WAL_APPENDS_TOTAL: &str = "alex_wal_appends_total";

/// Counter name: `fsync` calls issued by session write-ahead logs.
pub const WAL_FSYNCS_TOTAL: &str = "alex_wal_fsyncs_total";

/// Counter name: frame bytes written to session write-ahead logs.
pub const WAL_BYTES_TOTAL: &str = "alex_wal_bytes_total";

/// Counter name: sessions recovered from disk at boot.
pub const RECOVERIES_TOTAL: &str = "alex_recoveries_total";

/// Counter name: WAL records replayed into recovered sessions at boot.
pub const RECOVERED_RECORDS_TOTAL: &str = "alex_recovered_records_total";

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding a floating-point value (e.g. precision/recall in \[0, 1\]).
///
/// Stored as `f64` bits in an atomic; reads and writes are lock-free.
#[derive(Debug, Default)]
pub struct FloatGauge(AtomicU64);

impl FloatGauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A process-wide registry of named instruments.
///
/// Names follow the usual conventions (`snake_case`, unit suffix) and may
/// carry an inline label set: `http_requests_total{route="/healthz"}`.
/// Each distinct name owns one instrument; repeated registration returns
/// the same handle.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    float_gauges: Mutex<BTreeMap<String, Arc<FloatGauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The float gauge registered under `name`, creating it on first use.
    pub fn float_gauge(&self, name: &str) -> Arc<FloatGauge> {
        let mut map = self
            .float_gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Renders every instrument in Prometheus text exposition format,
    /// sorted by name, then one `alex_stage_seconds{stage="…"}` histogram
    /// per span name in the stage table ([`alex_trace::stages`]).
    ///
    /// Counters and gauges emit one `name value` line. Histograms emit the
    /// standard Prometheus histogram series: cumulative
    /// `name_bucket{le="…"}` lines ending with `le="+Inf"`, then
    /// `name_sum` and `name_count`; a histogram name that already carries
    /// labels has the `le` label merged into the existing set.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, c) in self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            out.push_str(&format!(
                "# TYPE {} counter\n{name} {}\n",
                base_name(name),
                c.get()
            ));
        }
        for (name, g) in self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            out.push_str(&format!(
                "# TYPE {} gauge\n{name} {}\n",
                base_name(name),
                g.get()
            ));
        }
        for (name, g) in self
            .float_gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            out.push_str(&format!(
                "# TYPE {} gauge\n{name} {}\n",
                base_name(name),
                g.get()
            ));
        }
        for (name, h) in self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            render_histogram(&mut out, name, h);
        }
        for (stage, h) in alex_trace::stages() {
            render_histogram(
                &mut out,
                &format!("alex_stage_seconds{{stage=\"{stage}\"}}"),
                h,
            );
        }
        out
    }
}

/// Appends one histogram's `# TYPE` line, cumulative buckets, sum and count.
fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
    out.push_str(&format!("# TYPE {} histogram\n", base_name(name)));
    let (base, labels) = split_labels(name);
    let buckets = h.cumulative_buckets();
    // Read after the buckets, so `+Inf` is never below a finite bucket.
    let count = h.count();
    let bucket_line = |le: &str, count: u64| {
        let series = with_label(&format!("{base}_bucket{labels}"), &format!("le=\"{le}\""));
        format!("{series} {count}\n")
    };
    for (bound, cumulative) in buckets {
        out.push_str(&bucket_line(&format!("{bound}"), cumulative));
    }
    out.push_str(&bucket_line("+Inf", count));
    out.push_str(&format!("{base}_sum{labels} {}\n", h.sum().as_secs_f64()));
    out.push_str(&format!("{base}_count{labels} {count}\n"));
}

/// `name{...}` → `name`.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Splits `name{labels}` into (`name`, `{labels}` or `""`).
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Merges one `key="value"` pair into a possibly-labelled name.
fn with_label(name: &str, label: &str) -> String {
    let (base, labels) = split_labels(name);
    if labels.is_empty() {
        format!("{base}{{{label}}}")
    } else {
        let inner = &labels[1..labels.len() - 1];
        format!("{base}{{{inner},{label}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("requests_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same instrument.
        assert_eq!(reg.counter("requests_total").get(), 5);

        let g = reg.gauge("queue_depth");
        g.set(3);
        g.add(-2);
        assert_eq!(g.get(), 1);

        let f = reg.float_gauge("precision");
        f.set(0.875);
        assert_eq!(reg.float_gauge("precision").get(), 0.875);
        assert!(reg.render().contains("precision 0.875"));
    }

    #[test]
    fn render_covers_all_instrument_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("http_requests_total{route=\"/healthz\",status=\"200\"}")
            .inc();
        reg.gauge("sessions_active").set(2);
        reg.histogram("request_seconds{route=\"/query\"}")
            .record(0.003);
        drop(alex_trace::span("test.render_stage"));
        let text = reg.render();
        assert!(text.contains("# TYPE http_requests_total counter"));
        assert!(text.contains("http_requests_total{route=\"/healthz\",status=\"200\"} 1"));
        assert!(text.contains("sessions_active 2"));
        assert!(text.contains("# TYPE request_seconds histogram"));
        assert!(text.contains("request_seconds_bucket{route=\"/query\",le=\"+Inf\"} 1"));
        assert!(text.contains("request_seconds_count{route=\"/query\"} 1"));
        assert!(text.contains("request_seconds_sum{route=\"/query\"} 0.003"));
        assert!(text.contains("alex_stage_seconds_count{stage=\"test.render_stage\"} 1"));
    }

    /// Locks the Prometheus histogram exposition format: cumulative
    /// `_bucket{le="…"}` series ending in `+Inf`, then `_sum` and
    /// `_count`, with `le` merged into any existing label set.
    #[test]
    fn histogram_exposition_is_prometheus_format() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("latency_seconds{route=\"/q\"}");
        h.record(0.003);
        h.record(0.003);
        h.record(2.0);
        let text = reg.render();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("latency_seconds") || l.contains("latency_seconds"))
            .collect();
        assert_eq!(lines[0], "# TYPE latency_seconds histogram");
        // Bucket lines are cumulative and monotone, and every one carries
        // both the original label and `le`.
        let buckets: Vec<&&str> = lines
            .iter()
            .filter(|l| l.starts_with("latency_seconds_bucket"))
            .collect();
        assert!(!buckets.is_empty());
        let mut prev = 0u64;
        for line in &buckets {
            assert!(
                line.starts_with("latency_seconds_bucket{route=\"/q\",le=\""),
                "{line}"
            );
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= prev, "buckets must be cumulative: {text}");
            prev = count;
        }
        // The +Inf bucket is last and equals the observation count.
        assert_eq!(
            **buckets.last().unwrap(),
            "latency_seconds_bucket{route=\"/q\",le=\"+Inf\"} 3"
        );
        // A finite bound separates the two fast observations from the
        // slow one (2s exceeds all bounds below ~3.3s only at the top).
        assert!(
            buckets.iter().any(|l| l.ends_with(" 2")),
            "expected an intermediate cumulative count of 2: {text}"
        );
        assert!(text.contains("latency_seconds_sum{route=\"/q\"} 2.006"));
        assert!(text.contains("latency_seconds_count{route=\"/q\"} 3"));
        // _sum comes before _count, after the buckets (Prometheus order).
        let sum_at = text.find("latency_seconds_sum").unwrap();
        let count_at = text.find("latency_seconds_count").unwrap();
        let inf_at = text.find("le=\"+Inf\"").unwrap();
        assert!(inf_at < sum_at && sum_at < count_at);
    }

    #[test]
    fn histogram_is_shared_across_threads() {
        let reg = Arc::new(MetricsRegistry::new());
        let h = reg.histogram("shared_seconds");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for _ in 0..250 {
                        h.record(0.001);
                    }
                });
            }
        });
        assert_eq!(reg.histogram("shared_seconds").count(), 1000);
    }
}
