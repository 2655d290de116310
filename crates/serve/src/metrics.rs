//! The `GET /metrics` page, in the Prometheus text exposition format.
//!
//! Two kinds of series reach a scrape:
//!
//! * **Events**, counted as they happen: [`Counter`]s and latency
//!   [`Histogram`]s in the [`MetricsRegistry`] (requests by route and
//!   status, WAL appends, recoveries, …), and the process-wide stage
//!   table as `alex_stage_seconds{stage="<span name>"}`
//!   ([`alex_core::trace::stages`]).
//! * **Gauges**, read by [`render`] from the state they describe: the
//!   session table's size, the connection queue's depth, and each
//!   session's size, progress, learning health and, with ground truth,
//!   quality. Nothing on the request path writes a gauge.
//!
//! Registry instruments are identified by their full name *including* any
//! `{label="…"}` suffix; the registry interns each name once and hands out
//! shared handles. This module alone writes exposition text: every
//! family's `# TYPE` line once, before its samples, which are contiguous.

use std::collections::{BTreeMap, HashSet};
use std::fmt::{Display, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use alex_core::trace::{self, Histogram};
use alex_core::{LiveSession, Quality};
use alex_rdf::Link;

use crate::state::{AppState, SessionEntry};

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

/// The process's counters and latency histograms, by name.
///
/// Names follow the usual conventions (`snake_case`, unit suffix) and may
/// carry an inline label set: `http_requests_total{route="/healthz"}`.
/// Each distinct name owns one instrument; repeated registration returns
/// the same handle.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The instrument registered under `name` in `map`, created on first use.
fn instrument<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(map.entry(name.to_string()).or_default())
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        instrument(&self.counters, name)
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        instrument(&self.histograms, name)
    }

    /// Renders every instrument and one `alex_stage_seconds{stage="…"}`
    /// histogram per span name in the stage table, families in name order,
    /// each under one `# TYPE` line.
    ///
    /// A counter emits one `name value` line. A histogram emits the
    /// standard Prometheus histogram series: cumulative
    /// `name_bucket{le="…"}` lines ending with `le="+Inf"`, then
    /// `name_sum` and `name_count`; a histogram name that already carries
    /// labels has the `le` label merged into the existing set.
    pub fn render(&self) -> String {
        self.page().finish()
    }

    /// The registry and the stage table as a page that gauges can join.
    fn page(&self) -> Page {
        let mut page = Page::default();
        let counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        for (name, c) in counters.iter() {
            let (family, labels) = split_labels(name);
            page.sample("counter", family, labels, c.get());
        }
        drop(counters);
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for (name, h) in histograms.iter() {
            let (family, labels) = split_labels(name);
            page.histogram(family, labels, h);
        }
        for (stage, h) in trace::stages() {
            page.histogram("alex_stage_seconds", &format!("{{stage=\"{stage}\"}}"), h);
        }
        page
    }
}

/// The whole `GET /metrics` page: the registry and the stage table, and
/// every gauge read now, families in name order.
///
/// The session handles are cloned out under the table's read lock, which
/// is released before any session is read; each session is then read
/// under its own read lock, in id order.
pub fn render(state: &AppState) -> String {
    let mut page = state.metrics.page();
    let mut sessions: Vec<(String, SessionEntry)> = (state.sessions.read())
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(id, entry)| (id.clone(), entry.clone()))
        .collect();
    sessions.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    page.sample("gauge", "alex_sessions_active", "", sessions.len());
    let queued = state.queued.load(Ordering::SeqCst);
    page.sample("gauge", "alex_queue_depth", "", queued);
    for (id, entry) in &sessions {
        session_samples(&mut page, id, &entry.handle.read(), entry.truth.as_deref());
    }
    page.finish()
}

/// One session's series: size, progress and learning health (ε-greedy
/// choices by how the ε coin fell, rollbacks, Q-table entries,
/// blacklist), its feedback items, and quality when ground truth is known.
fn session_samples(
    page: &mut Page,
    id: &str,
    session: &LiveSession,
    truth: Option<&HashSet<Link>>,
) {
    let series = format!("{{session=\"{id}\"}}");
    let health = session.driver().diagnostics();
    let mut put = |family: &str, value: u64| page.sample("gauge", family, &series, value);
    put("alex_session_candidates", health.candidates as u64);
    put("alex_session_episodes", session.episodes);
    // A rolled-back pair is banned and never taken again, so the banned
    // pairs are the rollbacks.
    put("alex_session_rollbacks", health.banned_actions as u64);
    put("alex_session_q_entries", health.q_entries as u64);
    put("alex_session_blacklisted", health.blacklisted as u64);
    let choice = |c: &str| format!("{{session=\"{id}\",choice=\"{c}\"}}");
    let choices = "alex_session_choices";
    page.sample("gauge", choices, &choice("explore"), session.explored);
    page.sample("gauge", choices, &choice("exploit"), session.exploited);
    let feedback = "alex_session_feedback_total";
    page.sample("counter", feedback, &series, session.feedback_items);
    if let Some(truth) = truth {
        let driver = session.driver();
        let correct = driver.candidates().filter(|l| truth.contains(l)).count();
        let q = Quality::from_counts(correct, driver.candidate_count(), truth.len());
        page.sample("gauge", "alex_session_precision", &series, q.precision);
        page.sample("gauge", "alex_session_recall", &series, q.recall);
    }
}

/// A page being written: each family's type and sample lines, by family
/// name, so a family's samples stay together whatever order they arrive in.
#[derive(Default)]
struct Page(BTreeMap<String, (&'static str, String)>);

impl Page {
    /// The sample lines of `family`, declared as `kind` on first use.
    fn family(&mut self, family: &str, kind: &'static str) -> &mut String {
        let entry = self.0.entry(family.to_string());
        &mut entry.or_insert_with(|| (kind, String::new())).1
    }

    /// Appends `family{labels} value`; `labels` is `""` or `{…}`.
    fn sample(&mut self, kind: &'static str, family: &str, labels: &str, value: impl Display) {
        let _ = writeln!(self.family(family, kind), "{family}{labels} {value}");
    }

    /// Appends one histogram's cumulative buckets, sum and count.
    fn histogram(&mut self, family: &str, labels: &str, h: &Histogram) {
        let lines = self.family(family, "histogram");
        let buckets = h.cumulative_buckets();
        // Read after the buckets, so `+Inf` is never below a finite bucket.
        let count = h.count();
        // `le` joins any labels the series already has.
        let open = labels
            .strip_suffix('}')
            .map_or("{".into(), |l| format!("{l},"));
        let mut bucket = |le: &dyn Display, n: u64| {
            let _ = writeln!(lines, "{family}_bucket{open}le=\"{le}\"}} {n}");
        };
        for (bound, cumulative) in buckets {
            bucket(&bound, cumulative);
        }
        bucket(&"+Inf", count);
        let _ = writeln!(lines, "{family}_sum{labels} {}", h.sum().as_secs_f64());
        let _ = writeln!(lines, "{family}_count{labels} {count}");
    }

    /// The exposition text: each family's `# TYPE` line, then its samples.
    fn finish(self) -> String {
        let mut out = String::new();
        for (family, (kind, lines)) in self.0 {
            let _ = writeln!(out, "# TYPE {family} {kind}");
            out.push_str(&lines);
        }
        out
    }
}

/// Splits `name{labels}` into (`name`, `{labels}` or `""`).
fn split_labels(name: &str) -> (&str, &str) {
    name.split_at(name.find('{').unwrap_or(name.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("requests_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registration returns the same instrument.
        assert_eq!(reg.counter("requests_total").get(), 5);
        assert!(reg.render().contains("requests_total 5"));
    }

    #[test]
    fn render_covers_all_instrument_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("http_requests_total{route=\"/healthz\",status=\"200\"}")
            .inc();
        reg.histogram("request_seconds{route=\"/query\"}")
            .record(0.003);
        drop(alex_core::trace::span("test.render_stage"));
        let text = reg.render();
        assert!(text.contains("# TYPE http_requests_total counter"));
        assert!(text.contains("http_requests_total{route=\"/healthz\",status=\"200\"} 1"));
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

    /// Series of one family arrive interleaved with another's and with
    /// an unlabelled series sorting between them; the page still types
    /// each family once, with its samples right after.
    #[test]
    fn each_family_is_typed_once_with_its_samples_together() {
        let reg = MetricsRegistry::new();
        for name in [
            "a_total{x=\"1\"}",
            "a_total_more",
            "a_total{x=\"2\"}",
            "a_total",
        ] {
            reg.counter(name).inc();
        }
        for route in ["/p", "/q"] {
            reg.histogram(&format!("t_seconds{{route=\"{route}\"}}"))
                .record(0.001);
        }
        let text = reg.render();
        let section = |family: &str| -> Vec<&str> {
            let start = text.find(&format!("# TYPE {family} ")).unwrap();
            (text[start..].lines().skip(1))
                .take_while(|l| !l.starts_with('#'))
                .collect()
        };
        assert_eq!(
            section("a_total"),
            ["a_total 1", "a_total{x=\"1\"} 1", "a_total{x=\"2\"} 1"],
            "{text}"
        );
        assert_eq!(section("a_total_more"), ["a_total_more 1"]);
        let t = section("t_seconds");
        assert_eq!(
            t.iter().filter(|l| l.contains("_count")).count(),
            2,
            "{text}"
        );
        assert!(t.iter().all(|l| l.starts_with("t_seconds_")), "{text}");
        assert_eq!(text.matches("# TYPE t_seconds ").count(), 1, "{text}");
    }
}
