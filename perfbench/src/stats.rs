//! Small numeric and reporting helpers shared by the workloads: quantiles,
//! output fingerprints, peak memory, and the metric set a run prints.

use std::collections::BTreeMap;

/// The `q`-quantile (nearest rank) of `values`; 0 when there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Consecutive slices a serving run's latencies are split into.
pub const SLICES: usize = 5;

/// The median over [`SLICES`] consecutive slices of `values` (in the order
/// the requests completed) of each slice's `q`-quantile. A stall on a
/// shared host that lasts a few seconds moves one slice, not the result.
pub fn sliced_quantile(values: &[f64], q: f64) -> f64 {
    let len = values.len().div_ceil(SLICES).max(1);
    let per_slice: Vec<f64> = values.chunks(len).map(|c| quantile(c, q)).collect();
    median(&per_slice)
}

/// FNV-1a over a sequence of strings (each terminated by a 0 byte, so
/// `["ab", "c"]` and `["a", "bc"]` differ). Order-sensitive: callers sort.
pub fn fingerprint<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_bytes().iter().chain(std::iter::once(&0u8)) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Fingerprint of a link list given as IRI pairs, independent of order.
pub fn link_fingerprint(links: &[(String, String)]) -> u64 {
    let mut sorted: Vec<&(String, String)> = links.iter().collect();
    sorted.sort();
    fingerprint(sorted.iter().flat_map(|(l, r)| [l.as_str(), r.as_str()]))
}

/// Peak resident set size of process `pid` (`None` = this process), in MB,
/// read from `/proc/<pid>/status` (`VmHWM`).
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Precision/recall F1 of `links` against `truth`, both as IRI pairs.
pub fn f1(links: &[(String, String)], truth: &[(String, String)]) -> f64 {
    let truth: std::collections::HashSet<&(String, String)> = truth.iter().collect();
    let correct = links.iter().filter(|l| truth.contains(l)).count() as f64;
    if correct == 0.0 {
        return 0.0;
    }
    let p = correct / links.len() as f64;
    let r = correct / truth.len() as f64;
    2.0 * p * r / (p + r)
}

/// The end-to-end metrics every workload reports (BENCHMARK.json
/// `end_to_end`), with units. Tails are 95th percentiles: on a shared
/// 2-core host the 99th moved by a third between runs of identical work.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("feedback_ms.p50", "ms"),
    ("feedback_ms.p95", "ms"),
    ("query_ms.p50", "ms"),
    ("query_ms.p95", "ms"),
    ("rss_mb", "MB"),
    ("restart_s", "s"),
];

/// The per-layer metrics every traced run reports (BENCHMARK.json
/// `per_layer`), with units. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rdf.load_s", "s"),
    ("paris.run_s", "s"),
    ("paris.blocking_s", "s"),
    ("paris.equivalence_s", "s"),
    ("paris.alignment_s", "s"),
    ("paris.candidates", "count"),
    ("paris.sim_hit_rate", "ratio"),
    ("space.build_s", "s"),
    ("space.pairs", "count"),
    ("sim.hit_rate", "ratio"),
    ("driver.step_ms.p50", "ms"),
    ("driver.step_ms.max", "ms"),
    ("engine.approve_us.p50", "us"),
    ("engine.approve_us.p99", "us"),
    ("engine.reject_us.p50", "us"),
    ("engine.reject_us.p99", "us"),
    ("engine.links_added", "count"),
    ("engine.links_removed", "count"),
    ("engine.rollbacks", "count"),
    ("engine.added_per_approval", "ratio"),
    ("engine.final_f1", "ratio"),
    ("session.snapshot_ms.p50", "ms"),
    ("driver.candidate_links_ms.p50", "ms"),
    ("query.engine_build_ms.p50", "ms"),
    ("query.execute_ms.p50", "ms"),
    ("query.execute_ms.p99", "ms"),
    ("query.answers", "count"),
    ("serve.route_ms.query.p50", "ms"),
    ("serve.route_ms.feedback.p50", "ms"),
    ("serve.route_ms.links.p50", "ms"),
    ("serve.transport_ms.p50", "ms"),
    ("store.wal_bytes_per_item", "bytes"),
    ("store.fsyncs_per_request", "count"),
    ("store.recover_state_dir_s", "s"),
    ("store.replayed_records", "count"),
    ("trace.overhead_s", "s"),
];

/// Named metric values with units, printed in insertion-independent
/// (sorted) order.
#[derive(Clone, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets `name` to `value`; the unit comes from [`END_TO_END`] or
    /// [`PER_LAYER`], and an unlisted name is a bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's metric list"));
        self.0.insert(name.to_string(), (value, unit));
    }

    /// Sets every metric of `names` that has no value yet to 0.
    pub fn fill_missing(&mut self, names: &[(&str, &'static str)]) {
        for (name, unit) in names {
            self.0.entry(name.to_string()).or_insert((0.0, unit));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// One human-readable line per metric.
    pub fn print_table(&self, title: &str) {
        println!("{title}");
        for (name, (value, unit)) in &self.0 {
            println!("  {name:<36} {value:>14.4} {unit}");
        }
    }

    /// The `{"name": {"value": v, "unit": u}, ...}` object.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn sliced_quantile_ignores_one_stalled_slice() {
        let mut v = vec![1.0; 500];
        v[..100].iter_mut().for_each(|x| *x = 50.0);
        assert_eq!(sliced_quantile(&v, 0.99), 1.0);
        assert_eq!(quantile(&v, 0.99), 50.0);
    }

    #[test]
    fn link_fingerprint_ignores_order_but_not_content() {
        let a = vec![
            ("l1".to_string(), "r1".to_string()),
            ("l2".into(), "r2".into()),
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(link_fingerprint(&a), link_fingerprint(&b));
        b[0].1 = "r3".into();
        assert_ne!(link_fingerprint(&a), link_fingerprint(&b));
    }

    #[test]
    fn f1_of_exact_match_is_one() {
        let t = vec![("a".to_string(), "b".to_string())];
        assert_eq!(f1(&t, &t), 1.0);
        assert_eq!(f1(&[], &t), 0.0);
    }
}
