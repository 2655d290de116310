//! The stage table: how long every span took, aggregated by span name.
//!
//! Every [`Span`](crate::Span) adds its duration here when it closes,
//! whether or not the recorder is on, so stage times are always
//! available without a rerun. An entry is created (and allocated) on a
//! name's first close; later closes take one short lock to find the entry
//! and two relaxed atomic adds to update it.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Number of buckets. Bucket `i` counts observations of at most `2^i` ns;
/// the last one also takes everything longer (2^47 ns is ~39 hours).
const BUCKETS: usize = 48;

/// The buckets whose bounds appear in the exposition: every second one
/// from 2^10 ns (~1 µs) to 2^40 ns (~18 minutes), 16 bounds ×4 apart.
const EXPOSED_FIRST: usize = 10;
const EXPOSED_LAST: usize = 40;

/// A latency histogram over power-of-two nanosecond buckets.
///
/// Observations are durations; the interface speaks seconds. Recording is
/// lock-free (a bucket add and a sum add). The count is the sum of the
/// buckets, so a count read after the buckets is never below them.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one observation, in seconds. Negative, non-finite and
    /// overlong values count as zero.
    pub fn record(&self, seconds: f64) {
        self.add(Duration::try_from_secs_f64(seconds).unwrap_or_default());
    }

    fn add(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        // The smallest `i` with `ns <= 2^i`.
        let i = (u64::BITS - ns.saturating_sub(1).leading_zeros()) as usize;
        self.buckets[i.min(BUCKETS - 1)].fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.sum_ns.load(Relaxed))
    }

    /// Cumulative counts at the exposition bounds, as `(upper bound in
    /// seconds, observations ≤ bound)` pairs. The final `+Inf` bucket is
    /// implicit: its count is [`Histogram::count`].
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut cumulative = 0;
        let mut out = Vec::new();
        for (i, b) in self.buckets.iter().enumerate().take(EXPOSED_LAST + 1) {
            cumulative += b.load(Relaxed);
            if i >= EXPOSED_FIRST && (i - EXPOSED_FIRST).is_multiple_of(2) {
                out.push(((1u64 << i) as f64 / 1e9, cumulative));
            }
        }
        out
    }
}

/// Stage name → histogram, sorted by name. Entries are leaked: the set of
/// names is the fixed set of `&'static str` span names in the program.
static STAGES: Mutex<Vec<(&'static str, &'static Histogram)>> = Mutex::new(Vec::new());

/// Adds one closed span's duration to its stage.
pub(crate) fn observe(name: &'static str, elapsed: Duration) {
    // The table is valid after every step, so a poisoned lock is usable;
    // this runs in `Drop` and must not panic.
    let mut table = STAGES.lock().unwrap_or_else(PoisonError::into_inner);
    let hist = match table.binary_search_by(|(n, _)| n.cmp(&name)) {
        Ok(i) => table[i].1,
        Err(i) => {
            let hist: &'static Histogram = Box::leak(Box::default());
            table.insert(i, (name, hist));
            hist
        }
    };
    drop(table);
    hist.add(elapsed);
}

/// Every stage closed so far in this process, sorted by name.
pub fn stages() -> Vec<(&'static str, &'static Histogram)> {
    STAGES
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}
