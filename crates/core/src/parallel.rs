//! A chunked work-splitting executor for deterministic data parallelism.
//!
//! The dominant costs in ALEX — building exploration spaces, the PARIS
//! fixpoint, blocking, per-partition feedback episodes — are
//! embarrassingly parallel *maps* over lists of pairs or partitions. This
//! module provides the one primitive they all share:
//! [`Executor::map_chunks`] (and [`Executor::map_chunks_mut`] for work
//! that mutates its items, such as partition engines), which splits a
//! slice into contiguous chunks, runs a closure over the chunks on scoped
//! OS threads, and returns the per-chunk results **in input order**.
//! Callers then merge the chunk results with a serial, order-preserving
//! reduce, which is what makes the parallel output bit-identical to the
//! serial one: every float is computed from the same operands in the same
//! order, only *which thread* computes it changes.
//!
//! Worker count resolution (highest precedence first):
//!
//! 1. the `ALEX_THREADS` environment variable (≥ 1);
//! 2. an explicit configuration value (e.g. [`crate::AlexConfig::threads`])
//!    when non-zero;
//! 3. [`std::thread::available_parallelism`].
//!
//! `ALEX_THREADS=1` therefore forces the serial path everywhere and is
//! the oracle the property tests compare parallel runs against.
//!
//! No external dependencies: scheduling is a shared atomic chunk cursor
//! over [`std::thread::scope`] threads (threads steal the next unclaimed
//! chunk, so an unlucky expensive chunk does not serialize the rest).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding every configured worker count.
pub const THREADS_ENV: &str = "ALEX_THREADS";

/// Resolves the effective worker count from the environment, a configured
/// value (`0` = unset), and the machine's available parallelism.
pub fn resolve_workers(configured: usize) -> usize {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    effective_workers(
        std::env::var(THREADS_ENV).ok().as_deref(),
        configured,
        available,
    )
}

/// Pure precedence logic behind [`resolve_workers`], factored out so tests
/// need not mutate process-global environment variables (racy under a
/// multi-threaded test harness).
fn effective_workers(env: Option<&str>, configured: usize, available: usize) -> usize {
    if let Some(v) = env {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    if configured > 0 {
        return configured;
    }
    available.max(1)
}

/// A fixed-width work-splitting executor over scoped threads.
///
/// Cheap to construct (it owns nothing but a worker count); share one per
/// pipeline so stages agree on their parallelism.
#[derive(Clone, Debug)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// An executor with exactly `workers` threads (clamped to ≥ 1).
    /// `Executor::new(1)` runs every map inline on the calling thread —
    /// the serial reference path.
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// An executor honoring `ALEX_THREADS`, then `configured` (0 = unset),
    /// then available parallelism — see [`resolve_workers`].
    pub fn resolve(configured: usize) -> Self {
        Self::new(resolve_workers(configured))
    }

    /// The worker count this executor was built with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Splits `items` into contiguous chunks, applies `f` to each chunk
    /// (in parallel when `workers > 1`), and returns the chunk results in
    /// input order.
    ///
    /// Chunk boundaries are deterministic for a given `(len, workers)`;
    /// with `workers == 1` the whole slice is one chunk evaluated inline,
    /// so `map_chunks` degenerates to `vec![f(items)]`. Callers must merge
    /// chunk results with an order-preserving serial reduce to keep output
    /// bit-identical across worker counts.
    pub fn map_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        if self.workers == 1 {
            return vec![f(items)];
        }
        let bounds = self.chunk_bounds(items.len());
        self.run_chunks(bounds.len(), |i| {
            let (lo, hi) = bounds[i];
            f(&items[lo..hi])
        })
    }

    /// [`Executor::map_chunks`] over a mutable slice: the same chunk
    /// bounds and scheduling, with each chunk borrowed exclusively by the
    /// worker that claims it.
    pub fn map_chunks_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut [T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        if self.workers == 1 {
            return vec![f(items)];
        }
        let mut rest = items;
        let chunks: Vec<Mutex<Option<&mut [T]>>> = self
            .chunk_bounds(rest.len())
            .into_iter()
            .map(|(lo, hi)| {
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
                rest = tail;
                Mutex::new(Some(chunk))
            })
            .collect();
        self.run_chunks(chunks.len(), |i| {
            let chunk = chunks[i]
                .lock()
                .expect("chunk slot poisoned")
                .take()
                .expect("every chunk is claimed once");
            f(chunk)
        })
    }

    /// Contiguous `(lo, hi)` bounds covering `len > 0` items. More chunks
    /// than workers smooths out skewed chunk costs; sizes are balanced to
    /// within one element (a fixed ceil size would push trailing chunk
    /// offsets past the end of short inputs).
    fn chunk_bounds(&self, len: usize) -> Vec<(usize, usize)> {
        let n_chunks = (self.workers * 4).min(len);
        let base = len / n_chunks;
        let rem = len % n_chunks;
        let mut bounds: Vec<(usize, usize)> = Vec::with_capacity(n_chunks);
        let mut lo = 0;
        for i in 0..n_chunks {
            let hi = lo + base + usize::from(i < rem);
            bounds.push((lo, hi));
            lo = hi;
        }
        debug_assert_eq!(lo, len);
        bounds
    }

    /// Runs `f(i)` for every chunk index `i < n_chunks` on scoped worker
    /// threads and returns the results in index order. The atomic cursor
    /// lets fast threads steal what is left.
    fn run_chunks<R, F>(&self, n_chunks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n_chunks) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_chunks {
                        break;
                    }
                    let r = f(i);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                });
            }
        });

        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("every chunk was claimed and computed")
            })
            .collect()
    }
}

impl Default for Executor {
    /// Equivalent to [`Executor::resolve`]`(0)`.
    fn default() -> Self {
        Self::resolve(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_env_config_available() {
        // Env wins over everything.
        assert_eq!(effective_workers(Some("3"), 8, 16), 3);
        assert_eq!(effective_workers(Some(" 2 "), 0, 16), 2);
        // Invalid or sub-1 env falls through to config.
        assert_eq!(effective_workers(Some("zero"), 5, 16), 5);
        assert_eq!(effective_workers(Some("0"), 5, 16), 5);
        // No env: config when non-zero, else available parallelism.
        assert_eq!(effective_workers(None, 7, 16), 7);
        assert_eq!(effective_workers(None, 0, 16), 16);
        assert_eq!(effective_workers(None, 0, 0), 1);
    }

    #[test]
    fn new_clamps_to_one() {
        assert_eq!(Executor::new(0).workers(), 1);
        assert_eq!(Executor::new(5).workers(), 5);
    }

    #[test]
    fn map_chunks_empty_input() {
        let ex = Executor::new(4);
        let out: Vec<usize> = ex.map_chunks(&[] as &[u32], |c| c.len());
        assert!(out.is_empty());
    }

    #[test]
    fn map_chunks_preserves_order_and_coverage() {
        let items: Vec<u64> = (0..1000).collect();
        for workers in [1, 2, 3, 4, 9] {
            let ex = Executor::new(workers);
            let chunks: Vec<Vec<u64>> = ex.map_chunks(&items, |c| c.to_vec());
            let flat: Vec<u64> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, items, "workers={workers}");
        }
    }

    #[test]
    fn serial_and_parallel_chunk_sums_agree() {
        let items: Vec<f64> = (0..513).map(|i| (i as f64).sin()).collect();
        let total = |chunks: Vec<f64>| chunks.into_iter().sum::<f64>();
        // Per-chunk sums differ between worker counts (different chunk
        // boundaries), but an order-preserving reduce that replays items
        // one by one is identical — this mirrors how callers merge.
        let serial: f64 = items.iter().sum();
        for workers in [1, 2, 4] {
            let ex = Executor::new(workers);
            let replayed = total(
                ex.map_chunks(&items, |c| c.to_vec())
                    .into_iter()
                    .map(|chunk| chunk.into_iter().sum::<f64>())
                    .collect(),
            );
            // Same chunking for the same worker count is bit-stable.
            let again = total(
                ex.map_chunks(&items, |c| c.to_vec())
                    .into_iter()
                    .map(|chunk| chunk.into_iter().sum::<f64>())
                    .collect(),
            );
            assert_eq!(replayed.to_bits(), again.to_bits());
            assert!((replayed - serial).abs() < 1e-9);
        }
    }

    #[test]
    fn workers_one_runs_inline_as_single_chunk() {
        let items: Vec<u32> = (0..17).collect();
        let out = Executor::new(1).map_chunks(&items, |c| c.len());
        assert_eq!(out, vec![17]);
    }

    #[test]
    fn short_inputs_cover_every_length() {
        // Regression: a fixed ceil(len / n_chunks) chunk size pushed
        // trailing chunk offsets past the end for lengths just above a
        // multiple of n_chunks (e.g. len 9 with 8 chunks).
        for len in 1usize..70 {
            let items: Vec<usize> = (0..len).collect();
            for workers in [2, 3, 4, 16] {
                let flat: Vec<usize> = Executor::new(workers)
                    .map_chunks(&items, |c| c.to_vec())
                    .into_iter()
                    .flatten()
                    .collect();
                assert_eq!(flat, items, "len={len} workers={workers}");
            }
        }
    }

    #[test]
    fn map_chunks_mut_uses_the_same_chunks_and_order() {
        for len in [0usize, 1, 2, 3, 8, 9, 70, 1000] {
            let items: Vec<usize> = (0..len).collect();
            for workers in [1, 2, 3, 4, 16] {
                let ex = Executor::new(workers);
                let shared: Vec<Vec<usize>> = ex.map_chunks(&items, |c| c.to_vec());
                let mut owned = items.clone();
                let exclusive: Vec<Vec<usize>> = ex.map_chunks_mut(&mut owned, |c| {
                    let before = c.to_vec();
                    for x in c.iter_mut() {
                        *x += 1;
                    }
                    before
                });
                assert_eq!(exclusive, shared, "len={len} workers={workers}");
                let bumped: Vec<usize> = (1..=len).collect();
                assert_eq!(owned, bumped, "every item mutated exactly once");
            }
        }
    }

    #[test]
    fn many_workers_few_items() {
        let items = [1u32, 2, 3];
        let out: Vec<u32> = Executor::new(16)
            .map_chunks(&items, |c| c.iter().sum())
            .into_iter()
            .collect();
        assert_eq!(out.iter().sum::<u32>(), 6);
    }
}
