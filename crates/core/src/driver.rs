//! The multi-partition ALEX driver (paper §3.2, §6.2, §7).
//!
//! The driver partitions the left dataset round-robin, builds one
//! [`ExplorationSpace`] and [`PartitionEngine`] per partition (in
//! parallel), then alternates policy-evaluation/policy-improvement
//! episodes until convergence: strictly when the candidate set stops
//! changing, relaxed when fewer than 5% of links change (§3.2), or at the
//! episode cap.
//!
//! Feedback is "directed to all partitions" (§6.2): each episode's budget
//! of feedback items is split across partitions proportionally to their
//! candidate counts, and partitions run concurrently on the driver's
//! [`Executor`] — the paper's 27-partition parallelism scaled to the
//! local machine. Each engine owns its seeded RNG, so the outcome does not
//! depend on the worker count.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use alex_rdf::{IriId, Link, Store};
use alex_sim::{CacheStats, ValueTable};

use crate::config::AlexConfig;
use crate::engine::{EngineDiagnostics, PartitionEngine, PartitionEpisodeStats};
use crate::metrics::{EpisodeReport, Quality};
use crate::oracle::FeedbackOracle;
use crate::parallel::Executor;
use crate::partition::round_robin;
use crate::space::{ExplorationSpace, DEFAULT_MAX_BLOCK};

/// Observability for the pre-processing stage: how long the exploration
/// spaces took to build and how much scoring the value table served.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpaceBuildStats {
    /// Wall-clock seconds spent building the value table and all
    /// partition spaces; zero when the spaces were loaded, not built.
    pub seconds: f64,
    /// Pairs that survived the θ filter, summed over partitions.
    pub pairs: usize,
    /// Worker threads the build ran with.
    pub threads: usize,
    /// Value-table counters for the whole build: `hits` = similarity
    /// evaluations served from prebuilt forms, `misses` = distinct values
    /// whose forms were built. The table has no memo, so this is not a
    /// cache hit rate.
    pub cache: CacheStats,
}

/// Everything a finished ALEX run reports.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Global per-episode reports; index 0 is the pre-feedback baseline.
    pub reports: Vec<EpisodeReport>,
    /// Episode at which the candidate set stopped changing entirely.
    pub strict_convergence: Option<usize>,
    /// First episode at which fewer than the configured fraction of links
    /// changed (the paper's vertical green line).
    pub relaxed_convergence: Option<usize>,
    /// Final candidate links.
    pub final_links: HashSet<Link>,
    /// Per-partition quality curves (for Figure 7(b)/(c)), indexed
    /// `[partition][episode]`.
    pub partition_reports: Vec<Vec<EpisodeReport>>,
    /// Total wall-clock milliseconds each partition spent across episodes;
    /// `max` is the paper's "execution time of the slowest partition".
    pub partition_durations_ms: Vec<f64>,
}

impl RunOutcome {
    /// The final quality reached.
    pub fn final_quality(&self) -> Quality {
        self.reports
            .last()
            .expect("reports always contain the baseline")
            .quality
    }

    /// Execution time of the slowest partition, in milliseconds (§7.3).
    pub fn slowest_partition_ms(&self) -> f64 {
        self.partition_durations_ms
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }

    /// Mean partition execution time, in milliseconds (§7.3).
    pub fn average_partition_ms(&self) -> f64 {
        if self.partition_durations_ms.is_empty() {
            0.0
        } else {
            self.partition_durations_ms.iter().sum::<f64>()
                / self.partition_durations_ms.len() as f64
        }
    }
}

/// Builds one space per partition, one partition after another, each
/// parallelized internally over its subjects (one executor, so the
/// machine is never oversubscribed) and scoring through one value table —
/// entities in different partitions repeat the same literals.
fn build_spaces(
    left: &Store,
    right: &Store,
    parts: &[Vec<IriId>],
    cfg: &AlexConfig,
    executor: &Executor,
) -> (Vec<ExplorationSpace>, SpaceBuildStats) {
    let build_start = Instant::now();
    let _span = alex_trace::span("driver.space_build");
    let table = ValueTable::from_stores(cfg.sim, left, right);
    let spaces: Vec<ExplorationSpace> = parts
        .iter()
        .map(|p| {
            ExplorationSpace::build_with(
                left,
                right,
                p,
                cfg.theta,
                DEFAULT_MAX_BLOCK,
                executor,
                &table,
            )
        })
        .collect();
    let stats = SpaceBuildStats {
        seconds: build_start.elapsed().as_secs_f64(),
        pairs: spaces.iter().map(|s| s.len()).sum(),
        threads: executor.workers(),
        cache: table.stats(),
    };
    (spaces, stats)
}

/// The orchestrator owning every partition engine.
pub struct AlexDriver {
    engines: Vec<PartitionEngine>,
    /// Left entity → owning partition, used to route links and restrict
    /// ground truth per partition.
    owner: HashMap<IriId, usize>,
    cfg: AlexConfig,
    build_stats: SpaceBuildStats,
    /// Runs the space build and every episode's partitions.
    executor: Executor,
}

impl AlexDriver {
    /// Builds spaces and engines for `cfg.partitions` partitions of the
    /// left dataset against the whole right dataset, and distributes
    /// `initial_links` (the automatic linker's output) to their owning
    /// partitions. Pass the *larger* dataset as `left` for best parallelism,
    /// as the paper partitions the larger side.
    ///
    /// Returns `Err` when the configuration is invalid.
    pub fn new(
        left: &Store,
        right: &Store,
        initial_links: &[Link],
        cfg: AlexConfig,
    ) -> Result<Self, String> {
        Self::with_spaces(left, right, initial_links, &[], cfg, None)
    }

    /// Like [`AlexDriver::new`], but additionally preloads a blacklist
    /// and takes the partition spaces already built (one per partition,
    /// in order — loaded from a session's space file, see
    /// [`crate::space_file`]); `None` builds them. Used when restoring a
    /// persisted session ([`crate::SessionSnapshot::restore`]). Each
    /// partition's initial links keep their order in `initial_links`: it
    /// is the candidate insertion order sampling draws from.
    pub(crate) fn with_spaces(
        left: &Store,
        right: &Store,
        initial_links: &[Link],
        blacklist: &[Link],
        cfg: AlexConfig,
        spaces: Option<Vec<ExplorationSpace>>,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let subjects: Vec<IriId> = left.subjects().collect();
        let parts = round_robin(&subjects, cfg.partitions);
        let owner: HashMap<IriId, usize> = parts
            .iter()
            .enumerate()
            .flat_map(|(k, p)| p.iter().map(move |&s| (s, k)))
            .collect();

        let executor = Executor::resolve(cfg.threads);
        let (spaces, build_stats) = match spaces {
            Some(spaces) if spaces.len() != cfg.partitions => {
                return Err(format!(
                    "{} prebuilt spaces for {} partitions",
                    spaces.len(),
                    cfg.partitions
                ))
            }
            Some(spaces) => {
                let stats = SpaceBuildStats {
                    pairs: spaces.iter().map(|s| s.len()).sum(),
                    threads: executor.workers(),
                    ..SpaceBuildStats::default()
                };
                (spaces, stats)
            }
            None => build_spaces(left, right, &parts, &cfg, &executor),
        };

        // Route initial links to their owning partition; links whose left
        // entity is unknown to the left dataset go to partition 0 so they
        // still count for metrics and can receive (negative) feedback.
        let mut per_partition: Vec<Vec<Link>> = vec![Vec::new(); cfg.partitions];
        for &l in initial_links {
            let k = owner.get(&l.left).copied().unwrap_or(0);
            per_partition[k].push(l);
        }

        let mut engines: Vec<PartitionEngine> = spaces
            .into_iter()
            .zip(per_partition)
            .enumerate()
            .map(|(k, (space, links))| {
                let seed = cfg.seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut e = PartitionEngine::new(space, links, cfg.clone(), seed);
                e.set_trace_identity(k, left.interner().clone());
                e
            })
            .collect();
        for &l in blacklist {
            let k = owner.get(&l.left).copied().unwrap_or(0);
            engines[k].preload_blacklist([l]);
        }

        Ok(Self {
            engines,
            owner,
            cfg,
            build_stats,
            executor,
        })
    }

    /// The driver's configuration.
    pub fn config(&self) -> &AlexConfig {
        &self.cfg
    }

    /// Timing and value-table statistics of the exploration-space build.
    pub fn build_stats(&self) -> SpaceBuildStats {
        self.build_stats
    }

    /// Read access to the partition engines.
    pub fn engines(&self) -> &[PartitionEngine] {
        &self.engines
    }

    /// Mutable access to the partition engines — used when restoring
    /// persisted learning state into a freshly built driver
    /// ([`crate::SessionSnapshot::restore`]).
    pub fn engines_mut(&mut self) -> &mut [PartitionEngine] {
        &mut self.engines
    }

    /// Union of all partitions' candidate links.
    pub fn candidate_links(&self) -> HashSet<Link> {
        let mut out = HashSet::new();
        for e in &self.engines {
            out.extend(e.candidates().iter());
        }
        out
    }

    /// How many candidate links there are, without collecting them: a
    /// link lives only in the partition that owns its left entity, so the
    /// partitions' candidate sets are disjoint.
    pub fn candidate_count(&self) -> usize {
        self.engines.iter().map(|e| e.candidates().len()).sum()
    }

    /// Sum of all partitions' filtered-space sizes.
    pub fn filtered_space_size(&self) -> usize {
        self.engines.iter().map(|e| e.space().len()).sum()
    }

    /// Sum of all partitions' unfiltered pair counts.
    pub fn total_possible_pairs(&self) -> usize {
        self.engines
            .iter()
            .map(|e| e.space().total_possible())
            .sum()
    }

    fn allot_items(&self) -> Vec<usize> {
        let counts: Vec<usize> = self.engines.iter().map(|e| e.candidates().len()).collect();
        let total: usize = counts.iter().sum();
        if total == 0 {
            return vec![0; counts.len()];
        }
        let budget = self.cfg.episode_size;
        let mut items: Vec<usize> = counts.iter().map(|&c| budget * c / total).collect();
        // Distribute the rounding remainder to the largest partitions.
        let mut assigned: usize = items.iter().sum();
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(counts[i]));
        let mut cursor = 0;
        while assigned < budget && cursor < order.len() {
            let i = order[cursor];
            if counts[i] > 0 {
                items[i] += 1;
                assigned += 1;
            }
            cursor = (cursor + 1) % order.len().max(1);
            if cursor == 0 && counts.iter().all(|&c| c == 0) {
                break;
            }
        }
        items
    }

    /// Ground truth restricted to links owned by partition `k`.
    fn partition_truth(&self, truth: &HashSet<Link>, k: usize) -> HashSet<Link> {
        truth
            .iter()
            .filter(|l| self.owner.get(&l.left).copied().unwrap_or(0) == k)
            .copied()
            .collect()
    }

    /// Processes one interactive feedback item (Figure 1's answer
    /// feedback), routing the link to the partition that owns its left
    /// entity — links whose left entity is unknown go to partition 0, the
    /// same rule [`AlexDriver::new`] uses to place initial links.
    ///
    /// Call [`AlexDriver::end_episode`] after a batch of feedback to run
    /// policy improvement; [`AlexDriver::run`] and [`AlexDriver::step`]
    /// do this internally.
    pub fn process_feedback(&mut self, link: Link, positive: bool) {
        let k = self.owner.get(&link.left).copied().unwrap_or(0);
        self.engines[k].process_feedback(link, positive);
    }

    /// Ends the current interactive episode on every partition (ε-greedy
    /// policy improvement at each visited state), returning the aggregated
    /// counters for feedback processed since the last episode boundary.
    pub fn end_episode(&mut self) -> PartitionEpisodeStats {
        let mut totals = PartitionEpisodeStats::default();
        for e in &mut self.engines {
            totals.merge(&e.end_episode());
        }
        totals
    }

    /// Aggregated learning-state diagnostics across all partitions.
    pub fn diagnostics(&self) -> EngineDiagnostics {
        let mut out = EngineDiagnostics::default();
        for e in &self.engines {
            out.merge(&e.diagnostics());
        }
        out
    }

    /// Runs exactly one policy-evaluation/policy-improvement episode across
    /// all partitions (in parallel on the driver's executor), without
    /// convergence checks or metric computation — the building block for
    /// interactive deployments that interleave curation with their own
    /// bookkeeping. Returns the aggregated episode counters.
    pub fn step(&mut self, oracle: &dyn FeedbackOracle) -> PartitionEpisodeStats {
        let items = self.allot_items();
        let mut totals = PartitionEpisodeStats::default();
        for (stats, _) in self.run_partitions(&items, oracle) {
            totals.merge(&stats);
        }
        totals
    }

    /// Runs one episode on every partition, `items[k]` feedback items on
    /// partition `k`, under one `rl.episode` span. Returns each
    /// partition's counters and wall-clock milliseconds in partition
    /// order.
    fn run_partitions(
        &mut self,
        items: &[usize],
        oracle: &dyn FeedbackOracle,
    ) -> Vec<(PartitionEpisodeStats, f64)> {
        let episode_span = alex_trace::span("rl.episode");
        let ctx = episode_span.ctx();
        let mut work: Vec<(&mut PartitionEngine, usize)> =
            self.engines.iter_mut().zip(items.iter().copied()).collect();
        self.executor
            .map_chunks_mut(&mut work, |chunk| {
                let _guard = alex_trace::attach(ctx);
                chunk
                    .iter_mut()
                    .map(|(engine, count)| {
                        let _span = alex_trace::span("rl.partition");
                        let t = Instant::now();
                        let stats = engine.run_episode(*count, oracle);
                        (stats, t.elapsed().as_secs_f64() * 1000.0)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// Runs episodes until convergence or the episode cap, evaluating
    /// quality against `ground_truth` after every episode.
    pub fn run(&mut self, oracle: &dyn FeedbackOracle, ground_truth: &HashSet<Link>) -> RunOutcome {
        let n = self.engines.len();
        let partition_truths: Vec<HashSet<Link>> = (0..n)
            .map(|k| self.partition_truth(ground_truth, k))
            .collect();

        let mut reports = Vec::new();
        let mut partition_reports: Vec<Vec<EpisodeReport>> = vec![Vec::new(); n];
        let mut partition_durations_ms = vec![0.0; n];

        // Episode 0: the automatic linker's baseline.
        let mut prev = self.candidate_links();
        reports.push(EpisodeReport {
            episode: 0,
            quality: Quality::compute(&prev, ground_truth),
            candidates: prev.len(),
            feedback_items: 0,
            negative_feedback: 0,
            links_added: 0,
            links_removed: 0,
            changed_links: 0,
            duration_ms: 0.0,
        });
        for (k, e) in self.engines.iter().enumerate() {
            let cand = e.candidates().to_set();
            partition_reports[k].push(EpisodeReport {
                episode: 0,
                quality: Quality::compute(&cand, &partition_truths[k]),
                candidates: cand.len(),
                feedback_items: 0,
                negative_feedback: 0,
                links_added: 0,
                links_removed: 0,
                changed_links: 0,
                duration_ms: 0.0,
            });
        }

        let mut strict = None;
        let mut relaxed = None;
        let mut prev_per_partition: Vec<HashSet<Link>> = self
            .engines
            .iter()
            .map(|e| e.candidates().to_set())
            .collect();

        for episode in 1..=self.cfg.max_episodes {
            let items = self.allot_items();
            if items.iter().all(|&i| i == 0) {
                break; // nothing left to give feedback on
            }
            let episode_start = Instant::now();
            let results = self.run_partitions(&items, oracle);
            let episode_ms = episode_start.elapsed().as_secs_f64() * 1000.0;

            let mut totals = PartitionEpisodeStats::default();
            for (k, (stats, ms)) in results.iter().enumerate() {
                totals.merge(stats);
                partition_durations_ms[k] += ms;
                let cand = self.engines[k].candidates().to_set();
                let changed = cand.symmetric_difference(&prev_per_partition[k]).count();
                partition_reports[k].push(EpisodeReport {
                    episode,
                    quality: Quality::compute(&cand, &partition_truths[k]),
                    candidates: cand.len(),
                    feedback_items: stats.feedback_items,
                    negative_feedback: stats.negative_feedback,
                    links_added: stats.links_added,
                    links_removed: stats.links_removed,
                    changed_links: changed,
                    duration_ms: *ms,
                });
                prev_per_partition[k] = cand;
            }

            let current = self.candidate_links();
            let changed = current.symmetric_difference(&prev).count();
            reports.push(EpisodeReport {
                episode,
                quality: Quality::compute(&current, ground_truth),
                candidates: current.len(),
                feedback_items: totals.feedback_items,
                negative_feedback: totals.negative_feedback,
                links_added: totals.links_added,
                links_removed: totals.links_removed,
                changed_links: changed,
                duration_ms: episode_ms,
            });

            if relaxed.is_none()
                && (changed as f64) < self.cfg.relaxed_convergence * current.len().max(1) as f64
            {
                relaxed = Some(episode);
                if self.cfg.stop_at_relaxed {
                    prev = current;
                    break;
                }
            }
            if changed == 0 {
                strict = Some(episode);
                prev = current;
                break;
            }
            prev = current;
        }

        RunOutcome {
            reports,
            strict_convergence: strict,
            relaxed_convergence: relaxed,
            final_links: prev,
            partition_reports,
            partition_durations_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;
    use alex_rdf::{Interner, Literal};

    /// Builds a pair of datasets with `n` matching entities and some decoys,
    /// returning stores, ground truth, and a degraded initial link set.
    fn world(n: usize) -> (Store, Store, HashSet<Link>, Vec<Link>) {
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        let name_l = left.intern_iri("l/name");
        let year_l = left.intern_iri("l/year");
        let name_r = right.intern_iri("r/label");
        let year_r = right.intern_iri("r/born");
        let mut truth = HashSet::new();
        let mut links = Vec::new();
        for i in 0..n {
            let ls = left.intern_iri(&format!("l/e{i}"));
            let rs = right.intern_iri(&format!("r/e{i}"));
            let nm = format!("entity alpha {i}");
            left.insert_literal(ls, name_l, Literal::str(&interner, &nm));
            left.insert_literal(ls, year_l, Literal::Integer(1900 + i as i64));
            right.insert_literal(rs, name_r, Literal::str(&interner, &nm));
            right.insert_literal(rs, year_r, Literal::Integer(1900 + i as i64));
            let link = Link::new(ls, rs);
            truth.insert(link);
            links.push(link);
        }
        (left, right, truth, links)
    }

    fn small_cfg() -> AlexConfig {
        AlexConfig {
            episode_size: 100,
            partitions: 3,
            max_episodes: 30,
            ..Default::default()
        }
    }

    #[test]
    fn recovers_missing_links_and_converges() {
        let (left, right, truth, links) = world(20);
        // Start with only a quarter of the true links: bad recall.
        let initial: Vec<Link> = links.iter().take(5).copied().collect();
        let mut driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        let oracle = ExactOracle::new(truth.clone());
        let out = driver.run(&oracle, &truth);

        let q0 = out.reports[0].quality;
        let qn = out.final_quality();
        assert!(q0.recall <= 0.25 + 1e-9);
        assert!(
            qn.recall > q0.recall,
            "recall must improve: {q0:?} -> {qn:?}"
        );
        assert!(qn.f1 > 0.8, "final F1 {qn:?}");
        assert!(out.strict_convergence.is_some() || out.reports.len() > 30);
    }

    #[test]
    fn removes_wrong_links() {
        let (left, right, truth, links) = world(12);
        // All true links plus wrong cross pairs: bad precision.
        let mut initial = links.clone();
        for i in 0..6 {
            initial.push(Link::new(links[i].left, links[(i + 1) % 12].right));
        }
        let mut driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        let oracle = ExactOracle::new(truth.clone());
        let out = driver.run(&oracle, &truth);
        let q0 = out.reports[0].quality;
        let qn = out.final_quality();
        assert!(q0.precision < 0.7);
        assert!(
            qn.precision > q0.precision,
            "precision must improve: {q0:?} -> {qn:?}"
        );
    }

    #[test]
    fn empty_initial_links_is_graceful() {
        let (left, right, truth, _) = world(5);
        let mut driver = AlexDriver::new(&left, &right, &[], small_cfg()).unwrap();
        let oracle = ExactOracle::new(truth.clone());
        let out = driver.run(&oracle, &truth);
        // No candidates, no feedback, immediate stop at the baseline report.
        assert_eq!(out.reports.len(), 1);
        assert!(out.final_links.is_empty());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (left, right, _, _) = world(3);
        let bad = AlexConfig {
            partitions: 0,
            ..Default::default()
        };
        assert!(AlexDriver::new(&left, &right, &[], bad).is_err());
    }

    #[test]
    fn partition_reports_cover_all_partitions() {
        let (left, right, truth, links) = world(10);
        let mut driver = AlexDriver::new(&left, &right, &links[..3], small_cfg()).unwrap();
        let oracle = ExactOracle::new(truth.clone());
        let out = driver.run(&oracle, &truth);
        assert_eq!(out.partition_reports.len(), 3);
        for pr in &out.partition_reports {
            assert_eq!(pr[0].episode, 0);
            assert_eq!(pr.len(), out.reports.len());
        }
        assert_eq!(out.partition_durations_ms.len(), 3);
        assert!(out.slowest_partition_ms() >= out.average_partition_ms());
    }

    #[test]
    fn deterministic_under_fixed_seed_single_partition() {
        // Two runs with the same seed must be identical. (Every engine
        // owns its seeded RNG, so this holds for any partition count; see
        // `multi_partition_runs_are_identical_across_thread_counts`.)
        let (left, right, truth, links) = world(15);
        let cfg = AlexConfig {
            partitions: 1,
            episode_size: 60,
            max_episodes: 10,
            ..Default::default()
        };
        let run = |cfg: AlexConfig| {
            let mut d = AlexDriver::new(&left, &right, &links[..4], cfg).unwrap();
            let oracle = ExactOracle::new(truth.clone());
            let out = d.run(&oracle, &truth);
            (
                out.reports
                    .iter()
                    .map(|r| (r.candidates, r.links_added))
                    .collect::<Vec<_>>(),
                out.final_links,
            )
        };
        let (r1, f1) = run(cfg.clone());
        let (r2, f2) = run(cfg);
        assert_eq!(r1, r2);
        assert_eq!(f1, f2);
    }

    #[test]
    fn multi_partition_runs_are_identical_across_thread_counts() {
        let (left, right, truth, links) = world(24);
        let run = |threads: usize| {
            let cfg = AlexConfig {
                partitions: 4,
                episode_size: 40,
                max_episodes: 12,
                threads,
                ..Default::default()
            };
            let mut d = AlexDriver::new(&left, &right, &links[..6], cfg).unwrap();
            let oracle = ExactOracle::new(truth.clone());
            let out = d.run(&oracle, &truth);
            (
                out.reports
                    .iter()
                    .map(|r| (r.candidates, r.links_added, r.links_removed))
                    .collect::<Vec<_>>(),
                out.final_links,
            )
        };
        let (serial_reports, serial_links) = run(1);
        assert!(serial_reports.len() > 2, "the run must take episodes");
        for threads in [2, 4] {
            let (reports, links) = run(threads);
            assert_eq!(reports, serial_reports, "threads={threads}");
            assert_eq!(links, serial_links, "threads={threads}");
        }
    }

    #[test]
    fn allot_items_is_proportional_and_exact() {
        let (left, right, _, links) = world(12);
        let cfg = AlexConfig {
            partitions: 3,
            episode_size: 90,
            ..Default::default()
        };
        let driver = AlexDriver::new(&left, &right, &links, cfg).unwrap();
        let items = driver.allot_items();
        assert_eq!(items.len(), 3);
        assert_eq!(items.iter().sum::<usize>(), 90, "budget fully assigned");
        // Proportionality: partitions hold 4 links each → equal share.
        for (k, &i) in items.iter().enumerate() {
            assert!((28..=32).contains(&i), "partition {k} got {i}");
        }
    }

    #[test]
    fn allot_items_skips_empty_partitions() {
        let (left, right, _, links) = world(9);
        // Seed only one link: its partition gets the whole budget.
        let cfg = AlexConfig {
            partitions: 3,
            episode_size: 30,
            ..Default::default()
        };
        let driver = AlexDriver::new(&left, &right, &links[..1], cfg).unwrap();
        let items = driver.allot_items();
        assert_eq!(items.iter().sum::<usize>(), 30);
        assert_eq!(items.iter().filter(|&&i| i > 0).count(), 1);
    }

    #[test]
    fn allot_items_zero_when_no_candidates() {
        let (left, right, _, _) = world(5);
        let cfg = AlexConfig {
            partitions: 2,
            ..Default::default()
        };
        let driver = AlexDriver::new(&left, &right, &[], cfg).unwrap();
        assert!(driver.allot_items().iter().all(|&i| i == 0));
    }

    #[test]
    fn filtered_space_and_total_pairs_counts() {
        let (left, right, _, links) = world(8);
        let cfg = AlexConfig {
            partitions: 2,
            ..Default::default()
        };
        let driver = AlexDriver::new(&left, &right, &links, cfg).unwrap();
        assert_eq!(driver.total_possible_pairs(), 8 * 8);
        assert!(
            driver.filtered_space_size() >= 8,
            "true pairs survive the filter"
        );
        assert!(driver.filtered_space_size() <= driver.total_possible_pairs());
    }

    #[test]
    fn step_runs_one_episode_and_diagnostics_track_it() {
        let (left, right, truth, links) = world(10);
        let cfg = AlexConfig {
            partitions: 2,
            episode_size: 30,
            ..Default::default()
        };
        let mut driver = AlexDriver::new(&left, &right, &links[..3], cfg).unwrap();
        let d0 = driver.diagnostics();
        assert_eq!(d0.candidates, 3);
        assert_eq!(d0.q_entries, 0);
        let oracle = crate::oracle::ExactOracle::new(truth.clone());
        let stats = driver.step(&oracle);
        assert!(stats.feedback_items > 0);
        assert!(stats.feedback_items <= 30);
        let d1 = driver.diagnostics();
        assert!(
            d1.candidates >= d0.candidates,
            "exploration should not shrink a clean set"
        );
        // Stepping twice more keeps making progress without panicking.
        driver.step(&oracle);
        driver.step(&oracle);
        let q = crate::metrics::Quality::compute(&driver.candidate_links(), &truth);
        assert!(q.recall >= 0.3);
    }

    #[test]
    fn interactive_feedback_is_routed_and_episode_aggregated() {
        let (left, right, _, links) = world(9);
        let cfg = AlexConfig {
            partitions: 3,
            epsilon: 0.0,
            ..Default::default()
        };
        let mut driver = AlexDriver::new(&left, &right, &links[..3], cfg).unwrap();
        let before = driver.candidate_links();
        assert!(before.contains(&links[0]));

        // Reject one link, approve another; feedback lands on different
        // partitions (round-robin ownership) and must still take effect.
        driver.process_feedback(links[0], false);
        driver.process_feedback(links[1], true);
        let stats = driver.end_episode();
        assert_eq!(stats.feedback_items, 2);
        assert_eq!(stats.negative_feedback, 1);

        let after = driver.candidate_links();
        assert!(!after.contains(&links[0]), "rejected link is removed");
        assert!(after.contains(&links[1]), "approved link stays");
        // Exploration around the approved (identical-name) link discovers
        // more pairs, so the set grows despite the removal.
        assert!(
            stats.links_added > 0,
            "approval triggers exploration: {stats:?}"
        );

        // A second end_episode with no feedback in between is a no-op.
        let idle = driver.end_episode();
        assert_eq!(idle, PartitionEpisodeStats::default());
    }

    #[test]
    fn feedback_on_foreign_link_is_graceful() {
        let (left, right, _, links) = world(4);
        let cfg = AlexConfig {
            partitions: 2,
            ..Default::default()
        };
        let mut driver = AlexDriver::new(&left, &right, &links, cfg).unwrap();
        // A link whose left entity the left dataset never saw: routed to
        // partition 0, processed without panicking.
        let foreign = Link::new(alex_rdf::IriId(alex_rdf::StrId(u32::MAX)), links[0].right);
        driver.process_feedback(foreign, false);
        let stats = driver.end_episode();
        assert_eq!(stats.feedback_items, 1);
    }

    #[test]
    fn tracing_records_audit_trail_without_changing_output() {
        use alex_trace::{Payload, TraceMode, TraceSettings};
        // Single partition + fixed seed: identical runs are bit-identical,
        // so any divergence with tracing on would be tracing's fault.
        let (left, right, truth, links) = world(15);
        let cfg = AlexConfig {
            partitions: 1,
            episode_size: 60,
            max_episodes: 5,
            ..Default::default()
        };
        let run = |cfg: AlexConfig| {
            let mut d = AlexDriver::new(&left, &right, &links[..4], cfg).unwrap();
            let oracle = ExactOracle::new(truth.clone());
            d.run(&oracle, &truth).final_links
        };
        let baseline = run(cfg.clone());

        alex_trace::configure(&TraceSettings {
            mode: TraceMode::Ring,
            sample: 1.0,
            ring_capacity: 1 << 16,
        })
        .unwrap();
        let span = alex_trace::root_span("test.traced_run");
        let trace_id = span.trace_id();
        let traced = run(cfg);
        drop(span);
        let events = alex_trace::recorder().trace_events(trace_id);
        alex_trace::configure(&TraceSettings::default()).unwrap();

        assert_eq!(baseline, traced, "tracing must not change link output");
        let has = |pred: &dyn Fn(&Payload) -> bool| events.iter().any(|e| pred(&e.payload));
        assert!(has(&|p| matches!(p, Payload::Feedback { .. })));
        assert!(has(&|p| matches!(p, Payload::LinkAdded { .. })));
        assert!(has(&|p| matches!(p, Payload::EpisodeEnd { .. })));
        // The decision audit trail: every choice carries ε, the explored
        // flag, and a resolvable feature rendered from the interner.
        let decision = events
            .iter()
            .find_map(|e| match &e.payload {
                Payload::Decision {
                    epsilon, chosen, ..
                } => Some((*epsilon, chosen.clone())),
                _ => None,
            })
            .expect("at least one decision event");
        assert_eq!(decision.0, 0.1);
        assert!(
            decision.1.contains('\t') && decision.1.contains("l/"),
            "feature rendered as IRI pair: {:?}",
            decision.1
        );
        // Span taxonomy covers the build and the episodes.
        for name in ["space.build", "rl.episode", "rl.partition"] {
            assert!(
                has(&|p| matches!(p, Payload::SpanStart { name: n } if n == name)),
                "missing span {name}"
            );
        }
    }

    #[test]
    fn stop_at_relaxed_halts_earlier_or_equal() {
        let (left, right, truth, links) = world(20);
        let initial: Vec<Link> = links.iter().take(5).copied().collect();
        let strict_cfg = small_cfg();
        let relaxed_cfg = AlexConfig {
            stop_at_relaxed: true,
            ..small_cfg()
        };
        let oracle = ExactOracle::new(truth.clone());
        let mut d1 = AlexDriver::new(&left, &right, &initial, strict_cfg).unwrap();
        let out1 = d1.run(&oracle, &truth);
        let mut d2 = AlexDriver::new(&left, &right, &initial, relaxed_cfg).unwrap();
        let out2 = d2.run(&oracle, &truth);
        assert!(out2.reports.len() <= out1.reports.len());
    }
}
