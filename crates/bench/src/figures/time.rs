//! Execution time (paper §7.3): wall-clock per episode, slowest and
//! average partition, for batch mode (DBpedia - NYTimes) and the
//! specific-domain setting (DBpedia (NBA) - NYTimes). Episode times are
//! the runs' `rl.episode` spans, so the exploration-space build, which
//! precedes the first episode, is not counted.
//!
//! ```sh
//! exp time [--scale S]
//! ```

use std::io::{self, Write};

use alex_core::RunOutcome;
use alex_datagen::PaperPair;

use super::{Command, Outcome};
use crate::runner::build_env;
use crate::table::paper_vs_measured;

/// Writes the number of episodes `run` ran, their total milliseconds
/// and the milliseconds per episode, from each episode report's
/// `rl.episode` span (report 0 is the baseline before any episode);
/// returns the total and the per-episode time.
fn episodes(out: &mut dyn Write, run: &RunOutcome) -> io::Result<(f64, f64)> {
    let total: f64 = run.reports[1..].iter().map(|r| r.duration_ms).sum();
    let episodes = (run.reports.len() - 1).max(1);
    let per_episode = total / episodes as f64;
    writeln!(out, "  episodes run          : {episodes}")?;
    writeln!(out, "  episode time, total   : {total:.0} ms")?;
    writeln!(out, "  per episode           : {per_episode:.1} ms")?;
    Ok((total, per_episode))
}

pub(super) fn run(cmd: &Command, out: &mut dyn Write) -> io::Result<Outcome> {
    // Batch mode.
    let env = build_env(PaperPair::DbpediaNytimes, cmd.params, |_| {});
    let batch = env.run_exact();
    writeln!(
        out,
        "Batch mode: {} ({} partitions)",
        env.kind.label(),
        env.config.partitions
    )?;
    let (_, batch_per_episode) = episodes(out, &batch)?;
    let slowest = batch.slowest_partition_ms();
    let average = batch.average_partition_ms();
    writeln!(out, "  slowest partition     : {slowest:.1} ms")?;
    writeln!(out, "  average partition     : {average:.1} ms")?;

    // Specific-domain mode.
    let env = build_env(PaperPair::DbpediaNbaNytimes, cmd.params, |c| {
        c.partitions = 4
    });
    let domain = env.run_exact();
    writeln!(
        out,
        "\nSpecific domain: {} (4 partitions, episode size 10)",
        env.kind.label()
    )?;
    let (domain_total, domain_per_episode) = episodes(out, &domain)?;

    paper_vs_measured(
        out,
        &[
            (
                "batch: engine time, slowest partition",
                "97 min".into(),
                format!("{slowest:.1} ms"),
            ),
            (
                "batch: engine time, average partition",
                "~64 min".into(),
                format!("{average:.1} ms"),
            ),
            (
                "batch: per episode",
                "~7 min".into(),
                format!("{batch_per_episode:.1} ms"),
            ),
            (
                "specific domain: episodes, total",
                "~4 s".into(),
                format!("{domain_total:.0} ms"),
            ),
            (
                "specific domain: per episode",
                "~1.3 s".into(),
                format!("{domain_per_episode:.1} ms"),
            ),
        ],
    )?;
    writeln!(
        out,
        "\nAbsolute numbers are not comparable (the paper links 43.6M-triple datasets on a\n\
         64-core server; we link scaled-down synthetics) — the shape to check is that batch\n\
         mode costs minutes-scale work per episode there and the interactive setting is\n\
         orders of magnitude cheaper, which holds here as well."
    )?;
    Ok(Outcome::default())
}
