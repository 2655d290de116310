//! Execution time (paper §7.3): wall-clock per episode, slowest and
//! average partition, for batch mode (DBpedia - NYTimes) and the
//! specific-domain setting (DBpedia (NBA) - NYTimes). Episode times are
//! the runs' `rl.episode` spans, so the exploration-space build, which
//! precedes the first episode, is not counted.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_time [--scale S]
//! ```

use alex_bench::runner::{build_env, RunParams};
use alex_bench::table::print_paper_vs_measured;
use alex_core::RunOutcome;
use alex_datagen::PaperPair;

/// The episodes' total milliseconds, from each episode report's
/// `rl.episode` span (report 0 is the baseline before any episode).
fn episodes_ms(run: &RunOutcome) -> f64 {
    run.reports[1..].iter().map(|r| r.duration_ms).sum()
}

fn main() {
    let params = RunParams::from_args();

    // Batch mode.
    let env = build_env(PaperPair::DbpediaNytimes, params, |_| {});
    let batch = env.run_exact();
    let batch_total = episodes_ms(&batch);
    let batch_episodes = (batch.reports.len() - 1).max(1);

    println!(
        "Batch mode: {} ({} partitions)",
        env.kind.label(),
        env.config.partitions
    );
    println!("  episodes run          : {batch_episodes}");
    println!("  episode time, total   : {batch_total:.0} ms");
    println!(
        "  per episode           : {:.1} ms",
        batch_total / batch_episodes as f64
    );
    println!(
        "  slowest partition     : {:.1} ms",
        batch.slowest_partition_ms()
    );
    println!(
        "  average partition     : {:.1} ms",
        batch.average_partition_ms()
    );

    // Specific-domain mode.
    let env_sd = build_env(PaperPair::DbpediaNbaNytimes, params, |c| c.partitions = 4);
    let domain = env_sd.run_exact();
    let domain_total = episodes_ms(&domain);
    let domain_episodes = (domain.reports.len() - 1).max(1);

    println!(
        "\nSpecific domain: {} (4 partitions, episode size 10)",
        env_sd.kind.label()
    );
    println!("  episodes run          : {domain_episodes}");
    println!("  episode time, total   : {domain_total:.0} ms");
    println!(
        "  per episode           : {:.1} ms",
        domain_total / domain_episodes as f64
    );

    print_paper_vs_measured(&[
        (
            "batch: engine time, slowest partition",
            "97 min".into(),
            format!("{:.1} ms", batch.slowest_partition_ms()),
        ),
        (
            "batch: engine time, average partition",
            "~64 min".into(),
            format!("{:.1} ms", batch.average_partition_ms()),
        ),
        (
            "batch: per episode",
            "~7 min".into(),
            format!("{:.1} ms", batch_total / batch_episodes as f64),
        ),
        (
            "specific domain: episodes, total",
            "~4 s".into(),
            format!("{:.0} ms", domain_total),
        ),
        (
            "specific domain: per episode",
            "~1.3 s".into(),
            format!("{:.1} ms", domain_total / domain_episodes as f64),
        ),
    ]);
    println!(
        "\nAbsolute numbers are not comparable (the paper links 43.6M-triple datasets on a\n\
         64-core server; we link scaled-down synthetics) — the shape to check is that batch\n\
         mode costs minutes-scale work per episode there and the interactive setting is\n\
         orders of magnitude cheaper, which holds here as well."
    );
}
