//! Figure 6 — effect of the blacklist (paper §7.3): (a) F-measure with and
//! without the blacklist; (b) fraction of negative feedback per episode
//! for the first 10 episodes. Exits non-zero if strict convergence comes
//! later with the blacklist than without it.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_fig6 [--scale S] [--out DIR]
//! ```

use alex_bench::check_claims;
use alex_bench::runner::{build_env, RunParams};
use alex_bench::table::{maybe_write_output, reports_to_csv};
use alex_datagen::PaperPair;

fn main() {
    // `--out` is read by `maybe_write_output`.
    let (params, _) = RunParams::from_args_with(&["--out"]);

    let with_env = build_env(PaperPair::DbpediaNytimes, params, |_| {});
    let with = with_env.run_exact();
    let without_env = build_env(PaperPair::DbpediaNytimes, params, |c| c.blacklist = false);
    let without = without_env.run_exact();

    println!(
        "Figure 6: effect of the blacklist ({})",
        with_env.kind.label()
    );
    println!("\n(a) F-measure per episode");
    println!("episode | with blacklist | without blacklist");
    println!("--------+----------------+------------------");
    let n = with.reports.len().max(without.reports.len());
    for ep in 0..n {
        let f = |reports: &[alex_core::EpisodeReport]| {
            reports
                .get(ep)
                .or(reports.last())
                .map(|r| format!("{:.3}", r.quality.f1))
                .unwrap_or_default()
        };
        println!(
            "{:>7} |     {:>6}     |      {:>6}",
            ep,
            f(&with.reports),
            f(&without.reports)
        );
    }

    println!("\n(b) negative feedback per episode (first 10 episodes)");
    println!("episode | with blacklist | without blacklist");
    println!("--------+----------------+------------------");
    for ep in 1..=10 {
        let f = |reports: &[alex_core::EpisodeReport]| {
            reports
                .get(ep)
                .map(|r| format!("{:.1}%", r.negative_fraction() * 100.0))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:>7} |     {:>6}     |      {:>6}",
            ep,
            f(&with.reports),
            f(&without.reports)
        );
    }

    let avg_neg = |reports: &[alex_core::EpisodeReport]| {
        let xs: Vec<f64> = reports
            .iter()
            .skip(1)
            .take(10)
            .map(|r| r.negative_fraction())
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    println!(
        "\nsummary: mean negative-feedback fraction over episodes 1-10: with {:.1}%, without {:.1}%",
        avg_neg(&with.reports) * 100.0,
        avg_neg(&without.reports) * 100.0
    );
    println!(
        "final F: with {:.3} (converged {:?}), without {:.3} (converged {:?})",
        with.final_quality().f1,
        with.strict_convergence,
        without.final_quality().f1,
        without.strict_convergence
    );

    maybe_write_output("fig6_with_blacklist.csv", &reports_to_csv(&with.reports));
    maybe_write_output(
        "fig6_without_blacklist.csv",
        &reports_to_csv(&without.reports),
    );

    // A run that never converges converges later than any that does.
    let episodes = |o: &alex_core::RunOutcome| o.strict_convergence.unwrap_or(usize::MAX);
    check_claims(
        "Figure 6",
        &[(
            format!(
                "with the blacklist, strict convergence comes no later than without it \
                 ({:?} vs {:?})",
                with.strict_convergence, without.strict_convergence
            ),
            episodes(&with) <= episodes(&without),
        )],
    );
}
