//! Figure 7 — effect of rollback (paper §7.3): (a) overall quality with
//! rollback disabled (precision collapses and recovery is slow or absent);
//! (b) a partition that manages to converge without rollback; (c) one that
//! does not. A rollback-enabled run is printed for contrast.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_fig7 [--scale S] [--out DIR]
//! ```

use alex_bench::runner::{build_env, RunParams};
use alex_bench::table::{maybe_write_output, print_quality_series, reports_to_csv};
use alex_core::EpisodeReport;
use alex_datagen::PaperPair;

fn partition_converged(reports: &[EpisodeReport]) -> bool {
    reports.last().is_some_and(|r| r.changed_links == 0)
        && reports
            .iter()
            .skip(1)
            .rev()
            .take(3)
            .all(|r| r.changed_links == 0)
}

fn main() {
    // `--out` is read by `maybe_write_output`.
    let (params, _) = RunParams::from_args_with(&["--out"]);

    let off_env = build_env(PaperPair::DbpediaNytimes, params, |c| c.rollback = false);
    let off = off_env.run_exact();
    let on_env = build_env(PaperPair::DbpediaNytimes, params, |_| {});
    let on = on_env.run_exact();

    println!("Figure 7: effect of rollback ({})", off_env.kind.label());
    print_quality_series("(a) quality WITHOUT rollback (cap 100 episodes)", &off);
    print_quality_series("(reference) quality WITH rollback", &on);

    // Per-partition curves without rollback: pick one that settles and one
    // that keeps churning, as the paper does.
    let converging = off
        .partition_reports
        .iter()
        .enumerate()
        .filter(|(_, pr)| pr.len() > 2 && partition_converged(pr))
        .max_by_key(|(_, pr)| pr.first().map(|r| r.candidates).unwrap_or(0));
    let diverging = off
        .partition_reports
        .iter()
        .enumerate()
        .filter(|(_, pr)| pr.len() > 2 && !partition_converged(pr))
        .max_by_key(|(_, pr)| pr.last().map(|r| r.changed_links).unwrap_or(0));

    let print_partition = |caption: &str, idx: usize, reports: &[EpisodeReport]| {
        println!("\n{caption} (partition {idx})");
        println!("episode | precision | recall | f-measure | changed");
        for r in reports {
            println!(
                "{:>7} |   {:.3}   | {:.3}  |   {:.3}   | {:>5}",
                r.episode, r.quality.precision, r.quality.recall, r.quality.f1, r.changed_links
            );
        }
    };
    match converging {
        Some((idx, pr)) => {
            print_partition("(b) a partition that converges without rollback", idx, pr)
        }
        None => println!("\n(b) no partition converged without rollback in this run"),
    }
    match diverging {
        Some((idx, pr)) => print_partition(
            "(c) a partition that does not converge without rollback",
            idx,
            pr,
        ),
        None => println!("\n(c) every partition converged without rollback in this run"),
    }

    println!(
        "\nsummary: without rollback final F {:.3} (strict convergence {:?}); \
         with rollback final F {:.3} (strict convergence {:?})",
        off.final_quality().f1,
        off.strict_convergence,
        on.final_quality().f1,
        on.strict_convergence
    );

    maybe_write_output("fig7_no_rollback.csv", &reports_to_csv(&off.reports));
    maybe_write_output("fig7_with_rollback.csv", &reports_to_csv(&on.reports));
}
