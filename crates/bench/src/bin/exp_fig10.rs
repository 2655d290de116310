//! Figure 10 (Appendix D) — sensitivity to the step size: F-measure,
//! recall, and negative-feedback fraction for step ∈ {0.01, 0.05, 0.1}.
//! Exits non-zero unless final recall is ordered by step size.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_fig10 [--scale S] [--out DIR]
//! ```

use alex_bench::check_claims;
use alex_bench::runner::{build_env, RunParams};
use alex_bench::table::{maybe_write_output, reports_to_csv};
use alex_core::RunOutcome;
use alex_datagen::PaperPair;

fn main() {
    // `--out` is read by `maybe_write_output`.
    let (params, _) = RunParams::from_args_with(&["--out"]);
    let steps = [0.01, 0.05, 0.10];

    let outcomes: Vec<RunOutcome> = steps
        .iter()
        .map(|&s| {
            let env = build_env(PaperPair::DbpediaNytimes, params, |c| c.step_size = s);
            let out = env.run_exact();
            maybe_write_output(
                &format!("fig10_step_{s}.csv"),
                &reports_to_csv(&out.reports),
            );
            out
        })
        .collect();

    println!("Figure 10: sensitivity to step size (DBpedia - NYTimes)");
    for (caption, metric) in [("(a) f-measure", 0usize), ("(b) recall", 1)] {
        println!("\n{caption}");
        println!("episode | step 0.01 | step 0.05 | step 0.10");
        println!("--------+-----------+-----------+----------");
        let n = outcomes.iter().map(|o| o.reports.len()).max().unwrap();
        for ep in 0..n {
            let cells: Vec<String> = outcomes
                .iter()
                .map(|o| {
                    o.reports
                        .get(ep)
                        .or(o.reports.last())
                        .map(|r| {
                            let v = if metric == 0 {
                                r.quality.f1
                            } else {
                                r.quality.recall
                            };
                            format!("{v:.3}")
                        })
                        .unwrap_or_default()
                })
                .collect();
            println!(
                "{:>7} |   {:>5}   |   {:>5}   |   {:>5}",
                ep, cells[0], cells[1], cells[2]
            );
        }
    }

    println!("\n(c) negative feedback per episode (first 10 episodes)");
    println!("episode | step 0.01 | step 0.05 | step 0.10");
    println!("--------+-----------+-----------+----------");
    for ep in 1..=10 {
        let cells: Vec<String> = outcomes
            .iter()
            .map(|o| {
                o.reports
                    .get(ep)
                    .map(|r| format!("{:.1}%", r.negative_fraction() * 100.0))
                    .unwrap_or_else(|| "-".into())
            })
            .collect();
        println!(
            "{:>7} |   {:>5}   |   {:>5}   |   {:>5}",
            ep, cells[0], cells[1], cells[2]
        );
    }

    println!("\nsummary:");
    for (s, o) in steps.iter().zip(&outcomes) {
        println!(
            "  step {:>4}: final F {:.3}, final recall {:.3}, episodes {:>3}, slowest partition {:>7.1} ms",
            s,
            o.final_quality().f1,
            o.final_quality().recall,
            o.reports.len() - 1,
            o.slowest_partition_ms()
        );
    }
    println!(
        "paper: larger steps discover more links (higher recall) but draw more negative\n\
         feedback and cost more execution time; quality differences stay small"
    );

    let recall: Vec<f64> = outcomes.iter().map(|o| o.final_quality().recall).collect();
    check_claims(
        "Figure 10",
        &[(
            format!("final recall is ordered by step size ({recall:.3?})"),
            recall.windows(2).all(|w| w[0] <= w[1]),
        )],
    );
}
