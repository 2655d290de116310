//! Figure 11 (Appendix D) — sensitivity to the episode size: F-measure and
//! episodes-to-converge for episode sizes ½×, 1×, and 1.5× the default.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_fig11 [--scale S] [--out DIR]
//! ```

use alex_bench::runner::{build_env, RunParams};
use alex_bench::table::{maybe_write_output, reports_to_csv};
use alex_datagen::PaperPair;

fn main() {
    // `--out` is read by `maybe_write_output`.
    let (params, _) = RunParams::from_args_with(&["--out"]);
    let base = PaperPair::DbpediaNytimes.suggested_episode_size(params.scale);
    let sizes = [base / 2, base, base * 3 / 2];

    println!(
        "Figure 11: sensitivity to episode size (DBpedia - NYTimes; paper sizes 500/1000/1500, ours {}/{}/{})",
        sizes[0], sizes[1], sizes[2]
    );

    let outcomes: Vec<_> = sizes
        .iter()
        .map(|&e| {
            let env = build_env(PaperPair::DbpediaNytimes, params, |c| c.episode_size = e);
            let out = env.run_exact();
            maybe_write_output(
                &format!("fig11_episode_{e}.csv"),
                &reports_to_csv(&out.reports),
            );
            out
        })
        .collect();

    println!("\nf-measure per episode");
    println!(
        "episode | size {:>4} | size {:>4} | size {:>4}",
        sizes[0], sizes[1], sizes[2]
    );
    println!("--------+-----------+-----------+----------");
    let n = outcomes.iter().map(|o| o.reports.len()).max().unwrap();
    for ep in 0..n {
        let cells: Vec<String> = outcomes
            .iter()
            .map(|o| {
                o.reports
                    .get(ep)
                    .or(o.reports.last())
                    .map(|r| format!("{:.3}", r.quality.f1))
                    .unwrap_or_default()
            })
            .collect();
        println!(
            "{:>7} |   {:>5}   |   {:>5}   |   {:>5}",
            ep, cells[0], cells[1], cells[2]
        );
    }

    println!("\nsummary (paper: 26 / 14 / 13 episodes to converge for 500/1000/1500):");
    for (e, o) in sizes.iter().zip(&outcomes) {
        println!(
            "  episode size {:>4}: converged strict {:?} relaxed {:?}, final F {:.3}",
            e,
            o.strict_convergence,
            o.relaxed_convergence,
            o.final_quality().f1
        );
    }
}
