//! Figure 8 (Appendix B) — stress test: linking the two multi-domain
//! datasets, DBpedia and OpenCyc (the largest pair, most heterogeneous
//! vocabulary, most ground-truth links).
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_fig8 [--scale S] [--out DIR]
//! ```

use alex_bench::runner::{build_env, RunParams};
use alex_bench::table::{maybe_write_output, print_quality_series, reports_to_csv};
use alex_datagen::PaperPair;

fn main() {
    // `--out` is read by `maybe_write_output`.
    let (params, _) = RunParams::from_args_with(&["--out"]);
    let env = build_env(PaperPair::DbpediaOpencyc, params, |_| {});
    println!(
        "Figure 8: {} — ground truth {} links (paper: 41039), initial (P {:.2}, R {:.2})",
        env.kind.label(),
        env.pair.truth.len(),
        env.start_quality.0,
        env.start_quality.1
    );
    println!(
        "left: {} triples; right: {} triples; episode size {}",
        env.pair.left.len(),
        env.pair.right.len(),
        env.config.episode_size
    );

    let outcome = env.run_exact();
    print_quality_series("Figure 8: DBpedia - OpenCyc", &outcome);

    let initial_correct = env
        .initial
        .iter()
        .filter(|l| env.pair.truth.contains(l))
        .count();
    let discovered = outcome
        .final_links
        .iter()
        .filter(|l| env.pair.truth.contains(l) && !env.initial.contains(l))
        .count();
    println!(
        "\nstarted with {initial_correct} correct candidate links, discovered {discovered} additional correct links"
    );
    println!("(paper: started with 12227, discovered 23476; F > 0.9 after 20 episodes)");

    maybe_write_output("fig8.csv", &reports_to_csv(&outcome.reports));
}
