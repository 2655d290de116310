//! Figure 2 — quality of links between DBpedia and NYTimes (a),
//! Drugbank (b), and Lexvo (c), in batch mode.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_fig2 [--pair a|b|c] [--scale S] [--out DIR]
//! ```
//!
//! Without `--pair`, all three sub-figures run.

use alex_bench::runner::{build_env, select_pairs, RunParams};
use alex_bench::table::{maybe_write_output, print_quality_series, reports_to_csv};
use alex_datagen::PaperPair;

fn main() {
    let (params, flags) = RunParams::from_args_with(&["--pair", "--out"]);

    let subfigs: [(&str, &str, PaperPair); 3] = [
        (
            "a",
            "Figure 2(a): DBpedia - NYTimes",
            PaperPair::DbpediaNytimes,
        ),
        (
            "b",
            "Figure 2(b): DBpedia - Drugbank",
            PaperPair::DbpediaDrugbank,
        ),
        ("c", "Figure 2(c): DBpedia - Lexvo", PaperPair::DbpediaLexvo),
    ];

    for (tag, title, kind) in select_pairs(&flags, &subfigs) {
        let env = build_env(kind, params, |_| {});
        println!(
            "\n{} — ground truth {} links, initial (P {:.2}, R {:.2}), episode size {}",
            title,
            env.pair.truth.len(),
            env.start_quality.0,
            env.start_quality.1,
            env.config.episode_size
        );
        let outcome = env.run_exact();
        print_quality_series(title, &outcome);
        maybe_write_output(&format!("fig2{tag}.csv"), &reports_to_csv(&outcome.reports));
    }
}
