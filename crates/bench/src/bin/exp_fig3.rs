//! Figure 3 — quality of links between OpenCyc and NYTimes (a),
//! Drugbank (b), and Lexvo (c), in batch mode.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_fig3 [--pair a|b|c] [--scale S] [--out DIR]
//! ```

use alex_bench::runner::{build_env, select_pairs, RunParams};
use alex_bench::table::{maybe_write_output, print_quality_series, reports_to_csv};
use alex_datagen::PaperPair;

fn main() {
    let (params, flags) = RunParams::from_args_with(&["--pair", "--out"]);

    let subfigs: [(&str, &str, PaperPair); 3] = [
        (
            "a",
            "Figure 3(a): OpenCyc - NYTimes",
            PaperPair::OpencycNytimes,
        ),
        (
            "b",
            "Figure 3(b): OpenCyc - Drugbank",
            PaperPair::OpencycDrugbank,
        ),
        ("c", "Figure 3(c): OpenCyc - Lexvo", PaperPair::OpencycLexvo),
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
        maybe_write_output(&format!("fig3{tag}.csv"), &reports_to_csv(&outcome.reports));
    }
}
