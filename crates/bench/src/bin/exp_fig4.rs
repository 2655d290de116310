//! Figure 4 — quality of links for specific domains (publications and NBA
//! basketball players), single-user setting with episode size 10.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_fig4 [--pair a|b|c|d] [--scale S] [--out DIR]
//! ```

use alex_bench::runner::{build_env, select_pairs, RunParams};
use alex_bench::table::{maybe_write_output, print_quality_series, reports_to_csv};
use alex_datagen::PaperPair;

fn main() {
    let (params, flags) = RunParams::from_args_with(&["--pair", "--out"]);

    let subfigs: [(&str, &str, PaperPair); 4] = [
        (
            "a",
            "Figure 4(a): DBpedia - Semantic Web Dogfood",
            PaperPair::DbpediaSwdf,
        ),
        (
            "b",
            "Figure 4(b): OpenCyc - Semantic Web Dogfood",
            PaperPair::OpencycSwdf,
        ),
        (
            "c",
            "Figure 4(c): DBpedia (NBA) - NYTimes",
            PaperPair::DbpediaNbaNytimes,
        ),
        (
            "d",
            "Figure 4(d): OpenCyc (NBA) - NYTimes",
            PaperPair::OpencycNbaNytimes,
        ),
    ];

    for (tag, title, kind) in select_pairs(&flags, &subfigs) {
        let env = build_env(kind, params, |c| {
            // Small datasets: a handful of partitions matches the paper's
            // per-user, specific-domain deployment.
            c.partitions = 4;
        });
        assert_eq!(
            env.config.episode_size, 10,
            "specific-domain episode size is 10"
        );
        println!(
            "\n{} — ground truth {} links, initial (P {:.2}, R {:.2}), episode size 10",
            title,
            env.pair.truth.len(),
            env.start_quality.0,
            env.start_quality.1,
        );
        let outcome = env.run_exact();
        print_quality_series(title, &outcome);
        let discovered = outcome
            .final_links
            .iter()
            .filter(|l| env.pair.truth.contains(l) && !env.initial.contains(l))
            .count();
        println!("new correct links discovered: {discovered}");
        maybe_write_output(&format!("fig4{tag}.csv"), &reports_to_csv(&outcome.reports));
    }
}
