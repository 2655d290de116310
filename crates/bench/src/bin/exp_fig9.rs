//! Figure 9 (Appendix C) — effect of incorrect feedback: ALEX with a
//! clean oracle vs an oracle whose judgements are flipped 10% of the time,
//! on DBpedia–NYTimes with the default batch episode size.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_fig9 [--scale S] [--out DIR]
//! ```

use alex_bench::runner::{build_env, RunParams};
use alex_bench::table::{maybe_write_output, reports_to_csv};
use alex_core::NoisyOracle;
use alex_datagen::PaperPair;

fn main() {
    // `--out` is read by `maybe_write_output`.
    let (params, _) = RunParams::from_args_with(&["--out"]);

    // Both runs cap at 20 episodes so per-link feedback exposure matches
    // the paper's (≈1.6 judgements per ground-truth link over the run; our
    // scaled-down candidate sets would otherwise judge each link ~25 times,
    // amplifying the error model far beyond Appendix C's setting), and
    // blacklisting requires two corroborating negatives so one flipped
    // judgement cannot permanently kill a correct link.
    let env = build_env(PaperPair::DbpediaNytimes, params, |c| {
        c.max_episodes = 20;
        c.blacklist_threshold = 2;
    });
    let clean = env.run_exact();
    let noisy_oracle = NoisyOracle::new(env.exact_oracle(), 0.10);
    let noisy = env.run_with(&noisy_oracle);

    println!(
        "Figure 9: ALEX with correct feedback vs 10% incorrect feedback ({})",
        env.kind.label()
    );
    for (caption, metric) in [
        ("(a) precision", 0usize),
        ("(b) recall", 1),
        ("(c) f-measure", 2),
    ] {
        println!("\n{caption}");
        println!("episode | correct feedback | 10% incorrect");
        println!("--------+------------------+---------------");
        let n = clean.reports.len().max(noisy.reports.len());
        for ep in 0..n {
            let get = |reports: &[alex_core::EpisodeReport]| {
                reports
                    .get(ep)
                    .or(reports.last())
                    .map(|r| {
                        let q = r.quality;
                        let v = [q.precision, q.recall, q.f1][metric];
                        format!("{v:.3}")
                    })
                    .unwrap_or_default()
            };
            println!(
                "{:>7} |      {:>6}      |     {:>6}",
                ep,
                get(&clean.reports),
                get(&noisy.reports)
            );
        }
    }

    let cq = clean.final_quality();
    let nq = noisy.final_quality();
    println!(
        "\nsummary: final (P, R, F) clean = ({:.3}, {:.3}, {:.3}); 10% incorrect = ({:.3}, {:.3}, {:.3})",
        cq.precision, cq.recall, cq.f1, nq.precision, nq.recall, nq.f1
    );
    println!(
        "paper: recall barely changes; precision degrades slightly because wrongly-approved\n\
         links keep receiving positive feedback and stay in the candidate set"
    );

    maybe_write_output("fig9_clean.csv", &reports_to_csv(&clean.reports));
    maybe_write_output("fig9_noisy.csv", &reports_to_csv(&noisy.reports));
}
