//! Figure 10 (Appendix D) — sensitivity to the step size: F-measure,
//! recall, and negative-feedback fraction for step ∈ {0.01, 0.05, 0.1}.
//! Claims that final recall is ordered by step size.
//!
//! ```sh
//! exp fig10 [--scale S] [--out DIR]
//! ```
//!
//! Each run's slowest partition time goes to stderr, so stdout is the
//! same on every run.

use std::io::{self, Write};

use alex_core::{EpisodeReport, RunOutcome};
use alex_datagen::PaperPair;

use super::{Command, Outcome};
use crate::runner::build_env;
use crate::table::{negative_feedback, reports_to_csv, side_by_side};

pub(super) fn run(cmd: &Command, out: &mut dyn Write) -> io::Result<Outcome> {
    let steps = [0.01, 0.05, 0.10];
    let runs: Vec<RunOutcome> = steps
        .iter()
        .map(|&s| build_env(PaperPair::DbpediaNytimes, cmd.params, |c| c.step_size = s).run_exact())
        .collect();
    let runs: Vec<&RunOutcome> = runs.iter().collect();

    writeln!(
        out,
        "Figure 10: sensitivity to step size (DBpedia - NYTimes)"
    )?;
    let header = "episode | step 0.01 | step 0.05 | step 0.10\n\
                  --------+-----------+-----------+----------";
    let row = |ep: usize, c: &[String]| {
        format!(
            "{ep:>7} |   {:>5}   |   {:>5}   |   {:>5}",
            c[0], c[1], c[2]
        )
    };
    writeln!(out, "\n(a) f-measure")?;
    let f1 = |r: &EpisodeReport| format!("{:.3}", r.quality.f1);
    side_by_side(out, header, &runs, f1, row)?;
    writeln!(out, "\n(b) recall")?;
    let recall = |r: &EpisodeReport| format!("{:.3}", r.quality.recall);
    side_by_side(out, header, &runs, recall, row)?;
    writeln!(
        out,
        "\n(c) negative feedback per episode (first 10 episodes)"
    )?;
    negative_feedback(out, header, &runs, row)?;

    writeln!(out, "\nsummary:")?;
    for (s, run) in steps.iter().zip(&runs) {
        writeln!(
            out,
            "  step {:>4}: final F {:.3}, final recall {:.3}, episodes {:>3}",
            s,
            run.final_quality().f1,
            run.final_quality().recall,
            run.reports.len() - 1,
        )?;
        eprintln!(
            "fig10: step {s:>4}: slowest partition {:>7.1} ms",
            run.slowest_partition_ms()
        );
    }
    writeln!(
        out,
        "paper: larger steps discover more links (higher recall) but draw more negative\n\
         feedback and cost more execution time; quality differences stay small"
    )?;

    let recall: Vec<f64> = runs.iter().map(|r| r.final_quality().recall).collect();
    Ok(Outcome {
        claims: vec![(
            format!("final recall is ordered by step size ({recall:.3?})"),
            recall.windows(2).all(|w| w[0] <= w[1]),
        )],
        csv: steps
            .iter()
            .zip(&runs)
            .map(|(s, run)| (format!("fig10_step_{s}.csv"), reports_to_csv(&run.reports)))
            .collect(),
    })
}
