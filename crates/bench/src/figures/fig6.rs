//! Figure 6 — effect of the blacklist (paper §7.3): (a) F-measure with and
//! without the blacklist; (b) fraction of negative feedback per episode
//! for the first 10 episodes. Claims that strict convergence comes no
//! later with the blacklist than without it.
//!
//! ```sh
//! exp fig6 [--scale S] [--out DIR]
//! ```

use std::io::{self, Write};

use alex_core::{EpisodeReport, RunOutcome};
use alex_datagen::PaperPair;

use super::{converges_no_later, Command, Outcome};
use crate::runner::build_env;
use crate::table::{negative_feedback, reports_to_csv, side_by_side};

pub(super) fn run(cmd: &Command, out: &mut dyn Write) -> io::Result<Outcome> {
    let pair = PaperPair::DbpediaNytimes;
    let with = build_env(pair, cmd.params, |_| {}).run_exact();
    let without = build_env(pair, cmd.params, |c| c.blacklist = false).run_exact();
    writeln!(out, "Figure 6: effect of the blacklist ({})", pair.label())?;
    let header = "episode | with blacklist | without blacklist\n\
                  --------+----------------+------------------";
    let row = |ep: usize, c: &[String]| format!("{ep:>7} |     {:>6}     |      {:>6}", c[0], c[1]);
    writeln!(out, "\n(a) F-measure per episode")?;
    let f1 = |r: &EpisodeReport| format!("{:.3}", r.quality.f1);
    side_by_side(out, header, &[&with, &without], f1, row)?;
    writeln!(
        out,
        "\n(b) negative feedback per episode (first 10 episodes)"
    )?;
    negative_feedback(out, header, &[&with, &without], row)?;

    let avg_neg = |run: &RunOutcome| {
        let xs: Vec<f64> = run
            .reports
            .iter()
            .skip(1)
            .take(10)
            .map(|r| r.negative_fraction())
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    writeln!(
        out,
        "\nsummary: mean negative-feedback fraction over episodes 1-10: with {:.1}%, without {:.1}%",
        avg_neg(&with) * 100.0,
        avg_neg(&without) * 100.0
    )?;
    writeln!(
        out,
        "final F: with {:.3} (converged {:?}), without {:.3} (converged {:?})",
        with.final_quality().f1,
        with.strict_convergence,
        without.final_quality().f1,
        without.strict_convergence
    )?;

    Ok(Outcome {
        claims: vec![(
            format!(
                "with the blacklist, strict convergence comes no later than without it \
                 ({:?} vs {:?})",
                with.strict_convergence, without.strict_convergence
            ),
            converges_no_later(&with, &without),
        )],
        csv: vec![
            (
                "fig6_with_blacklist.csv".into(),
                reports_to_csv(&with.reports),
            ),
            (
                "fig6_without_blacklist.csv".into(),
                reports_to_csv(&without.reports),
            ),
        ],
    })
}
