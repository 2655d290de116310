//! Figure 11 (Appendix D) — sensitivity to the episode size: F-measure and
//! episodes-to-converge for episode sizes ½×, 1×, and 1.5× the default.
//! Claims that strict convergence comes no later as the episode size
//! grows.
//!
//! ```sh
//! exp fig11 [--scale S] [--out DIR]
//! ```

use std::io::{self, Write};

use alex_core::{EpisodeReport, RunOutcome};
use alex_datagen::PaperPair;

use super::{converges_no_later, Command, Outcome};
use crate::runner::build_env;
use crate::table::{reports_to_csv, side_by_side};

pub(super) fn run(cmd: &Command, out: &mut dyn Write) -> io::Result<Outcome> {
    let base = PaperPair::DbpediaNytimes.suggested_episode_size(cmd.params.scale);
    let sizes = [base / 2, base, base * 3 / 2];

    writeln!(
        out,
        "Figure 11: sensitivity to episode size (DBpedia - NYTimes; paper sizes 500/1000/1500, ours {}/{}/{})",
        sizes[0], sizes[1], sizes[2]
    )?;

    let runs: Vec<RunOutcome> = sizes
        .iter()
        .map(|&e| {
            build_env(PaperPair::DbpediaNytimes, cmd.params, |c| {
                c.episode_size = e
            })
            .run_exact()
        })
        .collect();
    let runs: Vec<&RunOutcome> = runs.iter().collect();

    writeln!(out, "\nf-measure per episode")?;
    let header = format!(
        "episode | size {:>4} | size {:>4} | size {:>4}\n\
         --------+-----------+-----------+----------",
        sizes[0], sizes[1], sizes[2]
    );
    side_by_side(
        out,
        &header,
        &runs,
        |r: &EpisodeReport| format!("{:.3}", r.quality.f1),
        |ep, c| {
            format!(
                "{ep:>7} |   {:>5}   |   {:>5}   |   {:>5}",
                c[0], c[1], c[2]
            )
        },
    )?;

    writeln!(
        out,
        "\nsummary (paper: 26 / 14 / 13 episodes to converge for 500/1000/1500):"
    )?;
    for (e, run) in sizes.iter().zip(&runs) {
        writeln!(
            out,
            "  episode size {:>4}: converged strict {:?} relaxed {:?}, final F {:.3}",
            e,
            run.strict_convergence,
            run.relaxed_convergence,
            run.final_quality().f1
        )?;
    }

    let strict: Vec<_> = runs.iter().map(|r| r.strict_convergence).collect();
    Ok(Outcome {
        claims: vec![(
            format!(
                "strict convergence comes no later as the episode size grows \
                 ({strict:?} for sizes {sizes:?})"
            ),
            runs.windows(2).all(|w| converges_no_later(w[1], w[0])),
        )],
        csv: sizes
            .iter()
            .zip(&runs)
            .map(|(e, run)| {
                (
                    format!("fig11_episode_{e}.csv"),
                    reports_to_csv(&run.reports),
                )
            })
            .collect(),
    })
}
