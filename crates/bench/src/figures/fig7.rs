//! Figure 7 — effect of rollback (paper §7.3): (a) overall quality with
//! rollback disabled (precision collapses and recovery is slow or absent);
//! (b) a partition that manages to converge without rollback; (c) one that
//! does not. A rollback-enabled run is printed for contrast.
//!
//! ```sh
//! exp fig7 [--scale S] [--out DIR]
//! ```

use std::io::{self, Write};

use alex_core::EpisodeReport;
use alex_datagen::PaperPair;

use super::{Command, Outcome};
use crate::runner::build_env;
use crate::table::{quality_series, reports_to_csv};

fn partition_converged(reports: &[EpisodeReport]) -> bool {
    reports.last().is_some_and(|r| r.changed_links == 0)
        && reports
            .iter()
            .skip(1)
            .rev()
            .take(3)
            .all(|r| r.changed_links == 0)
}

pub(super) fn run(cmd: &Command, out: &mut dyn Write) -> io::Result<Outcome> {
    let pair = PaperPair::DbpediaNytimes;
    let off = build_env(pair, cmd.params, |c| c.rollback = false).run_exact();
    let on = build_env(pair, cmd.params, |_| {}).run_exact();
    writeln!(out, "Figure 7: effect of rollback ({})", pair.label())?;
    quality_series(out, "(a) quality WITHOUT rollback (cap 100 episodes)", &off)?;
    quality_series(out, "(reference) quality WITH rollback", &on)?;

    // Per-partition curves without rollback: pick one that settles and one
    // that keeps churning, as the paper does.
    let converging = off
        .partition_reports
        .iter()
        .enumerate()
        .filter(|(_, pr)| pr.len() > 2 && partition_converged(pr))
        .max_by_key(|(_, pr)| pr.first().map(|r| r.candidates).unwrap_or(0));
    let diverging = off
        .partition_reports
        .iter()
        .enumerate()
        .filter(|(_, pr)| pr.len() > 2 && !partition_converged(pr))
        .max_by_key(|(_, pr)| pr.last().map(|r| r.changed_links).unwrap_or(0));

    for (caption, partition, none) in [
        (
            "(b) a partition that converges without rollback",
            converging,
            "(b) no partition converged without rollback in this run",
        ),
        (
            "(c) a partition that does not converge without rollback",
            diverging,
            "(c) every partition converged without rollback in this run",
        ),
    ] {
        let Some((idx, reports)) = partition else {
            writeln!(out, "\n{none}")?;
            continue;
        };
        writeln!(out, "\n{caption} (partition {idx})")?;
        writeln!(out, "episode | precision | recall | f-measure | changed")?;
        for r in reports {
            writeln!(
                out,
                "{:>7} |   {:.3}   | {:.3}  |   {:.3}   | {:>5}",
                r.episode, r.quality.precision, r.quality.recall, r.quality.f1, r.changed_links
            )?;
        }
    }

    writeln!(
        out,
        "\nsummary: without rollback final F {:.3} (strict convergence {:?}); \
         with rollback final F {:.3} (strict convergence {:?})",
        off.final_quality().f1,
        off.strict_convergence,
        on.final_quality().f1,
        on.strict_convergence
    )?;

    Ok(Outcome {
        claims: vec![],
        csv: vec![
            ("fig7_no_rollback.csv".into(), reports_to_csv(&off.reports)),
            ("fig7_with_rollback.csv".into(), reports_to_csv(&on.reports)),
        ],
    })
}
