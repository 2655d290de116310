//! Figures 2, 3 and 4 — quality of links per episode, one sub-figure per
//! dataset pair: DBpedia (Fig 2) and OpenCyc (Fig 3) against NYTimes,
//! Drugbank and Lexvo in batch mode, and the specific domains
//! (publications and NBA basketball players) in the single-user setting
//! with episode size 10 (Fig 4).
//!
//! ```sh
//! exp fig2|fig3|fig4 [--pair a|b|c|d] [--scale S] [--out DIR]
//! ```
//!
//! Without `--pair`, every sub-figure runs.

use std::io::{self, Write};

use super::{Command, Outcome};
use crate::runner::build_env;
use crate::table::{quality_series, reports_to_csv};

pub(super) fn run(cmd: &Command, out: &mut dyn Write) -> io::Result<Outcome> {
    let name = cmd.name;
    let mut outcome = Outcome::default();
    for &(tag, kind) in &cmd.subfigs {
        let env = build_env(kind, cmd.params, |c| {
            if kind.is_specific_domain() {
                // Small datasets: a handful of partitions matches the
                // paper's per-user, specific-domain deployment.
                c.partitions = 4;
            }
        });
        let title = format!(
            "Figure {}({tag}): {}",
            name.trim_start_matches("fig"),
            kind.label()
        );
        writeln!(
            out,
            "\n{} — ground truth {} links, initial (P {:.2}, R {:.2}), episode size {}",
            title,
            env.pair.truth.len(),
            env.start_quality.0,
            env.start_quality.1,
            env.config.episode_size
        )?;
        let run = env.run_exact();
        quality_series(out, &title, &run)?;
        if kind.is_specific_domain() {
            let discovered = env.discovered(&run);
            writeln!(out, "new correct links discovered: {discovered}")?;
        }
        let csv = (format!("{name}{tag}.csv"), reports_to_csv(&run.reports));
        outcome.csv.push(csv);
    }
    Ok(outcome)
}
