//! Figure 8 (Appendix B) — stress test: linking the two multi-domain
//! datasets, DBpedia and OpenCyc (the largest pair, most heterogeneous
//! vocabulary, most ground-truth links).
//!
//! ```sh
//! exp fig8 [--scale S] [--out DIR]
//! ```

use std::io::{self, Write};

use alex_datagen::PaperPair;

use super::{Command, Outcome};
use crate::runner::build_env;
use crate::table::{quality_series, reports_to_csv};

pub(super) fn run(cmd: &Command, out: &mut dyn Write) -> io::Result<Outcome> {
    let env = build_env(PaperPair::DbpediaOpencyc, cmd.params, |_| {});
    writeln!(
        out,
        "Figure 8: {} — ground truth {} links (paper: 41039), initial (P {:.2}, R {:.2})",
        env.kind.label(),
        env.pair.truth.len(),
        env.start_quality.0,
        env.start_quality.1
    )?;
    writeln!(
        out,
        "left: {} triples; right: {} triples; episode size {}",
        env.pair.left.len(),
        env.pair.right.len(),
        env.config.episode_size
    )?;

    let run = env.run_exact();
    quality_series(out, "Figure 8: DBpedia - OpenCyc", &run)?;

    let initial_correct = env
        .initial
        .iter()
        .filter(|l| env.pair.truth.contains(l))
        .count();
    let discovered = env.discovered(&run);
    writeln!(
        out,
        "\nstarted with {initial_correct} correct candidate links, discovered {discovered} additional correct links"
    )?;
    writeln!(
        out,
        "(paper: started with 12227, discovered 23476; F > 0.9 after 20 episodes)"
    )?;

    Ok(Outcome {
        claims: vec![],
        csv: vec![("fig8.csv".into(), reports_to_csv(&run.reports))],
    })
}
