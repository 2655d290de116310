//! Figure 5 — filtering to reduce the search space (paper §7.3):
//! (a) total possible links vs the θ-filtered space for the first
//! partition of DBpedia against all of NYTimes; (b) the filtered space vs
//! the ground-truth links of that partition. Claims that the θ-filter
//! removes at least 90% of the possible links.
//!
//! ```sh
//! exp fig5 [--scale S]
//! ```

use std::io::{self, Write};

use alex_datagen::PaperPair;

use super::{Command, Outcome};
use crate::runner::{build_env, default_partitions};
use crate::table::paper_vs_measured;

pub(super) fn run(cmd: &Command, out: &mut dyn Write) -> io::Result<Outcome> {
    let env = build_env(PaperPair::DbpediaNytimes, cmd.params, |_| {});
    let driver = env.driver();

    // First partition only, as in the paper.
    let engine = &driver.engines()[0];
    let total = engine.space().total_possible();
    let filtered = engine.space().len();
    let reduction = 1.0 - filtered as f64 / total.max(1) as f64;
    let removed = 100.0 * reduction;
    let gt_in_partition = env
        .pair
        .truth
        .iter()
        .filter(|l| engine.space().contains(**l))
        .count();
    // Ground truth owned by partition 0 (its left entities), whether or not
    // the filtered space retained the pair.
    let part_subjects: std::collections::HashSet<_> = {
        let subjects: Vec<_> = env.pair.left.subjects().collect();
        alex_core::round_robin(&subjects, default_partitions())[0]
            .iter()
            .copied()
            .collect()
    };
    let gt_owned = env
        .pair
        .truth
        .iter()
        .filter(|l| part_subjects.contains(&l.left))
        .count();
    let gt_share = 100.0 * gt_owned as f64 / filtered.max(1) as f64;

    writeln!(
        out,
        "Figure 5: search-space filtering, partition 1 of {} ({} partitions)",
        env.kind.label(),
        default_partitions()
    )?;
    writeln!(out, "\n(a) total possible links vs filtered space")?;
    writeln!(out, "    total possible : {total:>10}")?;
    writeln!(out, "    filtered (θ=0.3): {filtered:>10}")?;
    writeln!(out, "    reduction      : {removed:>9.1}%")?;
    writeln!(out, "\n(b) filtered space vs ground truth")?;
    writeln!(out, "    filtered space : {filtered:>10}")?;
    writeln!(out, "    ground truth   : {gt_owned:>10} links owned by this partition ({gt_in_partition} retained in the space)")?;
    writeln!(
        out,
        "    ground truth is {gt_share:.2}% of the filtered space"
    )?;

    paper_vs_measured(
        out,
        &[
            (
                "space reduction by θ-filter",
                "95%".into(),
                format!("{removed:.1}%"),
            ),
            (
                "ground truth / filtered space",
                "0.2%".into(),
                format!("{gt_share:.2}%"),
            ),
        ],
    )?;
    Ok(Outcome {
        claims: vec![(
            format!("the θ-filter removes at least 90% of possible links (removed {removed:.1}%)"),
            reduction >= 0.90,
        )],
        csv: vec![],
    })
}
