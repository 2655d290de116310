//! Figure 5 — filtering to reduce the search space (paper §7.3):
//! (a) total possible links vs the θ-filtered space for the first
//! partition of DBpedia against all of NYTimes; (b) the filtered space vs
//! the ground-truth links of that partition. Exits non-zero unless the
//! θ-filter removes at least 90% of the possible links.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_fig5 [--scale S]
//! ```

use alex_bench::check_claims;
use alex_bench::runner::{build_env, default_partitions, RunParams};
use alex_bench::table::print_paper_vs_measured;
use alex_datagen::PaperPair;

fn main() {
    let params = RunParams::from_args();
    let env = build_env(PaperPair::DbpediaNytimes, params, |_| {});
    let driver = env.driver();

    // First partition only, as in the paper.
    let engine = &driver.engines()[0];
    let total = engine.space().total_possible();
    let filtered = engine.space().len();
    let reduction = 1.0 - filtered as f64 / total.max(1) as f64;
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

    println!(
        "Figure 5: search-space filtering, partition 1 of {} ({} partitions)",
        env.kind.label(),
        default_partitions()
    );
    println!("\n(a) total possible links vs filtered space");
    println!("    total possible : {total:>10}");
    println!("    filtered (θ=0.3): {filtered:>10}");
    println!("    reduction      : {:>9.1}%", 100.0 * reduction);
    println!("\n(b) filtered space vs ground truth");
    println!("    filtered space : {filtered:>10}");
    println!("    ground truth   : {gt_owned:>10} links owned by this partition ({gt_in_partition} retained in the space)");
    println!(
        "    ground truth is {:.2}% of the filtered space",
        100.0 * gt_owned as f64 / filtered.max(1) as f64
    );

    print_paper_vs_measured(&[
        (
            "space reduction by θ-filter",
            "95%".into(),
            format!("{:.1}%", 100.0 * reduction),
        ),
        (
            "ground truth / filtered space",
            "0.2%".into(),
            format!("{:.2}%", 100.0 * gt_owned as f64 / filtered.max(1) as f64),
        ),
    ]);
    check_claims(
        "Figure 5",
        &[(
            format!(
                "the θ-filter removes at least 90% of possible links (removed {:.1}%)",
                100.0 * reduction
            ),
            reduction >= 0.90,
        )],
    );
}
