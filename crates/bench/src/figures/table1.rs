//! Table 1 — the datasets used in the experiments.
//!
//! Prints the synthetic analog of each paper dataset (triples, entities,
//! predicates) next to the paper's reported triple counts.
//!
//! ```sh
//! exp table1 [--scale S]
//! ```

use std::io::{self, Write};

use alex_datagen::{generate, PaperPair};

use super::{Command, Outcome};

pub(super) fn run(cmd: &Command, out: &mut dyn Write) -> io::Result<Outcome> {
    let params = cmd.params;
    writeln!(
        out,
        "Table 1: data sets used in the experiments (synthetic analogs at scale {})",
        params.scale
    )?;
    writeln!(
        out,
        "{:<22} {:<18} {:>14} {:>12} {:>10} {:>11}",
        "Data Set", "Field", "Paper triples", "Our triples", "Entities", "Predicates"
    )?;
    writeln!(out, "{}", "-".repeat(92))?;

    // Each dataset is rendered inside its primary experiment pair; the
    // multi-domain sets are taken from the stress pair so they carry the
    // full domain mixture.
    let rows: [(&str, &str, &str, PaperPair, bool); 8] = [
        (
            "DBpedia",
            "Multi-domain",
            "43.6M",
            PaperPair::DbpediaOpencyc,
            true,
        ),
        (
            "OpenCyc",
            "Multi-domain",
            "1.6M",
            PaperPair::DbpediaOpencyc,
            false,
        ),
        ("NYTimes", "Media", "335K", PaperPair::DbpediaNytimes, false),
        (
            "Drugbank",
            "Life Sciences",
            "767K",
            PaperPair::DbpediaDrugbank,
            false,
        ),
        (
            "Lexvo",
            "Linguistics",
            "715K",
            PaperPair::DbpediaLexvo,
            false,
        ),
        (
            "SW Dogfood",
            "Publications",
            "337K",
            PaperPair::DbpediaSwdf,
            false,
        ),
        (
            "DBpedia (NBA)",
            "Basketball",
            "56K",
            PaperPair::DbpediaNbaNytimes,
            true,
        ),
        (
            "OpenCyc (NBA)",
            "Basketball",
            "726",
            PaperPair::OpencycNbaNytimes,
            true,
        ),
    ];

    for (name, field, paper, pair_kind, take_left) in rows {
        let pair = generate(&pair_kind.spec(params.scale, params.data_seed));
        let store = if take_left { &pair.left } else { &pair.right };
        let stats = store.stats();
        writeln!(
            out,
            "{:<22} {:<18} {:>14} {:>12} {:>10} {:>11}",
            name, field, paper, stats.triples, stats.subjects, stats.predicates
        )?;
    }
    writeln!(
        out,
        "\nSizes are intentionally scaled down (DESIGN.md §3): the RL dynamics depend on\n\
         vocabulary heterogeneity and starting-quality regimes, not raw triple count."
    )?;
    Ok(Outcome::default())
}
