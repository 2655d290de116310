//! The paper's tables and figures, each a function that writes its text to
//! a writer and returns its shape claims and CSV files as data.
//!
//! `exp <figure>` prints one of them on stdout (`src/bin/exp.rs`), and
//! `tests/figures.rs` runs every one in-process and compares its text
//! with its file under `golden/`.

use std::io::{self, Write};
use std::path::PathBuf;

use alex_core::RunOutcome;
use alex_datagen::PaperPair;

use crate::runner::{Flags, RunParams, RUN_FLAGS};

mod ablation;
mod answers;
mod fig10;
mod fig11;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod paris;
mod series;
mod table1;
mod time;

/// What a figure returns besides its text.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Its claims about the shape of the paper's results: each states
    /// what must hold, with the measured numbers, and whether it held.
    pub claims: Vec<(String, bool)>,
    /// Its CSV files, name and contents; `exp --out DIR` writes them
    /// into `DIR`.
    pub csv: Vec<(String, String)>,
}

/// A figure's body: it reads the checked command line and writes its
/// text to the writer.
type Run = fn(&Command, &mut dyn Write) -> io::Result<Outcome>;

/// Every figure `exp` runs, in the paper's order: its name, the dataset
/// pairs of its sub-figures (tagged a, b, … in order), whether it returns
/// CSV files, and its body. Only a figure with sub-figures takes `--pair`,
/// and only one with CSV files takes `--out`.
static FIGURES: [(&str, &[PaperPair], bool, Run); 15] = {
    use PaperPair::*;
    [
        ("table1", &[], false, table1::run),
        (
            "fig2",
            &[DbpediaNytimes, DbpediaDrugbank, DbpediaLexvo],
            true,
            series::run,
        ),
        (
            "fig3",
            &[OpencycNytimes, OpencycDrugbank, OpencycLexvo],
            true,
            series::run,
        ),
        (
            "fig4",
            &[
                DbpediaSwdf,
                OpencycSwdf,
                DbpediaNbaNytimes,
                OpencycNbaNytimes,
            ],
            true,
            series::run,
        ),
        ("fig5", &[], false, fig5::run),
        ("fig6", &[], true, fig6::run),
        ("fig7", &[], true, fig7::run),
        ("fig8", &[], true, fig8::run),
        ("fig9", &[], true, fig9::run),
        ("fig10", &[], true, fig10::run),
        ("fig11", &[], true, fig11::run),
        ("ablation", &[], false, ablation::run),
        ("answers", &[], false, answers::run),
        ("paris", &[], false, paris::run),
        ("time", &[], false, time::run),
    ]
};

/// One `exp` command line, checked.
pub struct Command {
    /// The figure's name.
    pub name: &'static str,
    /// `--scale`, `--data-seed` and `--seed`.
    pub params: RunParams,
    /// The sub-figures to run, tag and pair: every one without `--pair`.
    subfigs: Vec<(char, PaperPair)>,
    /// `--out`: the directory the CSV files go to.
    pub out: Option<PathBuf>,
    run: Run,
}

impl Command {
    /// Reads `args` (without the program name): a figure's name, then
    /// the flags that figure takes. A missing or unknown figure, a flag
    /// the figure does not take, a flag without a value, an unparsable
    /// value and a `--pair` naming no sub-figure are usage errors.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        let names = names.join(", ");
        let Some((name, args)) = args.split_first() else {
            return Err(format!("name a figure: {names}"));
        };
        let Some(&(name, pairs, csv, run)) = FIGURES.iter().find(|f| f.0 == name) else {
            return Err(format!("unknown figure {name:?} (figures: {names})"));
        };
        let mut known = RUN_FLAGS.to_vec();
        if !pairs.is_empty() {
            known.push("--pair");
        }
        if csv {
            known.push("--out");
        }
        let flags = Flags::from_args(args, &known)?;
        let which = flags.value("--pair");
        let subfigs: Vec<_> = ('a'..)
            .zip(pairs.iter().copied())
            .filter(|(tag, kind)| which.is_none_or(|w| w == tag.to_string() || w == kind.label()))
            .collect();
        if subfigs.is_empty() && !pairs.is_empty() {
            let tags: Vec<String> = ('a'..).take(pairs.len()).map(String::from).collect();
            return Err(format!(
                "--pair: no sub-figure {:?} (one of {}, or its pair's label)",
                which.unwrap_or_default(),
                tags.join(", ")
            ));
        }
        Ok(Self {
            name,
            params: RunParams::from_flags(&flags)?,
            subfigs,
            out: flags.value("--out").map(PathBuf::from),
            run,
        })
    }

    /// Runs the figure, writing its text to `out`.
    pub fn run(&self, out: &mut impl Write) -> io::Result<Outcome> {
        (self.run)(self, out)
    }
}

/// Whether strict convergence comes no later in run `a` than in run `b`.
/// A run that never converges converges later than any that does.
fn converges_no_later(a: &RunOutcome, b: &RunOutcome) -> bool {
    let episodes = |run: &RunOutcome| run.strict_convergence.unwrap_or(usize::MAX);
    episodes(a) <= episodes(b)
}
