//! Prints one of the paper's tables or figures on stdout.
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp -- <figure> [--scale S] \
//!     [--data-seed N] [--seed N] [--pair P] [--out DIR]
//! ```
//!
//! The figures are `table1`, `fig2`–`fig11`, `ablation`, `answers`,
//! `paris` and `time` (`alex_bench::figures`). `--pair` selects
//! a sub-figure of `fig2`–`fig4`, and `--out DIR` writes the CSV files of
//! a figure that has them. A missing or unknown figure, or a flag the
//! figure does not take, exits with code 2. A failed shape claim is
//! printed to stderr as a `FAIL:` line and exits with code 1; stdout
//! stays comparable with the figure's golden file either way.

use alex_bench::figures::Command;
use alex_bench::runner::usage_error;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = Command::parse(&args).unwrap_or_else(|e| usage_error(&e));
    let outcome = cmd
        .run(&mut std::io::stdout().lock())
        .expect("write the figure to stdout");
    if let Some(dir) = &cmd.out {
        std::fs::create_dir_all(dir).expect("create the output directory");
        for (name, content) in &outcome.csv {
            let path = dir.join(name);
            std::fs::write(&path, content).expect("write a CSV file");
            println!("wrote {}", path.display());
        }
    }
    let mut failed = false;
    for (claim, _) in outcome.claims.iter().filter(|(_, holds)| !holds) {
        eprintln!("FAIL: {}: {claim}", cmd.name);
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
