//! Rendering helpers: plain-text tables matching the paper's figures, plus
//! CSV and JSON emission so EXPERIMENTS.md numbers are regenerable.

use alex_core::{EpisodeReport, RunOutcome};

/// Prints the per-episode quality table for one run, with the relaxed
/// convergence episode marked the way the paper's green vertical line is.
pub fn print_quality_series(title: &str, outcome: &RunOutcome) {
    println!("\n== {title} ==");
    println!("episode | precision | recall | f-measure | candidates | neg-feedback%");
    println!("--------+-----------+--------+-----------+------------+--------------");
    for r in &outcome.reports {
        let marker = if Some(r.episode) == outcome.relaxed_convergence {
            " <- relaxed (<5%)"
        } else {
            ""
        };
        println!(
            "{:>7} |   {:.3}   | {:.3}  |   {:.3}   | {:>8}   |    {:>4.1}{}",
            r.episode,
            r.quality.precision,
            r.quality.recall,
            r.quality.f1,
            r.candidates,
            r.negative_fraction() * 100.0,
            marker,
        );
    }
    println!(
        "convergence: strict {:?}, relaxed {:?}; final F {:.3}",
        outcome.strict_convergence,
        outcome.relaxed_convergence,
        outcome.final_quality().f1
    );
}

/// Renders episode reports as CSV (header + one row per episode).
pub fn reports_to_csv(reports: &[EpisodeReport]) -> String {
    let mut out = String::from(
        "episode,precision,recall,f1,candidates,feedback_items,negative_feedback,links_added,links_removed,changed_links,duration_ms\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{},{},{},{},{},{},{:.3}\n",
            r.episode,
            r.quality.precision,
            r.quality.recall,
            r.quality.f1,
            r.candidates,
            r.feedback_items,
            r.negative_feedback,
            r.links_added,
            r.links_removed,
            r.changed_links,
            r.duration_ms,
        ));
    }
    out
}

/// Writes `content` to `path` if `--out <dir>` was passed on the command
/// line; returns whether anything was written.
pub fn maybe_write_output(filename: &str, content: &str) -> bool {
    let args: Vec<String> = std::env::args().collect();
    for w in args.windows(2) {
        if w[0] == "--out" {
            let dir = std::path::Path::new(&w[1]);
            std::fs::create_dir_all(dir).expect("create output dir");
            let path = dir.join(filename);
            std::fs::write(&path, content).expect("write output file");
            println!("wrote {}", path.display());
            return true;
        }
    }
    false
}

/// Formats a simple two-column comparison block (paper vs measured).
pub fn print_paper_vs_measured(rows: &[(&str, String, String)]) {
    println!("\n{:<38} | {:<22} | measured", "metric", "paper");
    println!("{}", "-".repeat(90));
    for (metric, paper, measured) in rows {
        println!("{metric:<38} | {paper:<22} | {measured}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_core::Quality;

    fn report(ep: usize) -> EpisodeReport {
        EpisodeReport {
            episode: ep,
            quality: Quality {
                precision: 0.9,
                recall: 0.8,
                f1: 0.85,
            },
            candidates: 100,
            feedback_items: 50,
            negative_feedback: 10,
            links_added: 5,
            links_removed: 3,
            changed_links: 8,
            duration_ms: 1.25,
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = reports_to_csv(&[report(0), report(1)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("episode,precision"));
        assert!(lines[1].starts_with("0,0.9"));
    }
}
