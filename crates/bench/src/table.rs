//! Rendering helpers: plain-text tables matching the paper's figures, and
//! the CSV rows of a run, so EXPERIMENTS.md numbers are regenerable.

use std::io::{self, Write};

use alex_core::{EpisodeReport, RunOutcome};

/// Writes the per-episode quality table for one run, with the relaxed
/// convergence episode marked the way the paper's green vertical line is.
pub fn quality_series(out: &mut dyn Write, title: &str, outcome: &RunOutcome) -> io::Result<()> {
    writeln!(out, "\n== {title} ==")?;
    writeln!(
        out,
        "episode | precision | recall | f-measure | candidates | neg-feedback%\n\
         --------+-----------+--------+-----------+------------+--------------"
    )?;
    for r in &outcome.reports {
        let marker = if Some(r.episode) == outcome.relaxed_convergence {
            " <- relaxed (<5%)"
        } else {
            ""
        };
        writeln!(
            out,
            "{:>7} |   {:.3}   | {:.3}  |   {:.3}   | {:>8}   |    {:>4.1}{}",
            r.episode,
            r.quality.precision,
            r.quality.recall,
            r.quality.f1,
            r.candidates,
            r.negative_fraction() * 100.0,
            marker,
        )?;
    }
    writeln!(
        out,
        "convergence: strict {:?}, relaxed {:?}; final F {:.3}",
        outcome.strict_convergence,
        outcome.relaxed_convergence,
        outcome.final_quality().f1
    )
}

/// Writes runs side by side, one column each: `header`, then one line per
/// episode of the longest run, laid out by `row` from the episode and each
/// run's `cell` of that episode's report, or of its last report once the
/// run has stopped.
pub fn side_by_side(
    out: &mut dyn Write,
    header: &str,
    runs: &[&RunOutcome],
    cell: impl Fn(&EpisodeReport) -> String,
    row: impl Fn(usize, &[String]) -> String,
) -> io::Result<()> {
    let episodes = runs.iter().map(|r| r.reports.len()).max().unwrap_or(0);
    let held = |r: &RunOutcome, ep: usize| {
        let report = r.reports.get(ep).or(r.reports.last());
        report.map_or(String::new(), &cell)
    };
    lines(out, header, 0..episodes, runs, held, row)
}

/// Writes the negative-feedback share of episodes 1 to 10 of runs side by
/// side, as [`side_by_side`] does, with `-` past the end of a run.
pub fn negative_feedback(
    out: &mut dyn Write,
    header: &str,
    runs: &[&RunOutcome],
    row: impl Fn(usize, &[String]) -> String,
) -> io::Result<()> {
    let share = |r: &RunOutcome, ep: usize| match r.reports.get(ep) {
        Some(report) => format!("{:.1}%", report.negative_fraction() * 100.0),
        None => "-".into(),
    };
    lines(out, header, 1..=10, runs, share, row)
}

/// `header`, then a line per episode of `episodes` laid out by `row` from
/// each run's `cell` at that episode.
fn lines(
    out: &mut dyn Write,
    header: &str,
    episodes: impl Iterator<Item = usize>,
    runs: &[&RunOutcome],
    cell: impl Fn(&RunOutcome, usize) -> String,
    row: impl Fn(usize, &[String]) -> String,
) -> io::Result<()> {
    writeln!(out, "{header}")?;
    for ep in episodes {
        let cells: Vec<String> = runs.iter().map(|r| cell(r, ep)).collect();
        writeln!(out, "{}", row(ep, &cells))?;
    }
    Ok(())
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

/// Writes a two-column comparison block (paper vs measured).
pub fn paper_vs_measured(out: &mut dyn Write, rows: &[(&str, String, String)]) -> io::Result<()> {
    writeln!(out, "\n{:<38} | {:<22} | measured", "metric", "paper")?;
    writeln!(out, "{}", "-".repeat(90))?;
    for (metric, paper, measured) in rows {
        writeln!(out, "{metric:<38} | {paper:<22} | {measured}")?;
    }
    Ok(())
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
