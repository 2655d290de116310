//! Every figure `exp` prints, run in-process and compared byte for byte
//! with its file under `golden/`, with every shape claim it makes
//! required to hold.
//!
//! A golden file changes only with a change that means to move the
//! figures. A difference here is a bug to find, not a file to regenerate.
//! CI runs this test at `ALEX_THREADS=1` and `=4`: the worker count must
//! not move a bit.

use alex_bench::figures::{Command, Outcome};

/// Runs `exp <args>` in-process: its text and what it returned. Fails
/// if a shape claim does not hold.
fn run(args: &str) -> (String, Outcome) {
    let args: Vec<String> = args.split_whitespace().map(String::from).collect();
    let cmd = Command::parse(&args).expect("a valid command line");
    let mut text = Vec::new();
    let outcome = cmd.run(&mut text).expect("write to memory");
    for (claim, holds) in &outcome.claims {
        assert!(holds, "exp {}: claim fails: {claim}", args.join(" "));
    }
    (
        String::from_utf8(text).expect("figures print UTF-8"),
        outcome,
    )
}

/// Asserts that `text` equals golden file `name`, naming the first line
/// that differs.
fn assert_golden(name: &str, text: &str) {
    let path = format!("{}/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).expect("read the golden file");
    if text == golden {
        return;
    }
    let (mut got, mut want) = (text.lines(), golden.lines());
    for line in 1.. {
        let (g, w) = (got.next(), want.next());
        assert!(
            g == w,
            "{name} differs at line {line}:\n  golden: {w:?}\n  output: {g:?}"
        );
        if g.is_none() {
            break;
        }
    }
    panic!("{name} differs in its line endings");
}

/// Runs `exp <args>` and compares its whole text with golden file `name`.
fn whole(args: &str, name: &str) {
    assert_golden(name, &run(args).0);
}

/// The lines of `text` that `keep` selects, each ending in a newline.
fn lines_where(text: &str, keep: impl Fn(&str) -> bool) -> String {
    text.lines()
        .filter(|l| keep(l))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn table1() {
    whole("table1 --scale 1", "exp_table1_scale1.txt");
}

/// Also checks the CSV files `--out` writes: one per sub-figure, named as
/// before, each the sub-figure's episode reports.
#[test]
fn fig2() {
    let (text, outcome) = run("fig2 --scale 1");
    assert_golden("exp_fig2_scale1.txt", &text);
    let names: Vec<&str> = outcome.csv.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["fig2a.csv", "fig2b.csv", "fig2c.csv"]);
    let header = alex_bench::table::reports_to_csv(&[]);
    for (name, csv) in &outcome.csv {
        assert!(csv.starts_with(&header), "{name}: {:?}", csv.lines().next());
        assert!(csv.lines().count() > 2, "{name} has episode rows");
    }
}

/// Scale 4 floods the candidate set and rolls actions back in most
/// episodes, where scale 1 seldom does: the golden file that holds the
/// engine's bookkeeping.
#[test]
fn fig2_scale4() {
    whole("fig2 --scale 4", "exp_fig2_scale4.txt");
}

#[test]
fn fig3() {
    whole("fig3 --scale 1", "exp_fig3_scale1.txt");
}

#[test]
fn fig4() {
    whole("fig4 --scale 1", "exp_fig4_scale1.txt");
}

#[test]
fn fig5() {
    whole("fig5 --scale 1", "exp_fig5_scale1.txt");
}

#[test]
fn fig6() {
    whole("fig6 --scale 1", "exp_fig6_scale1.txt");
}

#[test]
fn fig7() {
    whole("fig7 --scale 1", "exp_fig7_scale1.txt");
}

#[test]
fn fig8() {
    whole("fig8 --scale 1", "exp_fig8_scale1.txt");
}

#[test]
fn fig9() {
    whole("fig9 --scale 1", "exp_fig9_scale1.txt");
}

#[test]
fn fig10() {
    whole("fig10 --scale 1", "exp_fig10_scale1.txt");
}

#[test]
fn fig11() {
    whole("fig11 --scale 1", "exp_fig11_scale1.txt");
}

#[test]
fn ablation() {
    whole("ablation --scale 1", "exp_ablation_scale1.txt");
}

/// Answer quality through the federated engine after every episode.
#[test]
fn answers() {
    whole("answers", "exp_answers.txt");
}

/// PARIS's own bits on every scenario pair; its quality table is not
/// golden.
#[test]
fn paris() {
    let (text, _) = run("paris --scale 1");
    let fingerprints = lines_where(&text, |l| l.starts_with("fingerprint "));
    assert_golden("exp_paris_fingerprints.txt", &fingerprints);
}

/// Episodes to convergence; the timings are not golden.
#[test]
fn time() {
    let (text, _) = run("time --scale 1");
    let episodes = lines_where(&text, |l| l.contains("episodes run"));
    assert_golden("exp_time_episodes.txt", &episodes);
}

/// A command line `exp` cannot run exits with code 2 before any figure
/// runs, and says why on stderr.
#[test]
fn usage_errors_exit_2() {
    let names = "table1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11, \
                 ablation, answers, paris, time";
    for (args, says) in [
        (&[][..], names),
        (&["fig12"], names),
        (&["fig5", "--out", "d"], "unknown argument --out"),
        (&["table1", "--pair", "a"], "unknown argument --pair"),
        (&["fig2", "--pair", "z"], "no sub-figure \"z\""),
        (&["fig5", "--scael", "0.1"], "unknown argument --scael"),
        (&["fig5", "--scale", "x"], "cannot parse \"x\""),
        (&["fig2", "--scale"], "--scale needs a value"),
    ] {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_exp"))
            .args(args)
            .output()
            .expect("run exp");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "exp {args:?}: {stderr}");
        assert!(stderr.contains(says), "exp {args:?}: {stderr}");
        assert!(run.stdout.is_empty(), "exp {args:?} printed a figure");
    }
}
