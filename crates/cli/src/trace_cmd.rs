//! `alex trace` — inspect flight-recorder output.
//!
//! Two modes:
//!
//! * `alex trace --input run.jsonl` pretty-prints a JSONL event log (as
//!   written by `ALEX_TRACE=jsonl:run.jsonl`) as an indented span tree.
//! * `alex trace --explain <link|auto>` runs the feedback loop on a
//!   generated scenario, then prints what the finished driver holds about
//!   one link ([`AlexDriver::explain`], the JSON `GET
//!   /sessions/{id}/explain` serves): candidacy, blacklist, negatives,
//!   and the state-action pairs that generated it with their scores and
//!   Q estimates.

use std::collections::HashSet;

use alex_core::trace;
use alex_core::{AlexConfig, AlexDriver, ExactOracle};
use alex_datagen::{degrade, generate, PaperPair};
use rand::{rngs::StdRng, SeedableRng};

use crate::io::flag_value;

/// Entry point for `alex trace`.
pub fn run(args: &[String]) -> Result<(), String> {
    match (flag_value(args, "--input"), flag_value(args, "--explain")) {
        (Some(path), None) => pretty_print(&path),
        (None, Some(needle)) => explain(args, &needle),
        (Some(_), Some(_)) => Err("--input and --explain are mutually exclusive".into()),
        (None, None) => Err(
            "trace needs --input <events.jsonl> (pretty-print a recorded log) \
             or --explain <link-substring|auto> (explain one link)"
                .into(),
        ),
    }
}

/// `alex trace --input <jsonl>` — render a recorded event log as a tree.
fn pretty_print(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let events = trace::parse_jsonl(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    if events.is_empty() {
        return Err(format!("{path} holds no events"));
    }
    print!("{}", trace::render_tree(&events));
    Ok(())
}

/// `alex trace --explain <link|auto> [--scale S] [--seed N]
/// [--episodes N]` — run a scenario and explain one link of the result:
/// the smallest IRI pair among the candidates and blacklisted links
/// containing `needle`, or with `auto` among the explored candidates.
fn explain(args: &[String], needle: &str) -> Result<(), String> {
    let scale: f64 = flag_value(args, "--scale")
        .map(|v| {
            v.parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .ok_or("--scale must be a positive number".to_string())
        })
        .transpose()?
        .unwrap_or(0.05);
    let seed: u64 = flag_value(args, "--seed")
        .map(|v| {
            v.parse()
                .map_err(|_| "--seed must be an integer".to_string())
        })
        .transpose()?
        .unwrap_or(42);
    let episodes: usize = flag_value(args, "--episodes")
        .map(|v| {
            v.parse()
                .map_err(|_| "--episodes must be an integer".to_string())
        })
        .transpose()?
        .unwrap_or(6);

    let scenario = PaperPair::DbpediaNytimes;
    let pair = generate(&scenario.spec(scale, seed));
    let (p0, r0) = scenario.initial_quality();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let initial = degrade(&pair.truth, p0, r0, &mut rng);
    eprintln!(
        "scenario {} at scale {scale}: {} truth links, {} initial candidates",
        pair.name,
        pair.truth.len(),
        initial.len()
    );

    let cfg = AlexConfig {
        partitions: 2,
        episode_size: scenario.suggested_episode_size(scale),
        max_episodes: episodes,
        seed,
        ..AlexConfig::default()
    };
    let mut driver = AlexDriver::new(&pair.left, &pair.right, &initial, cfg)
        .map_err(|e| format!("building driver: {e}"))?;

    let truth: HashSet<_> = pair.truth.clone();
    let oracle = ExactOracle::new(truth.clone());
    let outcome = driver.run(&oracle, &truth);
    eprintln!(
        "ran {} episodes, final candidate set: {} links",
        outcome.reports.len(),
        outcome.final_links.len()
    );

    let auto = needle == "auto";
    let blacklisted = driver.engines().iter().flat_map(|e| e.blacklist().iter());
    let explanation = (driver.candidates())
        .chain(blacklisted.copied())
        .filter_map(|l| driver.explain(l))
        .filter(|x| {
            if auto {
                x.candidate && x.origin == "explored"
            } else {
                x.left.contains(needle) || x.right.contains(needle)
            }
        })
        .min_by(|a, b| (&a.left, &a.right).cmp(&(&b.left, &b.right)))
        .ok_or_else(|| {
            if auto {
                "no candidate came from exploration — try more --episodes".to_string()
            } else {
                format!("no candidate or blacklisted link matches {needle:?}")
            }
        })?;
    let json = serde_json::to_string_pretty(&explanation).map_err(|e| e.to_string())?;
    println!("{json}");
    Ok(())
}
