//! `alex trace` — inspect flight-recorder output.
//!
//! Two modes:
//!
//! * `alex trace --input run.jsonl` pretty-prints a JSONL event log (as
//!   written by `ALEX_TRACE=jsonl:run.jsonl`) as an indented span tree.
//! * `alex trace --explain <link|auto>` runs the feedback loop on a
//!   generated scenario with the ring recorder on, then replays the
//!   decision audit trail that produced one link: the feedback item that
//!   triggered the episode, the ε-greedy decision (with Q-values and
//!   observation counts at choice time), the explored feature, and the
//!   candidate pair it surfaced — plus any later feedback or removal.

use std::collections::HashSet;

use alex_core::trace::{self, Event, Payload, TraceMode, TraceSettings};
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
             or --explain <link-substring|auto> (replay one link's audit trail)"
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
/// [--episodes N]` — run a scenario with the recorder on and explain how
/// one link entered the candidate set.
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

    // The explain run always records to a ring, whatever ALEX_TRACE says:
    // the replay below needs the events in memory.
    trace::configure(&TraceSettings {
        mode: TraceMode::Ring,
        sample: 1.0,
        ring_capacity: 1 << 18,
    })
    .map_err(|e| format!("enabling the flight recorder: {e}"))?;

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

    let span = trace::root_span("cli.trace_explain");
    let trace_id = span.trace_id();
    let truth: HashSet<_> = pair.truth.clone();
    let oracle = ExactOracle::new(truth.clone());
    let outcome = driver.run(&oracle, &truth);
    drop(span);
    eprintln!(
        "ran {} episodes, final candidate set: {} links",
        outcome.reports.len(),
        outcome.final_links.len()
    );

    let events = trace::recorder().trace_events(trace_id);
    let report = explain_link(&events, needle)?;
    println!("{report}");
    Ok(())
}

fn pretty_link(tabbed: &str) -> String {
    tabbed.replace('\t', "  ≡  ")
}

/// Builds the human-readable causal chain for one `link_added` event
/// whose link contains `needle` (`auto` matches every link): the smallest
/// matching link, at its earliest addition. Partitions record from
/// concurrent threads, so "the first event recorded" would name a
/// different link from run to run; one link's events all come from its
/// partition's thread, in order.
pub fn explain_link(events: &[Event], needle: &str) -> Result<String, String> {
    let added = events
        .iter()
        .filter_map(|e| match &e.payload {
            Payload::LinkAdded { link, .. } if needle == "auto" || link.contains(needle) => {
                Some((link, e))
            }
            _ => None,
        })
        .min_by_key(|&(link, e)| (link, e.seq))
        .map(|(_, e)| e)
        .ok_or_else(|| {
            if needle == "auto" {
                "no link was added during the run — try more --episodes".to_string()
            } else {
                format!("no added link matches {needle:?} (try --explain auto)")
            }
        })?;
    let Payload::LinkAdded {
        link,
        state,
        feature,
        score,
    } = &added.payload
    else {
        unreachable!()
    };

    // The decision that chose the generating feature: the last decision
    // event in the same span (= same partition episode) before the add.
    let decision = events.iter().rev().find(|e| {
        e.span == added.span
            && e.seq < added.seq
            && matches!(&e.payload, Payload::Decision { chosen, .. } if chosen == feature)
    });
    // The feedback item that the episode was processing at that point.
    let trigger_seq = decision.map_or(added.seq, |d| d.seq);
    let trigger = events.iter().rev().find(|e| {
        e.span == added.span && e.seq < trigger_seq && matches!(e.payload, Payload::Feedback { .. })
    });
    // What happened to the link afterwards.
    let later: Vec<&Event> = events
        .iter()
        .filter(|e| {
            e.seq > added.seq
                && match &e.payload {
                    Payload::Feedback { link: l, .. } | Payload::LinkRemoved { link: l, .. } => {
                        l == link
                    }
                    _ => false,
                }
        })
        .collect();

    let mut out = String::new();
    out.push_str(&format!(
        "causal chain for link\n  {}\n\n",
        pretty_link(link)
    ));

    match trigger {
        Some(e) => {
            let Payload::Feedback { link, positive } = &e.payload else {
                unreachable!()
            };
            out.push_str(&format!(
                "[seq {:>5}] feedback: {} on\n             {}\n",
                e.seq,
                if *positive { "APPROVE" } else { "REJECT" },
                pretty_link(link)
            ));
        }
        None => out.push_str("[no feedback event recorded before the decision]\n"),
    }

    match decision {
        Some(e) => {
            let Payload::Decision {
                state,
                epsilon: eps,
                explored,
                chosen,
                greedy,
                q,
                q_defined,
                observations,
                actions,
                space,
            } = &e.payload
            else {
                unreachable!()
            };
            out.push_str(&format!(
                "[seq {:>5}] ε-greedy decision (ε={eps}) in state\n             {}\n",
                e.seq,
                pretty_link(state)
            ));
            let q_str = if *q_defined {
                format!("Q={q:.4} from {observations} observation(s)")
            } else {
                "Q undefined (never tried)".to_string()
            };
            if *explored {
                out.push_str(&format!(
                    "             EXPLORED uniformly over {actions} action(s): chose feature\n\
                     \x20            {}\n             ({q_str}; exploration space {space})\n",
                    pretty_link(chosen)
                ));
                if !greedy.is_empty() {
                    out.push_str(&format!(
                        "             greedy would have picked\n             {}\n",
                        pretty_link(greedy)
                    ));
                }
            } else if greedy.is_empty() {
                out.push_str(&format!(
                    "             no Q estimate yet in this state — picked uniformly over \
                     {actions} action(s):\n\
                     \x20            {}\n             ({q_str}; exploration space {space})\n",
                    pretty_link(chosen)
                ));
            } else {
                out.push_str(&format!(
                    "             EXPLOITED the greedy action over {actions} action(s):\n\
                     \x20            {}\n             ({q_str}; exploration space {space})\n",
                    pretty_link(chosen)
                ));
            }
        }
        None => out.push_str(&format!(
            "[no decision event recorded for feature {}]\n",
            pretty_link(feature)
        )),
    }

    out.push_str(&format!(
        "[seq {:>5}] explored feature\n             {}\n\
         \x20            surfaced candidate pair (accepted, score {score:.4}) from state\n\
         \x20            {}\n             + {}\n",
        added.seq,
        pretty_link(feature),
        pretty_link(state),
        pretty_link(link)
    ));

    if later.is_empty() {
        out.push_str("             no later feedback or removal — the link survived the run\n");
    }
    for e in later {
        match &e.payload {
            Payload::Feedback { positive, .. } => out.push_str(&format!(
                "[seq {:>5}] later feedback on this link: {}\n",
                e.seq,
                if *positive { "APPROVE" } else { "REJECT" }
            )),
            Payload::LinkRemoved { reason, .. } => {
                out.push_str(&format!("[seq {:>5}] link removed ({reason})\n", e.seq))
            }
            _ => unreachable!(),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, span: u64, payload: Payload) -> Event {
        Event {
            seq,
            ts_us: seq,
            trace: 1,
            span,
            parent: 0,
            payload,
        }
    }

    #[test]
    fn explain_replays_the_full_chain() {
        let events = vec![
            ev(
                1,
                7,
                Payload::Feedback {
                    link: "http://l/a\thttp://r/a".into(),
                    positive: true,
                },
            ),
            ev(
                2,
                7,
                Payload::Decision {
                    state: "http://l/a\thttp://r/a".into(),
                    epsilon: 0.1,
                    explored: true,
                    chosen: "http://l/name\thttp://r/label".into(),
                    greedy: "http://l/birth\thttp://r/born".into(),
                    q: 0.42,
                    q_defined: true,
                    observations: 3,
                    actions: 5,
                    space: 100,
                },
            ),
            ev(
                3,
                7,
                Payload::LinkAdded {
                    link: "http://l/b\thttp://r/b".into(),
                    state: "http://l/a\thttp://r/a".into(),
                    feature: "http://l/name\thttp://r/label".into(),
                    score: 0.91,
                },
            ),
            ev(
                4,
                9,
                Payload::Feedback {
                    link: "http://l/b\thttp://r/b".into(),
                    positive: false,
                },
            ),
            ev(
                5,
                9,
                Payload::LinkRemoved {
                    link: "http://l/b\thttp://r/b".into(),
                    reason: "rejected".into(),
                },
            ),
        ];
        let text = explain_link(&events, "http://l/b").unwrap();
        // Every stage of the causal chain is present, in order.
        let feedback_at = text.find("feedback: APPROVE").unwrap();
        let decision_at = text.find("ε-greedy decision").unwrap();
        let explored_at = text.find("EXPLORED").unwrap();
        let added_at = text.find("surfaced candidate pair").unwrap();
        let removed_at = text.find("link removed (rejected)").unwrap();
        assert!(feedback_at < decision_at);
        assert!(decision_at < explored_at);
        assert!(explored_at < added_at);
        assert!(added_at < removed_at);
        assert!(text.contains("Q=0.4200 from 3 observation(s)"), "{text}");
        assert!(text.contains("greedy would have picked"), "{text}");
        assert!(text.contains("later feedback on this link: REJECT"));
        // `auto` picks the same (only) link_added event.
        assert_eq!(explain_link(&events, "auto").unwrap(), text);
    }

    #[test]
    fn explain_auto_ignores_partition_interleaving() {
        // Two partitions each approve a link and add one; the second
        // partition also re-adds its link later.
        let added = |span: u64, link: &str| {
            (
                span,
                Payload::LinkAdded {
                    link: link.into(),
                    state: format!("state of span {span}"),
                    feature: "http://l/name\thttp://r/label".into(),
                    score: 0.9,
                },
            )
        };
        let feedback = |span: u64, link: &str| {
            (
                span,
                Payload::Feedback {
                    link: link.into(),
                    positive: true,
                },
            )
        };
        let first = [
            feedback(7, "http://l/x\thttp://r/x"),
            added(7, "http://l/y\thttp://r/y"),
        ];
        let second = [
            feedback(8, "http://l/a\thttp://r/a"),
            added(8, "http://l/b\thttp://r/b"),
            feedback(8, "http://l/b\thttp://r/b"),
            added(8, "http://l/b\thttp://r/b"),
        ];
        let numbered = |order: Vec<(u64, Payload)>| -> Vec<Event> {
            order
                .into_iter()
                .enumerate()
                .map(|(i, (span, p))| ev(i as u64 + 1, span, p))
                .collect()
        };
        let a = numbered(first.iter().chain(&second).cloned().collect());
        let b = numbered(second.iter().chain(&first).cloned().collect());
        // Sequence numbers differ between the runs; the chain must not.
        let without_seq = |text: String| -> String {
            text.lines()
                .map(|l| match l.strip_prefix("[seq") {
                    Some(rest) => rest.split_once(']').map_or(l, |(_, tail)| tail),
                    None => l,
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let ta = explain_link(&a, "auto").unwrap();
        let tb = explain_link(&b, "auto").unwrap();
        assert!(ta.contains("http://l/b  ≡  http://r/b"), "{ta}");
        // The earliest addition: the re-add is "later feedback" territory.
        assert!(
            ta.contains("feedback: APPROVE on\n             http://l/a"),
            "{ta}"
        );
        assert_eq!(without_seq(ta), without_seq(tb));
    }

    #[test]
    fn explain_reports_missing_matches() {
        assert!(explain_link(&[], "auto").is_err());
        let events = vec![ev(
            1,
            7,
            Payload::LinkAdded {
                link: "http://l/b\thttp://r/b".into(),
                state: "s".into(),
                feature: "f".into(),
                score: 0.5,
            },
        )];
        assert!(explain_link(&events, "http://nowhere").is_err());
        assert!(explain_link(&events, "auto").is_ok());
    }
}
