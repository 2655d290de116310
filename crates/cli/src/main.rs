//! `alex` — command-line link curation.
//!
//! ```text
//! alex stats  <data.nt|ttl>
//! alex link   <left> <right> [--threshold T] [--out links.nt]
//! alex query  --source <file>... [--links links.nt] <<< "SELECT ..."
//! alex curate <left> <right> --links <links.nt> --truth <truth.nt>
//!             [--episodes N] [--episode-size K] [--session file.json]
//! ```
//!
//! `curate` simulates the paper's feedback loop against a ground-truth
//! file (as the paper's own experiments do); a real deployment would wire
//! [`alex_core::PartitionEngine::process_feedback`] to actual users via
//! the federated query provenance (see `examples/federated_feedback.rs`).

mod commands;
mod io;
mod trace_cmd;

use std::process::ExitCode;

fn usage() -> &'static str {
    "alex — Automatic Link Exploration in Linked Data (SIGMOD 2015 reproduction)

USAGE:
    alex stats  <FILE>
    alex link   <LEFT> <RIGHT> [--threshold T] [--out FILE]
    alex query  --source FILE [--source FILE ...] [--links FILE] [--query Q]
    alex curate <LEFT> <RIGHT> --links FILE --truth FILE
                [--episodes N] [--episode-size K] [--partitions P]
                [--session FILE] [--out FILE]
    alex serve  [--addr HOST:PORT] [--workers N] [--queue-depth N]
                [--request-timeout SECS] [--state-dir DIR]
                [--wal] [--fsync always|every_n|os] [--fsync-every-n N]
                [--compact-after N]
    alex compact <DATASET> <OUT.alexdb>
    alex recover --state-dir DIR
    alex trace  --input events.jsonl
    alex trace  --explain <link-substring|auto> [--scale S] [--seed N]
                [--episodes N]

FILES:    .nt (N-Triples), .ttl (Turtle), or .alexdb (binary snapshot,
          written by `alex compact`), by extension.
TRACING:  every command honors ALEX_TRACE=off|ring|jsonl:<path>; the
          ring keeps the most recent 16,384 events.

COMMANDS:
    stats    Print triple/entity/predicate counts for one dataset.
    link     Run the PARIS automatic linker over two datasets and emit
             owl:sameAs links (default threshold 0.95).
    query    Run a federated SPARQL query over one or more datasets,
             optionally joined through owl:sameAs links; reads the query
             from --query or stdin. Answers show their link provenance.
    curate   Run ALEX against a ground-truth oracle, starting from --links,
             and write the curated links. --session saves a resumable
             snapshot (and resumes from it if the file exists).
    serve    Run the interactive curation HTTP server (sessions, federated
             queries with provenance, answer feedback, link explanations,
             /metrics, and —
             when ALEX_TRACE is on — /debug/trace/{request_id} and
             /debug/events). With --state-dir, every session lives in a
             session-<id>/ directory there: Ctrl-C drains in-flight
             requests and checkpoints each one, and the next start on
             the same directory restores them all.
             --wal turns on per-session write-ahead logging: every
             mutation is logged (and fsynced per --fsync) before it is
             acknowledged, sessions are checkpointed every
             --compact-after records, and a restart replays the WALs so
             no acknowledged feedback is ever lost — even after SIGKILL.
    compact  Convert a text RDF dataset to the checksummed binary
             .alexdb snapshot once; later loads of the .alexdb skip the
             text parser entirely. Verifies the round trip before
             reporting success.
    recover  Restore the sessions in a serve --state-dir and
             print what a restart would restore (repairing torn WAL
             tails and rewriting unusable space files in place),
             without starting a server.
    trace    Pretty-print a JSONL event log as a span tree (--input), or
             run a generated scenario and explain one link of the result
             (--explain <link|auto>) as the JSON GET
             /sessions/{id}/explain serves: candidacy, blacklist and
             negatives, and each state-action pair that generated it with
             the feature's scores and the pair's Q estimate."
}

fn main() -> ExitCode {
    // Honor ALEX_TRACE before any command runs, so every code path's
    // spans and events land in the configured sink.
    alex_core::trace::configure_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    // Each command with the flags it accepts: those taking a value, then
    // the switches.
    type Command = fn(&[String]) -> Result<(), String>;
    let (run, values, switches): (Command, &[&str], &[&str]) = match command.as_str() {
        "stats" => (commands::stats, &[], &[]),
        "link" => (commands::link, &["--threshold", "--out"], &[]),
        "query" => (commands::query, &["--source", "--links", "--query"], &[]),
        "curate" => (
            commands::curate,
            &[
                "--links",
                "--truth",
                "--episodes",
                "--episode-size",
                "--partitions",
                "--session",
                "--out",
            ],
            &[],
        ),
        "serve" => (
            commands::serve,
            &[
                "--addr",
                "--workers",
                "--queue-depth",
                "--request-timeout",
                "--state-dir",
                "--fsync",
                "--fsync-every-n",
                "--compact-after",
            ],
            &["--wal"],
        ),
        "compact" => (commands::compact, &[], &[]),
        "recover" => (commands::recover, &["--state-dir"], &[]),
        "trace" => (
            trace_cmd::run,
            &["--input", "--explain", "--scale", "--seed", "--episodes"],
            &[],
        ),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: unknown command '{other}'\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = io::check_flags(command, rest, values, switches).and_then(|()| run(rest));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
