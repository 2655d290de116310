//! CLI command implementations.

use std::collections::HashSet;
use std::io::Read;

use alex_core::{AlexConfig, AlexDriver, ExactOracle, SessionSnapshot};
use alex_paris::{ParisConfig, ParisLinker};
use alex_query::FederatedEngine;
use alex_rdf::{Interner, Link, Term};

use crate::io::{flag_value, flag_values, load_links, load_store, positionals, save_links};

/// `alex stats <file>` — dataset summary.
pub fn stats(args: &[String]) -> Result<(), String> {
    let pos = positionals(args);
    let [path] = pos.as_slice() else {
        return Err("stats takes exactly one file".into());
    };
    let interner = Interner::new_shared();
    let store = load_store(path, &interner)?;
    let s = store.stats();
    println!("{path}");
    println!("  triples    : {}", s.triples);
    println!("  subjects   : {}", s.subjects);
    println!("  predicates : {}", s.predicates);
    println!("  objects    : {}", s.objects);
    // Top predicates by triple count.
    let mut counts: Vec<(String, usize)> = store
        .predicates()
        .map(|p| {
            let n = store.match_pattern(None, Some(p), None).count();
            (store.iri_str(p).to_string(), n)
        })
        .collect();
    counts.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    println!("  top predicates:");
    for (p, n) in counts.iter().take(8) {
        println!("    {n:>8}  {p}");
    }
    Ok(())
}

/// `alex link <left> <right>` — run PARIS and emit owl:sameAs links.
pub fn link(args: &[String]) -> Result<(), String> {
    let pos = positionals(args);
    let [left_path, right_path] = pos.as_slice() else {
        return Err("link takes exactly two files".into());
    };
    let threshold: f64 = flag_value(args, "--threshold")
        .map(|v| {
            v.parse()
                .map_err(|_| "--threshold must be a number".to_string())
        })
        .transpose()?
        .unwrap_or(0.95);

    let interner = Interner::new_shared();
    let left = load_store(left_path, &interner)?;
    let right = load_store(right_path, &interner)?;
    eprintln!(
        "loaded {left_path} ({} triples) and {right_path} ({} triples)",
        left.len(),
        right.len()
    );

    let out = ParisLinker::new(ParisConfig::default()).run(&left, &right);
    let links = out.above_threshold(threshold);
    eprintln!(
        "PARIS examined {} candidate pairs, kept {} links at threshold {threshold}",
        out.candidates_examined,
        links.len()
    );
    let s = out.stats;
    // The value table has no memo: "hits" are similarity evaluations
    // served from prebuilt forms, "misses" the distinct values built.
    eprintln!(
        "stages: blocking {:.3}s, evidence {:.3}s, equivalence {:.3}s, alignment {:.3}s \
         ({} thread{}); value table: {} similarity evaluations over {} distinct values",
        s.blocking_seconds,
        s.evidence_seconds,
        s.equivalence_seconds,
        s.alignment_seconds,
        s.threads,
        if s.threads == 1 { "" } else { "s" },
        s.cache.hits,
        s.cache.misses,
    );

    match flag_value(args, "--out") {
        Some(path) => {
            let n = save_links(&path, links, &interner)?;
            eprintln!("wrote {n} links to {path}");
        }
        None => {
            for l in links {
                println!(
                    "<{}> <{}> <{}> .",
                    left.iri_str(l.left),
                    alex_rdf::vocab::OWL_SAME_AS,
                    right.iri_str(l.right)
                );
            }
        }
    }
    Ok(())
}

/// `alex query --source f [--source g] [--links l] [--query q]` —
/// federated query whose answers show their link provenance.
pub fn query(args: &[String]) -> Result<(), String> {
    let sources = flag_values(args, "--source");
    if sources.is_empty() {
        return Err("query needs at least one --source".into());
    }

    let interner = Interner::new_shared();
    let stores: Vec<(String, alex_rdf::Store)> = sources
        .iter()
        .map(|p| load_store(p, &interner).map(|s| (p.clone(), s)))
        .collect::<Result<_, _>>()?;

    let query_text = match flag_value(args, "--query") {
        Some(q) => q,
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| e.to_string())?;
            buf
        }
    };
    if query_text.trim().is_empty() {
        return Err("empty query (pass --query or pipe on stdin)".into());
    }

    let mut fed = FederatedEngine::new(stores.iter().map(|(n, s)| (n.clone(), s)).collect());
    if let Some(links_path) = flag_value(args, "--links") {
        let links = load_links(&links_path, &interner)?;
        eprintln!("installed {} owl:sameAs links", links.len());
        fed.add_links(links);
    }

    let answers = fed.execute_str(&query_text).map_err(|e| e.to_string())?;
    eprintln!("{} answer(s)", answers.len());
    for a in answers {
        let rendered: Vec<String> = a
            .row
            .iter()
            .map(|t| match t {
                Some(Term::Iri(id)) => format!("<{}>", interner.resolve(id.0)),
                Some(Term::Literal(l)) => format!("{:?}", l.lexical(&interner)),
                None => "UNBOUND".to_owned(),
            })
            .collect();
        if a.links.is_empty() {
            println!("{}", rendered.join("\t"));
        } else {
            let prov: Vec<String> = a
                .links
                .iter()
                .map(|l| {
                    format!(
                        "{}≡{}",
                        interner.resolve(l.left.0),
                        interner.resolve(l.right.0)
                    )
                })
                .collect();
            println!("{}\t# via {}", rendered.join("\t"), prov.join(", "));
        }
    }
    Ok(())
}

/// `alex compact <dataset> <out.alexdb>` — convert a text RDF file into
/// the checksummed binary snapshot format once, so later loads skip the
/// parser. The written file is read back and fingerprint-verified before
/// the command reports success.
pub fn compact(args: &[String]) -> Result<(), String> {
    use alex_core::store::{read_store_file, store_fingerprint, write_store_file};

    let pos = positionals(args);
    let [input, output] = pos.as_slice() else {
        return Err("compact takes an input dataset and an output file".into());
    };
    if !output.ends_with(".alexdb") {
        return Err(format!(
            "output must end in .alexdb (got {output:?}) — the extension is how loaders \
             recognize the binary format"
        ));
    }

    let interner = Interner::new_shared();
    let parse_span = alex_core::trace::span("cli.compact_parse");
    let store = load_store(input, &interner)?;
    let parse_seconds = parse_span.finish();
    write_store_file(std::path::Path::new(output), &store)
        .map_err(|e| format!("writing {output}: {e}"))?;

    // Trust nothing: read the file back through the decoder and require
    // the exact same content before declaring the conversion good.
    let verify_interner = Interner::new_shared();
    let load_span = alex_core::trace::span("cli.compact_load");
    let back = read_store_file(std::path::Path::new(output), &verify_interner)
        .map_err(|e| format!("verifying {output}: {e}"))?;
    let load_seconds = load_span.finish();
    if store_fingerprint(&store) != store_fingerprint(&back) {
        return Err(format!(
            "verification failed: {output} does not decode to the same store as {input}"
        ));
    }

    let bytes = std::fs::metadata(output).map_err(|e| e.to_string())?.len();
    eprintln!(
        "compacted {input} ({} triples) → {output} ({bytes} bytes)",
        store.len()
    );
    eprintln!(
        "text parse {parse_seconds:.3}s, binary load {load_seconds:.3}s{}",
        if load_seconds > 0.0 && parse_seconds > load_seconds {
            format!(" ({:.1}× faster)", parse_seconds / load_seconds)
        } else {
            String::new()
        }
    );
    Ok(())
}

/// `alex recover --state-dir DIR` — replay every session found in a
/// serve state directory and print a per-session recovery report without
/// starting a server. Useful after a crash to see what a restart would
/// restore (the replay also repairs torn WAL tails in place, exactly as
/// boot recovery does).
pub fn recover(args: &[String]) -> Result<(), String> {
    use alex_core::store::WalOptions;

    let dir = flag_value(args, "--state-dir").ok_or("recover needs --state-dir DIR")?;
    let root = std::path::Path::new(&dir);
    if !root.exists() {
        return Err(format!("state directory {dir} does not exist"));
    }
    let outcome = alex_core::recover_state_dir(root, WalOptions::default(), 0)
        .map_err(|e| format!("scanning {dir}: {e}"))?;

    if outcome.sessions.is_empty() && outcome.failures.is_empty() {
        println!("no sessions found in {dir}");
        return Ok(());
    }
    for recovered in &outcome.sessions {
        let r = &recovered.report;
        println!("session {}", r.id);
        println!("  checkpoint covers WAL seq ≤ {}", r.checkpoint_seq);
        println!(
            "  replayed {} record(s), skipped {} already-checkpointed",
            r.replayed_records, r.skipped_records
        );
        if r.truncated_bytes > 0 || r.dropped_segments > 0 {
            println!(
                "  repaired damage: {} torn byte(s) truncated, {} segment(s) dropped ({})",
                r.truncated_bytes,
                r.dropped_segments,
                r.damage.as_deref().unwrap_or("unspecified")
            );
        }
        println!(
            "  state: {} episode(s), {} feedback item(s), {} candidate link(s)",
            r.episodes, r.feedback_items, r.candidates
        );
        if r.policy_mismatch {
            println!("  WARNING: policy cross-check failed (RNG stream diverged on replay)");
        }
        match &r.space_rebuilt {
            None => println!("  spaces: loaded from the space file"),
            Some(why) => println!("  spaces: rebuilt ({why})"),
        }
    }
    for (id, why) in &outcome.failures {
        println!("session {id}: NOT RECOVERABLE — {why}");
    }
    println!(
        "{} session(s) recoverable, {} not",
        outcome.sessions.len(),
        outcome.failures.len()
    );
    println!("{:<28} {:>6} {:>11}", "stage", "count", "total ms");
    for (stage, h) in alex_core::trace::stages() {
        println!(
            "{stage:<28} {:>6} {:>11.1}",
            h.count(),
            h.sum().as_secs_f64() * 1e3
        );
    }
    Ok(())
}

/// `alex serve [--addr A] [--workers N] [--queue-depth N]
/// [--request-timeout SECS] [--state-dir DIR] [--wal] [--fsync POLICY]
/// [--fsync-every-n N] [--compact-after N]` —
/// run the HTTP curation server until SIGINT/SIGTERM, then drain and
/// checkpoint sessions.
pub fn serve(args: &[String]) -> Result<(), String> {
    let parse_usize = |flag: &str, default: usize| -> Result<usize, String> {
        flag_value(args, flag)
            .map(|v| v.parse().map_err(|_| format!("{flag} must be an integer")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let cfg = alex_serve::ServeConfig {
        addr: flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".into()),
        workers: parse_usize("--workers", 4)?,
        queue_depth: parse_usize("--queue-depth", 64)?,
        request_timeout: std::time::Duration::from_secs_f64(
            flag_value(args, "--request-timeout")
                .map(|v| {
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--request-timeout must be a positive number of seconds")
                })
                .transpose()?
                .unwrap_or(10.0),
        ),
        state_dir: flag_value(args, "--state-dir").map(std::path::PathBuf::from),
        durability: {
            let mut d = alex_core::DurabilityConfig {
                wal: args.iter().any(|a| a == "--wal"),
                ..Default::default()
            };
            if let Some(v) = flag_value(args, "--fsync") {
                d.fsync = v;
            }
            if let Some(v) = flag_value(args, "--fsync-every-n") {
                d.fsync_every_n = v
                    .parse()
                    .map_err(|_| "--fsync-every-n must be an integer".to_string())?;
            }
            if let Some(v) = flag_value(args, "--compact-after") {
                d.compact_after_records = v
                    .parse()
                    .map_err(|_| "--compact-after must be an integer".to_string())?;
            }
            d.validate()?;
            if d.wal && flag_value(args, "--state-dir").is_none() {
                return Err("--wal requires --state-dir (the WAL lives there)".into());
            }
            d
        },
    };
    let workers = cfg.workers;
    let queue_depth = cfg.queue_depth;

    // Handlers go in before the listener is announced: once the banner is
    // out a supervisor may signal us at any moment, and an uninstalled
    // handler would mean death by default action instead of a drain.
    install_signal_handlers();
    let server = alex_serve::Server::start(cfg).map_err(|e| format!("binding server: {e}"))?;
    // Printed on stdout and flushed so wrappers (and the e2e tests) can
    // discover the port when started with --addr 127.0.0.1:0.
    println!("alex-serve listening on http://{}", server.local_addr());
    println!("workers {workers}, queue depth {queue_depth}; Ctrl-C to drain and exit");
    std::io::Write::flush(&mut std::io::stdout()).ok();

    while !SHUTDOWN_REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    alex_core::trace::diag("info", "shutting down: draining in-flight requests");
    for outcome in server.shutdown() {
        match outcome {
            Ok(path) => alex_core::trace::diag(
                "info",
                &format!("saved session checkpoint {}", path.display()),
            ),
            Err(e) => alex_core::trace::diag("error", &format!("checkpoint error: {e}")),
        }
    }
    Ok(())
}

/// Set by the signal handler; polled by the serve loop.
static SHUTDOWN_REQUESTED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

extern "C" fn request_shutdown(_signum: i32) {
    // Only async-signal-safe work here: set the flag and return.
    SHUTDOWN_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers through the C `signal` entry point —
/// the build is offline, so no `libc`/`signal-hook` crates; the two
/// constants are stable POSIX numbers on Linux.
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGINT, request_shutdown);
        signal(SIGTERM, request_shutdown);
    }
}

/// `alex curate <left> <right> --links f --truth g` — run the feedback loop
/// against a ground-truth oracle.
pub fn curate(args: &[String]) -> Result<(), String> {
    let pos = positionals(args);
    let [left_path, right_path] = pos.as_slice() else {
        return Err("curate takes exactly two dataset files".into());
    };
    let truth_path =
        flag_value(args, "--truth").ok_or("curate needs --truth (ground-truth links)")?;

    let interner = Interner::new_shared();
    let left = load_store(left_path, &interner)?;
    let right = load_store(right_path, &interner)?;
    let truth: HashSet<Link> = load_links(&truth_path, &interner)?.into_iter().collect();

    let mut cfg = AlexConfig {
        episode_size: flag_value(args, "--episode-size")
            .map(|v| {
                v.parse()
                    .map_err(|_| "--episode-size must be an integer".to_string())
            })
            .transpose()?
            .unwrap_or_else(|| (truth.len() / 4).max(10)),
        partitions: flag_value(args, "--partitions")
            .map(|v| {
                v.parse()
                    .map_err(|_| "--partitions must be an integer".to_string())
            })
            .transpose()?
            .unwrap_or(8),
        ..Default::default()
    };
    if let Some(n) = flag_value(args, "--episodes") {
        cfg.max_episodes = n
            .parse()
            .map_err(|_| "--episodes must be an integer".to_string())?;
    }

    // Resume from a session snapshot, or start from --links.
    let session_path = flag_value(args, "--session");
    let mut driver = match &session_path {
        Some(p) if std::path::Path::new(p).exists() => {
            let text = std::fs::read_to_string(p).map_err(|e| e.to_string())?;
            let snap = SessionSnapshot::from_json(&text).map_err(|e| e.to_string())?;
            eprintln!(
                "resuming session {p}: {} candidates, {} blacklisted",
                snap.candidates.len(),
                snap.blacklist.len()
            );
            snap.restore(&left, &right).map_err(|e| e.to_string())?
        }
        _ => {
            let links_path =
                flag_value(args, "--links").ok_or("curate needs --links (initial links)")?;
            let initial = load_links(&links_path, &interner)?;
            eprintln!("starting from {} initial links", initial.len());
            AlexDriver::new(&left, &right, &initial, cfg)?
        }
    };

    let b = driver.build_stats();
    eprintln!(
        "built exploration spaces: {} pairs in {:.3}s ({} thread{}); \
         value table: {} similarity evaluations over {} distinct values",
        b.pairs,
        b.seconds,
        b.threads,
        if b.threads == 1 { "" } else { "s" },
        b.cache.hits,
        b.cache.misses,
    );

    let oracle = ExactOracle::new(truth.clone());
    let outcome = driver.run(&oracle, &truth);
    for r in &outcome.reports {
        eprintln!(
            "episode {:>3}: P {:.3} R {:.3} F {:.3} ({} links)",
            r.episode, r.quality.precision, r.quality.recall, r.quality.f1, r.candidates
        );
    }
    eprintln!(
        "convergence: strict {:?}, relaxed {:?}",
        outcome.strict_convergence, outcome.relaxed_convergence
    );

    if let Some(p) = &session_path {
        let snap = SessionSnapshot::capture(&driver, &left, &right);
        std::fs::write(p, snap.to_json()).map_err(|e| e.to_string())?;
        eprintln!("saved session to {p}");
    }
    if let Some(out_path) = flag_value(args, "--out") {
        let n = save_links(&out_path, outcome.final_links.iter().copied(), &interner)?;
        eprintln!("wrote {n} curated links to {out_path}");
    }
    Ok(())
}
