//! Tracing invariance check: the flight recorder must be a pure
//! observer. Runs the same datagen curation scenario twice — tracing off,
//! then with the ring recorder on — and exits non-zero if the final
//! curated link sets differ in any way (membership or quality).
//!
//! ```sh
//! cargo run --release -p alex-bench --bin exp_trace_invariance \
//!     [--scale S] [--seed N] [--episodes N]
//! ```

use std::collections::HashSet;

use alex_bench::runner::Flags;
use alex_core::trace::{self, TraceMode};
use alex_core::{AlexConfig, AlexDriver, ExactOracle, Quality};
use alex_datagen::{degrade, generate, GeneratedPair, PaperPair};
use alex_rdf::Link;
use rand::{rngs::StdRng, SeedableRng};

fn run_once(pair: &GeneratedPair, initial: &[Link], cfg: AlexConfig) -> Vec<Link> {
    let mut driver = AlexDriver::new(&pair.left, &pair.right, initial, cfg).expect("driver builds");
    let oracle = ExactOracle::new(pair.truth.clone());
    let outcome = driver.run(&oracle, &pair.truth);
    let mut links: Vec<Link> = outcome.final_links.into_iter().collect();
    links.sort_unstable();
    links
}

fn main() {
    let flags = Flags::parse(&["--scale", "--seed", "--episodes"]);
    let scale: f64 = flags.get("--scale").unwrap_or(0.1);
    let seed: u64 = flags.get("--seed").unwrap_or(42);
    let episodes: usize = flags.get("--episodes").unwrap_or(8);

    let scenario = PaperPair::DbpediaNytimes;
    let pair = generate(&scenario.spec(scale, seed));
    let (p0, r0) = scenario.initial_quality();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let initial = degrade(&pair.truth, p0, r0, &mut rng);
    let cfg = AlexConfig {
        partitions: 2,
        episode_size: scenario.suggested_episode_size(scale),
        max_episodes: episodes,
        seed,
        ..AlexConfig::default()
    };
    println!(
        "scenario {} at scale {scale}: {} truth links, {} initial candidates, {episodes} episodes",
        pair.name,
        pair.truth.len(),
        initial.len()
    );

    trace::configure(TraceMode::Off).expect("tracing off");
    let links_off = run_once(&pair, &initial, cfg.clone());

    trace::configure(TraceMode::Ring).expect("ring recorder on");
    let span = trace::root_span("invariance.traced_run");
    let links_ring = run_once(&pair, &initial, cfg);
    let recorded = trace::recorder().trace_events(span.trace_id()).len();
    drop(span);
    trace::configure(TraceMode::Off).expect("tracing off again");

    let quality = |links: &[Link]| {
        let set: HashSet<Link> = links.iter().copied().collect();
        Quality::compute(&set, &pair.truth)
    };
    let q_off = quality(&links_off);
    let q_ring = quality(&links_ring);
    println!(
        "tracing off : {} links, P {:.4} R {:.4} F {:.4}",
        links_off.len(),
        q_off.precision,
        q_off.recall,
        q_off.f1
    );
    println!(
        "ring recorder: {} links, P {:.4} R {:.4} F {:.4} ({recorded} events recorded)",
        links_ring.len(),
        q_ring.precision,
        q_ring.recall,
        q_ring.f1
    );

    if recorded == 0 {
        eprintln!("FAIL: the traced run recorded no events — the recorder was not on");
        std::process::exit(1);
    }
    if links_off != links_ring {
        let off: HashSet<Link> = links_off.iter().copied().collect();
        let ring: HashSet<Link> = links_ring.iter().copied().collect();
        eprintln!(
            "FAIL: tracing changed the curated output — {} links only without tracing, \
             {} links only with it",
            off.difference(&ring).count(),
            ring.difference(&off).count()
        );
        std::process::exit(1);
    }
    println!("OK: output is bit-identical with and without tracing");
}
