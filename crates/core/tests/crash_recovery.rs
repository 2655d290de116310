//! Crash-injection harness: kill the WAL at a random byte offset and
//! prove recovery lands on an exact prefix of the acknowledged history.
//!
//! The harness scripts a deterministic curation session — feedback
//! episodes — through the session's own write path (the one the server uses: log, then apply) and captures
//! an oracle state after each acknowledged step. It then replays crashes
//! against copies of the session directory: truncating the log mid-frame
//! (a torn write) or flipping a single byte (media corruption). For every
//! injected fault it asserts:
//!
//! 1. recovery never refuses to start;
//! 2. the recovered state equals the oracle state after exactly the steps
//!    whose closing record (`EpisodeEnd`) survives on disk —
//!    a *prefix* of the acknowledged history, predicted independently
//!    from the frames' byte offsets;
//! 3. re-applying the remaining script to the recovered session produces
//!    the same final state as the uninterrupted run (continued curation
//!    is indistinguishable from never having crashed).
//!
//! States compare candidates, counters, RNG streams, every engine's
//! state fingerprint and the explanation of every candidate and
//! blacklisted link, and every captured session's query index must hold
//! exactly its candidates, and the learning-health gauges a server
//! reports must equal the counters recomputed from the surviving log
//! alone. Variants of the same trials compact the WAL into a
//! checkpoint at seeded record counts (so recovery restores engine state
//! from a checkpoint, not only from the log), damage the session's space
//! file (so recovery rebuilds the exploration spaces), and recover several
//! sessions at once against one-at-a-time recovery.
//!
//! Fault offsets come from a splitmix64 stream seeded by
//! `ALEX_TEST_SEED` (decimal or `0x`-hex) so a CI failure is replayable
//! bit for bit.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use alex_core::durability::{recover_session, recover_state_dir, session_dir};
use alex_core::space_file::SPACE_FILE;
use alex_core::store::{encode_record, replay_dir, write_frame, SyncPolicy, WalOptions, WalRecord};
use alex_core::{AlexConfig, AlexDriver, LinkExplanation, LiveSession};
use alex_rdf::{Interner, Link, Literal, Store};

/// splitmix64: tiny, seedable, and good enough to pick fault offsets.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn seed_from_env() -> u64 {
    match std::env::var("ALEX_TEST_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("ALEX_TEST_SEED {s:?} is not a u64"))
        }
        Err(_) => 0xA1EC_5EED_0000_0001,
    }
}

/// Mirrors `durability::testutil::world()` — integration tests compile
/// without `cfg(test)`, so the scaffolding is duplicated here.
fn world() -> (Store, Store, Vec<Link>) {
    let interner = Interner::new_shared();
    let mut left = Store::new(interner.clone());
    let mut right = Store::new(interner.clone());
    let name_l = left.intern_iri("l/name");
    let name_r = right.intern_iri("r/label");
    let mut links = Vec::new();
    for i in 0..12 {
        let l = left.intern_iri(&format!("http://l/e{i}"));
        let r = right.intern_iri(&format!("http://r/e{i}"));
        let nm = format!("subject alpha {i}");
        left.insert_literal(l, name_l, Literal::str(&interner, &nm));
        right.insert_literal(r, name_r, Literal::str(&interner, &nm));
        links.push(Link::new(l, r));
    }
    links.sort();
    (left, right, links)
}

fn live_session(seed: u64) -> (LiveSession, Vec<Link>) {
    let (left, right, links, driver) = fresh_driver(seed);
    (LiveSession::new(left, right, driver), links)
}

/// The scripted session's datasets, links and driver before any feedback.
fn fresh_driver(seed: u64) -> (Store, Store, Vec<Link>, AlexDriver) {
    let (left, right, links) = world();
    let initial: Vec<Link> = links.iter().take(3).copied().collect();
    let cfg = AlexConfig {
        episode_size: 5,
        partitions: 2,
        max_episodes: 5,
        epsilon: 0.3,
        // One negative charge rolls a state-action back, so the script
        // exercises the bookkeeping checkpoints must carry.
        rollback_threshold: 1,
        seed,
        ..Default::default()
    };
    let driver = AlexDriver::new(&left, &right, &initial, cfg).unwrap();
    (left, right, links, driver)
}

/// Everything recovery must reproduce, in interner-independent form.
#[derive(Clone, Debug, PartialEq)]
struct OracleState {
    feedback_items: u64,
    episodes: u64,
    explored: u64,
    exploited: u64,
    candidates: BTreeSet<(String, String)>,
    rng: Vec<[u64; 4]>,
    engines: Vec<u64>,
    /// The explanation of every candidate and blacklisted link, by pair.
    explanations: BTreeMap<(String, String), LinkExplanation>,
}

fn capture(session: &LiveSession) -> OracleState {
    let driver = session.driver();
    let pair = |l: Link| {
        (
            session.left.iri_str(l.left).to_string(),
            session.right.iri_str(l.right).to_string(),
        )
    };
    let candidates: BTreeSet<(String, String)> =
        driver.candidate_links().into_iter().map(pair).collect();
    let engine = session.federation();
    let indexed: BTreeSet<(String, String)> = (session.left.subjects())
        .flat_map(|e| engine.federation().peers(e).to_vec())
        .map(pair)
        .collect();
    assert_eq!(
        indexed, candidates,
        "the query index drifted from the candidates"
    );
    OracleState {
        feedback_items: session.feedback_items,
        episodes: session.episodes,
        explored: session.explored,
        exploited: session.exploited,
        candidates,
        rng: driver.engines().iter().map(|e| e.rng_state()).collect(),
        engines: driver
            .engines()
            .iter()
            .map(|e| e.state_fingerprint())
            .collect(),
        explanations: (driver.candidates())
            .chain(
                driver
                    .engines()
                    .iter()
                    .flat_map(|e| e.blacklist().iter().copied()),
            )
            .map(|l| {
                (
                    pair(l),
                    driver.explain(l).expect("every listed link is explained"),
                )
            })
            .collect(),
    }
}

/// One acknowledged mutation of the scripted session: a feedback
/// episode, `(left IRI, right IRI, approve)` per item.
type Step = Vec<(String, String, bool)>;

/// Takes one scripted step through the session's write path.
fn take(session: &mut LiveSession, step: &Step) {
    let batch: Vec<(Link, bool)> = step
        .iter()
        .map(|(l, r, approve)| {
            let link = Link::new(session.left.intern_iri(l), session.right.intern_iri(r));
            (link, *approve)
        })
        .collect();
    session.feedback_episode(&batch).unwrap();
}

/// The scripted history: `passes` rounds of feedback on nine links (every
/// third negative), an episode every three items.
fn build_script(session: &LiveSession, links: &[Link], passes: usize) -> Vec<Step> {
    let fed: Vec<(String, String, bool)> = (links.iter().skip(3).cycle().take(9 * passes))
        .enumerate()
        .map(|(i, link)| {
            (
                session.left.iri_str(link.left).to_string(),
                session.right.iri_str(link.right).to_string(),
                i % 3 != 2,
            )
        })
        .collect();
    fed.chunks(3).map(<[_]>::to_vec).collect()
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// The session's WAL segments in replay order, with their sizes.
fn wal_segments(session_dir: &Path) -> Vec<(PathBuf, u64)> {
    let wal = session_dir.join("wal");
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&wal)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    segs.sort();
    segs.into_iter()
        .map(|p| {
            let len = std::fs::metadata(&p).unwrap().len();
            (p, len)
        })
        .collect()
}

enum Fault {
    /// Cut the concatenated log at this global byte offset (torn write).
    Truncate(u64),
    /// XOR one byte at this global offset (media corruption).
    Flip(u64, u8),
}

/// Injects the fault into the copied session directory's WAL.
fn inject(session_dir: &Path, fault: &Fault) {
    let segs = wal_segments(session_dir);
    let (global, flip) = match fault {
        Fault::Truncate(o) => (*o, None),
        Fault::Flip(o, x) => (*o, Some(*x)),
    };
    let mut remaining = global;
    let mut hit = false;
    for (i, (path, len)) in segs.iter().enumerate() {
        if hit {
            // Everything after a truncation point is gone.
            if flip.is_none() {
                std::fs::remove_file(path).unwrap();
            }
            continue;
        }
        if remaining < *len {
            match flip {
                Some(x) => {
                    let mut bytes = std::fs::read(path).unwrap();
                    bytes[remaining as usize] ^= x;
                    std::fs::write(path, bytes).unwrap();
                }
                None => {
                    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
                    f.set_len(remaining).unwrap();
                    let _ = i; // later segments removed above
                }
            }
            hit = true;
        } else {
            remaining -= *len;
        }
    }
    assert!(hit, "fault offset {global} beyond the log");
}

/// Damage to the session's space file; recovery must rebuild the spaces
/// and land exactly where it would have with the file intact.
#[derive(Clone, Copy, Debug)]
enum SpaceFault {
    Delete,
    Truncate(u64),
    Flip(u64, u8),
}

fn damage_space_file(session_dir: &Path, fault: SpaceFault) {
    let path = session_dir.join(SPACE_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    match fault {
        SpaceFault::Delete => return std::fs::remove_file(&path).unwrap(),
        SpaceFault::Truncate(at) => bytes.truncate((at % bytes.len() as u64) as usize),
        SpaceFault::Flip(at, x) => {
            let i = (at % bytes.len() as u64) as usize;
            bytes[i] ^= x;
        }
    }
    std::fs::write(&path, bytes).unwrap();
}

/// Tiny segments force rotation, so faults land in every segment of a
/// multi-segment log, not just the last one.
const OPTS: WalOptions = WalOptions {
    sync: SyncPolicy::Always,
    segment_bytes: 160,
};

/// An uninterrupted scripted run and what crash trials predict from it.
struct Run {
    root: PathBuf,
    script: Vec<Step>,
    /// `oracle[n]`: the state after the first `n` acked steps.
    oracle: Vec<OracleState>,
    /// Steps the last checkpoint covers.
    checkpointed: usize,
    /// Per record after the last checkpoint: the byte offset of the final
    /// log just past it, and whether it closes a step.
    acked_end: Vec<(u64, bool)>,
}

fn uninterrupted_run(root: PathBuf, seed: u64, passes: usize, compact_after: u64) -> Run {
    let (mut session, links) = live_session(seed);
    let script = build_script(&session, &links, passes);
    session
        .make_durable(&root, "s1", Some(OPTS), compact_after)
        .unwrap();
    let mut oracle = vec![capture(&session)];
    for step in &script {
        take(&mut session, step);
        oracle.push(capture(&session));
    }
    let last = &oracle.last().unwrap().explanations;
    assert!(
        last.values().any(|x| !x.generated_by.is_empty()),
        "the script never explored a link"
    );
    // The records after the last checkpoint, and where each one's frame
    // ends in the concatenated log.
    let dir = session_dir(&root, "s1");
    let (records, _) = replay_dir(&dir.join("wal")).unwrap();
    let mut end = 0;
    let acked_end: Vec<(u64, bool)> = records
        .iter()
        .map(|r| {
            let mut frame = Vec::new();
            write_frame(&mut frame, &encode_record(r.seq, &r.record));
            end += frame.len() as u64;
            let closes = matches!(r.record, WalRecord::EpisodeEnd { .. });
            (end, closes)
        })
        .collect();
    assert_eq!(
        end,
        wal_segments(&dir).iter().map(|(_, l)| l).sum::<u64>(),
        "the frames account for every byte of the log"
    );
    // Checkpoints fall between steps, so every step after the last one
    // has its closing record in the log.
    let checkpointed = script.len() - acked_end.iter().filter(|(_, closes)| *closes).count();
    Run {
        root,
        script,
        oracle,
        checkpointed,
        acked_end,
    }
}

/// Crash trials against copies of `run`'s state dir: a WAL fault at a
/// seeded offset (truncation on even trials, a byte flip on odd ones),
/// plus, when `space_faults` is set, damage to the space file. Each trial
/// checks the recovered prefix and continued curation.
fn crash_trials(
    run: &Run,
    base: &Path,
    rng: &mut SplitMix64,
    trials: u64,
    space_faults: bool,
    compact_after: u64,
) {
    let seed = seed_from_env();
    let final_state = run.oracle.last().unwrap().clone();
    // Every run leaves its last episode in the log (see the compaction
    // thresholds), so faults always have a log to hit.
    let total_bytes = run.acked_end.last().unwrap().0;
    for trial in 0..trials {
        let offset = rng.next() % total_bytes;
        let fault = if trial % 2 == 0 {
            Fault::Truncate(offset)
        } else {
            Fault::Flip(offset, (rng.next() % 255) as u8 + 1)
        };
        let space_fault = match trial % 4 {
            _ if !space_faults => None,
            0 => None,
            1 => Some(SpaceFault::Delete),
            2 => Some(SpaceFault::Truncate(rng.next())),
            _ => Some(SpaceFault::Flip(rng.next(), (rng.next() % 255) as u8 + 1)),
        };
        let root = base.join(format!("trial-{trial}"));
        copy_dir(&run.root, &root);
        inject(&root.join("session-s1"), &fault);
        if let Some(f) = space_fault {
            damage_space_file(&root.join("session-s1"), f);
        }

        // A fault at `offset` destroys the record containing that byte
        // and everything after it; records fully before it survive, a
        // step counts once its closing record does, and the checkpoint
        // covers the rest.
        let survivors = run.acked_end.iter().filter(|(end, _)| *end <= offset);
        let replayed = survivors.clone().count();
        let expected_n = run.checkpointed + survivors.filter(|(_, closes)| *closes).count();
        let what = format!(
            "seed {seed:#x} trial {trial} ({} at {offset}, space {space_fault:?})",
            if trial % 2 == 0 { "truncate" } else { "flip" }
        );

        let outcome = recover_state_dir(&root, OPTS, compact_after).unwrap();
        assert!(
            outcome.failures.is_empty(),
            "{what}: recovery refused: {:?}",
            outcome.failures
        );
        assert_eq!(outcome.sessions.len(), 1);
        let mut recovered = outcome.sessions.into_iter().next().unwrap();
        assert_eq!(
            recovered.report.replayed_records as usize, replayed,
            "{what}: wrong prefix length"
        );
        assert_eq!(
            recovered.report.space_rebuilt.is_some(),
            space_fault.is_some(),
            "{what}: spaces loaded or rebuilt against expectation: {:?}",
            recovered.report.space_rebuilt
        );
        assert!(!recovered.report.policy_mismatch);
        assert_eq!(
            capture(&recovered.session),
            run.oracle[expected_n],
            "{what}: recovered state is not the state after {expected_n} acked steps"
        );

        // Continued curation: the lost suffix re-applied to the
        // recovered session must land exactly where the uninterrupted
        // run did — and the reopened log must accept new records.
        for step in &run.script[expected_n..] {
            take(&mut recovered.session, step);
        }
        assert_eq!(
            capture(&recovered.session),
            final_state,
            "{what}: continued curation diverged"
        );
        // And so does a second recovery of the continued session.
        drop(recovered);
        let again = recover_state_dir(&root, OPTS, compact_after).unwrap();
        assert_eq!(
            capture(&again.sessions[0].session),
            final_state,
            "{what}: recovery after continued curation diverged"
        );
    }
}

fn scratch_base(tag: &str) -> PathBuf {
    let base =
        std::env::temp_dir().join(format!("alex-crash-harness-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    base
}

#[test]
fn recovery_is_an_exact_prefix_of_acknowledged_history() {
    let mut rng = SplitMix64(seed_from_env());
    let base = scratch_base("prefix");
    let run = uninterrupted_run(base.join("full"), 7, 1, 0);
    assert!(
        wal_segments(&run.root.join("session-s1")).len() >= 2,
        "script too small to rotate segments"
    );
    crash_trials(&run, &base, &mut rng, 16, true, 0);
    let _ = std::fs::remove_dir_all(&base);
}

/// The WAL compacts into a checkpoint at seeded record counts, so
/// recovery restores the engines from a checkpoint and replays only the
/// suffix; prefix and continued curation must still be exact.
#[test]
fn compaction_at_seeded_record_counts_recovers_exactly() {
    let mut rng = SplitMix64(seed_from_env() ^ 0xC0_4AC7);
    let base = scratch_base("compact");
    for k in 0..4 {
        // An episode writes six records (three feedback items, its end
        // and two policy cross-checks); compacting after 7–12 records
        // folds every second episode into a checkpoint, so the ninth and
        // last one stays in the log.
        let compact_after = 7 + rng.next() % 6;
        let run = uninterrupted_run(base.join(format!("full-{k}")), 7 + k, 3, compact_after);
        assert!(
            run.checkpointed > 0,
            "threshold {compact_after} never compacted"
        );
        crash_trials(
            &run,
            &base.join(format!("trials-{k}")),
            &mut rng,
            6,
            false,
            compact_after,
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Concurrent recovery of several sessions returns the same reports and
/// engine states, in the same order, as recovering them one at a time.
#[test]
fn concurrent_recovery_matches_one_at_a_time() {
    let base = scratch_base("multi");
    let root = base.join("state");
    for (i, id) in ["a1", "b2", "c3", "d4"].iter().enumerate() {
        let (mut session, links) = live_session(11 + i as u64);
        let script = build_script(&session, &links, 1 + i % 2);
        session.make_durable(&root, id, Some(OPTS), 0).unwrap();
        for step in &script[..script.len() - i] {
            take(&mut session, step);
        }
    }
    let concurrent = recover_state_dir(&root, OPTS, 0).unwrap();
    assert!(concurrent.failures.is_empty(), "{:?}", concurrent.failures);
    let ids: Vec<&str> = concurrent.sessions.iter().map(|s| s.id.as_str()).collect();
    assert_eq!(ids, ["a1", "b2", "c3", "d4"]);
    for recovered in &concurrent.sessions {
        let serial = recover_session(&root, &recovered.id, OPTS, 0).unwrap();
        assert_eq!(recovered.report, serial.report);
        assert_eq!(capture(&recovered.session), capture(&serial.session));
        assert!(recovered.report.space_rebuilt.is_none());
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// The learning-health gauges `/metrics` reports for a session, read as
/// the server reads them: explore and exploit choices, rollbacks (the
/// banned pairs), Q-table entries and blacklisted links.
fn gauges(session: &LiveSession) -> [u64; 5] {
    let health = session.driver().diagnostics();
    [
        session.explored,
        session.exploited,
        health.banned_actions as u64,
        health.q_entries as u64,
        health.blacklisted as u64,
    ]
}

/// The same five numbers recomputed from log records alone: a fresh
/// driver takes each logged episode's feedback, and the choice and
/// rollback counts are the sums of the episodes' own counters.
fn recomputed(records: &[WalRecord], seed: u64) -> [u64; 5] {
    let (left, right, _, mut driver) = fresh_driver(seed);
    let (mut pending, mut explored, mut exploited, mut rollbacks) = (Vec::new(), 0, 0, 0);
    for record in records {
        match record {
            WalRecord::Feedback {
                left: l,
                right: r,
                positive,
            } => {
                let link = Link::new(left.intern_iri(l), right.intern_iri(r));
                pending.push((link, *positive));
            }
            WalRecord::EpisodeEnd { .. } => {
                for (link, positive) in pending.drain(..) {
                    driver.process_feedback(link, positive);
                }
                let stats = driver.end_episode();
                explored += stats.explored as u64;
                exploited += stats.exploited as u64;
                rollbacks += stats.rollbacks as u64;
            }
            _ => {}
        }
    }
    let health = driver.diagnostics();
    [
        explored,
        exploited,
        rollbacks,
        health.q_entries as u64,
        health.blacklisted as u64,
    ]
}

/// After a WAL fault at a seeded offset, the recovered session's gauges
/// equal the counters recomputed from the records that survived it, and
/// the uninterrupted session's equal those of its whole log.
#[test]
fn learning_gauges_equal_counters_recomputed_from_the_wal() {
    let mut rng = SplitMix64(seed_from_env() ^ 0x6A_0635);
    let base = scratch_base("gauges");
    let (mut session, links) = live_session(7);
    let script = build_script(&session, &links, 3);
    let root = base.join("full");
    session.make_durable(&root, "s1", Some(OPTS), 0).unwrap();
    for step in &script {
        take(&mut session, step);
    }
    let wal = |root: &Path| session_dir(root, "s1").join("wal");
    let (records, _) = replay_dir(&wal(&root)).unwrap();
    let records: Vec<WalRecord> = records.into_iter().map(|r| r.record).collect();
    let full = gauges(&session);
    assert_eq!(full, recomputed(&records, 7));
    assert!(
        full[0] > 0 && full[1] > 0 && full[2] > 0,
        "the script explored, exploited and rolled back: {full:?}"
    );
    drop(session);

    let total_bytes: u64 = wal_segments(&session_dir(&root, "s1"))
        .iter()
        .map(|(_, len)| len)
        .sum();
    for trial in 0..8u64 {
        let offset = rng.next() % total_bytes;
        let fault = if trial % 2 == 0 {
            Fault::Truncate(offset)
        } else {
            Fault::Flip(offset, (rng.next() % 255) as u8 + 1)
        };
        let trial_root = base.join(format!("trial-{trial}"));
        copy_dir(&root, &trial_root);
        inject(&session_dir(&trial_root, "s1"), &fault);
        let (survivors, _) = replay_dir(&wal(&trial_root)).unwrap();
        let survivors: Vec<WalRecord> = survivors.into_iter().map(|r| r.record).collect();
        let outcome = recover_state_dir(&trial_root, OPTS, 0).unwrap();
        assert_eq!(
            gauges(&outcome.sessions[0].session),
            recomputed(&survivors, 7),
            "seed {:#x} trial {trial} (fault at {offset})",
            seed_from_env()
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
