//! Durable sessions: the write-ahead log glued to the curation driver.
//!
//! The `alex-store` crate moves bytes (frames, segments, snapshots); this
//! module gives those bytes meaning. A [`DurableSession`] owns one
//! session's on-disk state:
//!
//! ```text
//! <state_dir>/session-<id>/
//!     left.alexdb       binary snapshot of the left dataset (write-once)
//!     right.alexdb      binary snapshot of the right dataset (write-once)
//!     spaces.alexspace  every partition's exploration space (write-once)
//!     checkpoint.json   v4 SessionSnapshot + the WAL sequence it covers
//!     wal/seg-*.wal     records appended since that checkpoint
//! ```
//!
//! **Boot cost.** Recovery loads the partition spaces from
//! `spaces.alexspace` ([`crate::space_file`]) instead of rescoring every
//! pair; a missing, damaged or stale file is diagnosed and the spaces are
//! rebuilt, and nothing is written back. Sessions recover concurrently on
//! a [`crate::parallel::Executor`] (`ALEX_THREADS=1` recovers them one
//! after another) and come back in session-id order.
//!
//! **The recovery invariant.** A mutation is acknowledged only after its
//! WAL record is on disk (per the configured [`SyncPolicy`]). Recovery
//! restores the checkpoint, then replays WAL records `> applied_wal_seq`
//! through the *same deterministic driver code* that handled them live.
//! Because replay stops at the first torn or out-of-sequence frame, the
//! recovered state is always the state the session had after some prefix
//! of its acknowledged mutations — never a corrupted or reordered one.
//!
//! **Compaction.** When enough records accumulate, the live state is
//! serialized into a fresh `checkpoint.json` (written atomically:
//! `*.tmp` + rename), the WAL's dead segments are deleted, and sequence
//! numbers keep counting — so `applied_wal_seq` pairs any checkpoint with
//! the exact WAL suffix it needs.
//!
//! Feedback records are the authoritative replay input; [`WalRecord::LinkAdded`] /
//! [`WalRecord::LinkRemoved`] are an audit trail (implied by determinism), and
//! [`WalRecord::PolicyDelta`] is an integrity cross-check: after replaying an
//! episode, the engine's RNG stream must sit exactly where the live
//! session's did. A mismatch is reported (and diagnosed via
//! [`trace::diag`]) but does not abort recovery.

use std::path::{Path, PathBuf};
use std::time::Instant;

use alex_rdf::{Interner, Link};
use alex_store::{
    read_store_file, write_store_file, AppendOutcome, SyncPolicy, Wal, WalOptions, WalRecord,
    WalStats,
};
use alex_trace::{self as trace, Payload};

use crate::parallel::Executor;
use crate::session::{LiveSession, SessionSnapshot};
use crate::space_file::{read_space_file, write_space_file, SPACE_FILE};

/// Checks a session id is safe to embed in a filesystem path. Ids come
/// from HTTP clients, so this is a security boundary: anything that could
/// traverse out of the state directory (separators, `..`, empty or
/// non-portable characters) is rejected.
pub fn validate_session_id(id: &str) -> Result<(), String> {
    if id.is_empty() {
        return Err("session id must not be empty".into());
    }
    if id.len() > 64 {
        return Err(format!("session id too long ({} > 64 chars)", id.len()));
    }
    if id == "." || id == ".." {
        return Err(format!("session id {id:?} is a path component"));
    }
    if let Some(bad) = id
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.')))
    {
        return Err(format!(
            "session id {id:?} contains forbidden character {bad:?}"
        ));
    }
    Ok(())
}

/// The directory holding one session's durable state.
pub fn session_dir(root: &Path, id: &str) -> PathBuf {
    root.join(format!("session-{id}"))
}

fn wal_dir(dir: &Path) -> PathBuf {
    dir.join("wal")
}

/// Writes `bytes` to `path` atomically: a `*.tmp` sibling is written,
/// fsynced, and renamed over the target, so a crash leaves either the old
/// file or the new one — never a torn mix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// One session's durable storage: dataset snapshots, checkpoint, WAL.
pub struct DurableSession {
    id: String,
    dir: PathBuf,
    wal: Wal,
    records_since_checkpoint: u64,
    compact_after: u64,
}

impl DurableSession {
    /// Creates the on-disk layout for a new session: the directory, the
    /// two dataset snapshots, the space file, and an empty WAL. The caller
    /// must follow up with [`DurableSession::checkpoint`] before
    /// acknowledging the session to a client — a directory without a
    /// checkpoint is treated as an aborted creation by recovery.
    pub fn create(
        root: &Path,
        id: &str,
        session: &LiveSession,
        opts: WalOptions,
        compact_after: u64,
    ) -> Result<Self, String> {
        validate_session_id(id)?;
        let dir = session_dir(root, id);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        write_store_file(&dir.join("left.alexdb"), &session.left)
            .map_err(|e| format!("writing left dataset snapshot: {e}"))?;
        write_store_file(&dir.join("right.alexdb"), &session.right)
            .map_err(|e| format!("writing right dataset snapshot: {e}"))?;
        write_space_file(
            &dir.join(SPACE_FILE),
            &session.left,
            &session.right,
            session.driver.config(),
            session.driver.engines().iter().map(|e| e.space()),
        )
        .map_err(|e| format!("writing the space file: {e}"))?;
        let (wal, _, _) = Wal::open(&wal_dir(&dir), opts)
            .map_err(|e| format!("opening WAL for session {id}: {e}"))?;
        Ok(Self {
            id: id.to_string(),
            dir,
            wal,
            records_since_checkpoint: 0,
            compact_after,
        })
    }

    /// The session id this storage belongs to.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The session's on-disk directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next logged record will get.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// WAL counters since this handle was opened.
    pub fn stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Appends a batch of records (group commit: one fsync decision for
    /// the whole batch) and emits the matching trace events. On `Ok` the
    /// records are logged; only then may the mutation be acknowledged.
    pub fn log(&mut self, records: &[WalRecord]) -> std::io::Result<AppendOutcome> {
        let out = self.wal.append_batch(records)?;
        self.records_since_checkpoint += records.len() as u64;
        trace::emit(|| Payload::WalAppend {
            session: self.id.clone(),
            kind: records[0].kind_str().to_string(),
            seq: out.last_seq,
            bytes: out.bytes,
        });
        if let Some(segment) = out.rotated_to {
            trace::emit(|| Payload::WalRotate {
                session: self.id.clone(),
                segment,
            });
        }
        Ok(out)
    }

    /// Forces logged records to stable storage regardless of the policy.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.wal.sync()
    }

    /// Whether enough records accumulated since the last checkpoint that
    /// the caller should fold them into a fresh one.
    pub fn should_compact(&self) -> bool {
        self.compact_after > 0 && self.records_since_checkpoint >= self.compact_after
    }

    /// Durably writes `snapshot` as the session's checkpoint, stamps it
    /// with the WAL high-water mark, then deletes the WAL segments it
    /// covers. Crash-ordering: the checkpoint reaches disk (atomic
    /// rename) *before* any log data is destroyed, so every point in
    /// time has a complete (checkpoint, WAL-suffix) pair on disk.
    pub fn checkpoint(&mut self, snapshot: &mut SessionSnapshot) -> std::io::Result<()> {
        snapshot.applied_wal_seq = self.wal.next_seq() - 1;
        write_atomic(
            &self.dir.join("checkpoint.json"),
            snapshot.to_json().as_bytes(),
        )?;
        let removed = self.wal.truncate_after_checkpoint()?;
        self.records_since_checkpoint = 0;
        trace::emit(|| Payload::WalCompact {
            session: self.id.clone(),
            up_to_seq: snapshot.applied_wal_seq,
            segments_removed: removed,
        });
        Ok(())
    }
}

/// What recovering one session found, for reports and `/metrics`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionRecoveryReport {
    /// The session id.
    pub id: String,
    /// The WAL sequence the checkpoint covered.
    pub checkpoint_seq: u64,
    /// WAL records replayed on top of the checkpoint.
    pub replayed_records: u64,
    /// WAL records skipped because the checkpoint already covered them
    /// (a crash between checkpoint write and WAL truncation).
    pub skipped_records: u64,
    /// Torn-tail bytes truncated from the log.
    pub truncated_bytes: u64,
    /// Whole segments dropped after mid-log corruption.
    pub dropped_segments: u64,
    /// Why WAL scanning stopped early, if it did.
    pub damage: Option<String>,
    /// Episodes the recovered session has completed.
    pub episodes: u64,
    /// Feedback items the recovered session has processed.
    pub feedback_items: u64,
    /// Candidate links after recovery.
    pub candidates: u64,
    /// Whether a [`WalRecord::PolicyDelta`] cross-check failed (the
    /// replayed RNG stream diverged from the logged one).
    pub policy_mismatch: bool,
    /// Why the partition spaces were rebuilt instead of loaded from the
    /// space file; `None` when they were loaded.
    pub space_rebuilt: Option<String>,
}

/// Where one session's recovery spent its time, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryTimings {
    /// Decoding the dataset snapshots and parsing the checkpoint.
    pub decode_s: f64,
    /// Loading the space file, or rebuilding the spaces when it could
    /// not be used.
    pub space_s: f64,
    /// Restoring the driver from the checkpoint, spaces excluded.
    pub restore_s: f64,
    /// Opening (and repairing) the WAL.
    pub wal_open_s: f64,
    /// Replaying the WAL suffix.
    pub replay_s: f64,
}

/// One successfully recovered session, ready to serve requests.
pub struct RecoveredSession {
    /// The session id (parsed from the directory name).
    pub id: String,
    /// The rebuilt live state.
    pub session: LiveSession,
    /// The reopened durable storage, positioned to keep logging.
    pub durable: DurableSession,
    /// What recovery found.
    pub report: SessionRecoveryReport,
    /// Where recovery spent its time.
    pub timings: RecoveryTimings,
}

/// The result of scanning a whole state directory.
pub struct RecoveryOutcome {
    /// Sessions rebuilt and ready.
    pub sessions: Vec<RecoveredSession>,
    /// Sessions that could not be rebuilt, as `(id, reason)` — aborted
    /// creations, unreadable snapshots, and the like. These are reported,
    /// not fatal: one damaged session must not keep the server down.
    pub failures: Vec<(String, String)>,
}

/// Scans `root` for `session-<id>/` directories and recovers each one:
/// dataset snapshots are decoded into a fresh shared interner, the space
/// file supplies the partition spaces, the checkpoint restores the driver
/// and its learned state, and the WAL tail replays through the
/// deterministic feedback path. Torn WAL tails are truncated in place (the
/// logs are reopened for writing). Sessions recover concurrently on
/// [`Executor::resolve`]`(0)` and are returned in session-id order.
pub fn recover_state_dir(
    root: &Path,
    opts: WalOptions,
    compact_after: u64,
) -> std::io::Result<RecoveryOutcome> {
    let mut outcome = RecoveryOutcome {
        sessions: Vec::new(),
        failures: Vec::new(),
    };
    if !root.exists() {
        return Ok(outcome);
    }
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(id) = name.strip_prefix("session-") else {
            continue;
        };
        if validate_session_id(id).is_ok() {
            ids.push(id.to_string());
        }
    }
    ids.sort();
    let ctx = trace::current();
    let results = Executor::resolve(0).map_chunks(&ids, |chunk| {
        let _guard = trace::attach(ctx);
        chunk
            .iter()
            .map(|id| recover_session(root, id, opts, compact_after))
            .collect::<Vec<_>>()
    });
    for (id, result) in ids.into_iter().zip(results.into_iter().flatten()) {
        match result {
            Ok(recovered) => outcome.sessions.push(recovered),
            Err(why) => {
                trace::diag(
                    "warn",
                    &format!("session {id} could not be recovered: {why}"),
                );
                outcome.failures.push((id, why));
            }
        }
    }
    Ok(outcome)
}

/// Rebuilds one session from its directory. See [`recover_state_dir`].
pub fn recover_session(
    root: &Path,
    id: &str,
    opts: WalOptions,
    compact_after: u64,
) -> Result<RecoveredSession, String> {
    validate_session_id(id)?;
    let _span = trace::span("store.recover_session");
    let dir = session_dir(root, id);
    let checkpoint_path = dir.join("checkpoint.json");
    if !checkpoint_path.exists() {
        return Err("no checkpoint (session creation never completed)".into());
    }
    let mut timings = RecoveryTimings::default();

    // Left then right decode into one fresh interner, reproducing the
    // id-sharing the live session had (shared literals compare equal
    // across the pair).
    let t = Instant::now();
    let interner = Interner::new_shared();
    let left = read_store_file(&dir.join("left.alexdb"), &interner)
        .map_err(|e| format!("left dataset snapshot: {e}"))?;
    let right = read_store_file(&dir.join("right.alexdb"), &interner)
        .map_err(|e| format!("right dataset snapshot: {e}"))?;
    let checkpoint_text = std::fs::read_to_string(&checkpoint_path)
        .map_err(|e| format!("reading checkpoint: {e}"))?;
    let snapshot =
        SessionSnapshot::from_json(&checkpoint_text).map_err(|e| format!("checkpoint: {e}"))?;
    timings.decode_s = t.elapsed().as_secs_f64();

    // The spaces come from the space file; when it is missing, damaged or
    // written for something else, restore rebuilds them.
    let t = Instant::now();
    let (spaces, space_rebuilt) =
        match read_space_file(&dir.join(SPACE_FILE), &left, &right, &snapshot.config) {
            Ok(spaces) => (Some(spaces), None),
            Err(e) => {
                trace::diag(
                    "warn",
                    &format!("session {id}: {SPACE_FILE}: {e}; rebuilding the exploration spaces"),
                );
                (None, Some(e.to_string()))
            }
        };
    let load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let driver = snapshot
        .restore_with_spaces(&left, &right, spaces)
        .map_err(|e| format!("restoring driver: {e}"))?;
    let build_s = driver.build_stats().seconds;
    timings.space_s = load_s + build_s;
    timings.restore_s = t.elapsed().as_secs_f64() - build_s;
    let mut session = LiveSession::new(left, right, driver);
    session.restore_counters(&snapshot);

    // Reopen the WAL for writing: this truncates any torn tail and hands
    // back everything before it.
    let t = Instant::now();
    let (mut wal, records, wal_report) =
        Wal::open(&wal_dir(&dir), opts).map_err(|e| format!("opening WAL: {e}"))?;
    wal.resume_after(snapshot.applied_wal_seq);
    timings.wal_open_s = t.elapsed().as_secs_f64();

    let mut report = SessionRecoveryReport {
        id: id.to_string(),
        checkpoint_seq: snapshot.applied_wal_seq,
        replayed_records: 0,
        skipped_records: 0,
        truncated_bytes: wal_report.truncated_bytes,
        dropped_segments: wal_report.dropped_segments,
        damage: wal_report.damage.clone(),
        episodes: 0,
        feedback_items: 0,
        candidates: 0,
        policy_mismatch: false,
        space_rebuilt,
    };
    if let Some(damage) = &wal_report.damage {
        trace::diag(
            "warn",
            &format!(
                "session {id}: WAL damage, recovering the clean prefix ({damage}; \
                 {} bytes truncated, {} segments dropped)",
                wal_report.truncated_bytes, wal_report.dropped_segments
            ),
        );
    }

    let t = Instant::now();
    let replay_span = trace::span("store.wal_replay");
    for sequenced in records {
        if sequenced.seq <= snapshot.applied_wal_seq {
            report.skipped_records += 1;
            continue;
        }
        apply_record(&mut session, &sequenced.record, id, &mut report);
        report.replayed_records += 1;
    }
    drop(replay_span);
    timings.replay_s = t.elapsed().as_secs_f64();

    trace::emit(|| Payload::WalReplay {
        session: id.to_string(),
        records: report.replayed_records,
        truncated_bytes: report.truncated_bytes,
    });

    report.episodes = session.episodes;
    report.feedback_items = session.feedback_items;
    report.candidates = session.driver.candidate_links().len() as u64;

    let durable = DurableSession {
        id: id.to_string(),
        dir,
        wal,
        // Everything replayed is not yet in a checkpoint.
        records_since_checkpoint: report.replayed_records,
        compact_after,
    };
    Ok(RecoveredSession {
        id: id.to_string(),
        session,
        durable,
        report,
        timings,
    })
}

/// Replays one WAL record into a live session — the same deterministic
/// path the live request handlers use.
fn apply_record(
    session: &mut LiveSession,
    record: &WalRecord,
    id: &str,
    report: &mut SessionRecoveryReport,
) {
    match record {
        WalRecord::Feedback {
            left,
            right,
            positive,
        } => {
            let link = Link::new(
                session.left.intern_iri(left),
                session.right.intern_iri(right),
            );
            session.driver.process_feedback(link, *positive);
            session.feedback_items += 1;
        }
        WalRecord::EpisodeEnd {
            episode,
            feedback_items,
        } => {
            session.driver.end_episode();
            session.episodes += 1;
            if session.episodes != *episode || session.feedback_items != *feedback_items {
                trace::diag(
                    "warn",
                    &format!(
                        "session {id}: episode counters diverged on replay \
                         (log says episode {episode} after {feedback_items} items, \
                         replay reached episode {} after {})",
                        session.episodes, session.feedback_items
                    ),
                );
                session.episodes = *episode;
                session.feedback_items = *feedback_items;
            }
        }
        WalRecord::Degraded { source_skips } => {
            session.degraded_queries += 1;
            session.source_skips += source_skips;
        }
        // Audit records: the driver re-derives link additions/removals
        // deterministically from the feedback stream.
        WalRecord::LinkAdded { .. } | WalRecord::LinkRemoved { .. } => {}
        WalRecord::PolicyDelta { partition, rng, .. } => {
            let engines = session.driver.engines();
            let matches = usize::try_from(*partition)
                .ok()
                .and_then(|p| engines.get(p))
                .map(|e| e.rng_state() == *rng);
            if matches != Some(true) {
                report.policy_mismatch = true;
                trace::diag(
                    "warn",
                    &format!(
                        "session {id}: policy cross-check failed for partition {partition} — \
                         replayed RNG stream diverged from the logged one"
                    ),
                );
            }
        }
    }
}

/// A convenience for [`crate::AlexConfig`]-level wiring: the WAL options a
/// `DurabilityConfig` resolves to when valid, or the defaults (used by
/// read paths that must not fail on a bad config).
pub fn wal_options_or_default(result: Result<WalOptions, String>) -> WalOptions {
    result.unwrap_or(WalOptions {
        sync: SyncPolicy::Always,
        segment_bytes: 1 << 20,
    })
}

/// Shared scaffolding for the durability unit tests below. The
/// crash-injection harness (`tests/crash_recovery.rs`) duplicates this
/// world: integration tests build without `cfg(test)`.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::config::AlexConfig;
    use crate::driver::AlexDriver;
    use alex_rdf::{Literal, Store};
    use std::collections::HashSet;
    use std::sync::Arc;

    pub fn world() -> (Store, Store, HashSet<Link>, Arc<Interner>) {
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        let name_l = left.intern_iri("l/name");
        let name_r = right.intern_iri("r/label");
        let mut truth = HashSet::new();
        for i in 0..12 {
            let l = left.intern_iri(&format!("http://l/e{i}"));
            let r = right.intern_iri(&format!("http://r/e{i}"));
            let nm = format!("subject alpha {i}");
            left.insert_literal(l, name_l, Literal::str(&interner, &nm));
            right.insert_literal(r, name_r, Literal::str(&interner, &nm));
            truth.insert(Link::new(l, r));
        }
        (left, right, truth, interner)
    }

    pub fn small_cfg() -> AlexConfig {
        AlexConfig {
            episode_size: 5,
            partitions: 2,
            max_episodes: 5,
            epsilon: 0.3,
            ..Default::default()
        }
    }

    pub fn live_session() -> (LiveSession, Vec<Link>) {
        let (left, right, truth, _) = world();
        let mut links: Vec<Link> = truth.iter().copied().collect();
        links.sort();
        let initial: Vec<Link> = links.iter().take(3).copied().collect();
        let driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        (LiveSession::new(left, right, driver), links)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alex-durability-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn feedback_record(session: &LiveSession, link: Link, positive: bool) -> WalRecord {
        WalRecord::Feedback {
            left: session.left.iri_str(link.left).to_string(),
            right: session.right.iri_str(link.right).to_string(),
            positive,
        }
    }

    #[test]
    fn hostile_session_ids_are_rejected() {
        for bad in [
            "",
            "..",
            ".",
            "../etc",
            "a/b",
            "a\\b",
            "a\0b",
            "x y",
            "sess☃",
            &"x".repeat(65),
        ] {
            assert!(validate_session_id(bad).is_err(), "{bad:?} accepted");
        }
        for good in ["s1", "user-7.main", "A_B-c.d", &"x".repeat(64)] {
            assert!(validate_session_id(good).is_ok(), "{good:?} rejected");
        }
    }

    #[test]
    fn create_log_checkpoint_recover_round_trips() {
        let root = tmp_root("roundtrip");
        let (mut session, links) = live_session();
        let mut durable =
            DurableSession::create(&root, "s1", &session, WalOptions::default(), 0).unwrap();
        let mut snap = session.snapshot();
        durable.checkpoint(&mut snap).unwrap();

        // Apply and log an episode of feedback, live.
        let batch: Vec<(Link, bool)> = links.iter().skip(3).take(4).map(|&l| (l, true)).collect();
        let records: Vec<WalRecord> = batch
            .iter()
            .map(|&(l, p)| feedback_record(&session, l, p))
            .collect();
        durable.log(&records).unwrap();
        for &(link, positive) in &batch {
            session.driver.process_feedback(link, positive);
            session.feedback_items += 1;
        }
        session.driver.end_episode();
        session.episodes += 1;
        durable
            .log(&[WalRecord::EpisodeEnd {
                episode: session.episodes,
                feedback_items: session.feedback_items,
            }])
            .unwrap();
        let rng0 = session.driver.engines()[0].rng_state();
        durable
            .log(&[WalRecord::PolicyDelta {
                partition: 0,
                rng: rng0,
                q_entries: session.driver.engines()[0].q_table().len() as u64,
            }])
            .unwrap();
        drop(durable);

        // Recover and compare against the live state, link for link.
        let outcome = recover_state_dir(&root, WalOptions::default(), 0).unwrap();
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        assert_eq!(outcome.sessions.len(), 1);
        let recovered = &outcome.sessions[0];
        assert_eq!(recovered.id, "s1");
        assert_eq!(recovered.report.replayed_records, 6);
        assert!(!recovered.report.policy_mismatch);
        assert_eq!(recovered.session.episodes, 1);
        assert_eq!(recovered.session.feedback_items, 4);

        let live_links: std::collections::BTreeSet<(String, String)> = session
            .driver
            .candidate_links()
            .into_iter()
            .map(|l| {
                (
                    session.left.iri_str(l.left).to_string(),
                    session.right.iri_str(l.right).to_string(),
                )
            })
            .collect();
        let rec_links: std::collections::BTreeSet<(String, String)> = recovered
            .session
            .driver
            .candidate_links()
            .into_iter()
            .map(|l| {
                (
                    recovered.session.left.iri_str(l.left).to_string(),
                    recovered.session.right.iri_str(l.right).to_string(),
                )
            })
            .collect();
        assert_eq!(live_links, rec_links);
        // The RNG streams line up: the recovered session will make the
        // same next exploration choice the live one would.
        for (a, b) in session
            .driver
            .engines()
            .iter()
            .zip(recovered.session.driver.engines())
        {
            assert_eq!(a.rng_state(), b.rng_state());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn compaction_folds_the_wal_into_the_checkpoint() {
        let root = tmp_root("compact");
        let (mut session, links) = live_session();
        let mut durable =
            DurableSession::create(&root, "s1", &session, WalOptions::default(), 3).unwrap();
        let mut snap = session.snapshot();
        durable.checkpoint(&mut snap).unwrap();
        assert!(!durable.should_compact());

        for &link in links.iter().skip(3).take(4) {
            durable
                .log(&[feedback_record(&session, link, true)])
                .unwrap();
            session.driver.process_feedback(link, true);
            session.feedback_items += 1;
        }
        assert!(durable.should_compact(), "4 records ≥ threshold 3");
        let mut snap = session.snapshot();
        durable.checkpoint(&mut snap).unwrap();
        assert!(!durable.should_compact());
        drop(durable);

        // After compaction the WAL suffix is empty; the checkpoint alone
        // carries the state.
        let outcome = recover_state_dir(&root, WalOptions::default(), 3).unwrap();
        let recovered = &outcome.sessions[0];
        assert_eq!(recovered.report.replayed_records, 0);
        assert_eq!(recovered.report.checkpoint_seq, 4);
        assert_eq!(recovered.session.feedback_items, 4);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn aborted_creation_is_a_failure_not_a_crash() {
        let root = tmp_root("aborted");
        let (session, _) = live_session();
        // Create writes the snapshots but the checkpoint never lands.
        let _ =
            DurableSession::create(&root, "halfway", &session, WalOptions::default(), 0).unwrap();
        let outcome = recover_state_dir(&root, WalOptions::default(), 0).unwrap();
        assert!(outcome.sessions.is_empty());
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].0, "halfway");
        assert!(outcome.failures[0].1.contains("no checkpoint"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stale_wal_records_below_the_checkpoint_are_skipped() {
        let root = tmp_root("stale");
        let (mut session, links) = live_session();
        let mut durable =
            DurableSession::create(&root, "s1", &session, WalOptions::default(), 0).unwrap();
        let mut snap = session.snapshot();
        durable.checkpoint(&mut snap).unwrap();

        // Log + apply two items, then write the checkpoint *without*
        // truncating the WAL — simulating a crash between the two steps
        // of `checkpoint()`.
        for &link in links.iter().skip(3).take(2) {
            durable
                .log(&[feedback_record(&session, link, true)])
                .unwrap();
            session.driver.process_feedback(link, true);
            session.feedback_items += 1;
        }
        let mut snap = session.snapshot();
        snap.applied_wal_seq = durable.next_seq() - 1;
        write_atomic(
            &durable.dir().join("checkpoint.json"),
            snap.to_json().as_bytes(),
        )
        .unwrap();
        drop(durable);

        let outcome = recover_state_dir(&root, WalOptions::default(), 0).unwrap();
        let recovered = &outcome.sessions[0];
        assert_eq!(recovered.report.skipped_records, 2, "covered by checkpoint");
        assert_eq!(recovered.report.replayed_records, 0);
        assert_eq!(recovered.session.feedback_items, 2);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
