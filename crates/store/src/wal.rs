//! The per-session write-ahead log: append, rotate, replay, compact.
//!
//! A log is a directory of segment files `seg-000001.wal`, `seg-000002.wal`,
//! … each holding CRC32-framed records (see [`crate::frame`]). Writers
//! append to the newest segment and rotate to a fresh file once the
//! current one crosses a size threshold; sequence numbers run contiguously
//! across segments, so replay can verify the chain end to end.
//!
//! **Recovery invariant.** Replay reads segments in order and stops at the
//! first bad frame — truncated, checksum-mismatched, or out-of-sequence.
//! Everything before that point is returned; everything after is torn
//! tail and is physically truncated when the log is reopened for writing.
//! Because a record is only acknowledged after its frame (and, per the
//! sync policy, an `fsync`) hit the file, replay always yields a *prefix*
//! of the acknowledged history — never a reordered or spliced one.
//!
//! **Durability levels.** [`SyncPolicy::Always`] fsyncs on every append
//! batch (group commit: one write and one sync cover the whole batch),
//! [`EveryN`] amortizes one fsync over `n` records, and [`Os`] leaves
//! flushing to the page cache — fastest, loses the tail on power failure
//! but never corrupts it.
//!
//! [`EveryN`]: SyncPolicy::EveryN
//! [`Os`]: SyncPolicy::Os

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::frame::{read_frame, write_frame, FrameOutcome};
use crate::record::{decode_record, encode_record_into, SequencedRecord, WalRecord};

/// When appended records are flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every append (batch appends sync once per batch).
    Always,
    /// `fsync` once every `n` appended records.
    EveryN(u32),
    /// Never `fsync`; the OS flushes when it pleases.
    Os,
}

/// Tuning for one log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalOptions {
    /// Flush policy for appended records.
    pub sync: SyncPolicy,
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::Always,
            segment_bytes: 1 << 20,
        }
    }
}

/// Monotonic counters since the log was opened, exported as `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Frame bytes written (headers included).
    pub bytes: u64,
}

/// What replaying a log directory found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Segment files found.
    pub segments: u64,
    /// Records recovered.
    pub records: u64,
    /// Sequence number of the first recovered record (0 when none).
    pub first_seq: u64,
    /// Sequence number of the last recovered record (0 when none).
    pub last_seq: u64,
    /// Bytes discarded after the first bad frame in its segment.
    pub truncated_bytes: u64,
    /// Whole segments discarded because they follow a corrupt one.
    pub dropped_segments: u64,
    /// Why scanning stopped before the end of the log, if it did.
    pub damage: Option<String>,
}

/// One append's outcome, for tracing and metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Sequence number of the first record in the batch.
    pub first_seq: u64,
    /// Sequence number of the last record in the batch.
    pub last_seq: u64,
    /// Frame bytes written.
    pub bytes: u64,
    /// Whether this append `fsync`ed.
    pub synced: bool,
    /// Segment index the writer rotated into mid-batch, if it did.
    pub rotated_to: Option<u64>,
}

struct ReplayScan {
    records: Vec<SequencedRecord>,
    report: ReplayReport,
    /// Segment to truncate at `clean_len` (when damage was found).
    truncate: Option<(PathBuf, u64)>,
    /// Segments after the damaged one, to delete.
    drop: Vec<PathBuf>,
    /// Index of the newest surviving segment (0 when none).
    last_index: u64,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.wal"))
}

fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(index) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".wal"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        segments.push((index, entry.path()));
    }
    segments.sort();
    Ok(segments)
}

/// Flushes directory metadata so freshly created/removed segment files
/// survive a crash. Best-effort on platforms where directories cannot be
/// opened for sync.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

fn scan(dir: &Path) -> std::io::Result<ReplayScan> {
    let segments = list_segments(dir)?;
    let mut out = ReplayScan {
        records: Vec::new(),
        report: ReplayReport {
            segments: segments.len() as u64,
            ..ReplayReport::default()
        },
        truncate: None,
        drop: Vec::new(),
        last_index: segments.last().map(|(i, _)| *i).unwrap_or(0),
    };
    let mut expected_seq: Option<u64> = None;
    'segments: for (pos, (index, path)) in segments.iter().enumerate() {
        let bytes = std::fs::read(path)?;
        let mut offset = 0usize;
        loop {
            let (payload, consumed) = match read_frame(&bytes[offset..]) {
                FrameOutcome::Frame { payload, consumed } => (payload, consumed),
                FrameOutcome::End => break,
                FrameOutcome::Bad(why) => {
                    stop_at(&mut out, &segments[pos..], *index, path, &bytes, offset);
                    out.report.damage = Some(format!("{why} in segment {index}"));
                    break 'segments;
                }
            };
            let record = match decode_record(payload) {
                Ok(r) => r,
                Err(e) => {
                    stop_at(&mut out, &segments[pos..], *index, path, &bytes, offset);
                    out.report.damage = Some(format!("undecodable record in segment {index}: {e}"));
                    break 'segments;
                }
            };
            if let Some(expected) = expected_seq {
                if record.seq != expected {
                    stop_at(&mut out, &segments[pos..], *index, path, &bytes, offset);
                    out.report.damage = Some(format!(
                        "sequence break in segment {index}: expected {expected}, found {}",
                        record.seq
                    ));
                    break 'segments;
                }
            } else {
                out.report.first_seq = record.seq;
            }
            expected_seq = Some(record.seq + 1);
            out.report.last_seq = record.seq;
            out.report.records += 1;
            out.records.push(record);
            offset += consumed;
        }
    }
    Ok(out)
}

/// Records the truncation plan once damage is found: cut the damaged
/// segment at the last clean offset and drop every later segment.
fn stop_at(
    out: &mut ReplayScan,
    rest: &[(u64, PathBuf)],
    index: u64,
    path: &Path,
    bytes: &[u8],
    clean_offset: usize,
) {
    out.report.truncated_bytes = (bytes.len() - clean_offset) as u64;
    out.truncate = Some((path.to_path_buf(), clean_offset as u64));
    out.last_index = index;
    for (_, later) in &rest[1..] {
        if let Ok(meta) = std::fs::metadata(later) {
            out.report.truncated_bytes += meta.len();
        }
        out.drop.push(later.clone());
        out.report.dropped_segments += 1;
    }
}

/// Replays a log directory without modifying it: the recovered records in
/// order, plus the report. A missing directory replays as empty.
pub fn replay_dir(dir: &Path) -> std::io::Result<(Vec<SequencedRecord>, ReplayReport)> {
    if !dir.exists() {
        return Ok((Vec::new(), ReplayReport::default()));
    }
    let scan = scan(dir)?;
    Ok((scan.records, scan.report))
}

/// An open, appendable write-ahead log.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    file: File,
    segment_index: u64,
    segment_len: u64,
    appends_since_sync: u32,
    next_seq: u64,
    stats: WalStats,
    /// Set once an append fails: the file may end in a torn frame, which
    /// replay stops at, so no later frame may follow it until
    /// [`Wal::open`] repairs the log.
    failed: bool,
}

impl Wal {
    /// Opens (creating the directory if needed), replays what is already
    /// there — truncating any torn tail in place — and returns the writer
    /// positioned after the last good record, together with the recovered
    /// records and the replay report.
    pub fn open(
        dir: &Path,
        opts: WalOptions,
    ) -> std::io::Result<(Wal, Vec<SequencedRecord>, ReplayReport)> {
        std::fs::create_dir_all(dir)?;
        let scan = scan(dir)?;
        if let Some((path, clean_len)) = &scan.truncate {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(*clean_len)?;
            f.sync_all()?;
        }
        for path in &scan.drop {
            std::fs::remove_file(path)?;
        }
        if !scan.drop.is_empty() {
            sync_dir(dir);
        }

        let segment_index = scan.last_index.max(1);
        let path = segment_path(dir, segment_index);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let segment_len = file.metadata()?.len();
        if segment_len == 0 {
            sync_dir(dir);
        }
        let wal = Wal {
            dir: dir.to_path_buf(),
            opts,
            file,
            segment_index,
            segment_len,
            appends_since_sync: 0,
            next_seq: scan.report.last_seq + 1,
            stats: WalStats::default(),
            failed: false,
        };
        Ok((wal, scan.records, scan.report))
    }

    /// The sequence number the next appended record will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Makes the next appended record's sequence number at least
    /// `seq + 1`. Recovery calls this with its checkpoint's high-water
    /// mark: a log emptied by compaction (and a crash before the next
    /// append) or by damage scans as empty and would otherwise restart
    /// numbering at 1, below what the checkpoint covers — and the next
    /// recovery would skip those records as already applied.
    pub fn resume_after(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// The index of the segment currently appended to.
    pub fn segment_index(&self) -> u64 {
        self.segment_index
    }

    /// Counters since open.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Appends one record. Equivalent to a one-element [`Wal::append_batch`].
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<AppendOutcome> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Appends a batch of records in one write and at most one fsync
    /// (group commit): the frames are encoded into one buffer, written
    /// with one `write_all`, and the sync policy is applied once for the
    /// whole batch. A batch that crosses `segment_bytes` rotates before
    /// the same record a record-at-a-time writer would; the part before
    /// the rotation is written (and, by the rotation, synced) first. On
    /// `Ok`, every record is in the file — and on stable storage if the
    /// policy synced. Callers must not acknowledge the mutations to a
    /// client before this returns. Once an append fails, every later one
    /// on this log fails too (see `failed`); reopening repairs the log.
    pub fn append_batch(&mut self, records: &[WalRecord]) -> std::io::Result<AppendOutcome> {
        assert!(!records.is_empty(), "empty WAL batch");
        if self.failed {
            return Err(std::io::Error::other(
                "an earlier append to this log failed",
            ));
        }
        // Cleared below only if every write and sync succeeds.
        self.failed = true;
        let first_seq = self.next_seq;
        let bytes_before = self.stats.bytes;
        let mut frames = Vec::with_capacity(records.len() * 96);
        let mut payload = Vec::with_capacity(96);
        let mut unwritten = 0u64;
        let mut rotated_to = None;
        for record in records {
            if self.segment_len >= self.opts.segment_bytes && self.segment_len > 0 {
                self.write_frames(&mut frames, &mut unwritten)?;
                self.rotate()?;
                rotated_to = Some(self.segment_index);
            }
            payload.clear();
            encode_record_into(&mut payload, self.next_seq, record);
            let start = frames.len();
            write_frame(&mut frames, &payload);
            self.segment_len += (frames.len() - start) as u64;
            self.next_seq += 1;
            self.appends_since_sync += 1;
            unwritten += 1;
        }
        self.write_frames(&mut frames, &mut unwritten)?;
        let synced = match self.opts.sync {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => self.appends_since_sync >= n.max(1),
            SyncPolicy::Os => false,
        };
        if synced {
            self.sync()?;
        }
        self.failed = false;
        Ok(AppendOutcome {
            first_seq,
            last_seq: self.next_seq - 1,
            bytes: self.stats.bytes - bytes_before,
            synced,
            rotated_to,
        })
    }

    /// Writes the encoded `frames` of `records` records to the current
    /// segment in one `write_all` and counts them, leaving both empty.
    fn write_frames(&mut self, frames: &mut Vec<u8>, records: &mut u64) -> std::io::Result<()> {
        if frames.is_empty() {
            return Ok(());
        }
        self.file.write_all(frames)?;
        self.stats.appends += *records;
        self.stats.bytes += frames.len() as u64;
        frames.clear();
        *records = 0;
        Ok(())
    }

    /// Forces appended records to stable storage regardless of policy.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Closes the current segment and opens the next one.
    fn rotate(&mut self) -> std::io::Result<()> {
        // The finished segment must be durable before records continue in
        // the next one, or a crash could lose the middle of the chain.
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, self.segment_index + 1))?;
        self.segment_index += 1;
        sync_dir(&self.dir);
        self.segment_len = 0;
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Compaction: after the caller has *durably* written a checkpoint
    /// covering every record below [`Wal::next_seq`], deletes all segments
    /// and starts a fresh one. Sequence numbers keep counting — replay
    /// pairs the checkpoint's applied sequence with the first record it
    /// finds. Returns the number of segments removed.
    pub fn truncate_after_checkpoint(&mut self) -> std::io::Result<u64> {
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        let old = list_segments(&self.dir)?;
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, self.segment_index + 1))?;
        self.segment_index += 1;
        self.segment_len = 0;
        self.appends_since_sync = 0;
        let mut removed = 0u64;
        for (index, path) in old {
            if index < self.segment_index {
                std::fs::remove_file(&path)?;
                removed += 1;
            }
        }
        sync_dir(&self.dir);
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alex-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn feedback(i: u64) -> WalRecord {
        WalRecord::Feedback {
            left: format!("http://l/e{i}"),
            right: format!("http://r/e{i}"),
            positive: i.is_multiple_of(2),
        }
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let dir = tmp_dir("roundtrip");
        let records: Vec<WalRecord> = (0..25).map(feedback).collect();
        {
            let (mut wal, old, report) = Wal::open(&dir, WalOptions::default()).unwrap();
            assert!(old.is_empty());
            assert_eq!(report.records, 0);
            let out = wal.append_batch(&records).unwrap();
            assert_eq!(out.first_seq, 1);
            assert_eq!(out.last_seq, 25);
            assert!(out.synced);
        }
        let (wal, replayed, report) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(report.records, 25);
        assert_eq!(report.damage, None);
        assert_eq!(wal.next_seq(), 26);
        assert_eq!(
            replayed
                .iter()
                .map(|r| &r.record)
                .cloned()
                .collect::<Vec<_>>(),
            records
        );
        assert_eq!(
            replayed.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (1..=25).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_replay_in_order() {
        let dir = tmp_dir("rotate");
        let opts = WalOptions {
            segment_bytes: 128,
            ..WalOptions::default()
        };
        {
            let (mut wal, _, _) = Wal::open(&dir, opts).unwrap();
            for i in 0..40 {
                wal.append(&feedback(i)).unwrap();
            }
            assert!(wal.segment_index() > 1, "small threshold forces rotation");
        }
        let segment_files = list_segments(&dir).unwrap();
        assert!(segment_files.len() > 1);
        let (_, replayed, report) = Wal::open(&dir, opts).unwrap();
        assert_eq!(report.records, 40);
        assert_eq!(report.segments as usize, segment_files.len());
        assert_eq!(
            replayed.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (1..=40).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Segment index → file bytes, for every segment in `dir`.
    fn segment_bytes(dir: &Path) -> Vec<(u64, Vec<u8>)> {
        (list_segments(dir).unwrap().into_iter())
            .map(|(index, path)| (index, std::fs::read(path).unwrap()))
            .collect()
    }

    #[test]
    fn a_batch_rotates_where_single_appends_would_and_replays_identically() {
        // A few ≈40-byte frames per 128-byte segment: a 23-record batch
        // crosses the threshold several times.
        let opts = WalOptions {
            segment_bytes: 128,
            ..WalOptions::default()
        };
        let records: Vec<WalRecord> = (0..23).map(feedback).collect();
        let single = tmp_dir("rot-single");
        {
            let (mut wal, _, _) = Wal::open(&single, opts).unwrap();
            for record in &records {
                wal.append(record).unwrap();
            }
        }
        let batched = tmp_dir("rot-batch");
        let (mut wal, _, _) = Wal::open(&batched, opts).unwrap();
        let out = wal.append_batch(&records).unwrap();
        assert_eq!((out.first_seq, out.last_seq), (1, 23));
        assert_eq!(out.rotated_to, Some(wal.segment_index()));
        assert_eq!(out.bytes, wal.stats().bytes);
        assert_eq!(wal.stats().appends, 23);
        let fsyncs = wal.stats().fsyncs;
        drop(wal);

        let expected = segment_bytes(&single);
        assert!(expected.len() >= 3, "the threshold splits the log");
        assert_eq!(segment_bytes(&batched), expected);
        // One sync per rotation, and the batch's own.
        assert_eq!(fsyncs, expected.len() as u64);
        let (_, from_single, _) = Wal::open(&single, opts).unwrap();
        let (_, from_batch, report) = Wal::open(&batched, opts).unwrap();
        assert_eq!(report.damage, None);
        assert_eq!(from_batch, from_single);
        assert_eq!(from_batch.len(), 23);
        std::fs::remove_dir_all(&single).unwrap();
        std::fs::remove_dir_all(&batched).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_the_log_keeps_going() {
        let dir = tmp_dir("torn");
        {
            let (mut wal, _, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            for i in 0..10 {
                wal.append(&feedback(i)).unwrap();
            }
        }
        // Tear the tail: chop half of the last record off.
        let path = segment_path(&dir, 1);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let (mut wal, replayed, report) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(report.records, 9, "the torn record is gone");
        assert!(report.damage.is_some());
        assert!(report.truncated_bytes > 0);
        assert_eq!(wal.next_seq(), 10);
        assert_eq!(replayed.last().unwrap().seq, 9);
        // Appending after recovery continues the chain cleanly.
        wal.append(&feedback(99)).unwrap();
        drop(wal);
        let (_, replayed, report) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(report.damage, None);
        assert_eq!(report.records, 10);
        assert_eq!(replayed.last().unwrap().seq, 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_mid_log_drops_later_segments() {
        let dir = tmp_dir("midrot");
        let opts = WalOptions {
            segment_bytes: 96,
            ..WalOptions::default()
        };
        {
            let (mut wal, _, _) = Wal::open(&dir, opts).unwrap();
            for i in 0..30 {
                wal.append(&feedback(i)).unwrap();
            }
            assert!(wal.segment_index() >= 3);
        }
        // Flip a byte in the middle of the *first* segment.
        let path = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (wal, replayed, report) = Wal::open(&dir, opts).unwrap();
        assert!(report.damage.is_some());
        assert!(report.dropped_segments >= 1, "{report:?}");
        // What survives is a strict prefix with an unbroken chain.
        for (i, r) in replayed.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
        }
        assert_eq!(wal.next_seq(), replayed.len() as u64 + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_n_policy_amortizes_fsyncs() {
        let dir = tmp_dir("everyn");
        let opts = WalOptions {
            sync: SyncPolicy::EveryN(5),
            ..WalOptions::default()
        };
        let (mut wal, _, _) = Wal::open(&dir, opts).unwrap();
        for i in 0..12 {
            wal.append(&feedback(i)).unwrap();
        }
        // 12 appends / every 5 → syncs at 5 and 10.
        assert_eq!(wal.stats().fsyncs, 2);
        assert_eq!(wal.stats().appends, 12);

        let os_dir = tmp_dir("os");
        let (mut os_wal, _, _) = Wal::open(
            &os_dir,
            WalOptions {
                sync: SyncPolicy::Os,
                ..WalOptions::default()
            },
        )
        .unwrap();
        for i in 0..12 {
            os_wal.append(&feedback(i)).unwrap();
        }
        assert_eq!(os_wal.stats().fsyncs, 0);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&os_dir).unwrap();
    }

    #[test]
    fn compaction_removes_dead_segments_and_keeps_the_chain() {
        let dir = tmp_dir("compact");
        let opts = WalOptions {
            segment_bytes: 96,
            ..WalOptions::default()
        };
        let (mut wal, _, _) = Wal::open(&dir, opts).unwrap();
        for i in 0..20 {
            wal.append(&feedback(i)).unwrap();
        }
        let removed = wal.truncate_after_checkpoint().unwrap();
        assert!(removed >= 1);
        // New records continue the global sequence.
        let out = wal.append(&feedback(100)).unwrap();
        assert_eq!(out.first_seq, 21);
        drop(wal);
        let (_, replayed, report) = Wal::open(&dir, opts).unwrap();
        assert_eq!(report.records, 1, "only the post-checkpoint record remains");
        assert_eq!(replayed[0].seq, 21);
        assert_eq!(report.damage, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_append_fails_every_later_one() {
        let dir = tmp_dir("failed");
        // One record per segment: the second append must rotate.
        let opts = WalOptions {
            segment_bytes: 1,
            ..WalOptions::default()
        };
        let (mut wal, _, _) = Wal::open(&dir, opts).unwrap();
        wal.append(&feedback(0)).unwrap();
        // A directory where the next segment file belongs makes the
        // rotation's open fail.
        let blocker = segment_path(&dir, 2);
        std::fs::create_dir(&blocker).unwrap();
        assert!(wal.append(&feedback(1)).is_err());
        std::fs::remove_dir(&blocker).unwrap();
        // The obstacle is gone, but the log stays failed until reopened.
        assert!(wal.append(&feedback(2)).is_err());
        assert!(wal.append_batch(&[feedback(3), feedback(4)]).is_err());
        assert_eq!(wal.stats().appends, 1);
        drop(wal);

        let (mut wal, replayed, report) = Wal::open(&dir, opts).unwrap();
        assert_eq!(report.damage, None);
        assert_eq!(replayed.iter().map(|r| r.seq).collect::<Vec<_>>(), [1]);
        assert_eq!(wal.append(&feedback(5)).unwrap().first_seq, 2);
        drop(wal);
        let (_, replayed, report) = Wal::open(&dir, opts).unwrap();
        assert_eq!(report.damage, None);
        assert_eq!(replayed.iter().map(|r| r.seq).collect::<Vec<_>>(), [1, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_dir_of_missing_directory_is_empty() {
        let dir = tmp_dir("missing");
        let (records, report) = replay_dir(&dir).unwrap();
        assert!(records.is_empty());
        assert_eq!(report, ReplayReport::default());
    }
}
