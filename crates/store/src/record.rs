//! The typed WAL records a curation session appends, and their binary
//! payload encoding.
//!
//! Records carry IRIs as *strings* (interned ids are process-local, the
//! same reason session snapshots serialize IRI text), so a log written by
//! one process replays correctly in another.
//! The payload format is `[kind: u8][seq: varint][fields…]`; framing and
//! checksumming live one layer down in [`crate::frame`].

use crate::varint::{write_str, write_u64, CodecError, Reader};

/// One durable mutation (or audit fact) of a curation session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// One user-feedback item: the judged link and the verdict
    /// (`positive` = accepted, otherwise rejected). With the episode ends,
    /// the replay input: re-applying them through the deterministic
    /// driver reproduces the exact session state.
    Feedback {
        /// Left IRI of the judged link.
        left: String,
        /// Right IRI of the judged link.
        right: String,
        /// Whether the user approved the link.
        positive: bool,
    },
    /// Exploration added a candidate link. An audit record that earlier
    /// builds wrote and replay skips; nothing writes it any more.
    LinkAdded {
        /// Left IRI.
        left: String,
        /// Right IRI.
        right: String,
    },
    /// A candidate link was removed. Audit only, like `LinkAdded`.
    LinkRemoved {
        /// Left IRI.
        left: String,
        /// Right IRI.
        right: String,
        /// Why: `rejected`, `blacklisted`, or `rollback`.
        reason: String,
    },
    /// Per-partition policy-state delta after an episode: the RNG stream
    /// position and Q-table size. Replay uses it as an integrity
    /// cross-check — a mismatch means the replayed episode diverged.
    PolicyDelta {
        /// Partition index.
        partition: u64,
        /// Raw xoshiro256++ state after the episode.
        rng: [u64; 4],
        /// `Returns(s, a)` entries after the episode.
        q_entries: u64,
    },
    /// One feedback episode completed (policy improvement ran) over the
    /// feedback records that its `feedback_items` total adds.
    EpisodeEnd {
        /// Episode number after this one completed (1-based).
        episode: u64,
        /// Total feedback items the session has processed so far.
        feedback_items: u64,
    },
    /// The session answered a query with a degraded (partial) answer set.
    /// A record that earlier builds wrote and replay skips, like
    /// `LinkAdded`; nothing writes it any more.
    Degraded {
        /// Skipped-source incidents in that query.
        source_skips: u64,
    },
}

impl WalRecord {
    /// A short stable tag for metrics and trace payloads.
    pub fn kind_str(&self) -> &'static str {
        match self {
            WalRecord::Feedback { .. } => "feedback",
            WalRecord::LinkAdded { .. } => "link_added",
            WalRecord::LinkRemoved { .. } => "link_removed",
            WalRecord::PolicyDelta { .. } => "policy_delta",
            WalRecord::EpisodeEnd { .. } => "episode_end",
            WalRecord::Degraded { .. } => "degraded",
        }
    }
}

/// A record paired with its log sequence number. Sequence numbers are
/// assigned contiguously from 1 by the writer; replay verifies the chain,
/// so a reordered or spliced log reads as corruption, not as a different
/// history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SequencedRecord {
    /// Position in the log, starting at 1.
    pub seq: u64,
    /// The record itself.
    pub record: WalRecord,
}

const TAG_FEEDBACK: u8 = 1;
const TAG_LINK_ADDED: u8 = 2;
const TAG_LINK_REMOVED: u8 = 3;
const TAG_POLICY_DELTA: u8 = 4;
const TAG_EPISODE_END: u8 = 5;
const TAG_DEGRADED: u8 = 6;

/// Encodes a record (with its sequence number) into a frame payload.
pub fn encode_record(seq: u64, record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_record_into(&mut out, seq, record);
    out
}

/// [`encode_record`] appending to `out`, so a writer can reuse one buffer
/// for every record of a batch.
pub(crate) fn encode_record_into(out: &mut Vec<u8>, seq: u64, record: &WalRecord) {
    let tag = match record {
        WalRecord::Feedback { .. } => TAG_FEEDBACK,
        WalRecord::LinkAdded { .. } => TAG_LINK_ADDED,
        WalRecord::LinkRemoved { .. } => TAG_LINK_REMOVED,
        WalRecord::PolicyDelta { .. } => TAG_POLICY_DELTA,
        WalRecord::EpisodeEnd { .. } => TAG_EPISODE_END,
        WalRecord::Degraded { .. } => TAG_DEGRADED,
    };
    out.push(tag);
    write_u64(out, seq);
    match record {
        WalRecord::Feedback {
            left,
            right,
            positive,
        } => {
            write_str(out, left);
            write_str(out, right);
            out.push(u8::from(*positive));
        }
        WalRecord::LinkAdded { left, right } => {
            write_str(out, left);
            write_str(out, right);
        }
        WalRecord::LinkRemoved {
            left,
            right,
            reason,
        } => {
            write_str(out, left);
            write_str(out, right);
            write_str(out, reason);
        }
        WalRecord::PolicyDelta {
            partition,
            rng,
            q_entries,
        } => {
            write_u64(out, *partition);
            for word in rng {
                write_u64(out, *word);
            }
            write_u64(out, *q_entries);
        }
        WalRecord::EpisodeEnd {
            episode,
            feedback_items,
        } => {
            write_u64(out, *episode);
            write_u64(out, *feedback_items);
        }
        WalRecord::Degraded { source_skips } => {
            write_u64(out, *source_skips);
        }
    }
}

/// Decodes a frame payload back into a sequenced record. Trailing bytes
/// after the record are corruption, not extensibility — the format is
/// versioned at the directory level, not per record.
pub fn decode_record(payload: &[u8]) -> Result<SequencedRecord, CodecError> {
    let mut r = Reader::new(payload);
    let tag = r.read_u8()?;
    let seq = r.read_u64()?;
    let record = match tag {
        TAG_FEEDBACK => WalRecord::Feedback {
            left: r.read_str()?,
            right: r.read_str()?,
            positive: match r.read_u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(CodecError::Corrupt(format!(
                        "feedback verdict byte must be 0 or 1, got {other}"
                    )))
                }
            },
        },
        TAG_LINK_ADDED => WalRecord::LinkAdded {
            left: r.read_str()?,
            right: r.read_str()?,
        },
        TAG_LINK_REMOVED => WalRecord::LinkRemoved {
            left: r.read_str()?,
            right: r.read_str()?,
            reason: r.read_str()?,
        },
        TAG_POLICY_DELTA => WalRecord::PolicyDelta {
            partition: r.read_u64()?,
            rng: [r.read_u64()?, r.read_u64()?, r.read_u64()?, r.read_u64()?],
            q_entries: r.read_u64()?,
        },
        TAG_EPISODE_END => WalRecord::EpisodeEnd {
            episode: r.read_u64()?,
            feedback_items: r.read_u64()?,
        },
        TAG_DEGRADED => WalRecord::Degraded {
            source_skips: r.read_u64()?,
        },
        other => {
            return Err(CodecError::Corrupt(format!(
                "unknown WAL record tag {other}"
            )))
        }
    };
    if !r.is_empty() {
        return Err(CodecError::Corrupt(format!(
            "{} trailing bytes after a {} record",
            r.remaining(),
            record.kind_str()
        )));
    }
    Ok(SequencedRecord { seq, record })
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Feedback {
                left: "http://l/e1".into(),
                right: "http://r/e1".into(),
                positive: true,
            },
            WalRecord::Feedback {
                left: "".into(),
                right: "çéç ☃".into(),
                positive: false,
            },
            WalRecord::LinkAdded {
                left: "http://l/e2".into(),
                right: "http://r/e2".into(),
            },
            WalRecord::LinkRemoved {
                left: "http://l/e3".into(),
                right: "http://r/e3".into(),
                reason: "blacklisted".into(),
            },
            WalRecord::PolicyDelta {
                partition: 3,
                rng: [u64::MAX, 0, 1, 0xDEAD_BEEF],
                q_entries: 42,
            },
            WalRecord::EpisodeEnd {
                episode: 7,
                feedback_items: 700,
            },
            WalRecord::Degraded { source_skips: 2 },
        ]
    }

    #[test]
    fn every_record_kind_round_trips() {
        for (i, record) in sample_records().into_iter().enumerate() {
            let seq = (i as u64 + 1) * 1000;
            let payload = encode_record(seq, &record);
            let back = decode_record(&payload).unwrap();
            assert_eq!(back.seq, seq);
            assert_eq!(back.record, record);
        }
    }

    #[test]
    fn bad_tags_and_trailing_bytes_are_corruption() {
        let mut payload = encode_record(1, &sample_records()[0]);
        payload[0] = 99;
        assert!(matches!(
            decode_record(&payload),
            Err(CodecError::Corrupt(_))
        ));

        let mut payload = encode_record(1, &sample_records()[0]);
        payload.push(0);
        assert!(matches!(
            decode_record(&payload),
            Err(CodecError::Corrupt(_))
        ));

        assert!(matches!(decode_record(&[]), Err(CodecError::Truncated)));
    }

    #[test]
    fn truncated_payloads_are_errors_never_panics() {
        for record in sample_records() {
            let payload = encode_record(123, &record);
            for cut in 0..payload.len() {
                assert!(
                    decode_record(&payload[..cut]).is_err(),
                    "prefix of length {cut} of a {} record decoded",
                    record.kind_str()
                );
            }
        }
    }
}
