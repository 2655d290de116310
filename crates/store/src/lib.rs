//! # alex-store — durable storage primitives for ALEX
//!
//! Two halves, both dependency-light and fully deterministic:
//!
//! * **A session write-ahead log** ([`Wal`]): CRC32-framed, length-prefixed
//!   [`WalRecord`]s appended per session with a configurable fsync policy
//!   ([`SyncPolicy`]), segment rotation at a size threshold, and
//!   replay-on-boot that tolerates torn tails — recovery truncates at the
//!   first bad frame and never refuses to start.
//! * **A binary snapshot codec** for interned triple stores
//!   ([`encode_store`] / [`decode_store`]): checksummed header, string
//!   dictionary, varint/delta-encoded triples, so a dataset converted once
//!   with `alex compact` loads without ever touching the N-Triples parser.
//!
//! This crate knows nothing about sessions, policies, or HTTP: it moves
//! bytes durably. The logic that folds WAL records back into live session
//! state lives in `alex-core`'s durability module, which re-exports this
//! crate as `alex_core::store`.

#![warn(missing_docs)]

mod crc32;
mod frame;
mod record;
mod snapshot;
mod varint;
mod wal;

pub use crc32::crc32;
pub use frame::{
    read_frame, scan_frames, write_frame, BadFrame, FrameOutcome, FRAME_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
};
pub use record::{decode_record, encode_record, SequencedRecord, WalRecord};
pub use snapshot::{
    decode_store, encode_store, read_store_file, store_fingerprint, write_store_file,
    StoreFileError, STORE_MAGIC, STORE_VERSION,
};
pub use varint::{write_i64, write_str, write_u64, CodecError, Reader};
pub use wal::{replay_dir, AppendOutcome, ReplayReport, SyncPolicy, Wal, WalOptions, WalStats};
