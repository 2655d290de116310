//! The exploration-space file: every partition's [`ExplorationSpace`],
//! written once into a session's directory when the session is created
//! and loaded on recovery instead of rebuilt.
//!
//! A space depends only on the two datasets and the configuration, and
//! since its layout is flat (links, an arena of `(key id, score)` columns,
//! score-sorted range lists) it can be stored the way it is used. Interned
//! ids are process-local, so the file names nothing by id:
//!
//! * a pair is `(left subject ordinal, right subject ordinal)` in the
//!   stores' subject order, which `.alexdb` decoding reproduces;
//! * a feature key is its `(left predicate IRI, right predicate IRI)`;
//! * a score is its raw `f64` bits.
//!
//! Loading skips scoring and runs only assembly
//! (`ExplorationSpace::assemble`): key numbering, the arena, the subsets,
//! the range sort, the runs and the pair index, fed the pairs in the
//! order the build would produce them (by left ordinal, then right id). A
//! loaded space is therefore identical to a rebuild in the loading
//! process.
//!
//! Layout: a sequence of `alex-store` frames (length, CRC-32, payload).
//!
//! ```text
//! header    := magic "ALEXSPC1", version varint,
//!              left and right store_fingerprint (u64 LE), θ (f64 bits LE),
//!              SimConfig (Debug string), max_block varint, partitions varint
//! per partition, in order:
//!   keys    := partition index varint, key count varint,
//!              key count × (left IRI string, right IRI string),
//!              pair count varint
//!   pairs   := n varint (≥ 1; the encoder writes at most 1,024), then
//!              n × pair, until the partition's pair count is reached
//! pair      := left ordinal delta varint (vs the previous pair),
//!              right ordinal varint, feature count varint,
//!              feature count × (key index varint, score f64 bits LE)
//! ```
//!
//! Anything wrong — a bad frame, a truncation, an out-of-range ordinal or
//! key, trailing bytes — is a [`SpaceFileError::Corrupt`]; a sound file
//! written for other stores or another configuration is
//! [`SpaceFileError::Stale`]. Either way the caller rebuilds.

use std::io::Write;
use std::path::Path;

use alex_rdf::hash::FastMap;
use alex_rdf::{IriId, Link, Store};
use alex_store::{
    read_frame, store_fingerprint, write_frame, write_str, write_u64, CodecError, FrameOutcome,
    Reader,
};

use crate::config::AlexConfig;
use crate::feature::{Feature, FeatureKey, FeatureSet};
use crate::space::{ExplorationSpace, DEFAULT_MAX_BLOCK};

/// The file name inside a session directory.
pub const SPACE_FILE: &str = "spaces.alexspace";

const MAGIC: &[u8; 8] = b"ALEXSPC1";
const VERSION: u64 = 1;
/// Pairs per frame: keeps the encoder's buffer small (≈30 KB) and every
/// frame far below the frame payload ceiling.
const PAIRS_PER_FRAME: usize = 1024;

/// Why a space file could not be loaded.
#[derive(Debug)]
pub enum SpaceFileError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file is damaged: a bad or missing frame, or contents that no
    /// encoder writes.
    Corrupt(String),
    /// The file is sound but describes other datasets or another
    /// configuration.
    Stale(String),
}

impl std::fmt::Display for SpaceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceFileError::Io(e) => write!(f, "{e}"),
            SpaceFileError::Corrupt(why) => write!(f, "corrupt space file: {why}"),
            SpaceFileError::Stale(why) => write!(f, "stale space file: {why}"),
        }
    }
}

impl std::error::Error for SpaceFileError {}

impl From<std::io::Error> for SpaceFileError {
    fn from(e: std::io::Error) -> Self {
        SpaceFileError::Io(e)
    }
}

impl From<CodecError> for SpaceFileError {
    fn from(e: CodecError) -> Self {
        SpaceFileError::Corrupt(e.to_string())
    }
}

fn corrupt(why: impl Into<String>) -> SpaceFileError {
    SpaceFileError::Corrupt(why.into())
}

/// The header fields, in file order, as the configuration and stores
/// define them.
struct Header {
    left_fp: u64,
    right_fp: u64,
    theta_bits: u64,
    sim: String,
    max_block: u64,
    partitions: u64,
}

impl Header {
    fn of(left: &Store, right: &Store, cfg: &AlexConfig) -> Self {
        Self {
            left_fp: store_fingerprint(left),
            right_fp: store_fingerprint(right),
            theta_bits: cfg.theta.to_bits(),
            sim: format!("{:?}", cfg.sim),
            max_block: DEFAULT_MAX_BLOCK as u64,
            partitions: cfg.partitions as u64,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(MAGIC);
        write_u64(out, VERSION);
        out.extend_from_slice(&self.left_fp.to_le_bytes());
        out.extend_from_slice(&self.right_fp.to_le_bytes());
        out.extend_from_slice(&self.theta_bits.to_le_bytes());
        write_str(out, &self.sim);
        write_u64(out, self.max_block);
        write_u64(out, self.partitions);
    }

    fn decode(payload: &[u8]) -> Result<Self, SpaceFileError> {
        let mut r = Reader::new(payload);
        let magic = read_bytes::<8>(&mut r)?;
        if &magic != MAGIC {
            return Err(corrupt("not a space file (bad magic)"));
        }
        let version = r.read_u64()?;
        if version != VERSION {
            return Err(SpaceFileError::Stale(format!(
                "format version {version}, this build reads {VERSION}"
            )));
        }
        let header = Self {
            left_fp: u64::from_le_bytes(read_bytes(&mut r)?),
            right_fp: u64::from_le_bytes(read_bytes(&mut r)?),
            theta_bits: u64::from_le_bytes(read_bytes(&mut r)?),
            sim: r.read_str()?,
            max_block: r.read_u64()?,
            partitions: r.read_u64()?,
        };
        expect_end(&r)?;
        Ok(header)
    }

    /// Checks that the file was written for `left`/`right` under `cfg`.
    /// The cheap fields are compared before the stores are fingerprinted.
    fn check(&self, left: &Store, right: &Store, cfg: &AlexConfig) -> Result<(), SpaceFileError> {
        let stale = |why: String| Err(SpaceFileError::Stale(why));
        if self.theta_bits != cfg.theta.to_bits() {
            return stale(format!(
                "written for θ = {}, session has θ = {}",
                f64::from_bits(self.theta_bits),
                cfg.theta
            ));
        }
        if self.sim != format!("{:?}", cfg.sim) {
            return stale("written for another similarity configuration".into());
        }
        if self.max_block != DEFAULT_MAX_BLOCK as u64 {
            return stale(format!(
                "written with block cap {}, this build uses {DEFAULT_MAX_BLOCK}",
                self.max_block
            ));
        }
        if self.partitions != cfg.partitions as u64 {
            return stale(format!(
                "written for {} partitions, session has {}",
                self.partitions, cfg.partitions
            ));
        }
        if (self.left_fp, self.right_fp) != (store_fingerprint(left), store_fingerprint(right)) {
            return stale("written for other datasets (store fingerprint mismatch)".into());
        }
        Ok(())
    }
}

fn read_bytes<const N: usize>(r: &mut Reader<'_>) -> Result<[u8; N], CodecError> {
    let mut out = [0u8; N];
    for b in &mut out {
        *b = r.read_u8()?;
    }
    Ok(out)
}

fn expect_end(r: &Reader<'_>) -> Result<(), SpaceFileError> {
    if r.is_empty() {
        Ok(())
    } else {
        Err(corrupt(format!(
            "{} trailing bytes in a frame",
            r.remaining()
        )))
    }
}

fn read_len(r: &mut Reader<'_>, what: &str) -> Result<usize, SpaceFileError> {
    usize::try_from(r.read_u64()?).map_err(|_| corrupt(format!("{what} overflows usize")))
}

/// Writes `frame` as one frame to `out` and clears it.
fn flush_frame(
    out: &mut impl Write,
    frame: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
) -> std::io::Result<()> {
    scratch.clear();
    write_frame(scratch, frame);
    frame.clear();
    out.write_all(scratch)
}

/// Writes the space file for `spaces` (one per partition, in order) over
/// `left`/`right` under `cfg` to `path`. See [`encode_spaces`].
///
/// The file holds derived data and the loader validates every byte, so it
/// is written in place and not fsynced: a file torn by a crash or a power
/// loss is rebuilt from, never trusted. Sessions write it before their
/// first checkpoint.
pub(crate) fn write_space_file<'a>(
    path: &Path,
    left: &Store,
    right: &Store,
    cfg: &AlexConfig,
    spaces: impl IntoIterator<Item = &'a ExplorationSpace>,
) -> std::io::Result<()> {
    let _span = alex_trace::span("space.write");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    encode_spaces(&mut out, left, right, cfg, spaces)?;
    out.flush()
}

/// Encodes the space file for `spaces` (one per partition, in order) over
/// `left`/`right` under `cfg` into `out`, one frame at a time: the whole
/// image never sits in memory.
pub fn encode_spaces<'a>(
    out: &mut impl Write,
    left: &Store,
    right: &Store,
    cfg: &AlexConfig,
    spaces: impl IntoIterator<Item = &'a ExplorationSpace>,
) -> std::io::Result<()> {
    let ordinals = |store: &Store| -> FastMap<IriId, u64> {
        store
            .subjects()
            .enumerate()
            .map(|(i, s)| (s, i as u64))
            .collect()
    };
    let (left_ord, right_ord) = (ordinals(left), ordinals(right));
    let (mut frame, mut scratch) = (Vec::new(), Vec::new());
    Header::of(left, right, cfg).encode(&mut frame);
    flush_frame(out, &mut frame, &mut scratch)?;
    for (p, space) in spaces.into_iter().enumerate() {
        write_u64(&mut frame, p as u64);
        write_u64(&mut frame, space.keys().len() as u64);
        for key in space.keys() {
            write_str(&mut frame, &left.iri_str(key.left));
            write_str(&mut frame, &right.iri_str(key.right));
        }
        write_u64(&mut frame, space.len() as u64);
        flush_frame(out, &mut frame, &mut scratch)?;
        let mut links = space.links();
        let mut prev_left = 0u64;
        for start in (0..space.len()).step_by(PAIRS_PER_FRAME) {
            let end = space.len().min(start + PAIRS_PER_FRAME);
            write_u64(&mut frame, (end - start) as u64);
            for (pair, link) in (start..end).zip(links.by_ref()) {
                let l = left_ord[&link.left];
                write_u64(&mut frame, l - prev_left);
                prev_left = l;
                write_u64(&mut frame, right_ord[&link.right]);
                let pair = u32::try_from(pair).expect("space overflow");
                let (ids, scores) = space.pair_features(pair);
                write_u64(&mut frame, ids.len() as u64);
                for (&id, &score) in ids.iter().zip(scores) {
                    write_u64(&mut frame, u64::from(id));
                    frame.extend_from_slice(&score.to_bits().to_le_bytes());
                }
            }
            flush_frame(out, &mut frame, &mut scratch)?;
        }
    }
    Ok(())
}

/// Reads and loads the space file at `path`. See [`decode_spaces`].
pub(crate) fn read_space_file(
    path: &Path,
    left: &Store,
    right: &Store,
    cfg: &AlexConfig,
) -> Result<Vec<ExplorationSpace>, SpaceFileError> {
    let bytes = std::fs::read(path)?;
    decode_spaces(&bytes, left, right, cfg)
}

/// The next frame's payload, or why there is none.
fn next_frame<'a>(rest: &mut &'a [u8]) -> Result<&'a [u8], SpaceFileError> {
    match read_frame(rest) {
        FrameOutcome::Frame { payload, consumed } => {
            *rest = &rest[consumed..];
            Ok(payload)
        }
        FrameOutcome::End => Err(corrupt("file ends before its last frame")),
        FrameOutcome::Bad(why) => Err(corrupt(why.to_string())),
    }
}

/// Loads the partition spaces of a session over `left`/`right` under
/// `cfg` from a space file image, checking that it was written for exactly
/// these stores and this configuration. Never panics on any input.
pub fn decode_spaces(
    bytes: &[u8],
    left: &Store,
    right: &Store,
    cfg: &AlexConfig,
) -> Result<Vec<ExplorationSpace>, SpaceFileError> {
    let _span = alex_trace::span("space.load");
    let mut rest = bytes;
    Header::decode(next_frame(&mut rest)?)?.check(left, right, cfg)?;
    let lefts: Vec<IriId> = left.subjects().collect();
    let rights: Vec<IriId> = right.subjects().collect();
    let n = cfg.partitions;
    let spaces = (0..n)
        .map(|p| decode_partition(&mut rest, p, n, &lefts, &rights, left, right))
        .collect::<Result<Vec<_>, _>>()?;
    if !rest.is_empty() {
        return Err(corrupt(format!(
            "{} trailing bytes after the last partition",
            rest.len()
        )));
    }
    Ok(spaces)
}

fn decode_partition(
    rest: &mut &[u8],
    p: usize,
    partitions: usize,
    lefts: &[IriId],
    rights: &[IriId],
    left: &Store,
    right: &Store,
) -> Result<ExplorationSpace, SpaceFileError> {
    let mut r = Reader::new(next_frame(rest)?);
    if r.read_u64()? != p as u64 {
        return Err(corrupt(format!("partition {p} out of order")));
    }
    let key_count = read_len(&mut r, "key count")?;
    let mut table = Vec::with_capacity(key_count.min(r.remaining()));
    for _ in 0..key_count {
        let l = r.read_str_borrowed()?;
        let rt = r.read_str_borrowed()?;
        table.push(FeatureKey::new(left.intern_iri(l), right.intern_iri(rt)));
    }
    let pair_count = read_len(&mut r, "pair count")?;
    expect_end(&r)?;
    let mut keys = table.clone();
    keys.sort_unstable();
    keys.dedup();
    if keys.len() != table.len() {
        return Err(corrupt("duplicate feature key"));
    }

    let mut used = vec![false; table.len()];
    let mut pairs: Vec<(u64, Link, FeatureSet)> = Vec::new();
    let mut left_ord = 0u64;
    while pairs.len() < pair_count {
        let mut r = Reader::new(next_frame(rest)?);
        let n = read_len(&mut r, "frame pair count")?;
        if n == 0 || n > pair_count - pairs.len() {
            return Err(corrupt(format!("frame holds {n} pairs")));
        }
        pairs.reserve(n.min(r.remaining()));
        for _ in 0..n {
            left_ord = left_ord
                .checked_add(r.read_u64()?)
                .ok_or_else(|| corrupt("left ordinal overflows"))?;
            let l = usize::try_from(left_ord)
                .ok()
                .and_then(|i| lefts.get(i))
                .ok_or_else(|| corrupt(format!("left ordinal {left_ord} out of range")))?;
            if left_ord % partitions as u64 != p as u64 {
                return Err(corrupt(format!(
                    "left ordinal {left_ord} is not in partition {p}"
                )));
            }
            let rt = read_len(&mut r, "right ordinal")?;
            let rt = rights
                .get(rt)
                .ok_or_else(|| corrupt(format!("right ordinal {rt} out of range")))?;
            let nf = read_len(&mut r, "feature count")?;
            if nf == 0 || nf > table.len() {
                return Err(corrupt(format!("pair with {nf} features")));
            }
            let mut features = Vec::with_capacity(nf);
            for _ in 0..nf {
                let k = read_len(&mut r, "key index")?;
                let key = *table
                    .get(k)
                    .ok_or_else(|| corrupt(format!("key index {k} out of range")))?;
                used[k] = true;
                let score = f64::from_bits(u64::from_le_bytes(read_bytes(&mut r)?));
                if !score.is_finite() {
                    return Err(corrupt("non-finite score"));
                }
                features.push(Feature { key, score });
            }
            features.sort_unstable_by_key(|f| f.key);
            if features.windows(2).any(|w| w[0].key == w[1].key) {
                return Err(corrupt("pair repeats a feature key"));
            }
            pairs.push((
                left_ord,
                Link::new(*l, *rt),
                FeatureSet::from_sorted(features),
            ));
        }
        expect_end(&r)?;
    }
    if used.iter().any(|u| !u) {
        return Err(corrupt("feature key no pair has"));
    }
    // The build's pair order: left subjects in partition order, each
    // one's candidates ascending by right id (ids of this process).
    pairs.sort_unstable_by_key(|(l, link, _)| (*l, link.right));
    if pairs.windows(2).any(|w| w[0].1 == w[1].1) {
        return Err(corrupt("duplicate pair"));
    }
    let partition_len = lefts.len().saturating_sub(p).div_ceil(partitions);
    Ok(ExplorationSpace::assemble(
        keys,
        pairs.into_iter().map(|(_, link, fs)| (link, fs)),
        partition_len * rights.len(),
    ))
}
