//! The binary triple-store snapshot codec (`.alexdb`).
//!
//! `alex compact dataset.nt dataset.alexdb` converts a dataset once; every
//! later cold start decodes the binary image instead of re-running the
//! N-Triples parser. The win comes from two properties of the format:
//! every distinct string is stored (and re-interned) exactly once in a
//! dictionary section, and triples are fixed varint structures over dense
//! dictionary indices — no tokenizing, no escape processing, no per-triple
//! string hashing.
//!
//! Layout:
//!
//! ```text
//! ┌──────────────┬───────────────┬──────────────┬──────────────┬──────┐
//! │ magic 8 bytes│ version u32LE │ body_len u64LE│ body_crc u32LE│ body │
//! └──────────────┴───────────────┴──────────────┴──────────────┴──────┘
//! body := dict_count varint, dict_count × (len varint + UTF-8 bytes),
//!         triple_count varint, triple_count × triple
//! triple := subject_delta zigzag-varint   (vs previous triple's subject)
//!           predicate varint              (dictionary index)
//!           object tag u8 + fields        (see `tag::*`)
//! ```
//!
//! Dictionary indices are assigned in first-use order over the insertion-
//! ordered triple walk, so encoding is deterministic and decoding into a
//! fresh interner reproduces the store *bit-identically*: same triple
//! order, same subject order, same dense id assignment. The body CRC is
//! verified before any decoding, so a damaged file fails loudly instead
//! of producing a subtly different store.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use alex_rdf::{Date, FloatBits, Interner, IriId, Literal, Store, StrId, Term, Triple};

use crate::crc32::crc32;
use crate::varint::{write_i64, write_u64, CodecError, Reader};

/// File magic: "ALEXDB" + two format digits.
pub const STORE_MAGIC: [u8; 8] = *b"ALEXDB01";

/// Current snapshot format version.
pub const STORE_VERSION: u32 = 1;

/// Fixed bytes before the body: magic + version + body_len + body_crc.
const HEADER_BYTES: usize = 8 + 4 + 8 + 4;

mod tag {
    pub const IRI: u8 = 0;
    pub const STR: u8 = 1;
    pub const LANG_STR: u8 = 2;
    pub const INTEGER: u8 = 3;
    pub const FLOAT: u8 = 4;
    pub const BOOLEAN_FALSE: u8 = 5;
    pub const BOOLEAN_TRUE: u8 = 6;
    pub const DATE: u8 = 7;
}

/// Maps process-local [`StrId`]s to dense dictionary indices in first-use
/// order, collecting the strings to serialize.
struct Dict<'a> {
    interner: &'a Interner,
    index_of: HashMap<StrId, u64>,
    strings: Vec<Arc<str>>,
}

impl<'a> Dict<'a> {
    fn new(interner: &'a Interner) -> Self {
        Self {
            interner,
            index_of: HashMap::new(),
            strings: Vec::new(),
        }
    }

    fn index(&mut self, id: StrId) -> u64 {
        if let Some(&i) = self.index_of.get(&id) {
            return i;
        }
        let i = self.strings.len() as u64;
        self.strings.push(self.interner.resolve(id));
        self.index_of.insert(id, i);
        i
    }
}

/// Encodes a store into the `.alexdb` byte format.
pub fn encode_store(store: &Store) -> Vec<u8> {
    let interner = store.interner();
    let mut dict = Dict::new(interner);
    // First pass: assign dictionary indices in first-use order and build
    // the triple section against them.
    let mut triples = Vec::with_capacity(store.len() * 8);
    let mut prev_subject: i64 = 0;
    write_u64(&mut triples, store.len() as u64);
    for t in store.iter() {
        let s = dict.index(t.subject.0) as i64;
        write_i64(&mut triples, s - prev_subject);
        prev_subject = s;
        let p = dict.index(t.predicate.0);
        write_u64(&mut triples, p);
        match t.object {
            Term::Iri(id) => {
                triples.push(tag::IRI);
                let i = dict.index(id.0);
                write_u64(&mut triples, i);
            }
            Term::Literal(Literal::Str(id)) => {
                triples.push(tag::STR);
                let i = dict.index(id);
                write_u64(&mut triples, i);
            }
            Term::Literal(Literal::LangStr { value, lang }) => {
                triples.push(tag::LANG_STR);
                let v = dict.index(value);
                write_u64(&mut triples, v);
                let l = dict.index(lang);
                write_u64(&mut triples, l);
            }
            Term::Literal(Literal::Integer(i)) => {
                triples.push(tag::INTEGER);
                write_i64(&mut triples, i);
            }
            Term::Literal(Literal::Float(f)) => {
                triples.push(tag::FLOAT);
                write_u64(&mut triples, f.get().to_bits());
            }
            Term::Literal(Literal::Boolean(b)) => {
                triples.push(if b {
                    tag::BOOLEAN_TRUE
                } else {
                    tag::BOOLEAN_FALSE
                });
            }
            Term::Literal(Literal::Date(d)) => {
                triples.push(tag::DATE);
                write_i64(&mut triples, i64::from(d.year()));
                triples.push(d.month());
                triples.push(d.day());
            }
        }
    }

    let mut body = Vec::with_capacity(triples.len() + dict.strings.len() * 24);
    write_u64(&mut body, dict.strings.len() as u64);
    for s in &dict.strings {
        write_u64(&mut body, s.len() as u64);
        body.extend_from_slice(s.as_bytes());
    }
    body.extend_from_slice(&triples);
    seal(&body)
}

/// Frames `body` behind the header: magic, version, length, CRC.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + body.len());
    out.extend_from_slice(&STORE_MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Decodes a `.alexdb` image into a store sharing `interner`, verifying
/// magic, version, length, and checksum before touching the body.
pub fn decode_store(bytes: &[u8], interner: &Arc<Interner>) -> Result<Store, CodecError> {
    if bytes.len() < HEADER_BYTES {
        return Err(CodecError::Truncated);
    }
    if bytes[0..8] != STORE_MAGIC {
        return Err(CodecError::Corrupt("not an alexdb file (bad magic)".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version > STORE_VERSION {
        return Err(CodecError::Corrupt(format!(
            "alexdb version {version} is newer than this build supports ({STORE_VERSION})"
        )));
    }
    let body_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let expected_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let body = &bytes[HEADER_BYTES..];
    if (body.len() as u64) < body_len {
        return Err(CodecError::Truncated);
    }
    if body.len() as u64 > body_len {
        return Err(CodecError::Corrupt(format!(
            "{} trailing bytes after the snapshot body",
            body.len() as u64 - body_len
        )));
    }
    if crc32(body) != expected_crc {
        return Err(CodecError::Corrupt(
            "snapshot body checksum mismatch".into(),
        ));
    }

    let mut r = Reader::new(body);
    let dict_count = r.read_u64()?;
    let dict_count = usize::try_from(dict_count)
        .map_err(|_| CodecError::Corrupt("dictionary count overflows usize".into()))?;
    // Collect the dictionary as borrowed slices of the body and intern it
    // in one batch: no per-string allocation, one interner lock.
    let mut raw: Vec<&str> = Vec::with_capacity(dict_count.min(body.len()));
    for _ in 0..dict_count {
        raw.push(r.read_str_borrowed()?);
    }
    let dict: Vec<StrId> = interner.intern_all(raw.iter().copied());
    let lookup = |index: u64| -> Result<StrId, CodecError> {
        // Comparing in u64 first makes the cast lossless on every target.
        if index < dict_count as u64 {
            Ok(dict[index as usize])
        } else {
            Err(CodecError::Corrupt(format!(
                "dictionary index {index} out of range ({dict_count} entries)"
            )))
        }
    };
    let triple_count = r.read_u64()?;
    // Each triple costs at least 3 encoded bytes, so a hostile count
    // can't force an allocation larger than the body itself.
    let capacity = usize::try_from(triple_count)
        .unwrap_or(0)
        .min(r.remaining() / 3);
    let mut decoded: Vec<Triple> = Vec::with_capacity(capacity);
    let mut prev_subject: i64 = 0;
    for n in 0..triple_count {
        let subject_idx = prev_subject
            .checked_add(r.read_i64()?)
            .ok_or_else(|| CodecError::Corrupt(format!("subject index overflows at triple {n}")))?;
        prev_subject = subject_idx;
        let subject_idx = u64::try_from(subject_idx)
            .map_err(|_| CodecError::Corrupt(format!("negative subject index at triple {n}")))?;
        let subject = IriId(lookup(subject_idx)?);
        let predicate = IriId(lookup(r.read_u64()?)?);
        let object: Term = match r.read_u8()? {
            tag::IRI => Term::Iri(IriId(lookup(r.read_u64()?)?)),
            tag::STR => Literal::Str(lookup(r.read_u64()?)?).into(),
            tag::LANG_STR => Literal::LangStr {
                value: lookup(r.read_u64()?)?,
                lang: lookup(r.read_u64()?)?,
            }
            .into(),
            tag::INTEGER => Literal::Integer(r.read_i64()?).into(),
            tag::FLOAT => Literal::Float(FloatBits::new(f64::from_bits(r.read_u64()?))).into(),
            tag::BOOLEAN_FALSE => Literal::Boolean(false).into(),
            tag::BOOLEAN_TRUE => Literal::Boolean(true).into(),
            tag::DATE => {
                let year = r.read_i64()?;
                let year = i32::try_from(year)
                    .map_err(|_| CodecError::Corrupt(format!("year {year} out of range")))?;
                let month = r.read_u8()?;
                let day = r.read_u8()?;
                let date = Date::new(year, month, day)
                    .map_err(|e| CodecError::Corrupt(format!("invalid date at triple {n}: {e}")))?;
                Literal::Date(date).into()
            }
            other => {
                return Err(CodecError::Corrupt(format!(
                    "unknown object tag {other} at triple {n}"
                )))
            }
        };
        decoded.push(Triple::new(subject, predicate, object));
    }
    if !r.is_empty() {
        return Err(CodecError::Corrupt(format!(
            "{} trailing bytes after the triple section",
            r.remaining()
        )));
    }
    Ok(Store::from_triples(Arc::clone(interner), decoded))
}

/// Errors loading a snapshot file: I/O or decoding.
#[derive(Debug)]
pub enum StoreFileError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file's contents are not a valid snapshot.
    Codec(CodecError),
}

impl std::fmt::Display for StoreFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreFileError::Io(e) => write!(f, "{e}"),
            StoreFileError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreFileError {}

impl From<std::io::Error> for StoreFileError {
    fn from(e: std::io::Error) -> Self {
        StoreFileError::Io(e)
    }
}

impl From<CodecError> for StoreFileError {
    fn from(e: CodecError) -> Self {
        StoreFileError::Codec(e)
    }
}

/// Writes a store snapshot atomically: encode, write `path.tmp`, fsync,
/// rename over `path`. A crash mid-write leaves either the old file or
/// none — never a torn snapshot.
pub fn write_store_file(path: &Path, store: &Store) -> std::io::Result<()> {
    let bytes = encode_store(store);
    let tmp = path.with_extension("alexdb.tmp");
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
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

/// Reads a snapshot file into a store sharing `interner`.
pub fn read_store_file(path: &Path, interner: &Arc<Interner>) -> Result<Store, StoreFileError> {
    let bytes = std::fs::read(path)?;
    Ok(decode_store(&bytes, interner)?)
}

/// An order-sensitive fingerprint of a store's *contents* (resolved
/// strings, not process-local ids): equal fingerprints across interners
/// mean the stores hold the same triples in the same order. Used by the
/// `exp_store` gate and the recovery tests to compare a binary-loaded
/// store against a text-parsed one.
pub fn store_fingerprint(store: &Store) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let interner = store.interner();
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h ^= 0xFF; // field separator
        h = h.wrapping_mul(PRIME);
    };
    for t in store.iter() {
        eat(interner.resolve(t.subject.0).as_bytes());
        eat(interner.resolve(t.predicate.0).as_bytes());
        match t.object {
            Term::Iri(id) => {
                eat(b"i");
                eat(interner.resolve(id.0).as_bytes());
            }
            Term::Literal(Literal::Str(id)) => {
                eat(b"s");
                eat(interner.resolve(id).as_bytes());
            }
            Term::Literal(Literal::LangStr { value, lang }) => {
                eat(b"l");
                eat(interner.resolve(value).as_bytes());
                eat(interner.resolve(lang).as_bytes());
            }
            Term::Literal(Literal::Integer(i)) => {
                eat(b"n");
                eat(&i.to_le_bytes());
            }
            Term::Literal(Literal::Float(f)) => {
                eat(b"f");
                eat(&f.get().to_bits().to_le_bytes());
            }
            Term::Literal(Literal::Boolean(b)) => {
                eat(if b { b"T" } else { b"F" });
            }
            Term::Literal(Literal::Date(d)) => {
                eat(b"d");
                eat(&d.year().to_le_bytes());
                eat(&[d.month(), d.day()]);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varied_store() -> Store {
        let interner = Interner::new_shared();
        let mut store = Store::new(interner.clone());
        let name = store.intern_iri("http://ex/name");
        let age = store.intern_iri("http://ex/age");
        let born = store.intern_iri("http://ex/born");
        let knows = store.intern_iri("http://ex/knows");
        let score = store.intern_iri("http://ex/score");
        let active = store.intern_iri("http://ex/active");
        for i in 0..10 {
            let s = store.intern_iri(&format!("http://ex/person{i}"));
            store.insert_literal(s, name, Literal::str(&interner, &format!("Person {i} çéç")));
            store.insert_literal(s, age, Literal::Integer(20 + i));
            store.insert_literal(s, score, Literal::float(0.5 + i as f64));
            store.insert_literal(s, active, Literal::Boolean(i % 2 == 0));
            store.insert_literal(
                s,
                born,
                Literal::Date(Date::new(1990 + i as i32, 3, 14).unwrap()),
            );
            let friend = store.intern_iri(&format!("http://ex/person{}", (i + 1) % 10));
            store.insert_iri(s, knows, friend);
            store.insert(Triple::new(
                s,
                name,
                Literal::LangStr {
                    value: interner.intern(&format!("personne {i}")),
                    lang: interner.intern("fr"),
                },
            ));
        }
        store
    }

    fn assert_stores_identical(a: &Store, b: &Store) {
        assert_eq!(a.len(), b.len());
        assert_eq!(store_fingerprint(a), store_fingerprint(b));
        // Subject first-insertion order is preserved (it drives partition
        // assignment, so it must survive the codec bit-for-bit).
        let subjects =
            |s: &Store| -> Vec<Arc<str>> { s.subjects().map(|id| s.iri_str(id)).collect() };
        assert_eq!(subjects(a), subjects(b));
    }

    #[test]
    fn encode_decode_round_trips_every_literal_kind() {
        let store = varied_store();
        let bytes = encode_store(&store);
        let fresh = Interner::new_shared();
        let back = decode_store(&bytes, &fresh).unwrap();
        assert_stores_identical(&store, &back);
    }

    #[test]
    fn decoding_into_a_fresh_interner_assigns_dense_ids() {
        let store = varied_store();
        let bytes = encode_store(&store);
        let fresh = Interner::new_shared();
        let back = decode_store(&bytes, &fresh).unwrap();
        // Every id in the decoded store resolves in the fresh interner and
        // the interner holds exactly the dictionary (no extra strings).
        assert!(back.iter().count() == store.len());
        let bytes2 = encode_store(&back);
        assert_eq!(bytes, bytes2, "re-encoding is byte-identical");
    }

    #[test]
    fn shared_interner_stores_decode_against_one_fresh_interner() {
        // The serve scenario: left and right share an interner with
        // interleaved ids; both must decode into one fresh interner with
        // cross-store ids still comparable.
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        let name_l = left.intern_iri("http://l/name");
        let name_r = right.intern_iri("http://r/label");
        for i in 0..5 {
            let l = left.intern_iri(&format!("http://l/e{i}"));
            let r = right.intern_iri(&format!("http://r/e{i}"));
            left.insert_literal(l, name_l, Literal::str(&interner, &format!("thing {i}")));
            right.insert_literal(r, name_r, Literal::str(&interner, &format!("thing {i}")));
        }
        let fresh = Interner::new_shared();
        let left2 = decode_store(&encode_store(&left), &fresh).unwrap();
        let right2 = decode_store(&encode_store(&right), &fresh).unwrap();
        assert_stores_identical(&left, &left2);
        assert_stores_identical(&right, &right2);
        // Shared-literal ids are comparable across the decoded pair, like
        // the originals: "thing 0" in left2 equals "thing 0" in right2.
        let t0 = fresh.get("thing 0").expect("shared literal interned once");
        assert!(left2
            .iter()
            .any(|t| t.object.as_literal() == Some(&Literal::Str(t0))));
        assert!(right2
            .iter()
            .any(|t| t.object.as_literal() == Some(&Literal::Str(t0))));
    }

    #[test]
    fn corruption_is_detected_not_decoded() {
        let store = varied_store();
        let bytes = encode_store(&store);
        let fresh = Interner::new_shared();

        // Bad magic.
        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        assert!(decode_store(&b, &fresh).is_err());
        // Future version.
        let mut b = bytes.clone();
        b[8] = 0xFF;
        assert!(decode_store(&b, &fresh).is_err());
        // Flipped body byte → checksum mismatch.
        let mut b = bytes.clone();
        let mid = HEADER_BYTES + (b.len() - HEADER_BYTES) / 2;
        b[mid] ^= 0x01;
        assert!(matches!(
            decode_store(&b, &fresh),
            Err(CodecError::Corrupt(_))
        ));
        // Truncation anywhere fails cleanly.
        for cut in [0, 7, HEADER_BYTES - 1, HEADER_BYTES + 3, bytes.len() - 1] {
            assert!(decode_store(&bytes[..cut], &fresh).is_err(), "cut {cut}");
        }
        // Trailing garbage after the body is rejected too.
        let mut b = bytes.clone();
        b.push(0);
        assert!(decode_store(&b, &fresh).is_err());
    }

    #[test]
    fn subject_index_overflow_is_corrupt_not_a_panic() {
        // Two entries, then subject deltas 1 and i64::MAX: the second sum
        // overflows i64, which must be reported, not trapped or wrapped.
        let mut body = Vec::new();
        write_u64(&mut body, 2);
        for s in ["a", "b"] {
            write_u64(&mut body, 1);
            body.extend_from_slice(s.as_bytes());
        }
        write_u64(&mut body, 2);
        for delta in [1, i64::MAX] {
            write_i64(&mut body, delta);
            write_u64(&mut body, 0);
            body.push(tag::BOOLEAN_TRUE);
        }
        let err = decode_store(&seal(&body), &Interner::new_shared()).unwrap_err();
        assert_eq!(
            err,
            CodecError::Corrupt("subject index overflows at triple 1".into())
        );
    }

    #[test]
    fn empty_store_round_trips() {
        let store = Store::new(Interner::new_shared());
        let bytes = encode_store(&store);
        let back = decode_store(&bytes, &Interner::new_shared()).unwrap();
        assert!(back.is_empty());
        assert_eq!(store_fingerprint(&store), store_fingerprint(&back));
    }

    #[test]
    fn file_round_trip_is_atomic_shaped() {
        let dir = std::env::temp_dir().join(format!("alex-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.alexdb");
        let store = varied_store();
        write_store_file(&path, &store).unwrap();
        assert!(
            !path.with_extension("alexdb.tmp").exists(),
            "tmp renamed away"
        );
        let back = read_store_file(&path, &Interner::new_shared()).unwrap();
        assert_stores_identical(&store, &back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_distinguishes_content_and_order() {
        let interner = Interner::new_shared();
        let mut a = Store::new(interner.clone());
        let mut b = Store::new(interner.clone());
        let p = a.intern_iri("http://ex/p");
        let x = a.intern_iri("http://ex/x");
        let y = a.intern_iri("http://ex/y");
        a.insert_iri(x, p, y);
        a.insert_iri(y, p, x);
        b.insert_iri(y, p, x);
        b.insert_iri(x, p, y);
        assert_ne!(store_fingerprint(&a), store_fingerprint(&b));
        // Integer 1 vs string "1" must not collide.
        let mut c = Store::new(interner.clone());
        let mut d = Store::new(interner.clone());
        c.insert_literal(x, p, Literal::Integer(1));
        d.insert_literal(x, p, Literal::str(&interner, "1"));
        assert_ne!(store_fingerprint(&c), store_fingerprint(&d));
    }
}
