//! Property-based tests for the two on-disk codecs: arbitrary stores
//! must survive the snapshot format bit-identically, and arbitrary WAL
//! record sequences must survive framing — including the torn-tail
//! guarantee that any cut point yields an exact frame prefix.

use alex_rdf::{Date, FloatBits, Interner, Literal, Store, Term, Triple};
use alex_store::{
    crc32, decode_record, decode_store, encode_record, encode_store, scan_frames,
    store_fingerprint, write_frame, write_i64, write_u64, WalRecord, STORE_MAGIC, STORE_VERSION,
};
use proptest::prelude::*;

// ------------------------------------------------------------- snapshots

/// A store described without interner ids, so proptest can shrink it.
#[derive(Clone, Debug)]
enum ObjSpec {
    Iri(u8),
    Str(String),
    LangStr(String, u8),
    Integer(i64),
    Float(f64),
    Boolean(bool),
    Date(i32, u8, u8),
}

fn arb_obj() -> impl Strategy<Value = ObjSpec> {
    prop_oneof![
        (0u8..16).prop_map(ObjSpec::Iri),
        ".{0,12}".prop_map(ObjSpec::Str),
        (".{0,8}", 0u8..3).prop_map(|(s, l)| ObjSpec::LangStr(s, l)),
        any::<i64>().prop_map(ObjSpec::Integer),
        any::<f64>().prop_map(ObjSpec::Float),
        any::<bool>().prop_map(ObjSpec::Boolean),
        (-9999i32..9999, 1u8..=12, 1u8..=28).prop_map(|(y, m, d)| ObjSpec::Date(y, m, d)),
    ]
}

fn arb_triples() -> impl Strategy<Value = Vec<(u8, u8, ObjSpec)>> {
    proptest::collection::vec((0u8..16, 0u8..6, arb_obj()), 0..60)
}

fn build_store(specs: &[(u8, u8, ObjSpec)]) -> Store {
    let interner = Interner::new_shared();
    let mut store = Store::new(interner.clone());
    const LANGS: [&str; 3] = ["en", "fr", "pt-BR"];
    for (s, p, obj) in specs {
        let subject = store.intern_iri(&format!("http://ex/s{s}"));
        let predicate = store.intern_iri(&format!("http://ex/p{p}"));
        let object: Term = match obj {
            ObjSpec::Iri(o) => Term::Iri(store.intern_iri(&format!("http://ex/o{o}"))),
            ObjSpec::Str(v) => Literal::str(&interner, v).into(),
            ObjSpec::LangStr(v, l) => Literal::LangStr {
                value: interner.intern(v),
                lang: interner.intern(LANGS[*l as usize]),
            }
            .into(),
            ObjSpec::Integer(v) => Literal::Integer(*v).into(),
            ObjSpec::Float(v) => Literal::Float(FloatBits::new(*v)).into(),
            ObjSpec::Boolean(v) => Literal::Boolean(*v).into(),
            ObjSpec::Date(y, m, d) => Literal::Date(Date::new(*y, *m, *d).unwrap()).into(),
        };
        store.insert(Triple::new(subject, predicate, object));
    }
    store
}

proptest! {
    /// Any store survives encode → decode into a fresh interner →
    /// re-encode with identical bytes, identical fingerprint, and
    /// identical triples resolved back to strings.
    #[test]
    fn snapshot_round_trips_arbitrary_stores(specs in arb_triples()) {
        let store = build_store(&specs);
        let bytes = encode_store(&store);
        let fresh = Interner::new_shared();
        let back = decode_store(&bytes, &fresh).unwrap();

        prop_assert_eq!(back.len(), store.len());
        prop_assert_eq!(store_fingerprint(&back), store_fingerprint(&store));
        let bytes2 = encode_store(&back);
        prop_assert_eq!(bytes, bytes2, "re-encoding must be byte-identical");

        // Spot-check the id remap: every subject IRI resolves to the
        // same text in both interners, in the same triple order.
        for (a, b) in store.iter().zip(back.iter()) {
            prop_assert_eq!(store.iri_str(a.subject), back.iri_str(b.subject));
        }
    }

    /// Decoding is total: arbitrary bytes either decode or error, but
    /// never panic.
    #[test]
    fn snapshot_decoding_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let fresh = Interner::new_shared();
        let _ = decode_store(&bytes, &fresh);
    }

    /// Truncating a valid snapshot anywhere must produce an error, not a
    /// partial store (the header commits to the body length).
    #[test]
    fn truncated_snapshots_are_rejected(specs in arb_triples(), cut in any::<usize>()) {
        let store = build_store(&specs);
        let bytes = encode_store(&store);
        let cut = cut % bytes.len().max(1);
        if cut < bytes.len() {
            let fresh = Interner::new_shared();
            prop_assert!(decode_store(&bytes[..cut], &fresh).is_err());
        }
    }
}

/// A triple-section field: a valid dictionary index (twice as likely),
/// any value, or one at either end of the `i64` range.
fn arb_field() -> impl Strategy<Value = i64> {
    prop_oneof![
        0i64..4,
        0i64..4,
        any::<i64>(),
        (i64::MAX - 3)..=i64::MAX,
        i64::MIN..=(i64::MIN + 3),
    ]
}

/// Triple-section bytes shaped like the format: a triple count (true or
/// arbitrary), then per triple a subject delta, a predicate, an object tag
/// (0–8; 8 is unknown) and that tag's fields, then a few arbitrary bytes.
fn arb_triple_section() -> impl Strategy<Value = Vec<u8>> {
    let triple = (arb_field(), arb_field(), 0u8..9, arb_field(), arb_field());
    (
        proptest::collection::vec(triple, 0..8),
        (any::<bool>(), any::<u64>()),
        proptest::collection::vec(any::<u8>(), 0..4),
    )
        .prop_map(|(triples, (true_count, count), tail)| {
            let mut out = Vec::new();
            write_u64(
                &mut out,
                if true_count {
                    triples.len() as u64
                } else {
                    count
                },
            );
            for (delta, predicate, tag, a, b) in triples {
                write_i64(&mut out, delta);
                write_u64(&mut out, predicate as u64);
                out.push(tag);
                match tag {
                    0 | 1 | 4 => write_u64(&mut out, a as u64),
                    2 => {
                        write_u64(&mut out, a as u64);
                        write_u64(&mut out, b as u64);
                    }
                    3 => write_i64(&mut out, a),
                    7 => {
                        write_i64(&mut out, a);
                        out.extend_from_slice(&[b as u8, (b >> 8) as u8]);
                    }
                    _ => {}
                }
            }
            out.extend_from_slice(&tail);
            out
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The triple decoder is total too: a valid header and a four-entry
    /// dictionary, then triple-section bytes either well-formed or
    /// arbitrary, decode or error but never panic. Run it in a debug
    /// build, where integer overflow traps instead of wrapping.
    #[test]
    fn triple_section_decoding_never_panics(
        section in prop_oneof![
            arb_triple_section(),
            proptest::collection::vec(any::<u8>(), 0..64),
        ]
    ) {
        let mut body = Vec::new();
        write_u64(&mut body, 4);
        for s in ["a", "b", "c", "d"] {
            write_u64(&mut body, 1);
            body.extend_from_slice(s.as_bytes());
        }
        body.extend_from_slice(&section);
        let mut bytes = STORE_MAGIC.to_vec();
        bytes.extend_from_slice(&STORE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        let _ = decode_store(&bytes, &Interner::new_shared());
    }
}

// ----------------------------------------------------------- WAL records

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (".{0,24}", ".{0,24}", any::<bool>()).prop_map(|(left, right, positive)| {
            WalRecord::Feedback {
                left,
                right,
                positive,
            }
        }),
        (".{0,24}", ".{0,24}").prop_map(|(left, right)| WalRecord::LinkAdded { left, right }),
        (".{0,24}", ".{0,24}", ".{0,12}").prop_map(|(left, right, reason)| {
            WalRecord::LinkRemoved {
                left,
                right,
                reason,
            }
        }),
        (
            any::<u64>(),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            any::<u64>(),
        )
            .prop_map(
                |(partition, (a, b, c, d), q_entries)| WalRecord::PolicyDelta {
                    partition,
                    rng: [a, b, c, d],
                    q_entries,
                }
            ),
        (any::<u64>(), any::<u64>()).prop_map(|(episode, feedback_items)| {
            WalRecord::EpisodeEnd {
                episode,
                feedback_items,
            }
        }),
        any::<u64>().prop_map(|source_skips| WalRecord::Degraded { source_skips }),
    ]
}

proptest! {
    /// Any record sequence framed into a log buffer scans back intact:
    /// same records, same sequence numbers, no torn tail.
    #[test]
    fn wal_record_sequences_round_trip(
        records in proptest::collection::vec(arb_record(), 0..40),
        first_seq in 1u64..1_000_000,
    ) {
        let mut log = Vec::new();
        for (i, record) in records.iter().enumerate() {
            write_frame(&mut log, &encode_record(first_seq + i as u64, record));
        }

        let mut back = Vec::new();
        let (clean, damage) = scan_frames(&log, |payload| {
            back.push(decode_record(payload).unwrap());
        });
        prop_assert_eq!(clean, log.len());
        prop_assert!(damage.is_none());
        prop_assert_eq!(back.len(), records.len());
        for (i, (got, want)) in back.iter().zip(&records).enumerate() {
            prop_assert_eq!(got.seq, first_seq + i as u64);
            prop_assert_eq!(&got.record, want);
        }
    }

    /// Cutting the log buffer at any byte yields exactly the frames that
    /// fit before the cut — the invariant crash recovery is built on.
    #[test]
    fn any_cut_point_yields_an_exact_frame_prefix(
        records in proptest::collection::vec(arb_record(), 1..20),
        cut in any::<usize>(),
    ) {
        let mut log = Vec::new();
        let mut ends = Vec::new();
        for (i, record) in records.iter().enumerate() {
            write_frame(&mut log, &encode_record(1 + i as u64, record));
            ends.push(log.len());
        }
        let cut = cut % log.len();
        let expected = ends.iter().filter(|&&e| e <= cut).count();

        let mut back = Vec::new();
        let (clean, _) = scan_frames(&log[..cut], |payload| {
            back.push(decode_record(payload).unwrap());
        });
        prop_assert_eq!(back.len(), expected);
        prop_assert_eq!(clean, if expected == 0 { 0 } else { ends[expected - 1] });
        for (i, got) in back.iter().enumerate() {
            prop_assert_eq!(&got.record, &records[i], "prefix record {} differs", i);
        }
    }

    /// Record payload decoding is total on arbitrary bytes.
    #[test]
    fn record_decoding_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = decode_record(&bytes);
    }
}
