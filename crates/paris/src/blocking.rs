//! Literal-key blocking: candidate pair generation without the cross
//! product.
//!
//! Two entities can only be PARIS-equivalent if they share some literal
//! evidence, so candidate pairs are drawn from inverted indexes of
//! normalized literal values and of individual tokens. Keys that map to
//! more than `max_block_size` entities on either side (stop words, common
//! years, `owl:Thing`-style categoricals) are dropped — they would
//! contribute quadratic noise and no identification evidence.

use alex_core::parallel::Executor;
use alex_rdf::hash::FastMap;
use alex_rdf::{Interner, IriId, Literal, Store, Term};
use alex_sim::string::tokens;
use alex_sim::ValueTable;

use crate::{id32, slot};

/// A blocking key: either a whole normalized literal or one token of it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Key {
    Whole(String),
    Token(String),
}

fn keys_of(interner: &Interner, term: &Term, out: &mut Vec<Key>) {
    let lit = match term {
        Term::Literal(l) => l,
        // IRIs contribute their local name as a whole-value key; linked
        // datasets frequently reuse readable local names.
        Term::Iri(id) => {
            let local = alex_sim::iri_local_name(&interner.resolve(id.0)).to_lowercase();
            if !local.is_empty() {
                out.push(Key::Whole(local));
            }
            return;
        }
    };
    match lit {
        Literal::Str(_) | Literal::LangStr { .. } => {
            let text = lit.lexical(interner).to_lowercase();
            if text.is_empty() {
                return;
            }
            out.extend(
                tokens(&text)
                    .into_iter()
                    .filter(|tok| tok.len() >= 3)
                    .map(Key::Token),
            );
            out.push(Key::Whole(text));
        }
        // Exact-value keys for non-strings: sharing a number/date is weak
        // alone but combined with other evidence it seeds the fixpoint.
        Literal::Integer(_) | Literal::Float(_) | Literal::Date(_) => {
            out.push(Key::Whole(lit.lexical(interner).to_string()));
        }
        // Booleans partition the world in two; useless as keys.
        Literal::Boolean(_) => {}
    }
}

/// Every value's interned key ids: value `v`'s keys are
/// `value_keys[slot(&offsets, v)]`.
struct ValueKeys {
    offsets: Vec<u32>,
    value_keys: Vec<u32>,
    count: usize,
}

impl ValueKeys {
    fn new(table: &ValueTable, interner: &Interner) -> Self {
        let mut ids: FastMap<Key, u32> = FastMap::default();
        let mut offsets = vec![0];
        let mut value_keys = Vec::new();
        let mut keys = Vec::new();
        for term in table.terms() {
            keys_of(interner, term, &mut keys);
            for k in keys.drain(..) {
                let next = id32(ids.len());
                value_keys.push(*ids.entry(k).or_insert(next));
            }
            offsets.push(id32(value_keys.len()));
        }
        Self {
            offsets,
            value_keys,
            count: ids.len(),
        }
    }
}

/// One side's inverted index: key `k`'s subjects, ascending and distinct,
/// are `subjects[slot(&offsets, k)]`; empty for buckets larger than
/// `max_block_size`.
struct Postings {
    offsets: Vec<u32>,
    subjects: Vec<IriId>,
}

impl Postings {
    fn new(store: &Store, table: &ValueTable, keys: &ValueKeys, max_block_size: usize) -> Self {
        let mut entries: Vec<(u32, IriId)> = Vec::new();
        for t in store.iter() {
            let v = table
                .id(&t.object)
                .expect("objects come from the stores the table was built from");
            let ks = &keys.value_keys[slot(&keys.offsets, v as usize)];
            entries.extend(ks.iter().map(|&k| (k, t.subject)));
        }
        entries.sort_unstable();
        entries.dedup();
        let mut offsets = vec![0];
        let mut subjects = Vec::new();
        let mut buckets = entries.chunk_by(|a, b| a.0 == b.0).peekable();
        for k in 0..id32(keys.count) {
            if let Some(bucket) = buckets.next_if(|b| b[0].0 == k) {
                if bucket.len() <= max_block_size {
                    subjects.extend(bucket.iter().map(|&(_, s)| s));
                }
            }
            offsets.push(id32(subjects.len()));
        }
        Self { offsets, subjects }
    }

    fn get(&self, key: u32) -> &[IriId] {
        &self.subjects[slot(&self.offsets, key as usize)]
    }
}

/// Generates candidate `(left entity, right entity)` pairs from shared
/// blocking keys, on an explicit [`Executor`]. `table` must be built from
/// both stores (which share one interner). Output is sorted and
/// duplicate-free, so downstream iteration is deterministic.
///
/// Keys are computed once per distinct value of `table` and interned to
/// ids, and each side's inverted index is a flat array of subjects per
/// key id, built serially. The quadratic part — expanding every shared
/// key's `left block × right block` — is sharded over the shared keys. The
/// merged result is sorted and deduplicated, so it is identical
/// (bit-for-bit, it is a list of interned id pairs) for any worker count.
pub fn candidate_pairs_with(
    left: &Store,
    right: &Store,
    table: &ValueTable,
    max_block_size: usize,
    executor: &Executor,
) -> Vec<(IriId, IriId)> {
    let keys = ValueKeys::new(table, left.interner());
    let left_idx = Postings::new(left, table, &keys, max_block_size);
    let right_idx = Postings::new(right, table, &keys, max_block_size);
    let shared: Vec<u32> = (0..id32(keys.count))
        .filter(|&k| !left_idx.get(k).is_empty() && !right_idx.get(k).is_empty())
        .collect();
    let chunk_pairs: Vec<Vec<(IriId, IriId)>> = executor.map_chunks(&shared, |chunk| {
        let mut out: Vec<(IriId, IriId)> = Vec::new();
        for &k in chunk {
            for &l in left_idx.get(k) {
                out.extend(right_idx.get(k).iter().map(|&r| (l, r)));
            }
        }
        out
    });
    let mut out: Vec<(IriId, IriId)> = chunk_pairs.into_iter().flatten().collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate_pairs(l: &Store, r: &Store, max_block_size: usize) -> Vec<(IriId, IriId)> {
        let table = ValueTable::from_stores(Default::default(), l, r);
        candidate_pairs_with(l, r, &table, max_block_size, &Executor::new(1))
    }

    fn pair_stores() -> (Store, Store) {
        let interner = Interner::new_shared();
        (Store::new(interner.clone()), Store::new(interner))
    }

    #[test]
    fn shared_name_creates_candidate() {
        let (mut l, mut r) = pair_stores();
        let interner = l.interner().clone();
        let a = l.intern_iri("l/a");
        let p = l.intern_iri("l/name");
        l.insert_literal(a, p, Literal::str(&interner, "LeBron James"));
        let b = r.intern_iri("r/b");
        let q = r.intern_iri("r/fullname");
        r.insert_literal(b, q, Literal::str(&interner, "lebron james"));
        let c = r.intern_iri("r/c");
        r.insert_literal(c, q, Literal::str(&interner, "Someone Else"));

        let pairs = candidate_pairs(&l, &r, 50);
        assert_eq!(pairs, vec![(a, b)]);
    }

    #[test]
    fn token_overlap_creates_candidate() {
        let (mut l, mut r) = pair_stores();
        let interner = l.interner().clone();
        let a = l.intern_iri("l/a");
        let p = l.intern_iri("l/name");
        l.insert_literal(a, p, Literal::str(&interner, "James, LeBron"));
        let b = r.intern_iri("r/b");
        let q = r.intern_iri("r/label");
        r.insert_literal(b, q, Literal::str(&interner, "LeBron Raymone James"));

        let pairs = candidate_pairs(&l, &r, 50);
        assert_eq!(pairs, vec![(a, b)]);
    }

    #[test]
    fn oversized_blocks_are_dropped() {
        let (mut l, mut r) = pair_stores();
        let interner = l.interner().clone();
        let p = l.intern_iri("l/type");
        let q = r.intern_iri("r/type");
        // 5 left and 5 right entities all share the literal "thing".
        for i in 0..5 {
            let s = l.intern_iri(&format!("l/e{i}"));
            l.insert_literal(s, p, Literal::str(&interner, "thing"));
            let s = r.intern_iri(&format!("r/e{i}"));
            r.insert_literal(s, q, Literal::str(&interner, "thing"));
        }
        assert_eq!(candidate_pairs(&l, &r, 4).len(), 0);
        assert_eq!(candidate_pairs(&l, &r, 5).len(), 25);
    }

    #[test]
    fn numbers_block_on_exact_value() {
        let (mut l, mut r) = pair_stores();
        let a = l.intern_iri("l/a");
        let p = l.intern_iri("l/year");
        l.insert_literal(a, p, Literal::Integer(1984));
        let b = r.intern_iri("r/b");
        let q = r.intern_iri("r/born");
        r.insert_literal(b, q, Literal::Integer(1984));
        let c = r.intern_iri("r/c");
        r.insert_literal(c, q, Literal::Integer(1985));
        assert_eq!(candidate_pairs(&l, &r, 50), vec![(a, b)]);
    }

    #[test]
    fn iri_local_names_block() {
        let (mut l, mut r) = pair_stores();
        let a = l.intern_iri("l/a");
        let p = l.intern_iri("l/team");
        let heat_l = l.intern_iri("http://db/resource/Miami_Heat");
        l.insert_iri(a, p, heat_l);
        let b = r.intern_iri("r/b");
        let q = r.intern_iri("r/club");
        let heat_r = r.intern_iri("http://nyt/orgs/miami_heat");
        r.insert_iri(b, q, heat_r);
        assert_eq!(candidate_pairs(&l, &r, 50), vec![(a, b)]);
    }

    #[test]
    fn booleans_never_block() {
        let (mut l, mut r) = pair_stores();
        let a = l.intern_iri("l/a");
        let p = l.intern_iri("l/active");
        l.insert_literal(a, p, Literal::Boolean(true));
        let b = r.intern_iri("r/b");
        let q = r.intern_iri("r/active");
        r.insert_literal(b, q, Literal::Boolean(true));
        assert!(candidate_pairs(&l, &r, 50).is_empty());
    }
}
