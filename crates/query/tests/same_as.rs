//! The sameAs index as a live structure: patched by arbitrary insert and
//! remove deltas, it must equal an index built fresh from the resulting
//! link set — entity by entity, peers and their order alike.

use std::collections::BTreeSet;

use alex_query::Federation;
use alex_rdf::{Interner, IriId, Link};
use proptest::prelude::*;

/// Entities drawn from one small pool for both sides, so entities carry
/// several links, appear on both sides, and self-links occur.
const POOL: u8 = 8;

/// One delta: links to insert (`true`) or remove, as pool indices.
type Delta = Vec<(bool, u8, u8)>;

fn arb_deltas() -> impl Strategy<Value = Vec<Delta>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), 0..POOL, 0..POOL), 0..12),
        1..10,
    )
}

proptest! {
    #[test]
    fn patched_index_equals_a_rebuilt_one(deltas in arb_deltas()) {
        let interner = Interner::new();
        let ids: Vec<IriId> = (0..POOL)
            .map(|i| IriId(interner.intern(&format!("http://ex/e{i}"))))
            .collect();
        let mut live = Federation::default();
        let mut set = BTreeSet::new();
        for delta in deltas {
            let (mut added, mut removed) = (Vec::new(), Vec::new());
            for (insert, l, r) in delta {
                let link = Link::new(ids[l as usize], ids[r as usize]);
                if insert {
                    set.insert(link);
                    added.push(link);
                } else {
                    set.remove(&link);
                    removed.push(link);
                }
            }
            // Patch the way a curation session does after an episode:
            // every touched link goes in or out by its membership after
            // the delta, whatever happened to it in between.
            let touched = added.into_iter().chain(removed);
            let (present, absent): (Vec<Link>, Vec<Link>) =
                touched.partition(|l| set.contains(l));
            live.add_links(present);
            live.remove_links(absent);

            // Built fresh, in descending order to differ from the patch
            // history.
            let mut fresh = Federation::default();
            fresh.add_links(set.iter().rev().copied());
            prop_assert_eq!(live.linked_entities(), fresh.linked_entities());
            for &e in &ids {
                let expected: Vec<Link> = set
                    .iter()
                    .copied()
                    .filter(|l| l.left == e || l.right == e)
                    .collect();
                prop_assert_eq!(live.peers(e), &expected[..]);
                prop_assert_eq!(fresh.peers(e), &expected[..]);
            }
        }
    }
}
