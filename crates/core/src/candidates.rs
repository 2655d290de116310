//! The candidate link set: O(1) insert/remove/membership plus O(1) uniform
//! sampling, which the feedback loop performs constantly ("we randomly
//! choose a link out of the set of candidate links", §7.1).
//!
//! Almost every candidate is a pair of its partition's exploration space,
//! which numbers its pairs densely, so membership is kept per pair id: a
//! slot column for the candidate set and a bit per pair for the blacklist
//! and approvals. Only links outside the space (initial or PARIS links
//! without a θ-surviving feature) are hashed.

use std::collections::HashSet;

use alex_rdf::hash::{FastMap, FastSet};
use alex_rdf::Link;
use rand::rngs::StdRng;
use rand::Rng;

use crate::space::ExplorationSpace;

/// No position, no pair.
const NONE: u32 = u32::MAX;

/// An indexable set of links supporting uniform random sampling. Every
/// call names a link's pair id in the space the set was sized for, or
/// `None` for a link outside it.
#[derive(Clone, Debug, Default)]
pub struct CandidateSet {
    /// The members in insertion order, as swap-remove leaves it: sampling
    /// reads positions.
    links: Vec<Link>,
    /// Per member: its pair id, or `NONE` for a link outside the space.
    pairs: Vec<u32>,
    /// Per pair of the space: its member's position, or `NONE`.
    slots: Vec<u32>,
    /// The position of each member outside the space.
    outside: FastMap<Link, u32>,
}

impl CandidateSet {
    /// Creates an empty set over a space of `pairs` pairs.
    pub fn new(pairs: usize) -> Self {
        Self {
            slots: vec![NONE; pairs],
            ..Self::default()
        }
    }

    /// Inserts a link. Returns `true` if it was new.
    pub fn insert(&mut self, link: Link, pair: Option<u32>) -> bool {
        let pos = u32::try_from(self.links.len()).expect("candidate positions fit u32");
        match pair {
            Some(p) => {
                let slot = &mut self.slots[p as usize];
                if *slot != NONE {
                    return false;
                }
                *slot = pos;
            }
            None => {
                if self.outside.contains_key(&link) {
                    return false;
                }
                self.outside.insert(link, pos);
            }
        }
        self.links.push(link);
        self.pairs.push(pair.unwrap_or(NONE));
        true
    }

    /// Removes a link. Returns `true` if it was present.
    pub fn remove(&mut self, link: Link, pair: Option<u32>) -> bool {
        let pos = match pair {
            Some(p) => std::mem::replace(&mut self.slots[p as usize], NONE),
            None => self.outside.remove(&link).unwrap_or(NONE),
        };
        if pos == NONE {
            return false;
        }
        let pos = pos as usize;
        self.links.swap_remove(pos);
        self.pairs.swap_remove(pos);
        if let Some(&moved) = self.pairs.get(pos) {
            let slot = match moved {
                NONE => self
                    .outside
                    .get_mut(&self.links[pos])
                    .expect("every outside member has a position"),
                p => &mut self.slots[p as usize],
            };
            *slot = pos as u32;
        }
        true
    }

    /// Membership test.
    pub fn contains(&self, link: Link, pair: Option<u32>) -> bool {
        match pair {
            Some(p) => self.slots[p as usize] != NONE,
            None => self.outside.contains_key(&link),
        }
    }

    /// Number of candidate links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Uniformly samples one link, or `None` if empty.
    pub fn sample(&self, rng: &mut StdRng) -> Option<Link> {
        self.sample_member(rng).map(|(link, _)| link)
    }

    /// [`CandidateSet::sample`] with the sampled link's pair id (`None`
    /// outside the space), from the same draw.
    pub(crate) fn sample_member(&self, rng: &mut StdRng) -> Option<(Link, Option<u32>)> {
        if self.links.is_empty() {
            return None;
        }
        let pos = rng.gen_range(0..self.links.len());
        Some((
            self.links[pos],
            Some(self.pairs[pos]).filter(|&p| p != NONE),
        ))
    }

    /// Iterates over the links in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = Link> + '_ {
        self.links.iter().copied()
    }

    /// Snapshots the set into a `HashSet`.
    pub fn to_set(&self) -> HashSet<Link> {
        self.links.iter().copied().collect()
    }
}

/// A partition engine's candidate links, read by link: its
/// [`CandidateSet`] with the space that numbers the set's pairs.
#[derive(Clone, Copy, Debug)]
pub struct Candidates<'a> {
    pub(crate) set: &'a CandidateSet,
    pub(crate) space: &'a ExplorationSpace,
}

impl<'a> Candidates<'a> {
    /// Membership test.
    pub fn contains(&self, link: Link) -> bool {
        self.set.contains(link, self.space.pair_id(link))
    }

    /// Number of candidate links.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Uniformly samples one link, or `None` if empty.
    pub fn sample(&self, rng: &mut StdRng) -> Option<Link> {
        self.set.sample(rng)
    }

    /// Iterates over the links in the set's order.
    pub fn iter(&self) -> impl Iterator<Item = Link> + 'a {
        self.set.iter()
    }

    /// Snapshots the links into a `HashSet`.
    pub fn to_set(&self) -> HashSet<Link> {
        self.set.to_set()
    }
}

/// A set of links: a bit per pair of a space, and a hash set for links
/// outside it. Calls name pairs as [`CandidateSet`]'s do.
#[derive(Clone, Debug, Default)]
pub(crate) struct LinkSet {
    bits: Vec<u64>,
    outside: FastSet<Link>,
    len: usize,
}

impl LinkSet {
    /// An empty set over a space of `pairs` pairs.
    pub(crate) fn new(pairs: usize) -> Self {
        Self {
            bits: vec![0; pairs.div_ceil(64)],
            ..Self::default()
        }
    }

    /// Inserts a link. Returns `true` if it was new.
    pub(crate) fn insert(&mut self, link: Link, pair: Option<u32>) -> bool {
        let new = match pair {
            Some(p) => {
                let (word, bit) = (&mut self.bits[p as usize / 64], 1 << (p % 64));
                let new = *word & bit == 0;
                *word |= bit;
                new
            }
            None => self.outside.insert(link),
        };
        self.len += usize::from(new);
        new
    }

    /// Removes a link. Returns `true` if it was present.
    pub(crate) fn remove(&mut self, link: Link, pair: Option<u32>) -> bool {
        let present = match pair {
            Some(p) => {
                let (word, bit) = (&mut self.bits[p as usize / 64], 1 << (p % 64));
                let present = *word & bit != 0;
                *word &= !bit;
                present
            }
            None => self.outside.remove(&link),
        };
        self.len -= usize::from(present);
        present
    }

    /// Membership test.
    pub(crate) fn contains(&self, link: Link, pair: Option<u32>) -> bool {
        match pair {
            Some(p) => self.has_pair(p),
            None => self.outside.contains(&link),
        }
    }

    /// Whether pair `p` is a member.
    pub(crate) fn has_pair(&self, p: u32) -> bool {
        self.bits[p as usize / 64] & (1 << (p % 64)) != 0
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The members: pairs in id order, then the outside links in
    /// unspecified order.
    pub(crate) fn iter<'a>(
        &'a self,
        space: &'a ExplorationSpace,
    ) -> impl Iterator<Item = &'a Link> + 'a {
        let pairs = self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let pair = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    pair
                })
            })
        });
        let links = space.pair_links();
        pairs.map(|p| &links[p]).chain(&self.outside)
    }
}

/// A partition engine's blacklist, read by link.
#[derive(Clone, Copy, Debug)]
pub struct Blacklist<'a> {
    pub(crate) set: &'a LinkSet,
    pub(crate) space: &'a ExplorationSpace,
}

impl<'a> Blacklist<'a> {
    /// Whether `link` is blacklisted.
    pub fn contains(&self, link: &Link) -> bool {
        self.set.contains(*link, self.space.pair_id(*link))
    }

    /// Whether nothing is blacklisted.
    pub fn is_empty(&self) -> bool {
        self.set.len() == 0
    }

    /// The blacklisted links, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Link> + 'a {
        self.set.iter(self.space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::{Interner, IriId};
    use rand::SeedableRng;

    fn links(n: usize) -> Vec<Link> {
        let i = Interner::new();
        (0..n)
            .map(|k| {
                Link::new(
                    IriId(i.intern(&format!("l{k}"))),
                    IriId(i.intern(&format!("r{k}"))),
                )
            })
            .collect()
    }

    /// Links `0..pairs` are pairs `0..pairs` of a space; the rest lie
    /// outside it.
    fn key(k: usize, pairs: usize) -> Option<u32> {
        (k < pairs).then_some(k as u32)
    }

    #[test]
    fn insert_remove_contains() {
        let ls = links(3);
        for pairs in [0, 3] {
            let key = |k| key(k, pairs);
            let mut s = CandidateSet::new(pairs);
            assert!(s.insert(ls[0], key(0)));
            assert!(!s.insert(ls[0], key(0)));
            assert!(s.insert(ls[1], key(1)));
            assert!(s.contains(ls[0], key(0)));
            assert!(!s.contains(ls[2], key(2)));
            assert_eq!(s.len(), 2);
            assert!(s.remove(ls[0], key(0)));
            assert!(!s.remove(ls[0], key(0)));
            assert!(!s.contains(ls[0], key(0)));
            assert_eq!(s.len(), 1);
        }
    }

    #[test]
    fn swap_remove_keeps_index_consistent() {
        let ls = links(10);
        // Half the links are pairs of the space, half lie outside it.
        let key = |k| key(k, 5);
        let mut s = CandidateSet::new(5);
        for (k, l) in ls.iter().enumerate() {
            s.insert(*l, key(k));
        }
        // Remove from the middle repeatedly; every survivor stays reachable.
        s.remove(ls[3], key(3));
        s.remove(ls[0], key(0));
        s.remove(ls[9], key(9));
        for (k, l) in ls.iter().enumerate() {
            let expect = !matches!(k, 0 | 3 | 9);
            assert_eq!(s.contains(*l, key(k)), expect, "link {k}");
            if expect {
                assert!(s.remove(*l, key(k)));
                assert!(!s.contains(*l, key(k)));
            }
        }
        assert!(s.is_empty());
    }

    #[test]
    fn sample_is_uniform_ish_and_total() {
        let ls = links(5);
        let mut s = CandidateSet::new(0);
        for l in &ls {
            s.insert(*l, None);
        }
        let mut rng = StdRng::seed_from_u64(alex_rdf::test_seed(42));
        let mut counts = std::collections::HashMap::new();
        for _ in 0..5000 {
            let l = s.sample(&mut rng).unwrap();
            *counts.entry(l).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 5, "every link must be sampled eventually");
        for (_, c) in counts {
            assert!(c > 700 && c < 1300, "roughly uniform, got {c}");
        }
        let empty = CandidateSet::new(0);
        assert!(empty.sample(&mut rng).is_none());
    }

    #[test]
    fn snapshot_matches_contents() {
        let ls = links(4);
        let mut s = CandidateSet::new(2);
        for (k, l) in ls.iter().enumerate() {
            s.insert(*l, key(k, 2));
        }
        let set = s.to_set();
        assert_eq!(set.len(), 4);
        assert_eq!(s.iter().count(), 4);
        for l in ls {
            assert!(set.contains(&l));
        }
    }

    #[test]
    fn link_set_counts_pairs_and_outside_links() {
        let ls = links(130);
        let key = |k| key(k, 100);
        let mut s = LinkSet::new(100);
        for k in [0, 63, 64, 99, 100, 129] {
            assert!(s.insert(ls[k], key(k)));
            assert!(!s.insert(ls[k], key(k)));
        }
        assert_eq!(s.len(), 6);
        assert!(s.contains(ls[64], key(64)) && !s.contains(ls[65], key(65)));
        assert!(s.remove(ls[64], key(64)) && !s.remove(ls[64], key(64)));
        assert!(s.remove(ls[129], key(129)) && !s.contains(ls[129], key(129)));
        assert_eq!(s.len(), 4);
    }
}
