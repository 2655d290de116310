//! The candidate link set: O(1) insert/remove/membership plus O(1) uniform
//! sampling, which the feedback loop performs constantly ("we randomly
//! choose a link out of the set of candidate links", §7.1).

use std::collections::HashSet;

use alex_rdf::hash::FastMap;
use alex_rdf::Link;
use rand::rngs::StdRng;
use rand::Rng;

/// An indexable set of links supporting uniform random sampling.
#[derive(Clone, Debug, Default)]
pub struct CandidateSet {
    links: Vec<Link>,
    index: FastMap<Link, usize>,
}

impl CandidateSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set from an iterator, ignoring duplicates.
    pub fn from_links(links: impl IntoIterator<Item = Link>) -> Self {
        let mut s = Self::new();
        for l in links {
            s.insert(l);
        }
        s
    }

    /// Inserts a link. Returns `true` if it was new.
    pub fn insert(&mut self, link: Link) -> bool {
        if self.index.contains_key(&link) {
            return false;
        }
        self.index.insert(link, self.links.len());
        self.links.push(link);
        true
    }

    /// Removes a link. Returns `true` if it was present.
    pub fn remove(&mut self, link: Link) -> bool {
        let Some(pos) = self.index.remove(&link) else {
            return false;
        };
        let last = self.links.len() - 1;
        self.links.swap_remove(pos);
        if pos != last {
            self.index.insert(self.links[pos], pos);
        }
        true
    }

    /// Membership test.
    pub fn contains(&self, link: Link) -> bool {
        self.index.contains_key(&link)
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
        if self.links.is_empty() {
            None
        } else {
            Some(self.links[rng.gen_range(0..self.links.len())])
        }
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

    #[test]
    fn insert_remove_contains() {
        let ls = links(3);
        let mut s = CandidateSet::new();
        assert!(s.insert(ls[0]));
        assert!(!s.insert(ls[0]));
        assert!(s.insert(ls[1]));
        assert!(s.contains(ls[0]));
        assert!(!s.contains(ls[2]));
        assert_eq!(s.len(), 2);
        assert!(s.remove(ls[0]));
        assert!(!s.remove(ls[0]));
        assert!(!s.contains(ls[0]));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn swap_remove_keeps_index_consistent() {
        let ls = links(10);
        let mut s = CandidateSet::from_links(ls.iter().copied());
        // Remove from the middle repeatedly; every survivor stays reachable.
        s.remove(ls[3]);
        s.remove(ls[0]);
        s.remove(ls[9]);
        for (k, l) in ls.iter().enumerate() {
            let expect = !matches!(k, 0 | 3 | 9);
            assert_eq!(s.contains(*l), expect, "link {k}");
            if expect {
                assert!(s.remove(*l));
                assert!(!s.contains(*l));
            }
        }
        assert!(s.is_empty());
    }

    #[test]
    fn sample_is_uniform_ish_and_total() {
        let ls = links(5);
        let s = CandidateSet::from_links(ls.iter().copied());
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
        let empty = CandidateSet::new();
        assert!(empty.sample(&mut rng).is_none());
    }

    #[test]
    fn snapshot_matches_contents() {
        let ls = links(4);
        let s = CandidateSet::from_links(ls.iter().copied());
        let set = s.to_set();
        assert_eq!(set.len(), 4);
        assert_eq!(s.iter().count(), 4);
        for l in ls {
            assert!(set.contains(&l));
        }
    }
}
