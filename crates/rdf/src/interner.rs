//! A concurrent string interner.
//!
//! ALEX compares predicates and entity identifiers *across* datasets, so a
//! single interner is shared (via `Arc`) by every [`crate::Store`] in a
//! linking task. Interned ids are dense `u32`s, which makes them cheap hash
//! keys and lets downstream crates use them as indices into side tables.

use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

use crate::hash::FastMap;

/// Identifier of an interned string (IRI text or string-literal value).
///
/// Ids are dense: the first interned string receives id 0, the next id 1,
/// and so on. [`Interner::len`] therefore bounds every id it ever issued.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrId(pub u32);

impl StrId {
    /// The raw index value, usable directly as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StrId({})", self.0)
    }
}

#[derive(Default)]
struct Inner {
    map: FastMap<Arc<str>, StrId>,
    strings: Vec<Arc<str>>,
}

impl Inner {
    fn intern(&mut self, s: &str) -> StrId {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = StrId(
            u32::try_from(self.strings.len())
                .expect("interner overflow: more than u32::MAX strings"),
        );
        let arc: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&arc));
        self.map.insert(arc, id);
        id
    }
}

/// A thread-safe append-only string interner.
///
/// Reads (resolving an id back to its string) take a shared lock; interning
/// takes the shared lock first and upgrades to exclusive only on a miss, so
/// steady-state lookups of already-interned strings never contend.
///
/// # Examples
///
/// ```
/// use alex_rdf::Interner;
///
/// let interner = Interner::new();
/// let a = interner.intern("http://example.org/a");
/// let b = interner.intern("http://example.org/b");
/// assert_ne!(a, b);
/// assert_eq!(interner.intern("http://example.org/a"), a);
/// assert_eq!(&*interner.resolve(a), "http://example.org/a");
/// ```
#[derive(Default)]
pub struct Interner {
    inner: RwLock<Inner>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interner already wrapped in an [`Arc`], the shape
    /// every consumer in this workspace wants.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Interns `s`, returning its id. Re-interning an identical string
    /// returns the original id.
    pub fn intern(&self, s: &str) -> StrId {
        if let Some(&id) = self
            .inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .get(s)
        {
            return id;
        }
        // The write path re-checks under the exclusive lock in case another
        // writer interned `s` between our read and write acquisitions.
        self.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .intern(s)
    }

    /// Interns a batch of strings under one lock acquisition, returning
    /// their ids in input order. Equivalent to calling [`Interner::intern`]
    /// per string but skips the per-call read-then-write lock dance, which
    /// matters when loading a snapshot dictionary of thousands of strings.
    pub fn intern_all<'a>(&self, strings: impl IntoIterator<Item = &'a str>) -> Vec<StrId> {
        let iter = strings.into_iter();
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let (low, _) = iter.size_hint();
        inner.map.reserve(low);
        inner.strings.reserve(low);
        iter.map(|s| inner.intern(s)).collect()
    }

    /// Returns the id of `s` if it was interned before, without interning.
    pub fn get(&self, s: &str) -> Option<StrId> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .get(s)
            .copied()
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this interner. Ids are only ever
    /// produced by [`Interner::intern`], so this indicates interner mixing,
    /// which is a programming error.
    pub fn resolve(&self, id: StrId) -> Arc<str> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .strings
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| panic!("StrId({}) does not belong to this interner", id.0))
    }

    /// Resolves an id, returning `None` instead of panicking when the id is
    /// foreign.
    pub fn try_resolve(&self, id: StrId) -> Option<Arc<str>> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .strings
            .get(id.index())
            .cloned()
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .strings
            .len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("x");
        assert_eq!(i.intern("x"), a);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense() {
        let i = Interner::new();
        for n in 0..100u32 {
            let id = i.intern(&format!("s{n}"));
            assert_eq!(id.0, n);
        }
        assert_eq!(i.len(), 100);
    }

    #[test]
    fn intern_all_matches_one_at_a_time() {
        let batch = Interner::new();
        let single = Interner::new();
        let inputs = ["a", "b", "a", "", "c", "b"];
        let ids = batch.intern_all(inputs.iter().copied());
        let expected: Vec<StrId> = inputs.iter().map(|s| single.intern(s)).collect();
        assert_eq!(ids, expected);
        assert_eq!(batch.len(), single.len());
        // The batch is visible to later singular interns.
        assert_eq!(batch.intern("a"), ids[0]);
    }

    #[test]
    fn get_does_not_intern() {
        let i = Interner::new();
        assert_eq!(i.get("missing"), None);
        assert!(i.is_empty());
        let id = i.intern("present");
        assert_eq!(i.get("present"), Some(id));
    }

    #[test]
    fn resolve_round_trips() {
        let i = Interner::new();
        let id = i.intern("http://example.org/thing");
        assert_eq!(&*i.resolve(id), "http://example.org/thing");
        assert_eq!(i.try_resolve(StrId(999)), None);
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn resolve_foreign_id_panics() {
        let i = Interner::new();
        let _ = i.resolve(StrId(0));
    }

    #[test]
    fn concurrent_interning_converges() {
        let i = Interner::new_shared();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let i = Arc::clone(&i);
            handles.push(std::thread::spawn(move || {
                (0..500)
                    .map(|n| i.intern(&format!("k{}", n % 50)).0)
                    .max()
                    .unwrap()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every thread interned the same 50 distinct strings.
        assert_eq!(i.len(), 50);
    }
}
