//! The `owl:sameAs` index a federation translates entities through.
//!
//! Every entity maps to the links that name it, in either direction, in
//! ascending [`Link`] order: the index — and with it the order in which
//! a query probes an entity's counterparts — depends only on the link
//! set, never on the order links were added or removed in. Most entities
//! have exactly one counterpart, so one link is stored inline and only
//! entities with two or more allocate.

use std::collections::hash_map::Entry;

use alex_rdf::hash::FastMap;
use alex_rdf::{IriId, Link};

/// The links naming one entity, ascending; `Many` always holds two or
/// more, so every link set has exactly one representation.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Peers {
    One(Link),
    Many(Vec<Link>),
}

impl Peers {
    fn as_slice(&self) -> &[Link] {
        match self {
            Peers::One(link) => std::slice::from_ref(link),
            Peers::Many(links) => links,
        }
    }
}

/// Entity → the links that name it, both directions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SameAsIndex {
    peers: FastMap<IriId, Peers>,
}

impl SameAsIndex {
    /// Makes room for `links` more links, each naming two entities.
    pub(crate) fn reserve(&mut self, links: usize) {
        self.peers.reserve(links.saturating_mul(2));
    }

    /// Adds `link` under both of its entities; a link already present is
    /// left alone.
    pub(crate) fn insert(&mut self, link: Link) {
        for entity in [link.left, link.right] {
            match self.peers.entry(entity) {
                Entry::Vacant(slot) => {
                    slot.insert(Peers::One(link));
                }
                Entry::Occupied(mut slot) => {
                    let peers = slot.get_mut();
                    match peers {
                        Peers::One(only) if *only == link => {}
                        Peers::One(only) => {
                            let pair = if *only < link {
                                vec![*only, link]
                            } else {
                                vec![link, *only]
                            };
                            *peers = Peers::Many(pair);
                        }
                        Peers::Many(links) => {
                            if let Err(pos) = links.binary_search(&link) {
                                links.insert(pos, link);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Removes `link` from both of its entities; an absent link is
    /// ignored.
    pub(crate) fn remove(&mut self, link: Link) {
        for entity in [link.left, link.right] {
            let Entry::Occupied(mut slot) = self.peers.entry(entity) else {
                continue;
            };
            match slot.get_mut() {
                Peers::One(only) if *only == link => {
                    slot.remove();
                }
                Peers::One(_) => {}
                Peers::Many(links) => {
                    if let Ok(pos) = links.binary_search(&link) {
                        links.remove(pos);
                        if let [only] = links[..] {
                            *slot.get_mut() = Peers::One(only);
                        }
                    }
                }
            }
        }
    }

    /// The links naming `entity`, ascending.
    pub(crate) fn peers(&self, entity: IriId) -> &[Link] {
        self.peers.get(&entity).map_or(&[], Peers::as_slice)
    }

    /// Number of distinct entities with at least one counterpart.
    pub(crate) fn entities(&self) -> usize {
        self.peers.len()
    }
}

/// The other end of `link` from `entity` (itself for a self-link).
pub(crate) fn counterpart(link: Link, entity: IriId) -> IriId {
    if link.left == entity {
        link.right
    } else {
        link.left
    }
}
