//! Entity view: a subject together with its attribute list.
//!
//! Section 4.1 of the paper represents an entity as its set of attributes —
//! pairs of (predicate label, predicate value). [`Entity`] is that view,
//! materialized from a [`crate::Store`].

use crate::term::{IriId, Term};

/// One attribute of an entity: an RDF predicate and its object value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Attribute {
    /// The predicate IRI.
    pub predicate: IriId,
    /// The object value.
    pub object: Term,
}

/// A subject with all its attributes, the unit ALEX builds feature sets from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Entity {
    /// The entity's IRI.
    pub id: IriId,
    /// All `(predicate, object)` pairs asserted about the entity, in
    /// insertion order.
    pub attributes: Vec<Attribute>,
}

impl Entity {
    /// Creates an entity view from parts.
    pub fn new(id: IriId, attributes: Vec<Attribute>) -> Self {
        Self { id, attributes }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the entity has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Distinct predicates of this entity, in first-occurrence order.
    pub fn predicates(&self) -> Vec<IriId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for a in &self.attributes {
            if seen.insert(a.predicate) {
                out.push(a.predicate);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;
    use crate::term::Literal;

    fn iri(i: &Interner, s: &str) -> IriId {
        IriId(i.intern(s))
    }

    #[test]
    fn accessors() {
        let i = Interner::new();
        let p1 = iri(&i, "p1");
        let p2 = iri(&i, "p2");
        let e = Entity::new(
            iri(&i, "e"),
            vec![
                Attribute {
                    predicate: p1,
                    object: Literal::Integer(1).into(),
                },
                Attribute {
                    predicate: p2,
                    object: Literal::Integer(2).into(),
                },
                Attribute {
                    predicate: p1,
                    object: Literal::Integer(3).into(),
                },
            ],
        );
        assert_eq!(e.arity(), 3);
        assert!(!e.is_empty());
        assert_eq!(e.predicates(), vec![p1, p2]);
    }
}
