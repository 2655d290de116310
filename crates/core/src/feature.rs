//! Feature sets: the state representation of ALEX (paper §4.1).
//!
//! A link between entities `E1` and `E2` is represented by a *feature set*:
//! for every pair of predicates `(p1x, p2y)` whose values are similar, the
//! similarity score of those values. The set is built from the full
//! similarity matrix between the two attribute lists — scores below θ are
//! zeroed, then the per-row maxima (if `|E1| > |E2|`, else per-column
//! maxima) are kept, one feature per attribute of the larger entity.

use alex_rdf::{Entity, Interner, IriId};
use alex_sim::{value_similarity, Scorer, SimConfig, ValueId};

/// A feature identifier: a predicate of the left entity paired with a
/// predicate of the right entity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FeatureKey {
    /// Predicate from the left dataset.
    pub left: IriId,
    /// Predicate from the right dataset.
    pub right: IriId,
}

impl FeatureKey {
    /// Creates a feature key.
    pub fn new(left: IriId, right: IriId) -> Self {
        Self { left, right }
    }
}

/// One feature of a link: a predicate pair and the similarity of their
/// values, in `[θ, 1]`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Feature {
    /// The predicate pair.
    pub key: FeatureKey,
    /// Similarity score of the two attribute values.
    pub score: f64,
}

/// The feature set of a link — ALEX's state representation.
///
/// Invariants: non-empty, every score is `≥ θ` and `≤ 1`, and every key
/// appears at most once.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FeatureSet {
    features: Vec<Feature>,
}

impl FeatureSet {
    /// Builds the feature set for the pair `(left, right)`, scoring with
    /// the plain [`value_similarity`] — the reference
    /// [`FeatureSet::build_from_table`] is tested against.
    ///
    /// Returns `None` when no feature survives the θ filter — such pairs
    /// are dropped from the search space entirely (§6.1).
    pub fn build(
        left: &Entity,
        right: &Entity,
        interner: &Interner,
        sim: &SimConfig,
        theta: f64,
    ) -> Option<Self> {
        let attrs = |e: &Entity| -> Vec<_> {
            e.attributes
                .iter()
                .map(|a| (a.predicate, a.object))
                .collect()
        };
        Self::build_with_sim(&attrs(left), &attrs(right), theta, |a, b| {
            value_similarity(&a, &b, interner, sim)
        })
    }

    /// Like [`FeatureSet::build`], over entities given as `(predicate,
    /// value id)` attribute lists of a [`alex_sim::ValueTable`] (see
    /// [`alex_sim::ValueTable::attributes`]), scoring through `scorer`.
    /// Bit-identical to `build` with the table's config.
    pub fn build_from_table(
        left: &[(IriId, ValueId)],
        right: &[(IriId, ValueId)],
        scorer: &Scorer<'_>,
        theta: f64,
    ) -> Option<Self> {
        Self::build_with_sim(left, right, theta, |a, b| scorer.similarity(a, b))
    }

    /// The shared matrix-reduction logic, generic over how attribute
    /// values are represented and scored.
    fn build_with_sim<V: Copy>(
        left: &[(IriId, V)],
        right: &[(IriId, V)],
        theta: f64,
        mut sim: impl FnMut(V, V) -> f64,
    ) -> Option<Self> {
        if left.is_empty() || right.is_empty() {
            return None;
        }
        // Build the similarity matrix, then reduce along the smaller side:
        // per-row max if the left entity has more attributes, per-column
        // max otherwise (§4.1).
        let row_major = left.len() >= right.len();
        let (outer, inner) = if row_major {
            (left, right)
        } else {
            (right, left)
        };

        let mut features: Vec<Feature> = Vec::new();
        for &oa in outer {
            let mut best: Option<Feature> = None;
            for &ia in inner {
                let ((lp, lv), (rp, rv)) = if row_major { (oa, ia) } else { (ia, oa) };
                let score = sim(lv, rv);
                if score < theta {
                    continue;
                }
                let key = FeatureKey::new(lp, rp);
                if best.is_none_or(|b| score > b.score) {
                    best = Some(Feature { key, score });
                }
            }
            if let Some(f) = best {
                features.push(f);
            }
        }
        if features.is_empty() {
            return None;
        }
        // Deduplicate keys, keeping the best score per key: distinct
        // attributes of the outer entity can elect the same predicate pair.
        features.sort_unstable_by(|a, b| {
            a.key
                .cmp(&b.key)
                .then(b.score.partial_cmp(&a.score).expect("scores are finite"))
        });
        features.dedup_by_key(|f| f.key);
        Some(Self { features })
    }

    /// Wraps features already sorted by key with no key repeated, the
    /// order an [`crate::ExplorationSpace`] stores them in.
    pub(crate) fn from_sorted(features: Vec<Feature>) -> Self {
        debug_assert!(features.windows(2).all(|w| w[0].key < w[1].key));
        Self { features }
    }

    /// The features, sorted by key.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Number of features — `|A(s)|`, the number of actions available at
    /// this state.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the set is empty (never true for a built set).
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// The score of `key`, if present.
    pub fn score_of(&self, key: FeatureKey) -> Option<f64> {
        self.features
            .binary_search_by(|f| f.key.cmp(&key))
            .ok()
            .map(|i| self.features[i].score)
    }

    /// Iterates over the feature keys (the action space of this state).
    pub fn keys(&self) -> impl Iterator<Item = FeatureKey> + '_ {
        self.features.iter().map(|f| f.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::{Attribute, Interner, Literal, Term};

    fn entity(interner: &Interner, id: &str, attrs: &[(&str, Term)]) -> Entity {
        Entity::new(
            IriId(interner.intern(id)),
            attrs
                .iter()
                .map(|(p, o)| Attribute {
                    predicate: IriId(interner.intern(p)),
                    object: *o,
                })
                .collect(),
        )
    }

    fn setup() -> (std::sync::Arc<Interner>, SimConfig) {
        (Interner::new_shared(), SimConfig::default())
    }

    #[test]
    fn builds_paper_example_shape() {
        let (i, sim) = setup();
        // E1 = {(label, "LeBron James"), (birth, 1984), (age, 29)}
        // E2 = {(name, "LeBron James"), (year, 1984)}
        let e1 = entity(
            &i,
            "e1",
            &[
                ("label", Literal::str(&i, "LeBron James").into()),
                ("birth", Literal::Integer(1984).into()),
                ("age", Literal::Integer(29).into()),
            ],
        );
        let e2 = entity(
            &i,
            "e2",
            &[
                ("name", Literal::str(&i, "LeBron James").into()),
                ("year", Literal::Integer(1984).into()),
            ],
        );
        let fs = FeatureSet::build(&e1, &e2, &i, &sim, 0.3).unwrap();
        // Row-major (|E1| = 3 > |E2| = 2): one candidate feature per E1 attribute.
        let label = IriId(i.intern("label"));
        let name = IriId(i.intern("name"));
        let birth = IriId(i.intern("birth"));
        let year = IriId(i.intern("year"));
        assert_eq!(fs.score_of(FeatureKey::new(label, name)), Some(1.0));
        assert_eq!(fs.score_of(FeatureKey::new(birth, year)), Some(1.0));
        // age=29 vs year=1984 is < θ; vs name (string) is ~0. So exactly 2 features.
        assert_eq!(fs.len(), 2);
    }

    #[test]
    fn column_major_when_right_is_larger() {
        let (i, sim) = setup();
        let e1 = entity(
            &i,
            "e1",
            &[("label", Literal::str(&i, "Alpha Beta").into())],
        );
        let e2 = entity(
            &i,
            "e2",
            &[
                ("name", Literal::str(&i, "Alpha Beta").into()),
                ("alias", Literal::str(&i, "Alpha B.").into()),
            ],
        );
        let fs = FeatureSet::build(&e1, &e2, &i, &sim, 0.3).unwrap();
        // One feature per E2 attribute: both map onto E1's single label.
        assert_eq!(fs.len(), 2);
        for f in fs.features() {
            assert_eq!(f.key.left, IriId(i.intern("label")));
        }
    }

    #[test]
    fn theta_filters_everything() {
        let (i, sim) = setup();
        let e1 = entity(&i, "e1", &[("p", Literal::str(&i, "xyzxyz").into())]);
        let e2 = entity(&i, "e2", &[("q", Literal::str(&i, "aaabbb").into())]);
        assert!(FeatureSet::build(&e1, &e2, &i, &sim, 0.3).is_none());
        // With θ = 0 even weak similarity survives.
        assert!(FeatureSet::build(&e1, &e2, &i, &sim, 0.0).is_some());
    }

    #[test]
    fn empty_entities_have_no_feature_set() {
        let (i, sim) = setup();
        let e1 = entity(&i, "e1", &[]);
        let e2 = entity(&i, "e2", &[("q", Literal::Integer(1).into())]);
        assert!(FeatureSet::build(&e1, &e2, &i, &sim, 0.3).is_none());
        assert!(FeatureSet::build(&e2, &e1, &i, &sim, 0.3).is_none());
    }

    #[test]
    fn keys_are_unique_and_sorted() {
        let (i, sim) = setup();
        // Two left attributes under the same predicate, both matching the
        // right "name": the key (label, name) must appear once, best score.
        let e1 = entity(
            &i,
            "e1",
            &[
                ("label", Literal::str(&i, "Miami Heat").into()),
                ("label", Literal::str(&i, "The Heat").into()),
                ("founded", Literal::Integer(1988).into()),
            ],
        );
        let e2 = entity(&i, "e2", &[("name", Literal::str(&i, "Miami Heat").into())]);
        let fs = FeatureSet::build(&e1, &e2, &i, &sim, 0.3).unwrap();
        let label = IriId(i.intern("label"));
        let name = IriId(i.intern("name"));
        assert_eq!(fs.len(), 1);
        assert_eq!(fs.score_of(FeatureKey::new(label, name)), Some(1.0));
        let mut keys: Vec<FeatureKey> = fs.keys().collect();
        let sorted = {
            let mut k = keys.clone();
            k.sort();
            k
        };
        keys.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn scores_within_bounds() {
        let (i, sim) = setup();
        let e1 = entity(
            &i,
            "e1",
            &[
                ("a", Literal::str(&i, "partial match here").into()),
                ("b", Literal::Integer(100).into()),
            ],
        );
        let e2 = entity(
            &i,
            "e2",
            &[
                ("x", Literal::str(&i, "partial match there").into()),
                ("y", Literal::Integer(90).into()),
            ],
        );
        let fs = FeatureSet::build(&e1, &e2, &i, &sim, 0.3).unwrap();
        for f in fs.features() {
            assert!(f.score >= 0.3 && f.score <= 1.0, "score {}", f.score);
        }
    }
}
