//! The link search space of one partition (paper §4, §6.1).
//!
//! In a pre-processing step ALEX populates "a space of feature sets … with
//! a feature set for every pair of entities in the two data sets", then
//! filters it: feature values below θ are zeroed and feature sets with no
//! positive value are dropped (§6.1, a ~95% reduction in the paper).
//!
//! Enumerating the literal cross product only to discard 95% of it is
//! wasted work, so this implementation fuses generation and filtering: an
//! inverted index over normalized literal values, value tokens, and IRI
//! local names proposes exactly the pairs that can share θ-surviving
//! string/value evidence, and feature sets are built only for those. Pairs
//! with no shared key almost never reach θ = 0.3 under the default hybrid
//! metric; DESIGN.md records this as an engineering substitution.
//!
//! For every surviving feature key the space keeps a score-sorted list of
//! pairs, so an ALEX action — "find all links whose value for this feature
//! lies within ±step of the approved link's value" (§4.2) — is two binary
//! searches and a contiguous scan.

use std::collections::{HashMap, HashSet};

use alex_rdf::{IriId, Link, Literal, Store, Term};
use alex_sim::{string::tokens, SimConfig, ValueId, ValueTable};

use crate::feature::{FeatureKey, FeatureSet};
use crate::parallel::Executor;

/// Default cap on inverted-index bucket size; buckets larger than this are
/// stop-word-like and proposed pairs from them are noise.
pub const DEFAULT_MAX_BLOCK: usize = 100;

/// One entity pair of the space with its feature set.
#[derive(Clone, Debug)]
struct PairEntry {
    link: Link,
    features: FeatureSet,
}

/// The filtered link search space of one partition, with per-feature
/// range-query indexes.
#[derive(Clone, Debug, Default)]
pub struct ExplorationSpace {
    pairs: Vec<PairEntry>,
    pair_index: HashMap<Link, u32>,
    /// Per feature key: `(score, pair index)` sorted by score.
    ranges: HashMap<FeatureKey, Vec<(f64, u32)>>,
    /// `|partition| × |other dataset|`: the unfiltered pair count (Fig 5a).
    total_possible: usize,
}

fn literal_keys(store: &Store, term: &Term, out: &mut Vec<String>) {
    match term {
        Term::Iri(id) => {
            let iri = store.iri_str(*id);
            let local = alex_sim::iri_local_name(&iri).to_lowercase();
            if !local.is_empty() {
                for t in tokens(&local) {
                    if t.len() >= 3 {
                        out.push(t);
                    }
                }
                out.push(local);
            }
        }
        Term::Literal(lit) => match lit {
            Literal::Str(_) | Literal::LangStr { .. } => {
                let text = lit.lexical(store.interner()).to_lowercase();
                if text.is_empty() {
                    return;
                }
                for t in tokens(&text) {
                    if t.len() >= 3 {
                        out.push(t);
                    }
                }
                out.push(text);
            }
            Literal::Integer(_) | Literal::Float(_) | Literal::Date(_) => {
                out.push(lit.lexical(store.interner()).to_string());
            }
            Literal::Boolean(_) => {}
        },
    }
}

impl ExplorationSpace {
    /// Builds the space between `left_subjects` (one partition of the left
    /// dataset) and every entity of `right`.
    ///
    /// Honors `ALEX_THREADS` (see [`crate::parallel`]): this is a thin
    /// wrapper over [`ExplorationSpace::build_with`] with a resolved
    /// executor and a value table over both stores.
    pub fn build(
        left: &Store,
        right: &Store,
        left_subjects: &[IriId],
        sim: &SimConfig,
        theta: f64,
        max_block: usize,
    ) -> Self {
        Self::build_with(
            left,
            right,
            left_subjects,
            theta,
            max_block,
            &Executor::resolve(0),
            &ValueTable::from_stores(*sim, left, right),
        )
    }

    /// Builds the space on an explicit [`Executor`], scoring values
    /// through `table` (its [`SimConfig`] is the one used), which must be
    /// built from `left` and `right`.
    ///
    /// Left subjects are sharded into contiguous chunks; each chunk
    /// computes its `(link, feature set)` list independently, and the
    /// chunks are merged serially in input order — so the resulting space
    /// (pair order, indexes, every float) is bit-identical for any worker
    /// count.
    pub fn build_with(
        left: &Store,
        right: &Store,
        left_subjects: &[IriId],
        theta: f64,
        max_block: usize,
        executor: &Executor,
        table: &ValueTable,
    ) -> Self {
        let _span = alex_trace::span("space.build");
        // Inverted index over the right dataset.
        let index_span = alex_trace::span("space.index_right");
        let mut right_index: HashMap<String, Vec<IriId>> = HashMap::new();
        let mut right_entities: HashMap<IriId, Vec<(IriId, ValueId)>> = HashMap::new();
        let mut keys = Vec::new();
        for subject in right.subjects() {
            let entity = right.entity(subject);
            let mut seen: HashSet<String> = HashSet::new();
            for attr in &entity.attributes {
                keys.clear();
                literal_keys(right, &attr.object, &mut keys);
                for k in keys.drain(..) {
                    if seen.insert(k.clone()) {
                        right_index.entry(k).or_default().push(subject);
                    }
                }
            }
            right_entities.insert(subject, table.attributes(&entity));
        }
        right_index.retain(|_, v| v.len() <= max_block);
        drop(index_span);

        // Parallel map: each chunk of left subjects produces its scored
        // pairs in deterministic (subject order, then sorted candidate)
        // order. All cross-thread state is read-only, the table included.
        let score_span = alex_trace::span("space.score_pairs");
        let chunk_results: Vec<Vec<(Link, FeatureSet)>> =
            executor.map_chunks(left_subjects, |chunk| {
                let scorer = table.scorer();
                let mut out: Vec<(Link, FeatureSet)> = Vec::new();
                let mut keys = Vec::new();
                for &ls in chunk {
                    let left_entity = left.entity(ls);
                    if left_entity.is_empty() {
                        continue;
                    }
                    // Candidate rights: union over this entity's keys.
                    let mut cands: HashSet<IriId> = HashSet::new();
                    let mut seen_keys: HashSet<String> = HashSet::new();
                    for attr in &left_entity.attributes {
                        keys.clear();
                        literal_keys(left, &attr.object, &mut keys);
                        for k in keys.drain(..) {
                            if seen_keys.insert(k.clone()) {
                                if let Some(rs) = right_index.get(&k) {
                                    cands.extend(rs.iter().copied());
                                }
                            }
                        }
                    }
                    let mut cands: Vec<IriId> = cands.into_iter().collect();
                    cands.sort_unstable();
                    let left_attrs = table.attributes(&left_entity);
                    for rs in cands {
                        let Some(fs) = FeatureSet::build_from_table(
                            &left_attrs,
                            &right_entities[&rs],
                            &scorer,
                            theta,
                        ) else {
                            continue;
                        };
                        out.push((Link::new(ls, rs), fs));
                    }
                }
                out
            });
        drop(score_span);

        // Serial, order-preserving merge: replays exactly the pair sequence
        // the single-threaded loop would have produced.
        let merge_span = alex_trace::span("space.merge");
        let mut pairs: Vec<PairEntry> = Vec::new();
        let mut pair_index: HashMap<Link, u32> = HashMap::new();
        let mut ranges: HashMap<FeatureKey, Vec<(f64, u32)>> = HashMap::new();
        for (link, fs) in chunk_results.into_iter().flatten() {
            let idx = u32::try_from(pairs.len()).expect("space overflow");
            for f in fs.features() {
                ranges.entry(f.key).or_default().push((f.score, idx));
            }
            pair_index.insert(link, idx);
            pairs.push(PairEntry { link, features: fs });
        }
        for list in ranges.values_mut() {
            list.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("scores are finite"));
        }
        drop(merge_span);

        Self {
            pairs,
            pair_index,
            ranges,
            total_possible: left_subjects.len() * right.subject_count(),
        }
    }

    /// Number of pairs that survived the θ filter.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the filtered space is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The unfiltered pair count `|partition| × |other dataset|`.
    pub fn total_possible(&self) -> usize {
        self.total_possible
    }

    /// Whether `link` exists in the filtered space.
    pub fn contains(&self, link: Link) -> bool {
        self.pair_index.contains_key(&link)
    }

    /// The feature set of `link` — the state representation (§4.1).
    pub fn feature_set(&self, link: Link) -> Option<&FeatureSet> {
        self.pair_index
            .get(&link)
            .map(|&i| &self.pairs[i as usize].features)
    }

    /// All links of the filtered space.
    pub fn links(&self) -> impl Iterator<Item = Link> + '_ {
        self.pairs.iter().map(|p| p.link)
    }

    /// Number of distinct feature keys indexed.
    pub fn feature_key_count(&self) -> usize {
        self.ranges.len()
    }

    /// Executes an action (§4.2): all links whose score for `key` lies in
    /// `[center − step, center + step]` (inclusive), with no constraint on
    /// other features. This is the *example* semantics of §4.2; prefer
    /// [`ExplorationSpace::explore_from`], which applies the full action
    /// feature set.
    pub fn explore(&self, key: FeatureKey, center: f64, step: f64) -> Vec<Link> {
        let Some(list) = self.ranges.get(&key) else {
            return Vec::new();
        };
        let lo = center - step;
        let hi = center + step;
        let start = list.partition_point(|&(s, _)| s < lo);
        let end = list.partition_point(|&(s, _)| s <= hi);
        list[start..end]
            .iter()
            .map(|&(_, i)| self.pairs[i as usize].link)
            .collect()
    }

    /// Executes an action against a full state feature set.
    ///
    /// Section 4.2 defines the action as a feature set `af` with a single
    /// non-zero component and the result as "all the links that have
    /// similarity value between sf and sf ± af" — the *whole* feature set
    /// constrains the result, not just the explored feature. Taken
    /// literally (±0 on every other component) no link with continuous
    /// scores would ever qualify, so this implements the natural reading:
    ///
    /// * the explored feature must lie within `[center − step, center + step]`;
    /// * every feature the candidate *shares* with the state must score at
    ///   least `state score − step` (at least as similar as the approved
    ///   link, with `step` slack; candidates may be better);
    /// * the candidate must share at least `⌈n/2⌉` (and at least 2, when
    ///   the state has that many) of the state's `n` features — entities in
    ///   real knowledge bases drop attributes, so demanding *all* features
    ///   would make links with missing attributes undiscoverable, while
    ///   demanding only the explored one floods the candidate set with
    ///   every pair that shares a single non-distinctive feature (an equal
    ///   birth year, a categorical type).
    ///
    /// The balance of these conditions is what lets recall climb while the
    /// paper's precision recovers within a few episodes.
    pub fn explore_from(&self, state: &FeatureSet, key: FeatureKey, step: f64) -> Vec<Link> {
        let Some(center) = state.score_of(key) else {
            return Vec::new();
        };
        let Some(list) = self.ranges.get(&key) else {
            return Vec::new();
        };
        let n = state.len();
        let required = n.div_ceil(2).max(2.min(n));
        let lo = center - step;
        let hi = center + step;
        let start = list.partition_point(|&(s, _)| s < lo);
        let end = list.partition_point(|&(s, _)| s <= hi);
        list[start..end]
            .iter()
            .filter(|&&(_, i)| {
                let cand = &self.pairs[i as usize].features;
                let mut shared = 0usize;
                for f in state.features() {
                    if f.key == key {
                        shared += 1; // the explored feature, already in range
                        continue;
                    }
                    match cand.score_of(f.key) {
                        Some(v) if v >= f.score - step => shared += 1,
                        Some(_) => return false, // shared but much worse
                        None => {}
                    }
                }
                shared >= required
            })
            .map(|&(_, i)| self.pairs[i as usize].link)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::Interner;

    /// Left: 3 players; right: 3 players + 1 unrelated. Names overlap.
    fn stores() -> (Store, Store, Vec<IriId>) {
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        let name_l = left.intern_iri("l/name");
        let year_l = left.intern_iri("l/year");
        let name_r = right.intern_iri("r/label");
        let year_r = right.intern_iri("r/born");
        let data = [
            ("LeBron James", 1984),
            ("Kobe Bryant", 1978),
            ("Tim Duncan", 1976),
        ];
        let mut subjects = Vec::new();
        for (i, (n, y)) in data.iter().enumerate() {
            let ls = left.intern_iri(&format!("l/e{i}"));
            left.insert_literal(ls, name_l, Literal::str(&interner, n));
            left.insert_literal(ls, year_l, Literal::Integer(*y));
            subjects.push(ls);
            let rs = right.intern_iri(&format!("r/e{i}"));
            right.insert_literal(rs, name_r, Literal::str(&interner, n));
            right.insert_literal(rs, year_r, Literal::Integer(*y));
        }
        let other = right.intern_iri("r/other");
        right.insert_literal(other, name_r, Literal::str(&interner, "Zzz Qqq"));
        (left, right, subjects)
    }

    fn build(left: &Store, right: &Store, subjects: &[IriId]) -> ExplorationSpace {
        ExplorationSpace::build(
            left,
            right,
            subjects,
            &SimConfig::default(),
            0.3,
            DEFAULT_MAX_BLOCK,
        )
    }

    #[test]
    fn space_contains_matching_pairs() {
        let (left, right, subjects) = stores();
        let space = build(&left, &right, &subjects);
        assert!(
            space.len() >= 3,
            "at least the 3 true pairs, got {}",
            space.len()
        );
        assert_eq!(space.total_possible(), 3 * 4);
        let l0 = left.intern_iri("l/e0");
        let r0 = right.intern_iri("r/e0");
        assert!(space.contains(Link::new(l0, r0)));
        let fs = space.feature_set(Link::new(l0, r0)).unwrap();
        assert!(!fs.is_empty());
    }

    #[test]
    fn unrelated_entity_is_filtered() {
        let (left, right, subjects) = stores();
        let space = build(&left, &right, &subjects);
        let l0 = left.intern_iri("l/e0");
        let other = right.intern_iri("r/other");
        assert!(!space.contains(Link::new(l0, other)));
    }

    #[test]
    fn explore_returns_links_within_range() {
        let (left, right, subjects) = stores();
        let space = build(&left, &right, &subjects);
        let l0 = left.intern_iri("l/e0");
        let r0 = right.intern_iri("r/e0");
        let link = Link::new(l0, r0);
        let fs = space.feature_set(link).unwrap().clone();
        let f = fs.features()[0];
        let found = space.explore(f.key, f.score, 0.05);
        assert!(
            found.contains(&link),
            "exploring around own score must find self"
        );
        // Range semantics: brute-force check.
        for l in space.links() {
            let in_range = space
                .feature_set(l)
                .and_then(|s| s.score_of(f.key))
                .is_some_and(|v| v >= f.score - 0.05 && v <= f.score + 0.05);
            assert_eq!(found.contains(&l), in_range, "range mismatch for {l:?}");
        }
    }

    #[test]
    fn explore_unknown_key_is_empty() {
        let (left, right, subjects) = stores();
        let space = build(&left, &right, &subjects);
        let ghost = FeatureKey::new(left.intern_iri("ghost1"), right.intern_iri("ghost2"));
        assert!(space.explore(ghost, 0.5, 0.1).is_empty());
    }

    #[test]
    fn empty_partition_builds_empty_space() {
        let (left, right, _) = stores();
        let space = build(&left, &right, &[]);
        assert!(space.is_empty());
        assert_eq!(space.total_possible(), 0);
        assert_eq!(space.links().count(), 0);
    }

    #[test]
    fn feature_key_count_positive() {
        let (left, right, subjects) = stores();
        let space = build(&left, &right, &subjects);
        assert!(space.feature_key_count() >= 2); // name/name and year/year at minimum
    }
}
