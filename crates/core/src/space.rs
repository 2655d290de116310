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
//!
//! Storage is flat. Feature keys get dense per-space ids in `FeatureKey`
//! order, so a pair's features sorted by id are in `FeatureSet` order.
//! All features of all pairs live in one arena of `(key id, score)`
//! columns, indexed by per-pair offsets. Each range entry carries a bit
//! mask of the keys its pair has, so the scan rejects a pair that cannot
//! share enough of the state's features without touching the arena.

use std::collections::{BTreeSet, HashMap, HashSet};

use alex_rdf::hash::FastMap;
use alex_rdf::{IriId, Link, Literal, Store, Term};
use alex_sim::{string::tokens, SimConfig, ValueId, ValueTable};

use crate::feature::{Feature, FeatureKey, FeatureSet};
use crate::parallel::Executor;

/// Default cap on inverted-index bucket size; buckets larger than this are
/// stop-word-like and proposed pairs from them are noise.
pub const DEFAULT_MAX_BLOCK: usize = 100;

/// One entry of a feature key's score-sorted range list. The mask fills
/// the bytes a `(f64, u32)` pair would spend on padding.
#[derive(Clone, Copy, Debug)]
struct RangeEntry {
    score: f64,
    pair: u32,
    /// Bit `k` is set when the pair has the key with id `k`; keys with
    /// ids past the mask width have no bit (see [`mask_bit`]).
    key_mask: u32,
}

/// The presence bit of key id `k` in a [`RangeEntry::key_mask`], or `None`
/// when `k` is past the mask width.
fn mask_bit(k: u32) -> Option<u32> {
    1u32.checked_shl(k)
}

/// The filtered link search space of one partition, with per-feature
/// range-query indexes.
#[derive(Clone, Debug, Default)]
pub struct ExplorationSpace {
    /// Distinct feature keys in `FeatureKey` order; a key's position is
    /// its id.
    keys: Vec<FeatureKey>,
    links: Vec<Link>,
    pair_index: FastMap<Link, u32>,
    /// Pair `i`'s features are `feature_keys[offsets[i]..offsets[i + 1]]`
    /// (key ids, ascending) with the matching `feature_scores`.
    offsets: Vec<u32>,
    feature_keys: Vec<u32>,
    feature_scores: Vec<f64>,
    /// Per key id: the pairs with that key, sorted by its score.
    ranges: Vec<Vec<RangeEntry>>,
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
        // order, plus the feature keys it saw, so the merge can number the
        // keys without another pass over the pairs. All cross-thread state
        // is read-only, the table included.
        let score_span = alex_trace::span("space.score_pairs");
        let chunk_results = executor.map_chunks(left_subjects, |chunk| {
            let scorer = table.scorer();
            let mut out: Vec<(Link, FeatureSet)> = Vec::new();
            let mut chunk_keys = BTreeSet::new();
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
                    chunk_keys.extend(fs.keys());
                    out.push((Link::new(ls, rs), fs));
                }
            }
            (out, chunk_keys)
        });
        drop(score_span);

        // Serial, order-preserving merge: replays exactly the pair sequence
        // the single-threaded loop would have produced.
        let merge_span = alex_trace::span("space.merge");
        let keys: Vec<FeatureKey> = chunk_results
            .iter()
            .flat_map(|(_, ks)| ks)
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut space = Self {
            ranges: vec![Vec::new(); keys.len()],
            keys,
            offsets: vec![0],
            total_possible: left_subjects.len() * right.subject_count(),
            ..Self::default()
        };
        for (link, fs) in chunk_results.into_iter().flat_map(|(pairs, _)| pairs) {
            let pair = u32::try_from(space.links.len()).expect("space overflow");
            let start = space.feature_keys.len();
            for f in fs.features() {
                let id = space.key_id(f.key).expect("every chunk key is numbered");
                space.feature_keys.push(id);
                space.feature_scores.push(f.score);
            }
            let ids = &space.feature_keys[start..];
            let key_mask = ids
                .iter()
                .filter_map(|&k| mask_bit(k))
                .fold(0, |m, b| m | b);
            for (&id, &score) in ids.iter().zip(&space.feature_scores[start..]) {
                space.ranges[id as usize].push(RangeEntry {
                    score,
                    pair,
                    key_mask,
                });
            }
            let end = u32::try_from(space.feature_keys.len()).expect("space overflow");
            space.offsets.push(end);
            space.pair_index.insert(link, pair);
            space.links.push(link);
        }
        for list in &mut space.ranges {
            list.sort_unstable_by(|a, b| a.score.partial_cmp(&b.score).expect("scores are finite"));
        }
        drop(merge_span);
        space
    }

    /// The dense id of `key`, if any pair of the space has it.
    fn key_id(&self, key: FeatureKey) -> Option<u32> {
        let id = self.keys.binary_search(&key).ok()?;
        Some(u32::try_from(id).expect("key ids fit u32"))
    }

    /// The key ids (ascending) and matching scores of pair `pair`.
    fn pair_features(&self, pair: u32) -> (&[u32], &[f64]) {
        let i = pair as usize;
        let range = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        (
            &self.feature_keys[range.clone()],
            &self.feature_scores[range],
        )
    }

    /// Number of pairs that survived the θ filter.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the filtered space is empty.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
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
    pub fn feature_set(&self, link: Link) -> Option<FeatureSet> {
        let (ids, scores) = self.pair_features(*self.pair_index.get(&link)?);
        let features = ids
            .iter()
            .zip(scores)
            .map(|(&id, &score)| Feature {
                key: self.keys[id as usize],
                score,
            })
            .collect();
        Some(FeatureSet::from_sorted(features))
    }

    /// The score of feature `key` on `link`, if the link is in the space
    /// and has that feature. Allocates nothing.
    pub fn score_of(&self, link: Link, key: FeatureKey) -> Option<f64> {
        let (ids, scores) = self.pair_features(*self.pair_index.get(&link)?);
        let j = ids.binary_search(&self.key_id(key)?).ok()?;
        Some(scores[j])
    }

    /// All links of the filtered space.
    pub fn links(&self) -> impl Iterator<Item = Link> + '_ {
        self.links.iter().copied()
    }

    /// Number of distinct feature keys indexed.
    pub fn feature_key_count(&self) -> usize {
        self.keys.len()
    }

    /// The entries of `key`'s range list with score in
    /// `[center − step, center + step]`, in list order.
    fn range(&self, key: FeatureKey, center: f64, step: f64) -> &[RangeEntry] {
        let Some(id) = self.key_id(key) else {
            return &[];
        };
        let list = &self.ranges[id as usize];
        let lo = center - step;
        let hi = center + step;
        let start = list.partition_point(|e| e.score < lo);
        let end = list.partition_point(|e| e.score <= hi);
        &list[start..end]
    }

    /// Executes an action (§4.2): all links whose score for `key` lies in
    /// `[center − step, center + step]` (inclusive), with no constraint on
    /// other features. This is the *example* semantics of §4.2; prefer
    /// [`ExplorationSpace::explore_from`], which applies the full action
    /// feature set.
    pub fn explore(&self, key: FeatureKey, center: f64, step: f64) -> Vec<Link> {
        self.range(key, center, step)
            .iter()
            .map(|e| self.links[e.pair as usize])
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
    /// paper's precision recovers within a few episodes. Results come in
    /// the order of [`ExplorationSpace::explore`], of which they are a
    /// subsequence.
    pub fn explore_from(&self, state: &FeatureSet, key: FeatureKey, step: f64) -> Vec<Link> {
        let Some(center) = state.score_of(key) else {
            return Vec::new();
        };
        let n = state.len();
        let required = n.div_ceil(2).max(2.min(n));
        // The state's other features as (key id, lowest accepted score),
        // ascending by id. A key no pair has is shared by no candidate.
        let mut bounds: Vec<(u32, f64)> = Vec::with_capacity(n);
        let mut state_mask = 0u32;
        // Shared features the mask cannot see: the explored one, which
        // every entry of its list has, and state keys past the mask width.
        let mut unmasked = 1usize;
        for f in state.features() {
            if f.key == key {
                continue;
            }
            let Some(id) = self.key_id(f.key) else {
                continue;
            };
            bounds.push((id, f.score - step));
            match mask_bit(id) {
                Some(bit) => state_mask |= bit,
                None => unmasked += 1,
            }
        }
        self.range(key, center, step)
            .iter()
            // An upper bound on the shared count: rejects without reading
            // the pair's features.
            .filter(|e| (e.key_mask & state_mask).count_ones() as usize + unmasked >= required)
            .filter(|e| {
                let (ids, scores) = self.pair_features(e.pair);
                let mut shared = 1usize; // the explored feature, in range
                let mut j = 0;
                for &(id, min) in &bounds {
                    while j < ids.len() && ids[j] < id {
                        j += 1;
                    }
                    if j == ids.len() {
                        break;
                    }
                    if ids[j] == id {
                        if scores[j] < min {
                            return false; // shared but much worse
                        }
                        shared += 1;
                    }
                }
                shared >= required
            })
            .map(|e| self.links[e.pair as usize])
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
        let fs = space.feature_set(link).unwrap();
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
    fn score_of_agrees_with_feature_set() {
        let (left, right, subjects) = stores();
        let space = build(&left, &right, &subjects);
        let ghost = FeatureKey::new(left.intern_iri("ghost1"), right.intern_iri("ghost2"));
        for l in space.links() {
            let fs = space.feature_set(l).unwrap();
            for f in fs.features() {
                assert_eq!(space.score_of(l, f.key), Some(f.score));
            }
            assert_eq!(space.score_of(l, ghost), None);
        }
        let outside = Link::new(subjects[0], right.intern_iri("r/other"));
        let key = space
            .feature_set(space.links().next().unwrap())
            .unwrap()
            .features()[0]
            .key;
        assert_eq!(space.score_of(outside, key), None);
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
