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
//! The index is a [`RightIndex`], built once per value table and shared by
//! every partition. Its blocking keys are `u32` ids: each distinct value of
//! the table gets its keys once, interned so that equal strings collide
//! across values (the integer `1984` and the token `"1984"`). Scoring is per
//! left entity: its distinct values are scored once against the distinct
//! values of all its candidates, into one matrix, and each candidate's
//! feature set is read from the matrix, so a value that several candidates
//! share is scored once for the entity, not once per candidate. A cell is
//! scored through [`ValueTable::similarity_at_least`] at θ: a score below
//! θ, which no feature reads, is stored as −∞, mostly without computing an
//! edit distance, and every other cell has the exact bits of
//! [`ValueTable::similarity`].
//!
//! For every surviving feature key the space keeps its pairs sorted by
//! that key's score, so an ALEX action — "find all links whose value for
//! this feature lies within ±step of the approved link's value" (§4.2) —
//! is answered by binary searches, not by a scan of the space.
//!
//! Storage is flat. Feature keys get dense per-space ids in `FeatureKey`
//! order, so a pair's features sorted by id are in `FeatureSet` order.
//! All features of all pairs live in one arena of `(key id, score)`
//! columns, indexed by per-pair offsets. A pair's exact set of key ids is
//! its *subset*; subsets are interned. Each key keeps its pairs in score
//! order (its *ranked* list, the order results come in) and, beside it,
//! the same entries regrouped into one run per subset, each run sorted by
//! score, an entry holding its score and its rank in the ranked list.
//! Every pair of a run has the same keys at the same arena slots, so a
//! query decides once per run whether its pairs can share enough of the
//! state's features, skips the runs that cannot, and inside the others
//! reads each shared feature's score at a slot known in advance. The
//! ranks it keeps are marked in a bitset and read back in rank order, as
//! the pair ids the engine keys its bookkeeping by.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use alex_rdf::hash::FastMap;
use alex_rdf::{Interner, IriId, Link, Literal, Store, Term};
use alex_sim::{string::tokens, SimConfig, ValueId, ValueTable};

use crate::feature::{Feature, FeatureKey, FeatureSet};
use crate::parallel::Executor;

/// Default cap on inverted-index bucket size; buckets larger than this are
/// stop-word-like and proposed pairs from them are noise.
pub const DEFAULT_MAX_BLOCK: usize = 100;

/// One pair of a feature key's list while the space is assembled. The
/// sort compares scores only, and std's unstable sort may break ties
/// differently for an element of another size, so this stays a 16-byte
/// `Copy` entry: the result order, ties included, depends on it.
#[derive(Clone, Copy, Debug)]
struct RangeEntry {
    score: f64,
    pair: u32,
    subset: u32,
}

/// The index of one feature key: the pairs that have it, in score order,
/// and the same pairs regrouped into one run per subset.
#[derive(Clone, Debug, Default)]
struct KeyIndex {
    /// The pairs, sorted by their score for the key (ties in the order
    /// the sort leaves them): results come in this order.
    ranked: Vec<u32>,
    /// The runs' entries: entry `i` has score `scores[i]` and is pair
    /// `ranked[ranks[i]]`; each run is sorted by score.
    scores: Vec<f64>,
    ranks: Vec<u32>,
    /// Each run as `(subset, end)`: it ends at entry `end` and starts
    /// where the previous run ends.
    runs: Vec<(u32, u32)>,
}

impl KeyIndex {
    /// The runs as `(subset, entry range)`.
    fn runs(&self) -> impl Iterator<Item = (u32, Range<usize>)> + '_ {
        let mut start = 0;
        self.runs.iter().map(move |&(subset, end)| {
            let run = start..end as usize;
            start = run.end;
            (subset, run)
        })
    }

    /// The entries of `run` with score in `[center − step, center + step]`.
    fn in_range(&self, run: Range<usize>, center: f64, step: f64) -> Range<usize> {
        let scores = &self.scores[run.clone()];
        let start = scores.partition_point(|&s| s < center - step);
        let end = scores.partition_point(|&s| s <= center + step);
        run.start + start..run.start + end
    }
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
    /// Subset `s`'s key ids, ascending, are
    /// `subset_keys[slot(&subset_offsets, s)]`.
    subset_offsets: Vec<u32>,
    subset_keys: Vec<u32>,
    /// Per key id: its index.
    index: Vec<KeyIndex>,
    /// `|partition| × |other dataset|`: the unfiltered pair count (Fig 5a).
    total_possible: usize,
}

/// Appends the blocking keys of `term`: a lowercased IRI local name or
/// string literal together with its tokens of at least 3 bytes, or the
/// lexical form of a number or date. Booleans have none.
fn literal_keys(interner: &Interner, term: &Term, out: &mut Vec<String>) {
    let text = match term {
        Term::Iri(id) => alex_sim::iri_local_name(&interner.resolve(id.0)).to_lowercase(),
        Term::Literal(lit @ (Literal::Str(_) | Literal::LangStr { .. })) => {
            lit.lexical(interner).to_lowercase()
        }
        Term::Literal(lit @ (Literal::Integer(_) | Literal::Float(_) | Literal::Date(_))) => {
            out.push(lit.lexical(interner).to_string());
            return;
        }
        Term::Literal(Literal::Boolean(_)) => return,
    };
    if !text.is_empty() {
        out.extend(tokens(&text).into_iter().filter(|t| t.len() >= 3));
        out.push(text);
    }
}

/// The right dataset as the space build reads it, built once per value
/// table and shared by every partition's build: each value's blocking key
/// ids, an inverted index from key id to the right entities with that key,
/// and each right entity's `(predicate, value id)` row.
///
/// Keys are computed once per distinct value of the table and interned,
/// so equal key strings collide whichever values they come from (the
/// integer `1984` and the text token `"1984"`).
#[derive(Debug)]
pub struct RightIndex<'t> {
    table: &'t ValueTable,
    /// Value `v`'s key ids are `value_keys[slot(&key_offsets, v)]`.
    key_offsets: Vec<u32>,
    value_keys: Vec<u32>,
    /// Key `k`'s right entities, ascending, are
    /// `postings[slot(&posting_offsets, k)]`; none for keys no right
    /// entity has and for buckets larger than `max_block`.
    posting_offsets: Vec<u32>,
    postings: Vec<u32>,
    /// Right subjects, ascending; an entity is its index here.
    subjects: Vec<IriId>,
    /// Entity `e`'s attributes, in store order, are
    /// `rows[slot(&row_offsets, e)]`.
    row_offsets: Vec<u32>,
    rows: Vec<(IriId, ValueId)>,
}

/// Item `i`'s range in a flat array split by `offsets`.
fn slot(offsets: &[u32], i: usize) -> Range<usize> {
    offsets[i] as usize..offsets[i + 1] as usize
}

/// `n` as a `u32` offset or id.
fn id32(n: usize) -> u32 {
    u32::try_from(n).expect("right index ids fit u32")
}

impl<'t> RightIndex<'t> {
    /// Indexes every entity of `right`, whose values `table` (built from
    /// both stores) holds. Key buckets with more than `max_block` entities
    /// are dropped as stop-word-like.
    pub fn new(right: &Store, table: &'t ValueTable, max_block: usize) -> Self {
        let _span = alex_trace::span("space.index_right");
        let mut ids: FastMap<String, u32> = FastMap::default();
        let mut key_offsets = vec![0];
        let mut value_keys = Vec::new();
        let mut keys = Vec::new();
        for term in table.terms() {
            literal_keys(right.interner(), term, &mut keys);
            for k in keys.drain(..) {
                let next = id32(ids.len());
                value_keys.push(*ids.entry(k).or_insert(next));
            }
            key_offsets.push(id32(value_keys.len()));
        }
        // The key strings are needed only to intern; free them before
        // the postings are built.
        let key_count = ids.len();
        drop(ids);

        let mut subjects: Vec<IriId> = right.subjects().collect();
        subjects.sort_unstable();
        let mut row_offsets = vec![0];
        let mut rows = Vec::new();
        // `(key, entity)` for every key of every right entity.
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for (e, &subject) in subjects.iter().enumerate() {
            let start = rows.len();
            rows.extend(table.attributes(&right.entity(subject)));
            for &(_, v) in &rows[start..] {
                let keys = &value_keys[slot(&key_offsets, v as usize)];
                entries.extend(keys.iter().map(|&k| (k, id32(e))));
            }
            row_offsets.push(id32(rows.len()));
        }
        entries.sort_unstable();
        entries.dedup();
        let mut posting_offsets = vec![0];
        let mut postings = Vec::new();
        let mut buckets = entries.chunk_by(|a, b| a.0 == b.0).peekable();
        for k in 0..id32(key_count) {
            if let Some(bucket) = buckets.next_if(|b| b[0].0 == k) {
                if bucket.len() <= max_block {
                    postings.extend(bucket.iter().map(|&(_, e)| e));
                }
            }
            posting_offsets.push(id32(postings.len()));
        }
        Self {
            table,
            key_offsets,
            value_keys,
            posting_offsets,
            postings,
            subjects,
            row_offsets,
            rows,
        }
    }

    /// The right entities sharing a blocking key with value `v`, per key.
    fn candidates(&self, v: ValueId) -> impl Iterator<Item = &[u32]> {
        self.value_keys[slot(&self.key_offsets, v as usize)]
            .iter()
            .map(|&k| &self.postings[slot(&self.posting_offsets, k as usize)])
    }

    /// The `(predicate, value id)` attributes of right entity `e`.
    fn row(&self, e: u32) -> &[(IriId, ValueId)] {
        &self.rows[slot(&self.row_offsets, e as usize)]
    }
}

/// The index of `v` in the sorted, distinct `values`.
fn position(values: &[ValueId], v: ValueId) -> usize {
    values.binary_search(&v).expect("value is listed")
}

impl ExplorationSpace {
    /// Builds the space between `left_subjects` (one partition of the left
    /// dataset) and every entity of `right`.
    ///
    /// Honors `ALEX_THREADS` (see [`crate::parallel`]): this is a thin
    /// wrapper over [`ExplorationSpace::build_with`] with a resolved
    /// executor, a value table over both stores and a [`RightIndex`] over
    /// it, none of which outlive the call.
    pub fn build(
        left: &Store,
        right: &Store,
        left_subjects: &[IriId],
        sim: &SimConfig,
        theta: f64,
        max_block: usize,
    ) -> Self {
        let table = ValueTable::from_stores(*sim, left, right);
        Self::build_with(
            left,
            left_subjects,
            theta,
            &Executor::resolve(0),
            &RightIndex::new(right, &table, max_block),
        )
    }

    /// Builds the space on an explicit [`Executor`] against a prebuilt
    /// [`RightIndex`], scoring values through the index's table (its
    /// [`SimConfig`] is the one used), which must hold `left`'s values.
    ///
    /// Each left entity's candidates are the right entities sharing one of
    /// its blocking keys. The entity's distinct values are scored once
    /// against the distinct values of all its candidates, into a matrix
    /// reused from entity to entity, and every candidate's feature set is
    /// read from that matrix: a value pair that several candidates share
    /// is evaluated once, and scratch memory is one entity's matrix.
    ///
    /// Left subjects are sharded into contiguous chunks; each chunk
    /// computes its `(link, feature set)` list independently, and the
    /// chunks are merged serially in input order — so the resulting space
    /// (pair order, indexes, every float) is bit-identical for any worker
    /// count.
    pub fn build_with(
        left: &Store,
        left_subjects: &[IriId],
        theta: f64,
        executor: &Executor,
        right: &RightIndex<'_>,
    ) -> Self {
        let _span = alex_trace::span("space.build");
        let table = right.table;

        // Parallel map: each chunk of left subjects produces its scored
        // pairs in deterministic (subject order, then sorted candidate)
        // order, plus the feature keys it saw, so the merge can number the
        // keys without another pass over the pairs. All cross-thread state
        // is read-only, the table and the index included.
        let score_span = alex_trace::span("space.score_pairs");
        let chunk_results = executor.map_chunks(left_subjects, |chunk| {
            let scorer = table.scorer();
            let mut out: Vec<(Link, FeatureSet)> = Vec::new();
            let mut chunk_keys = BTreeSet::new();
            // Per-entity scratch: the distinct left values (matrix rows),
            // the candidates, their distinct values (matrix columns), the
            // row-major matrix, and attribute rows as `(predicate, offset
            // into the matrix)` — a left offset plus a right one addresses
            // a cell.
            let (mut lvals, mut cands, mut rvals) = (Vec::new(), Vec::new(), Vec::new());
            let mut matrix: Vec<f64> = Vec::new();
            let (mut lrow, mut rrow) = (Vec::new(), Vec::new());
            for &ls in chunk {
                let attrs = table.attributes(&left.entity(ls));
                lvals.clear();
                lvals.extend(attrs.iter().map(|&(_, v)| v));
                lvals.sort_unstable();
                lvals.dedup();
                cands.clear();
                for &v in &lvals {
                    right.candidates(v).for_each(|es| cands.extend(es));
                }
                cands.sort_unstable();
                cands.dedup();
                rvals.clear();
                for &e in &cands {
                    rvals.extend(right.row(e).iter().map(|&(_, v)| v));
                }
                rvals.sort_unstable();
                rvals.dedup();
                // A cell below θ is never read as a feature, so it is
                // stored as −∞ without being computed exactly.
                matrix.clear();
                for &l in &lvals {
                    matrix.extend(rvals.iter().map(|&r| {
                        scorer
                            .similarity_at_least(l, r, theta)
                            .unwrap_or(f64::NEG_INFINITY)
                    }));
                }
                lrow.clear();
                lrow.extend(
                    attrs
                        .iter()
                        .map(|&(p, v)| (p, position(&lvals, v) * rvals.len())),
                );
                for &e in &cands {
                    rrow.clear();
                    rrow.extend(right.row(e).iter().map(|&(p, v)| (p, position(&rvals, v))));
                    let Some(fs) =
                        FeatureSet::build_with_sim(&lrow, &rrow, theta, |l, r| matrix[l + r])
                    else {
                        continue;
                    };
                    chunk_keys.extend(fs.keys());
                    out.push((Link::new(ls, right.subjects[e as usize]), fs));
                }
            }
            (out, chunk_keys)
        });
        drop(score_span);

        // Serial, order-preserving merge: replays exactly the pair sequence
        // the single-threaded loop would have produced.
        let merge_span = alex_trace::span("space.merge");
        let keys: BTreeSet<FeatureKey> = chunk_results
            .iter()
            .flat_map(|(_, ks)| ks)
            .copied()
            .collect();
        let space = Self::assemble(
            keys.into_iter().collect(),
            chunk_results.into_iter().flat_map(|(pairs, _)| pairs),
            left_subjects.len() * right.subjects.len(),
        );
        drop(merge_span);
        space
    }

    /// Assembles a space from scored pairs, in pair order: numbers `keys`
    /// (ascending, distinct, covering every pair's keys) densely, fills
    /// the arena, interns each pair's subset, sorts each key's list by
    /// score and regroups it into per-subset runs.
    /// [`ExplorationSpace::build_with`] and the space file loader
    /// ([`crate::space_file`]) share it, so a loaded space has the pair
    /// order, key ids and range tie order a rebuild in the same process
    /// would have.
    pub(crate) fn assemble(
        keys: Vec<FeatureKey>,
        pairs: impl IntoIterator<Item = (Link, FeatureSet)>,
        total_possible: usize,
    ) -> Self {
        let mut lists: Vec<Vec<RangeEntry>> = vec![Vec::new(); keys.len()];
        let mut space = Self {
            index: vec![KeyIndex::default(); keys.len()],
            keys,
            offsets: vec![0],
            subset_offsets: vec![0],
            total_possible,
            ..Self::default()
        };
        let mut subsets: FastMap<Vec<u32>, u32> = FastMap::default();
        for (link, fs) in pairs {
            let pair = u32::try_from(space.links.len()).expect("space overflow");
            let start = space.feature_keys.len();
            for f in fs.features() {
                let id = space.key_id(f.key).expect("every pair key is numbered");
                space.feature_keys.push(id);
                space.feature_scores.push(f.score);
            }
            let ids = &space.feature_keys[start..];
            let subset = match subsets.get(ids) {
                Some(&s) => s,
                None => {
                    let s = id32(subsets.len());
                    subsets.insert(ids.to_vec(), s);
                    space.subset_keys.extend_from_slice(ids);
                    space.subset_offsets.push(id32(space.subset_keys.len()));
                    s
                }
            };
            for (&id, &score) in ids.iter().zip(&space.feature_scores[start..]) {
                lists[id as usize].push(RangeEntry {
                    score,
                    pair,
                    subset,
                });
            }
            let end = u32::try_from(space.feature_keys.len()).expect("space overflow");
            space.offsets.push(end);
            space.pair_index.insert(link, pair);
            space.links.push(link);
        }
        // Per subset: its entry count in one key's list, then the next
        // free entry of its run.
        let mut next = vec![0u32; subsets.len()];
        drop(subsets);
        // One key at a time, each list freed once its index is built.
        for (mut list, index) in lists.into_iter().zip(&mut space.index) {
            list.sort_unstable_by(|a, b| a.score.partial_cmp(&b.score).expect("scores are finite"));
            next.fill(0);
            for e in &list {
                next[e.subset as usize] += 1;
            }
            let mut end = 0;
            for (subset, slot) in next.iter_mut().enumerate() {
                if *slot > 0 {
                    let start = end;
                    end += *slot;
                    *slot = start;
                    index.runs.push((id32(subset), end));
                }
            }
            // A counting sort by subset keeps each run in score order.
            index.scores = vec![0.0; list.len()];
            index.ranks = vec![0; list.len()];
            for (rank, e) in list.iter().enumerate() {
                let slot = &mut next[e.subset as usize];
                index.scores[*slot as usize] = e.score;
                index.ranks[*slot as usize] = id32(rank);
                *slot += 1;
            }
            index.ranked = list.iter().map(|e| e.pair).collect();
        }
        space
    }

    /// The distinct feature keys, ascending; a key's position is its id.
    pub(crate) fn keys(&self) -> &[FeatureKey] {
        &self.keys
    }

    /// An order-sensitive hash of the whole index: keys, links, offsets,
    /// the feature arena, the subsets, every key's ranked pairs and runs,
    /// and the unfiltered pair count. Equal spaces hash equal, and spaces
    /// that answer some query differently (or in another order) differ in
    /// what is hashed. Ids are process-local, so compare only spaces of
    /// one process.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.keys.hash(&mut h);
        self.links.hash(&mut h);
        self.offsets.hash(&mut h);
        self.feature_keys.hash(&mut h);
        for s in &self.feature_scores {
            s.to_bits().hash(&mut h);
        }
        self.subset_offsets.hash(&mut h);
        self.subset_keys.hash(&mut h);
        for index in &self.index {
            index.ranked.hash(&mut h);
            for s in &index.scores {
                s.to_bits().hash(&mut h);
            }
            index.ranks.hash(&mut h);
            index.runs.hash(&mut h);
        }
        self.pair_index.len().hash(&mut h);
        self.total_possible.hash(&mut h);
        h.finish()
    }

    /// The dense id of `key`, if any pair of the space has it.
    fn key_id(&self, key: FeatureKey) -> Option<u32> {
        let id = self.keys.binary_search(&key).ok()?;
        Some(u32::try_from(id).expect("key ids fit u32"))
    }

    /// The key ids (ascending) and matching scores of pair `pair`.
    pub(crate) fn pair_features(&self, pair: u32) -> (&[u32], &[f64]) {
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

    /// The dense id of `link` among the space's pairs, `None` for a link
    /// outside the space.
    pub(crate) fn pair_id(&self, link: Link) -> Option<u32> {
        self.pair_index.get(&link).copied()
    }

    /// The link of pair `pair`.
    pub(crate) fn link(&self, pair: u32) -> Link {
        self.links[pair as usize]
    }

    /// Every pair's link, indexed by pair id.
    pub(crate) fn pair_links(&self) -> &[Link] {
        &self.links
    }

    /// The feature set of `link` — the state representation (§4.1).
    pub fn feature_set(&self, link: Link) -> Option<FeatureSet> {
        Some(self.pair_feature_set(self.pair_id(link)?))
    }

    /// The feature set of pair `pair`.
    pub(crate) fn pair_feature_set(&self, pair: u32) -> FeatureSet {
        let (ids, scores) = self.pair_features(pair);
        let features = ids
            .iter()
            .zip(scores)
            .map(|(&id, &score)| Feature {
                key: self.keys[id as usize],
                score,
            })
            .collect();
        FeatureSet::from_sorted(features)
    }

    /// The score of feature `key` on `link`, if the link is in the space
    /// and has that feature. Allocates nothing.
    pub fn score_of(&self, link: Link, key: FeatureKey) -> Option<f64> {
        let (ids, scores) = self.pair_features(self.pair_id(link)?);
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

    /// The pairs `index` ranks at `ranks` (distinct), in rank order.
    fn in_rank_order(index: &KeyIndex, ranks: &[u32]) -> Vec<u32> {
        let (Some(&lo), Some(&hi)) = (ranks.iter().min(), ranks.iter().max()) else {
            return Vec::new();
        };
        // A bit per rank from `lo` to `hi`: reading the set bits in order
        // sorts the ranks in time linear in their count and span / 64.
        let mut seen = vec![0u64; (hi - lo) as usize / 64 + 1];
        for &rank in ranks {
            let i = (rank - lo) as usize;
            seen[i / 64] |= 1 << (i % 64);
        }
        let mut pairs = Vec::with_capacity(ranks.len());
        for (w, mut bits) in seen.into_iter().enumerate() {
            while bits != 0 {
                let rank = lo as usize + w * 64 + bits.trailing_zeros() as usize;
                pairs.push(index.ranked[rank]);
                bits &= bits - 1;
            }
        }
        pairs
    }

    /// Executes an action (§4.2): all links whose score for `key` lies in
    /// `[center − step, center + step]` (inclusive), with no constraint on
    /// other features. This is the *example* semantics of §4.2; prefer
    /// [`ExplorationSpace::explore_from`], which applies the full action
    /// feature set.
    pub fn explore(&self, key: FeatureKey, center: f64, step: f64) -> Vec<Link> {
        let Some(id) = self.key_id(key) else {
            return Vec::new();
        };
        // The ranked list is in score order, so its in-range pairs are one
        // stretch of it: after the entries below the range in every run.
        let index = &self.index[id as usize];
        let (mut start, mut end) = (0, 0);
        for (_, run) in index.runs() {
            let in_range = index.in_range(run.clone(), center, step);
            start += in_range.start - run.start;
            end += in_range.end - run.start;
        }
        index.ranked[start..end]
            .iter()
            .map(|&pair| self.links[pair as usize])
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
        let pairs = self.explore_pairs_from(state, key, step);
        pairs.into_iter().map(|pair| self.link(pair)).collect()
    }

    /// [`ExplorationSpace::explore_from`] as pair ids, in the same order.
    pub(crate) fn explore_pairs_from(
        &self,
        state: &FeatureSet,
        key: FeatureKey,
        step: f64,
    ) -> Vec<u32> {
        let (Some(center), Some(explored)) = (state.score_of(key), self.key_id(key)) else {
            return Vec::new();
        };
        let n = state.len();
        let required = n.div_ceil(2).max(2.min(n));
        // Per key id: the lowest score accepted for it, for the state's
        // other features. A key no pair has is shared by no candidate.
        let mut bounds: Vec<Option<f64>> = vec![None; self.keys.len()];
        for f in state.features().iter().filter(|f| f.key != key) {
            if let Some(id) = self.key_id(f.key) {
                bounds[id as usize] = Some(f.score - step);
            }
        }
        // Per run: the arena slot of each shared feature, with its bound.
        let mut checks: Vec<(usize, f64)> = Vec::with_capacity(n);
        let mut hits = Vec::new();
        let index = &self.index[explored as usize];
        for (subset, run) in index.runs() {
            let keys = &self.subset_keys[slot(&self.subset_offsets, subset as usize)];
            checks.clear();
            for (at, &id) in keys.iter().enumerate() {
                if let Some(min) = bounds[id as usize] {
                    checks.push((at, min));
                }
            }
            // The explored feature is shared too.
            if checks.len() + 1 < required {
                continue;
            }
            hits.extend(
                index.ranks[index.in_range(run, center, step)]
                    .iter()
                    .copied()
                    .filter(|&rank| {
                        let pair = index.ranked[rank as usize] as usize;
                        let scores = &self.feature_scores[self.offsets[pair] as usize..];
                        checks.iter().all(|&(at, min)| scores[at] >= min)
                    }),
            );
        }
        Self::in_rank_order(index, &hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alex_rdf::{Interner, StrId};

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

    /// Each left entity's distinct values are scored once against the
    /// distinct values of all its candidates, so a value two candidates
    /// share (here a year and a type IRI) costs one evaluation, not one
    /// per candidate.
    #[test]
    fn build_scores_each_value_pair_once_per_left_entity() {
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        let (name, year, kind) = (
            left.intern_iri("p/name"),
            left.intern_iri("p/year"),
            left.intern_iri("p/type"),
        );
        let player = left.intern_iri("t/Player");
        let people = [
            ("LeBron James", 1984),
            ("Kobe Bryant", 1978),
            ("Chris Paul", 1984),
        ];
        let mut subjects = Vec::new();
        for (store, prefix) in [(&mut left, "l"), (&mut right, "r")] {
            for (i, &(n, y)) in people.iter().enumerate() {
                let s = store.intern_iri(&format!("{prefix}/e{i}"));
                store.insert_literal(s, name, Literal::str(&interner, n));
                store.insert_literal(s, year, Literal::Integer(y));
                store.insert_iri(s, kind, player);
                if prefix == "l" {
                    subjects.push(s);
                }
            }
        }
        let table = ValueTable::from_stores(SimConfig::default(), &left, &right);
        let index = RightIndex::new(&right, &table, DEFAULT_MAX_BLOCK);
        let space = ExplorationSpace::build_with(&left, &subjects, 0.3, &Executor::new(1), &index);
        assert!(space.len() >= people.len());

        // The shared type IRI makes every right entity a candidate of
        // every left entity.
        let distinct = |store: &Store, subjects: &[IriId]| -> usize {
            let mut values: Vec<ValueId> = subjects
                .iter()
                .flat_map(|&s| table.attributes(&store.entity(s)))
                .map(|(_, v)| v)
                .collect();
            values.sort_unstable();
            values.dedup();
            values.len()
        };
        let rights: Vec<IriId> = right.subjects().collect();
        let right_values = distinct(&right, &rights);
        let exact: usize = subjects
            .iter()
            .map(|&s| distinct(&left, &[s]) * right_values)
            .sum();
        let per_pair: usize = subjects
            .iter()
            .flat_map(|&l| rights.iter().map(move |&r| (l, r)))
            .map(|(l, r)| left.entity(l).attributes.len() * right.entity(r).attributes.len())
            .sum();
        assert_eq!(table.stats().hits, exact as u64);
        assert!(
            exact < per_pair,
            "{exact} evaluations vs {per_pair} per pair"
        );
    }

    /// Blocking keys are interned strings, so an integer value and an
    /// equal token of a text value propose the pair.
    #[test]
    fn integer_and_equal_text_token_share_a_key() {
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        let l = left.intern_iri("l/e0");
        let year = left.intern_iri("l/year");
        left.insert_literal(l, year, Literal::Integer(1984));
        let r = right.intern_iri("r/e0");
        let note = right.intern_iri("r/note");
        right.insert_literal(r, note, Literal::str(&interner, "born 1984"));
        let space = build(&left, &right, &[l]);
        assert!(space.contains(Link::new(l, r)));
    }

    /// One key whose list holds five subsets with interleaved and tied
    /// scores: `explore` keeps the score order with the sort's ties, and
    /// `explore_from` is its ordered filter by the documented predicate
    /// (every shared feature within `step` below the state's score, at
    /// least `⌈n/2⌉` and 2 of the state's `n` features shared), so the
    /// per-run results merge back in rank order.
    #[test]
    fn explore_from_merges_runs_in_list_order() {
        let ids = |n: usize| -> Vec<IriId> { (0..n).map(|i| IriId(StrId(i as u32))).collect() };
        let (l, r) = (ids(40), ids(80));
        let keys: Vec<FeatureKey> = (0..4).map(|i| FeatureKey::new(l[i], r[i])).collect();
        let subsets: [&[usize]; 5] = [&[0], &[0, 1], &[0, 2], &[0, 1, 2], &[0, 1, 2, 3]];
        let pairs: Vec<(Link, FeatureSet)> = (0..40)
            .map(|i| {
                let features = subsets[i % 5]
                    .iter()
                    .map(|&k| Feature {
                        key: keys[k],
                        // Key 0 has four distinct scores, so every subset
                        // ties with the others; the rest vary more.
                        score: 0.5 + 0.05 * ((i * (k + 1) * 7) % if k == 0 { 4 } else { 9 }) as f64,
                    })
                    .collect();
                (
                    Link::new(l[i], r[40 + i]),
                    FeatureSet::from_sorted(features),
                )
            })
            .collect();
        let space = ExplorationSpace::assemble(keys.clone(), pairs, 40 * 40);
        assert_eq!(space.index[0].runs.len(), 5);

        let qualifies = |state: &FeatureSet, cand: &FeatureSet, key: FeatureKey, step: f64| {
            let n = state.len();
            let mut shared = 0;
            for f in state.features() {
                match cand.score_of(f.key) {
                    _ if f.key == key => shared += 1,
                    Some(c) if c >= f.score - step => shared += 1,
                    Some(_) => return false,
                    None => {}
                }
            }
            shared >= n.div_ceil(2).max(2.min(n))
        };
        for state_link in space.links() {
            let state = space.feature_set(state_link).unwrap();
            for f in state.features() {
                for step in [0.0, 0.05, 0.1, 0.5] {
                    let all = space.explore(f.key, f.score, step);
                    let scores: Vec<f64> = all
                        .iter()
                        .map(|&c| space.score_of(c, f.key).unwrap())
                        .collect();
                    assert!(scores.windows(2).all(|w| w[0] <= w[1]));
                    let in_range = space
                        .links()
                        .filter(|&c| {
                            space
                                .score_of(c, f.key)
                                .is_some_and(|v| (f.score - step..=f.score + step).contains(&v))
                        })
                        .count();
                    assert_eq!(all.len(), in_range);
                    let want: Vec<Link> = all
                        .into_iter()
                        .filter(|&c| qualifies(&state, &space.feature_set(c).unwrap(), f.key, step))
                        .collect();
                    assert_eq!(space.explore_from(&state, f.key, step), want);
                }
            }
        }
    }

    #[test]
    fn feature_key_count_positive() {
        let (left, right, subjects) = stores();
        let space = build(&left, &right, &subjects);
        assert!(space.feature_key_count() >= 2); // name/name and year/year at minimum
    }
}
