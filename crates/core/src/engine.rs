//! The per-partition ALEX engine: feedback processing, exploration,
//! first-visit Monte-Carlo policy evaluation, ε-greedy policy improvement,
//! and the blacklist/rollback optimizations (paper §4, §6.3, Algorithm 1).
//!
//! One engine owns one partition's [`ExplorationSpace`] and candidate
//! links. Partitions never communicate (§6.2), so the driver can run many
//! engines in parallel.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use alex_rdf::hash::{FastMap, FastSet};
use alex_rdf::{Interner, IriId, Link};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::candidates::{Blacklist, CandidateSet, Candidates, LinkSet};
use crate::config::AlexConfig;
use crate::feature::FeatureKey;
use crate::oracle::FeedbackOracle;
use crate::policy::{Policy, QTable, StateAction};
use crate::space::ExplorationSpace;

/// Counters accumulated over one episode of one partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionEpisodeStats {
    /// Feedback items processed.
    pub feedback_items: usize,
    /// Negative feedback items among them.
    pub negative_feedback: usize,
    /// Links added by exploration.
    pub links_added: usize,
    /// Links removed by negative feedback or rollback.
    pub links_removed: usize,
    /// Rollbacks triggered.
    pub rollbacks: usize,
    /// ε-greedy choices the ε coin made at random (§4.4).
    pub explored: usize,
    /// ε-greedy choices that took the greedy (or, at a state without
    /// one, an arbitrary) action.
    pub exploited: usize,
}

impl PartitionEpisodeStats {
    /// Element-wise sum, used by the driver to aggregate partitions.
    pub fn merge(&mut self, other: &PartitionEpisodeStats) {
        self.feedback_items += other.feedback_items;
        self.negative_feedback += other.negative_feedback;
        self.links_added += other.links_added;
        self.links_removed += other.links_removed;
        self.rollbacks += other.rollbacks;
        self.explored += other.explored;
        self.exploited += other.exploited;
    }
}

/// A point-in-time snapshot of one engine's learning state, for
/// dashboards, logging, and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineDiagnostics {
    /// Links currently in the candidate set.
    pub candidates: usize,
    /// Links on the blacklist.
    pub blacklisted: usize,
    /// State-action pairs with at least one recorded return.
    pub q_entries: usize,
    /// States with a stored greedy action.
    pub policy_states: usize,
    /// State-action pairs pinned bad by rollback.
    pub banned_actions: usize,
    /// Pairs in this partition's filtered exploration space.
    pub space_size: usize,
}

impl EngineDiagnostics {
    /// Element-wise sum, for aggregating partitions.
    pub fn merge(&mut self, other: &EngineDiagnostics) {
        self.candidates += other.candidates;
        self.blacklisted += other.blacklisted;
        self.q_entries += other.q_entries;
        self.policy_states += other.policy_states;
        self.banned_actions += other.banned_actions;
        self.space_size += other.space_size;
    }
}

/// What an engine holds about one link: "why is this link here?"
/// answered from the learner's own state. IRIs are rendered through the
/// engine's interner (`#<id>` without one).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct LinkExplanation {
    /// The left entity's IRI.
    pub left: String,
    /// The right entity's IRI.
    pub right: String,
    /// Whether the link is in the candidate set.
    pub candidate: bool,
    /// Whether the link has positive feedback (rollback spares it).
    pub approved: bool,
    /// Whether the link is blacklisted.
    pub blacklisted: bool,
    /// Negative feedback on the link since its last approval (counted
    /// only with the blacklist on).
    pub negatives: usize,
    /// `"initial"` when no state-action pair generated the link,
    /// `"explored"` otherwise.
    pub origin: &'static str,
    /// The state-action pairs that generated the link, in recorded order.
    pub generated_by: Vec<GeneratingAction>,
}

/// One state-action pair that generated a link ("Returns(s, a) that led
/// to s'", Algorithm 1 line 14), as the engine sees it now.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct GeneratingAction {
    /// The approved link whose feedback triggered the action.
    pub state: [String; 2],
    /// The explored feature, as its two predicates.
    pub feature: [String; 2],
    /// The feature's score on the state: the centre of the action's range.
    pub state_score: Option<f64>,
    /// The feature's score on the explained link.
    pub score: Option<f64>,
    /// The pair's current Q estimate, if it has any return.
    pub q: Option<f64>,
    /// Returns behind `q`.
    pub observations: u32,
    /// Whether the policy's greedy action at the state is this feature.
    pub greedy: bool,
    /// Whether rollback has pinned the pair bad.
    pub rolled_back: bool,
    /// Negative feedback on links the pair generated; rollback clears it.
    pub negatives: usize,
}

/// The feedback bookkeeping of one engine that later episodes read
/// besides the learned policy: which state-action pairs generated each
/// link, and the counters behind the blacklist and rollback (§6.3). Every
/// `Vec` keeps the engine's recorded order, which rollback replays.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct EngineBookkeeping {
    /// Link → the state-action pairs that generated it.
    pub(crate) provenance: Vec<(Link, Vec<StateAction>)>,
    /// State-action pair → the links it added.
    pub(crate) generated: Vec<(StateAction, Vec<Link>)>,
    /// Negative feedback on links generated by each pair.
    pub(crate) negative_by_action: Vec<(StateAction, usize)>,
    /// Links with positive feedback (rollback spares them).
    pub(crate) approved: Vec<Link>,
    /// Cumulative negative feedback per link.
    pub(crate) negatives_on_link: Vec<(Link, usize)>,
}

/// No action, no pair.
const NONE: u32 = u32::MAX;

/// Per space pair, the actions that generated it ("Returns(s, a) that led
/// to s'", Algorithm 1 line 14), by action number and in recorded order:
/// the first in a dense column, any further ones in a side map, since
/// few pairs are generated more than once.
#[derive(Clone, Debug, Default)]
struct Provenance {
    first: Vec<u32>,
    more: FastMap<u32, Vec<u32>>,
}

impl Provenance {
    fn new(pairs: usize) -> Self {
        Self {
            first: vec![NONE; pairs],
            more: FastMap::default(),
        }
    }

    /// Records one more action that generated `pair`.
    fn push(&mut self, pair: u32, action: u32) {
        let first = &mut self.first[pair as usize];
        if *first == NONE {
            *first = action;
        } else {
            self.more.entry(pair).or_default().push(action);
        }
    }

    /// The actions that generated `pair`, in recorded order.
    fn of(&self, pair: u32) -> impl Iterator<Item = u32> + '_ {
        let first = Some(self.first[pair as usize]).filter(|&a| a != NONE);
        let more = first.and_then(|_| self.more.get(&pair));
        first.into_iter().chain(more.into_iter().flatten().copied())
    }

    /// Forgets every record of `action` generating `pair`.
    fn remove(&mut self, pair: u32, action: u32) {
        let first = &mut self.first[pair as usize];
        let Some(more) = self.more.get_mut(&pair) else {
            if *first == action {
                *first = NONE;
            }
            return;
        };
        more.retain(|&a| a != action);
        if *first == action {
            *first = if more.is_empty() {
                NONE
            } else {
                more.remove(0)
            };
        }
        if more.is_empty() {
            self.more.remove(&pair);
        }
    }

    /// Replaces the actions that generated `pair`.
    fn set(&mut self, pair: u32, actions: Vec<u32>) {
        let mut actions = actions.into_iter();
        self.first[pair as usize] = actions.next().unwrap_or(NONE);
        let more: Vec<u32> = actions.collect();
        if more.is_empty() {
            self.more.remove(&pair);
        } else {
            self.more.insert(pair, more);
        }
    }

    /// Every generated pair with its actions, in pair order.
    fn entries(&self) -> impl Iterator<Item = (u32, Vec<u32>)> + '_ {
        (0..self.first.len() as u32)
            .filter(|&p| self.first[p as usize] != NONE)
            .map(|p| (p, self.of(p).collect()))
    }
}

/// A restored bookkeeping entry that names a link outside the engine's
/// exploration space where only its pairs can be: an engine generates
/// links only from its space, so the entry comes from other datasets or
/// another configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct OutsideSpace {
    /// The bookkeeping field: `"provenance"` or `"generated"`.
    pub(crate) field: &'static str,
    pub(crate) link: Link,
}

/// The reinforcement-learning engine for one partition.
///
/// Facts about links of the space (candidacy, blacklist, approval,
/// provenance, generated links) are kept per pair id of the space; only
/// links outside it are hashed. The Q-table, the policy and the
/// per-episode visit sets stay keyed by link.
pub struct PartitionEngine {
    space: ExplorationSpace,
    candidates: CandidateSet,
    q: QTable,
    policy: Policy,
    blacklist: LinkSet,
    /// Every state-action pair the engine has acted on or restored
    /// bookkeeping for, numbered in that order; `provenance` and
    /// `generated` name them by number.
    actions: Vec<StateAction>,
    action_ids: FastMap<StateAction, u32>,
    /// Per action: the pairs it added, in order (for rollback, §6.3);
    /// `None` until it adds one and after its rollback.
    generated: Vec<Option<Vec<u32>>>,
    /// Per pair: every action that generated it.
    provenance: Provenance,
    /// Negative feedback observed on links generated by each pair.
    negative_by_action: FastMap<StateAction, usize>,
    /// State-action pairs that have been rolled back: known-bad, never
    /// re-taken. Realizes the paper's "ALEX can learn that this feature is
    /// not distinctive and avoid exploring around it in the future" (§4.2)
    /// without waiting for ε-greedy sampling to relearn it after every
    /// rollback.
    banned_actions: FastSet<StateAction>,
    /// Links that have received positive feedback; rollback spares them.
    approved: LinkSet,
    /// Cumulative negative feedback per link, for the blacklist threshold.
    /// Positive feedback clears the count (contradicted negatives were
    /// probably user error; see `AlexConfig::blacklist_threshold`).
    negatives_on_link: FastMap<Link, usize>,
    /// First-visit bookkeeping, cleared at episode end.
    visited_this_episode: FastSet<Link>,
    /// States to improve at episode end (states feedback arrived on).
    /// Improvement at one state never reads another, so the drain order
    /// of this set does not reach any output.
    states_this_episode: FastSet<Link>,
    /// Every link this episode added to or removed from the candidate
    /// set, for a caller keeping a copy of it current
    /// ([`PartitionEngine::take_touched`]); cleared at episode end.
    touched_this_episode: Vec<Link>,
    stats: PartitionEpisodeStats,
    rng: StdRng,
    cfg: AlexConfig,
    /// Interner for rendering IRIs in explanations and fingerprints;
    /// engines constructed directly in tests have none and fall back to
    /// `#<id>` rendering.
    interner: Option<Arc<Interner>>,
}

impl PartitionEngine {
    /// Creates an engine over `space`, seeding its candidate set with the
    /// initial links whose left entity belongs to this partition.
    pub fn new(
        space: ExplorationSpace,
        initial_links: impl IntoIterator<Item = Link>,
        cfg: AlexConfig,
        seed: u64,
    ) -> Self {
        let pairs = space.len();
        let mut candidates = CandidateSet::new(pairs);
        for l in initial_links {
            candidates.insert(l, space.pair_id(l));
        }
        Self {
            space,
            candidates,
            q: QTable::new(),
            policy: Policy::new(),
            blacklist: LinkSet::new(pairs),
            actions: Vec::new(),
            action_ids: FastMap::default(),
            generated: Vec::new(),
            provenance: Provenance::new(pairs),
            negative_by_action: FastMap::default(),
            banned_actions: FastSet::default(),
            approved: LinkSet::new(pairs),
            negatives_on_link: FastMap::default(),
            visited_this_episode: FastSet::default(),
            states_this_episode: FastSet::default(),
            touched_this_episode: Vec::new(),
            stats: PartitionEpisodeStats::default(),
            rng: StdRng::seed_from_u64(seed),
            cfg,
            interner: None,
        }
    }

    /// Sets the interner that renders IRIs in [`PartitionEngine::explain`]
    /// and [`PartitionEngine::state_fingerprint`]. Purely observational —
    /// has no effect on exploration.
    pub fn set_interner(&mut self, interner: Arc<Interner>) {
        self.interner = Some(interner);
    }

    fn iri(&self, id: IriId) -> String {
        match self.interner.as_ref().and_then(|i| i.try_resolve(id.0)) {
            Some(s) => s.to_string(),
            None => format!("#{}", id.0 .0),
        }
    }

    /// Renders a link as `left<TAB>right` (the tab never occurs inside an
    /// IRI, so the pair splits back unambiguously).
    fn link_str(&self, l: Link) -> String {
        format!("{}\t{}", self.iri(l.left), self.iri(l.right))
    }

    fn feature_str(&self, k: FeatureKey) -> String {
        format!("{}\t{}", self.iri(k.left), self.iri(k.right))
    }

    /// The number of `sa`, numbering it if it is new.
    fn action_id(&mut self, sa: StateAction) -> u32 {
        *self.action_ids.entry(sa).or_insert_with(|| {
            self.actions.push(sa);
            self.generated.push(None);
            u32::try_from(self.actions.len() - 1).expect("action numbers fit u32")
        })
    }

    /// Preloads blacklist entries (restoring a persisted session): these
    /// links are removed from the candidate set if present and will never
    /// be re-discovered.
    pub fn preload_blacklist(&mut self, links: impl IntoIterator<Item = Link>) {
        for l in links {
            let pair = self.space.pair_id(l);
            self.candidates.remove(l, pair);
            self.blacklist.insert(l, pair);
        }
    }

    /// The partition's exploration space.
    pub fn space(&self) -> &ExplorationSpace {
        &self.space
    }

    /// Current candidate links of this partition.
    pub fn candidates(&self) -> Candidates<'_> {
        Candidates {
            set: &self.candidates,
            space: &self.space,
        }
    }

    /// Current blacklist.
    pub fn blacklist(&self) -> Blacklist<'_> {
        Blacklist {
            set: &self.blacklist,
            space: &self.space,
        }
    }

    /// The learned Q-table (for tests and diagnostics).
    pub fn q_table(&self) -> &QTable {
        &self.q
    }

    /// The current policy (for tests and diagnostics).
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// State-action pairs pinned bad by rollback.
    pub fn banned_actions(&self) -> &FastSet<StateAction> {
        &self.banned_actions
    }

    /// The raw RNG state, for session persistence: a restored engine must
    /// continue the exact ε-greedy random sequence, or its next
    /// exploration choice diverges from the session it resumes.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores learning state captured from a previous engine over the
    /// same datasets: Q-table returns, greedy policy, banned actions, and
    /// the RNG stream. Complements the candidate/blacklist restore done at
    /// construction; restoring a snapshot puts the feedback bookkeeping
    /// back as well.
    pub fn restore_learning(
        &mut self,
        q_entries: impl IntoIterator<Item = (StateAction, f64, u32)>,
        greedy: impl IntoIterator<Item = StateAction>,
        banned: impl IntoIterator<Item = StateAction>,
        rng_state: [u64; 4],
    ) {
        for (sa, sum, count) in q_entries {
            self.q.restore_entry(sa, sum, count);
        }
        for (state, action) in greedy {
            self.policy.restore_entry(state, action);
        }
        self.banned_actions.extend(banned);
        self.rng = StdRng::from_state(rng_state);
    }

    /// The feedback bookkeeping, for session persistence (map entries
    /// in unspecified order).
    pub(crate) fn bookkeeping(&self) -> EngineBookkeeping {
        let links =
            |pairs: &[u32]| -> Vec<Link> { pairs.iter().map(|&p| self.space.link(p)).collect() };
        EngineBookkeeping {
            provenance: self
                .provenance
                .entries()
                .map(|(p, actions)| {
                    let sas = actions.iter().map(|&a| self.actions[a as usize]);
                    (self.space.link(p), sas.collect())
                })
                .collect(),
            generated: (self.actions.iter().zip(&self.generated))
                .filter_map(|(sa, pairs)| Some((*sa, links(pairs.as_deref()?))))
                .collect(),
            negative_by_action: self
                .negative_by_action
                .iter()
                .map(|(sa, n)| (*sa, *n))
                .collect(),
            approved: self.approved.iter(&self.space).copied().collect(),
            negatives_on_link: self
                .negatives_on_link
                .iter()
                .map(|(l, n)| (*l, *n))
                .collect(),
        }
    }

    /// Restores bookkeeping captured by [`PartitionEngine::bookkeeping`]
    /// from an engine over the same datasets, replacing the current one.
    /// Provenance and generated links must be pairs of the space.
    pub(crate) fn restore_bookkeeping(&mut self, b: EngineBookkeeping) -> Result<(), OutsideSpace> {
        let pair = |space: &ExplorationSpace, field, link| {
            space.pair_id(link).ok_or(OutsideSpace { field, link })
        };
        self.provenance = Provenance::new(self.space.len());
        for (link, sas) in b.provenance {
            let p = pair(&self.space, "provenance", link)?;
            let actions = sas.into_iter().map(|sa| self.action_id(sa)).collect();
            self.provenance.set(p, actions);
        }
        self.generated.fill(None);
        for (sa, links) in b.generated {
            let pairs = (links.into_iter())
                .map(|l| pair(&self.space, "generated", l))
                .collect::<Result<_, _>>()?;
            let a = self.action_id(sa);
            self.generated[a as usize] = Some(pairs);
        }
        self.negative_by_action = b.negative_by_action.into_iter().collect();
        self.approved = LinkSet::new(self.space.len());
        for l in b.approved {
            self.approved.insert(l, self.space.pair_id(l));
        }
        self.negatives_on_link = b.negatives_on_link.into_iter().collect();
        Ok(())
    }

    /// A hash of every field a later episode reads: candidates in
    /// insertion order, blacklist, Q returns, greedy policy, banned
    /// actions, provenance, generated links, the rollback and blacklist
    /// counters, approvals, the per-episode visit sets and the RNG. IRIs
    /// are rendered through the interner (when the engine has one), so
    /// engines over separately loaded copies of the same datasets compare
    /// equal. Map entries are sorted; recorded `Vec` orders are kept.
    pub fn state_fingerprint(&self) -> u64 {
        let link = |l: &Link| self.link_str(*l);
        let sa = |(s, a): &StateAction| format!("{}|{}", self.link_str(*s), self.feature_str(*a));
        let sorted = |mut lines: Vec<String>| {
            lines.sort_unstable();
            lines
        };
        let b = self.bookkeeping();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let mut section = |name: &str, lines: Vec<String>| {
            name.hash(&mut h);
            lines.hash(&mut h);
        };
        section(
            "candidates",
            self.candidates.iter().map(|l| link(&l)).collect(),
        );
        section(
            "blacklist",
            sorted(self.blacklist.iter(&self.space).map(link).collect()),
        );
        section(
            "returns",
            sorted(
                self.q
                    .entries()
                    .map(|(k, sum, n)| format!("{} {:x} {n}", sa(&k), sum.to_bits()))
                    .collect(),
            ),
        );
        section(
            "greedy",
            sorted(self.policy.entries().map(|(s, a)| sa(&(s, a))).collect()),
        );
        section(
            "banned",
            sorted(self.banned_actions.iter().map(sa).collect()),
        );
        section(
            "provenance",
            sorted(
                b.provenance
                    .iter()
                    .map(|(l, sas)| {
                        format!(
                            "{} <- {:?}",
                            link(l),
                            sas.iter().map(sa).collect::<Vec<_>>()
                        )
                    })
                    .collect(),
            ),
        );
        section(
            "generated",
            sorted(
                b.generated
                    .iter()
                    .map(|(k, ls)| {
                        format!("{} -> {:?}", sa(k), ls.iter().map(link).collect::<Vec<_>>())
                    })
                    .collect(),
            ),
        );
        section(
            "negative_by_action",
            sorted(
                b.negative_by_action
                    .iter()
                    .map(|(k, n)| format!("{} {n}", sa(k)))
                    .collect(),
            ),
        );
        section("approved", sorted(b.approved.iter().map(link).collect()));
        section(
            "negatives_on_link",
            sorted(
                b.negatives_on_link
                    .iter()
                    .map(|(l, n)| format!("{} {n}", link(l)))
                    .collect(),
            ),
        );
        section(
            "visited",
            sorted(self.visited_this_episode.iter().map(link).collect()),
        );
        section(
            "states",
            sorted(self.states_this_episode.iter().map(link).collect()),
        );
        section("rng", vec![format!("{:?}", self.rng.state())]);
        h.finish()
    }

    /// Everything the engine holds about `link`: candidacy, approval,
    /// blacklist and negatives, and each state-action pair that generated
    /// it with its scores, Q estimate and rollback state. `None` when the
    /// engine holds nothing about the link.
    pub fn explain(&self, link: Link) -> Option<LinkExplanation> {
        let pair = self.space.pair_id(link);
        let candidate = self.candidates.contains(link, pair);
        let approved = self.approved.contains(link, pair);
        let blacklisted = self.blacklist.contains(link, pair);
        let negatives = self.negatives_on_link.get(&link).copied().unwrap_or(0);
        let parents: Vec<StateAction> = (pair.into_iter())
            .flat_map(|p| self.provenance.of(p))
            .map(|a| self.actions[a as usize])
            .collect();
        if !(candidate || approved || blacklisted || negatives > 0 || !parents.is_empty()) {
            return None;
        }
        let generated_by: Vec<GeneratingAction> = parents
            .iter()
            .map(|&(s, a)| GeneratingAction {
                state: [self.iri(s.left), self.iri(s.right)],
                feature: [self.iri(a.left), self.iri(a.right)],
                state_score: self.space.score_of(s, a),
                score: self.space.score_of(link, a),
                q: self.q.q(s, a),
                observations: self.q.observations(s, a),
                greedy: self.policy.greedy_action(s) == Some(a),
                rolled_back: self.banned_actions.contains(&(s, a)),
                negatives: self.negative_by_action.get(&(s, a)).copied().unwrap_or(0),
            })
            .collect();
        Some(LinkExplanation {
            left: self.iri(link.left),
            right: self.iri(link.right),
            candidate,
            approved,
            blacklisted,
            negatives,
            origin: if generated_by.is_empty() {
                "initial"
            } else {
                "explored"
            },
            generated_by,
        })
    }

    /// Snapshots the engine's learning state.
    pub fn diagnostics(&self) -> EngineDiagnostics {
        EngineDiagnostics {
            candidates: self.candidates.len(),
            blacklisted: self.blacklist.len(),
            q_entries: self.q.len(),
            policy_states: self.policy.len(),
            banned_actions: self.banned_actions.len(),
            space_size: self.space.len(),
        }
    }

    /// Runs one episode: `items` feedback interactions followed by policy
    /// improvement. Returns the episode's counters.
    pub fn run_episode(
        &mut self,
        items: usize,
        oracle: &dyn FeedbackOracle,
    ) -> PartitionEpisodeStats {
        for _ in 0..items {
            let Some((link, pair)) = self.candidates.sample_member(&mut self.rng) else {
                break;
            };
            if let Some(positive) = oracle.judge(link, &mut self.rng) {
                self.feedback(link, pair, positive);
                // Nobody reads a batch episode's touched links: clearing
                // them per item holds one item's changes, not a whole
                // episode's (≈90,000 per partition at datagen scale 4).
                self.touched_this_episode.clear();
            }
        }
        self.end_episode()
    }

    /// Processes one feedback item on `link` (Algorithm 1, lines 11–22).
    pub fn process_feedback(&mut self, link: Link, positive: bool) {
        self.feedback(link, self.space.pair_id(link), positive);
    }

    /// [`PartitionEngine::process_feedback`] on `link`, pair `pair` of the
    /// space (`None` outside it).
    fn feedback(&mut self, link: Link, pair: Option<u32>, positive: bool) {
        self.stats.feedback_items += 1;
        if !positive {
            self.stats.negative_feedback += 1;
        }

        // First-visit Monte-Carlo policy evaluation: on the first visit of
        // this link in the episode, append the reward to the returns of
        // every state-action pair on its provenance chain.
        if self.visited_this_episode.insert(link) {
            let reward = if positive {
                self.cfg.positive_reward
            } else {
                self.cfg.negative_reward
            };
            for a in pair.into_iter().flat_map(|p| self.provenance.of(p)) {
                let (s, a) = self.actions[a as usize];
                self.q.append(s, a, reward);
            }
        }

        if positive {
            self.approved.insert(link, pair);
            self.negatives_on_link.remove(&link);
            // A link from outside the filtered space (e.g. a PARIS link
            // whose pair has no θ-surviving feature) has no action space.
            if let Some(pair) = pair {
                self.act_on(link, pair);
            }
        } else {
            self.reject(link, pair);
        }
    }

    /// Takes an action at an approved link, pair `pair` of the space:
    /// choose a feature ε-greedily and add every link within
    /// `±step_size` of its score (§4.2).
    fn act_on(&mut self, state: Link, pair: u32) {
        let features = self.space.pair_feature_set(pair);
        self.states_this_episode.insert(state);
        let Some(choice) = self
            .policy
            .choose(state, &features, self.cfg.epsilon, &mut self.rng)
        else {
            return;
        };
        if choice.explored {
            self.stats.explored += 1;
        } else {
            self.stats.exploited += 1;
        }
        let action = choice.chosen;
        if self.banned_actions.contains(&(state, action)) {
            return;
        }
        let found = self
            .space
            .explore_pairs_from(&features, action, self.cfg.step_size);
        let id = self.action_id((state, action));
        for p in found {
            if p == pair || self.blacklist.has_pair(p) {
                continue;
            }
            let link = self.space.link(p);
            if self.candidates.insert(link, Some(p)) {
                self.stats.links_added += 1;
                self.touched_this_episode.push(link);
                self.provenance.push(p, id);
                self.generated[id as usize]
                    .get_or_insert_with(Vec::new)
                    .push(p);
            }
        }
    }

    /// Handles negative feedback on `link` (pair `pair` of the space, if
    /// any): remove and (optionally) blacklist the link, then charge the
    /// state-action pairs that generated it and roll them back past the
    /// threshold (§6.3).
    fn reject(&mut self, link: Link, pair: Option<u32>) {
        if self.candidates.remove(link, pair) {
            self.stats.links_removed += 1;
            self.touched_this_episode.push(link);
        }
        if self.cfg.blacklist {
            let count = self.negatives_on_link.entry(link).or_insert(0);
            *count += 1;
            if *count >= self.cfg.blacklist_threshold {
                self.blacklist.insert(link, pair);
            }
        }
        self.approved.remove(link, pair);

        let parents: Vec<u32> = pair
            .into_iter()
            .flat_map(|p| self.provenance.of(p))
            .collect();
        for a in parents {
            let count = (self.negative_by_action)
                .entry(self.actions[a as usize])
                .or_insert(0);
            *count += 1;
            if self.cfg.rollback && *count >= self.cfg.rollback_threshold {
                self.rollback(a);
            }
        }
    }

    /// Rolls back action `a`: removes every link it generated, except
    /// links later approved by the user. Rolled-back links are *not*
    /// blacklisted — "they may include some correct links … discovered
    /// later by another state-action pair with a better average return".
    fn rollback(&mut self, a: u32) {
        let Some(pairs) = self.generated[a as usize].take() else {
            return;
        };
        let sa = self.actions[a as usize];
        self.stats.rollbacks += 1;
        self.banned_actions.insert(sa);
        for p in pairs {
            if self.approved.has_pair(p) {
                continue;
            }
            let link = self.space.link(p);
            if self.candidates.remove(link, Some(p)) {
                self.stats.links_removed += 1;
                self.touched_this_episode.push(link);
            }
            self.provenance.remove(p, a);
        }
        self.negative_by_action.remove(&sa);
    }

    /// Hands back every link the episode so far added to or removed from
    /// the candidate set (a link may repeat), and forgets them. Call it
    /// before [`PartitionEngine::end_episode`], which drops them.
    pub fn take_touched(&mut self) -> Vec<Link> {
        std::mem::take(&mut self.touched_this_episode)
    }

    /// Ends the episode: ε-greedy policy improvement at every state visited
    /// (Algorithm 1, lines 24–33), then resets per-episode bookkeeping.
    /// Returns and clears the episode counters.
    pub fn end_episode(&mut self) -> PartitionEpisodeStats {
        for s in self.states_this_episode.drain() {
            if let Some(fs) = self.space.feature_set(s) {
                self.policy.improve(s, &self.q, &fs);
            }
        }
        self.visited_this_episode.clear();
        self.touched_this_episode.clear();
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;
    use crate::space::DEFAULT_MAX_BLOCK;
    use alex_rdf::{Interner, IriId, Literal, Store};
    use alex_sim::SimConfig;
    use std::collections::HashSet;

    /// A world with 8 matching entity pairs plus 2 left decoys; names are
    /// near-identical so exploration around the name feature finds all of
    /// them from any approved link.
    struct World {
        space: ExplorationSpace,
        truth: HashSet<Link>,
        links: Vec<Link>,
    }

    fn world() -> World {
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        let name_l = left.intern_iri("l/name");
        let year_l = left.intern_iri("l/year");
        let name_r = right.intern_iri("r/label");
        let year_r = right.intern_iri("r/born");
        let mut subjects = Vec::new();
        let mut truth = HashSet::new();
        let mut links = Vec::new();
        for i in 0..8 {
            let ls = left.intern_iri(&format!("l/e{i}"));
            let rs = right.intern_iri(&format!("r/e{i}"));
            let nm = format!("player number {i}");
            left.insert_literal(ls, name_l, Literal::str(&interner, &nm));
            left.insert_literal(ls, year_l, Literal::Integer(1980 + i));
            right.insert_literal(rs, name_r, Literal::str(&interner, &nm));
            right.insert_literal(rs, year_r, Literal::Integer(1980 + i));
            subjects.push(ls);
            let link = Link::new(ls, rs);
            truth.insert(link);
            links.push(link);
        }
        let space = ExplorationSpace::build(
            &left,
            &right,
            &subjects,
            &SimConfig::default(),
            0.3,
            DEFAULT_MAX_BLOCK,
        );
        World {
            space,
            truth,
            links,
        }
    }

    fn engine_with(w: &World, initial: &[Link], cfg: AlexConfig) -> PartitionEngine {
        PartitionEngine::new(w.space.clone(), initial.iter().copied(), cfg, 99)
    }

    #[test]
    fn positive_feedback_explores_new_links() {
        let w = world();
        let cfg = AlexConfig {
            epsilon: 0.0,
            ..Default::default()
        };
        let mut e = engine_with(&w, &w.links[..1], cfg);
        assert_eq!(e.candidates().len(), 1);
        e.process_feedback(w.links[0], true);
        assert!(
            e.candidates().len() > 1,
            "exploration should add links, have {}",
            e.candidates().len()
        );
    }

    #[test]
    fn negative_feedback_removes_and_blacklists() {
        let w = world();
        // A wrong link: l/e0 with r/e1.
        let wrong = Link::new(w.links[0].left, w.links[1].right);
        let mut e = engine_with(&w, &[wrong], AlexConfig::default());
        e.process_feedback(wrong, false);
        assert!(!e.candidates().contains(wrong));
        assert!(e.blacklist().contains(&wrong));
    }

    #[test]
    fn blacklisted_links_never_return() {
        let w = world();
        let wrong = Link::new(w.links[0].left, w.links[1].right);
        let mut e = engine_with(&w, &w.links[..1], AlexConfig::default());
        e.process_feedback(wrong, false);
        // Drive many positive explorations; the blacklisted link must not
        // re-enter the candidate set.
        for _ in 0..50 {
            e.process_feedback(w.links[0], true);
        }
        assert!(!e.candidates().contains(wrong));
    }

    #[test]
    fn blacklist_disabled_allows_rediscovery() {
        let w = world();
        let cfg = AlexConfig {
            blacklist: false,
            epsilon: 1.0,
            ..Default::default()
        };
        // wrong shares the name-feature region only if it exists in the
        // space; use a true link as the "wrong" one to guarantee an indexed
        // pair (the oracle is what decides wrongness, not the space).
        let wrongish = w.links[3];
        let mut e = engine_with(&w, &w.links[..1], cfg);
        e.process_feedback(wrongish, false);
        assert!(e.blacklist().is_empty());
        let mut rediscovered = false;
        for _ in 0..100 {
            e.process_feedback(w.links[0], true);
            if e.candidates().contains(wrongish) {
                rediscovered = true;
                break;
            }
        }
        assert!(rediscovered, "without a blacklist the link can come back");
    }

    #[test]
    fn first_visit_mc_appends_once_per_episode() {
        let w = world();
        let cfg = AlexConfig {
            epsilon: 0.0,
            ..Default::default()
        };
        let mut e = engine_with(&w, &w.links[..1], cfg);
        // Generate provenance: approve link 0, which discovers others.
        e.process_feedback(w.links[0], true);
        let discovered: Vec<Link> = e.candidates().iter().filter(|l| *l != w.links[0]).collect();
        assert!(!discovered.is_empty());
        let child = discovered[0];
        let provenance = e.bookkeeping().provenance;
        let (_, parents) = provenance.iter().find(|(l, _)| *l == child).unwrap();
        let (s, a) = parents[0];
        // Repeated feedback on the same child within one episode counts once.
        e.process_feedback(child, true);
        e.process_feedback(child, true);
        e.process_feedback(child, true);
        assert_eq!(e.q_table().observations(s, a), 1);
        // New episode: the same link counts as a fresh first visit.
        let touched = e.take_touched();
        assert!(discovered.iter().all(|l| touched.contains(l)));
        e.end_episode();
        e.process_feedback(child, true);
        assert_eq!(e.q_table().observations(s, a), 2);
    }

    #[test]
    fn rollback_removes_generated_links_but_spares_approved() {
        let w = world();
        let cfg = AlexConfig {
            epsilon: 0.0,
            rollback_threshold: 2,
            ..Default::default()
        };
        let mut e = engine_with(&w, &w.links[..1], cfg);
        e.process_feedback(w.links[0], true);
        let discovered: Vec<Link> = e.candidates().iter().filter(|l| *l != w.links[0]).collect();
        assert!(
            discovered.len() >= 3,
            "need several discoveries, got {}",
            discovered.len()
        );
        // Approve one discovered link, then reject two others from the same
        // generating action: rollback should fire and remove the rest, but
        // keep the approved one and the original state.
        let kept = discovered[0];
        e.process_feedback(kept, true);
        e.process_feedback(discovered[1], false);
        e.process_feedback(discovered[2], false);
        assert!(
            e.candidates().contains(kept),
            "approved link survives rollback"
        );
        assert!(e.candidates().contains(w.links[0]));
        for l in &discovered[1..] {
            assert!(
                !e.candidates().contains(*l),
                "rolled back or rejected: {l:?}"
            );
        }
        // Rolled-back (not rejected) links are not blacklisted.
        for l in &discovered[3..] {
            assert!(!e.blacklist().contains(l));
        }
    }

    #[test]
    fn rollback_disabled_keeps_generated_links() {
        let w = world();
        let cfg = AlexConfig {
            epsilon: 0.0,
            rollback: false,
            rollback_threshold: 1,
            ..Default::default()
        };
        let mut e = engine_with(&w, &w.links[..1], cfg);
        e.process_feedback(w.links[0], true);
        let discovered: Vec<Link> = e.candidates().iter().filter(|l| *l != w.links[0]).collect();
        assert!(discovered.len() >= 2);
        e.process_feedback(discovered[0], false);
        // Only the rejected link is gone; siblings survive.
        assert!(!e.candidates().contains(discovered[0]));
        for l in &discovered[1..] {
            assert!(e.candidates().contains(*l));
        }
    }

    #[test]
    fn policy_improves_toward_rewarding_action() {
        let w = world();
        let cfg = AlexConfig {
            epsilon: 0.3,
            ..Default::default()
        };
        let mut e = engine_with(&w, &w.links[..1], cfg);
        let oracle = ExactOracle::new(w.truth.clone());
        for _ in 0..20 {
            e.run_episode(200, &oracle);
        }
        // After repeated episodes the state's greedy action exists and has
        // positive value.
        let state = w.links[0];
        if let Some(a) = e.policy().greedy_action(state) {
            let q = e.q_table().q(state, a).unwrap();
            assert!(
                q > 0.0,
                "greedy action should have positive return, got {q}"
            );
        }
        // Engine should have found most true links.
        let found = w
            .truth
            .iter()
            .filter(|l| e.candidates().contains(**l))
            .count();
        assert!(found >= 6, "found only {found}/8 true links");
    }

    #[test]
    fn run_episode_with_empty_candidates_is_noop() {
        let w = world();
        let mut e = engine_with(&w, &[], AlexConfig::default());
        let oracle = ExactOracle::new(w.truth.clone());
        let stats = e.run_episode(100, &oracle);
        assert_eq!(stats, PartitionEpisodeStats::default());
    }

    #[test]
    fn stats_are_reset_each_episode() {
        let w = world();
        let mut e = engine_with(&w, &w.links[..1], AlexConfig::default());
        let oracle = ExactOracle::new(w.truth.clone());
        let s1 = e.run_episode(50, &oracle);
        assert!(s1.feedback_items > 0);
        let s2 = e.run_episode(0, &oracle);
        assert_eq!(s2.feedback_items, 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PartitionEpisodeStats {
            feedback_items: 1,
            negative_feedback: 2,
            links_added: 3,
            links_removed: 4,
            rollbacks: 5,
            explored: 6,
            exploited: 7,
        };
        a.merge(&a.clone());
        assert_eq!(a.feedback_items, 2);
        assert_eq!(a.rollbacks, 10);
        assert_eq!((a.explored, a.exploited), (12, 14));
    }

    /// The invariants an explanation rests on, under random feedback at
    /// several seeds: every candidate is explained; `origin` is
    /// `"initial"` exactly for the candidates without provenance; every
    /// generating score lies in its action's range, computed as
    /// `ExplorationSpace::range` computes it; and each recorded pair still
    /// lists the link among those it generated, or has been rolled back
    /// (rollback keeps an approved link's provenance).
    #[test]
    fn explanations_agree_with_the_bookkeeping() {
        use rand::Rng;
        let w = world();
        let mut space_links: Vec<Link> = w.space.links().collect();
        space_links.sort();
        let mut kept_past_rollback = 0;
        for seed in 0..8u64 {
            let cfg = AlexConfig {
                epsilon: 0.3,
                rollback_threshold: 2,
                ..Default::default()
            };
            let step = cfg.step_size;
            let mut e = PartitionEngine::new(w.space.clone(), w.links[..2].to_vec(), cfg, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xE7);
            for item in 0..400 {
                let link = match e.candidates().sample(&mut rng) {
                    Some(l) if rng.gen_bool(0.7) => l,
                    _ => space_links[rng.gen_range(0..space_links.len())],
                };
                let positive = w.truth.contains(&link) != rng.gen_bool(0.15);
                e.process_feedback(link, positive);
                if item % 20 == 19 {
                    e.end_episode();
                }

                let b = e.bookkeeping();
                let provenance: FastMap<Link, Vec<StateAction>> =
                    b.provenance.into_iter().collect();
                let generated: FastMap<StateAction, Vec<Link>> = b.generated.into_iter().collect();
                for l in e.candidates().iter() {
                    let x = e.explain(l).expect("every candidate is explained");
                    assert_eq!(x.origin == "initial", !provenance.contains_key(&l));
                }
                for (l, parents) in &provenance {
                    let x = e.explain(*l).expect("a generated link is explained");
                    assert_eq!(x.origin, "explored");
                    assert_eq!(x.generated_by.len(), parents.len());
                    for (sa, g) in parents.iter().zip(&x.generated_by) {
                        let center = g.state_score.expect("the state has the feature");
                        let score = g.score.expect("the link has the feature");
                        let (lo, hi) = (center - step, center + step);
                        assert!(lo <= score && score <= hi, "{score} outside [{lo}, {hi}]");
                        let listed = generated.get(sa).is_some_and(|ls| ls.contains(l));
                        assert!(listed || e.banned_actions.contains(sa), "{l:?} <- {sa:?}");
                        assert_eq!(g.rolled_back, e.banned_actions.contains(sa));
                        kept_past_rollback += usize::from(!listed);
                    }
                }
            }
        }
        assert!(
            kept_past_rollback > 0,
            "no approved link outlived its generating pair's rollback"
        );
    }

    #[test]
    fn link_outside_space_takes_no_action() {
        let w = world();
        let interner = Interner::new();
        let alien = Link::new(IriId(interner.intern("x")), IriId(interner.intern("y")));
        let mut e = engine_with(&w, &[alien], AlexConfig::default());
        e.process_feedback(alien, true);
        // No exploration possible; candidate set unchanged.
        assert_eq!(e.candidates().len(), 1);
    }

    /// An initial link outside the space is kept by hashing, where links
    /// of the space are kept per pair id: approval, rejection, the
    /// blacklist and explanations treat it like any other link.
    #[test]
    fn link_outside_space_is_approved_rejected_and_blacklisted() {
        let w = world();
        let alien = Link::new(w.links[0].left, w.links[0].left);
        assert!(!w.space.contains(alien));
        let cfg = AlexConfig {
            epsilon: 0.0,
            ..Default::default()
        };
        let mut e = engine_with(&w, &[w.links[0], alien], cfg);
        e.process_feedback(alien, true);
        let x = e.explain(alien).expect("a candidate is explained");
        assert!(x.candidate && x.approved && !x.blacklisted);
        assert_eq!((x.origin, x.negatives), ("initial", 0));
        assert_eq!(e.bookkeeping().approved, vec![alien]);

        e.process_feedback(alien, false);
        assert!(!e.candidates().contains(alien));
        assert!(e.blacklist().contains(&alien));
        assert_eq!(e.blacklist().iter().collect::<Vec<_>>(), vec![&alien]);
        assert_eq!(e.diagnostics().blacklisted, 1);
        let x = e.explain(alien).expect("a blacklisted link is explained");
        assert!(!x.candidate && !x.approved && x.blacklisted);
        assert_eq!(x.negatives, 1);
        assert!(e.bookkeeping().approved.is_empty());

        // Exploring from an approved link of the space never re-adds it,
        // and approving it again leaves it blacklisted.
        e.process_feedback(w.links[0], true);
        e.process_feedback(alien, true);
        let x = e.explain(alien).expect("a blacklisted link is explained");
        assert!(!x.candidate && x.approved && x.blacklisted);
        assert_eq!(x.negatives, 0);
        assert!(e.candidates().len() > 1, "the space link explored");
    }
}
