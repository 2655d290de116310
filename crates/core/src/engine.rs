//! The per-partition ALEX engine: feedback processing, exploration,
//! first-visit Monte-Carlo policy evaluation, ε-greedy policy improvement,
//! and the blacklist/rollback optimizations (paper §4, §6.3, Algorithm 1).
//!
//! One engine owns one partition's [`ExplorationSpace`] and candidate
//! links. Partitions never communicate (§6.2), so the driver can run many
//! engines in parallel.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use alex_rdf::hash::{FastMap, FastSet};
use alex_rdf::{Interner, IriId, Link};
use alex_trace::{self as trace, Payload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::candidates::CandidateSet;
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
}

impl PartitionEpisodeStats {
    /// Element-wise sum, used by the driver to aggregate partitions.
    pub fn merge(&mut self, other: &PartitionEpisodeStats) {
        self.feedback_items += other.feedback_items;
        self.negative_feedback += other.negative_feedback;
        self.links_added += other.links_added;
        self.links_removed += other.links_removed;
        self.rollbacks += other.rollbacks;
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

/// The reinforcement-learning engine for one partition.
pub struct PartitionEngine {
    space: ExplorationSpace,
    candidates: CandidateSet,
    q: QTable,
    policy: Policy,
    blacklist: FastSet<Link>,
    /// Discovered link → every state-action pair that generated it
    /// ("Returns(s, a) that led to s'", Algorithm 1 line 14).
    provenance: FastMap<Link, Vec<StateAction>>,
    /// State-action pair → links it added (for rollback, §6.3).
    generated: FastMap<StateAction, Vec<Link>>,
    /// Negative feedback observed on links generated by each pair.
    negative_by_action: FastMap<StateAction, usize>,
    /// State-action pairs that have been rolled back: known-bad, never
    /// re-taken. Realizes the paper's "ALEX can learn that this feature is
    /// not distinctive and avoid exploring around it in the future" (§4.2)
    /// without waiting for ε-greedy sampling to relearn it after every
    /// rollback.
    banned_actions: HashSet<StateAction>,
    /// Links that have received positive feedback; rollback spares them.
    approved: FastSet<Link>,
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
    stats: PartitionEpisodeStats,
    rng: StdRng,
    cfg: AlexConfig,
    /// Partition index reported in trace events (0 until identified).
    trace_partition: u64,
    /// Interner for rendering IRIs in trace events; engines constructed
    /// directly in tests have none and fall back to `#<id>` rendering.
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
        Self {
            space,
            candidates: CandidateSet::from_links(initial_links),
            q: QTable::new(),
            policy: Policy::new(),
            blacklist: FastSet::default(),
            provenance: FastMap::default(),
            generated: FastMap::default(),
            negative_by_action: FastMap::default(),
            banned_actions: HashSet::new(),
            approved: FastSet::default(),
            negatives_on_link: FastMap::default(),
            visited_this_episode: FastSet::default(),
            states_this_episode: FastSet::default(),
            stats: PartitionEpisodeStats::default(),
            rng: StdRng::seed_from_u64(seed),
            cfg,
            trace_partition: 0,
            interner: None,
        }
    }

    /// Identifies this engine for tracing: its partition index and the
    /// interner used to render IRIs in events. Purely observational — has
    /// no effect on exploration.
    pub fn set_trace_identity(&mut self, partition: usize, interner: Arc<Interner>) {
        self.trace_partition = partition as u64;
        self.interner = Some(interner);
    }

    fn iri(&self, id: IriId) -> String {
        match self.interner.as_ref().and_then(|i| i.try_resolve(id.0)) {
            Some(s) => s.to_string(),
            None => format!("#{}", id.0 .0),
        }
    }

    /// Renders a link as `left<TAB>right` for trace events (the tab never
    /// occurs inside an IRI, so the pair splits back unambiguously).
    fn link_str(&self, l: Link) -> String {
        format!("{}\t{}", self.iri(l.left), self.iri(l.right))
    }

    fn feature_str(&self, k: FeatureKey) -> String {
        format!("{}\t{}", self.iri(k.left), self.iri(k.right))
    }

    /// Preloads blacklist entries (restoring a persisted session): these
    /// links are removed from the candidate set if present and will never
    /// be re-discovered.
    pub fn preload_blacklist(&mut self, links: impl IntoIterator<Item = Link>) {
        for l in links {
            self.candidates.remove(l);
            self.blacklist.insert(l);
        }
    }

    /// The partition's exploration space.
    pub fn space(&self) -> &ExplorationSpace {
        &self.space
    }

    /// Current candidate links of this partition.
    pub fn candidates(&self) -> &CandidateSet {
        &self.candidates
    }

    /// Current blacklist.
    pub fn blacklist(&self) -> &FastSet<Link> {
        &self.blacklist
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
    pub fn banned_actions(&self) -> &HashSet<StateAction> {
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
        EngineBookkeeping {
            provenance: self
                .provenance
                .iter()
                .map(|(l, sas)| (*l, sas.clone()))
                .collect(),
            generated: self
                .generated
                .iter()
                .map(|(sa, ls)| (*sa, ls.clone()))
                .collect(),
            negative_by_action: self
                .negative_by_action
                .iter()
                .map(|(sa, n)| (*sa, *n))
                .collect(),
            approved: self.approved.iter().copied().collect(),
            negatives_on_link: self
                .negatives_on_link
                .iter()
                .map(|(l, n)| (*l, *n))
                .collect(),
        }
    }

    /// Restores bookkeeping captured by [`PartitionEngine::bookkeeping`]
    /// from an engine over the same datasets, replacing the current one.
    pub(crate) fn restore_bookkeeping(&mut self, b: EngineBookkeeping) {
        self.provenance = b.provenance.into_iter().collect();
        self.generated = b.generated.into_iter().collect();
        self.negative_by_action = b.negative_by_action.into_iter().collect();
        self.approved = b.approved.into_iter().collect();
        self.negatives_on_link = b.negatives_on_link.into_iter().collect();
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
            sorted(self.blacklist.iter().map(link).collect()),
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
                self.provenance
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
                self.generated
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
                self.negative_by_action
                    .iter()
                    .map(|(k, n)| format!("{} {n}", sa(k)))
                    .collect(),
            ),
        );
        section("approved", sorted(self.approved.iter().map(link).collect()));
        section(
            "negatives_on_link",
            sorted(
                self.negatives_on_link
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
            let Some(link) = self.candidates.sample(&mut self.rng) else {
                break;
            };
            if let Some(positive) = oracle.judge(link, &mut self.rng) {
                self.process_feedback(link, positive);
            }
        }
        self.end_episode()
    }

    /// Processes one feedback item on `link` (Algorithm 1, lines 11–22).
    pub fn process_feedback(&mut self, link: Link, positive: bool) {
        trace::emit(|| Payload::Feedback {
            link: self.link_str(link),
            positive,
        });
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
            if let Some(parents) = self.provenance.get(&link) {
                for &(s, a) in parents.clone().iter() {
                    self.q.append(s, a, reward);
                }
            }
        }

        if positive {
            self.approved.insert(link);
            self.negatives_on_link.remove(&link);
            self.act_on(link);
        } else {
            self.reject(link);
        }
    }

    /// Takes an action at an approved link: choose a feature ε-greedily and
    /// add every link within `±step_size` of its score (§4.2).
    fn act_on(&mut self, state: Link) {
        let Some(features) = self.space.feature_set(state) else {
            // The link came from outside the filtered space (e.g. a PARIS
            // link whose pair has no θ-surviving feature): no action space.
            return;
        };
        self.states_this_episode.insert(state);
        let Some(choice) =
            self.policy
                .choose_explained(state, &features, self.cfg.epsilon, &mut self.rng)
        else {
            return;
        };
        let action = choice.chosen;
        trace::emit(|| {
            let q = self.q.q(state, action);
            Payload::Decision {
                state: self.link_str(state),
                epsilon: self.cfg.epsilon,
                explored: choice.explored,
                chosen: self.feature_str(action),
                greedy: choice
                    .greedy
                    .map(|g| self.feature_str(g))
                    .unwrap_or_default(),
                q: q.unwrap_or(0.0),
                q_defined: q.is_some(),
                observations: u64::from(self.q.observations(state, action)),
                actions: choice.actions as u64,
                space: self.space.len() as u64,
            }
        });
        if self.banned_actions.contains(&(state, action)) {
            return;
        }
        let found = self
            .space
            .explore_from(&features, action, self.cfg.step_size);
        for f in found {
            if f == state || self.blacklist.contains(&f) {
                continue;
            }
            if self.candidates.insert(f) {
                self.stats.links_added += 1;
                trace::emit(|| Payload::LinkAdded {
                    link: self.link_str(f),
                    state: self.link_str(state),
                    feature: self.feature_str(action),
                    score: self.space.score_of(f, action).unwrap_or(0.0),
                });
                self.provenance.entry(f).or_default().push((state, action));
                self.generated.entry((state, action)).or_default().push(f);
            }
        }
    }

    /// Handles negative feedback: remove and (optionally) blacklist the
    /// link, then charge the state-action pairs that generated it and roll
    /// them back past the threshold (§6.3).
    fn reject(&mut self, link: Link) {
        let removed = self.candidates.remove(link);
        if removed {
            self.stats.links_removed += 1;
        }
        let mut blacklisted = false;
        if self.cfg.blacklist {
            let count = self.negatives_on_link.entry(link).or_insert(0);
            *count += 1;
            if *count >= self.cfg.blacklist_threshold {
                self.blacklist.insert(link);
                blacklisted = true;
            }
        }
        if removed {
            trace::emit(|| Payload::LinkRemoved {
                link: self.link_str(link),
                reason: if blacklisted {
                    "blacklisted"
                } else {
                    "rejected"
                }
                .into(),
            });
        }
        self.approved.remove(&link);

        let parents = self.provenance.get(&link).cloned().unwrap_or_default();
        for sa in parents {
            let count = self.negative_by_action.entry(sa).or_insert(0);
            *count += 1;
            if self.cfg.rollback && *count >= self.cfg.rollback_threshold {
                self.rollback(sa);
            }
        }
    }

    /// Rolls back a state-action pair: removes every link it generated,
    /// except links later approved by the user. Rolled-back links are *not*
    /// blacklisted — "they may include some correct links … discovered
    /// later by another state-action pair with a better average return".
    fn rollback(&mut self, sa: StateAction) {
        let Some(links) = self.generated.remove(&sa) else {
            return;
        };
        self.stats.rollbacks += 1;
        self.banned_actions.insert(sa);
        let mut removed_here = 0u64;
        for l in links {
            if self.approved.contains(&l) {
                continue;
            }
            if self.candidates.remove(l) {
                self.stats.links_removed += 1;
                removed_here += 1;
                trace::emit(|| Payload::LinkRemoved {
                    link: self.link_str(l),
                    reason: "rollback".into(),
                });
            }
            if let Some(parents) = self.provenance.get_mut(&l) {
                parents.retain(|p| *p != sa);
                if parents.is_empty() {
                    self.provenance.remove(&l);
                }
            }
        }
        trace::emit(|| Payload::Rollback {
            state: self.link_str(sa.0),
            feature: self.feature_str(sa.1),
            removed: removed_here,
        });
        self.negative_by_action.remove(&sa);
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
        let stats = std::mem::take(&mut self.stats);
        trace::emit(|| Payload::EpisodeEnd {
            partition: self.trace_partition,
            feedback: stats.feedback_items as u64,
            added: stats.links_added as u64,
            removed: stats.links_removed as u64,
        });
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;
    use crate::space::DEFAULT_MAX_BLOCK;
    use alex_rdf::{Interner, IriId, Literal, Store};
    use alex_sim::SimConfig;

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
        let (s, a) = e.provenance[&child][0];
        // Repeated feedback on the same child within one episode counts once.
        e.process_feedback(child, true);
        e.process_feedback(child, true);
        e.process_feedback(child, true);
        assert_eq!(e.q_table().observations(s, a), 1);
        // New episode: the same link counts as a fresh first visit.
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
        };
        a.merge(&a.clone());
        assert_eq!(a.feedback_items, 2);
        assert_eq!(a.rollbacks, 10);
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
}
