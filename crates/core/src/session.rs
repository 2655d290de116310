//! Session persistence: snapshot and restore a curation session.
//!
//! A real deployment of ALEX curates links over days or weeks of user
//! feedback, so the curated state — candidate links, blacklist, learned
//! policy, and configuration — must survive restarts. Snapshots serialize
//! links and features as IRI *strings* (interned ids are process-local),
//! so a snapshot taken against one store instance restores correctly
//! against a freshly loaded copy of the same datasets.
//!
//! Since format version 2 a snapshot carries the full learning state per
//! partition: the Monte-Carlo `Returns(s, a)` sums and visit counts, the
//! greedy policy, rolled-back (banned) state-actions, and the raw RNG
//! stream. Earlier versions persisted only the candidate geometry, which
//! silently reset learning on every restart — a restored session would
//! make *different* exploration choices than the one it resumed. Now a
//! restored session makes exactly the same next choice as the original
//! (the ε schedule itself lives in [`AlexConfig`], which was always
//! persisted). Version-1 snapshots still load; their learning state is
//! simply empty.
//!
//! Since version 4 a snapshot also carries each engine's feedback
//! bookkeeping ([`EngineStateSnapshot`]): the candidate insertion order
//! that sampling draws from, which state-action pairs generated each link
//! and the reverse, and the rollback and blacklist counters. Without them
//! a restored session could not roll back links added before the
//! checkpoint, and sampled candidates in a different order, so it drifted
//! away from the session it resumed within a few episodes. Version 1–3
//! files still load, restarting that bookkeeping empty.
//!
//! A session's federated queries run over its own two in-memory datasets,
//! which never fail, so a session keeps no query accounting: each query's
//! per-source report goes back to its caller. Files written by earlier
//! builds may still hold that accounting's two counters; they load, and
//! the keys are ignored.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use alex_query::{FederatedEngine, Federation};
use alex_rdf::hash::FastMap;
use alex_rdf::{Link, Store};
use alex_store::{WalOptions, WalRecord, WalStats};
use alex_trace as trace;
use serde::{Deserialize, Serialize};

use crate::config::AlexConfig;
use crate::driver::AlexDriver;
use crate::durability::DurableSession;
use crate::engine::{EngineBookkeeping, PartitionEngine, PartitionEpisodeStats};
use crate::feature::FeatureKey;
use crate::policy::StateAction;
use crate::space::ExplorationSpace;

/// A link or a feature key as its `(left IRI, right IRI)` strings.
pub type IriPair = (String, String);

/// One persisted `Returns(s, a)` entry: the state link, the feature
/// explored around, and the Monte-Carlo return statistics.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct QEntrySnapshot {
    /// State link as (left IRI, right IRI).
    pub state: (String, String),
    /// Feature key as (left predicate IRI, right predicate IRI).
    pub action: (String, String),
    /// Sum of recorded returns.
    pub sum: f64,
    /// Number of recorded returns (first visits).
    pub count: u32,
}

/// The learned state of one partition engine, in snapshot form.
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct PartitionPolicySnapshot {
    /// Monte-Carlo returns, sorted for stable output.
    pub returns: Vec<QEntrySnapshot>,
    /// Greedy policy: state → action, both as IRI pairs, sorted.
    pub greedy: Vec<((String, String), (String, String))>,
    /// Rolled-back state-action pairs (never re-taken), sorted.
    pub banned: Vec<((String, String), (String, String))>,
    /// Raw xoshiro256++ state of the partition's RNG.
    pub rng: [u64; 4],
    /// The engine's feedback bookkeeping (since version 4; `None` in
    /// older files, which restore it empty).
    #[serde(default)]
    pub engine: Option<EngineStateSnapshot>,
}

/// One partition engine's feedback bookkeeping in compact form: links and
/// state-action pairs are stored once and referenced by index.
///
/// A *link reference* `i` names the partition's `i`-th candidate in
/// insertion order when `i < order.len()`, and `links[i - order.len()]`
/// otherwise.
#[derive(Clone, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct EngineStateSnapshot {
    /// The partition's candidates in insertion order, as indices into
    /// [`SessionSnapshot::candidates`].
    pub order: Vec<u32>,
    /// Referenced links that are not candidates, as IRI pairs, sorted.
    pub links: Vec<(String, String)>,
    /// Feature keys of the state-action table, as IRI pairs, sorted.
    pub features: Vec<(String, String)>,
    /// State-action table: `(state link reference, feature index)`,
    /// sorted.
    pub actions: Vec<(u32, u32)>,
    /// Link reference → the actions that generated it, in recorded order.
    pub provenance: Vec<(u32, Vec<u32>)>,
    /// Action → the link references it added, in recorded order.
    pub generated: Vec<(u32, Vec<u32>)>,
    /// Action → negative feedback on the links it generated.
    pub negative_by_action: Vec<(u32, u64)>,
    /// Link references with positive feedback, sorted.
    pub approved: Vec<u32>,
    /// Link reference → cumulative negative feedback.
    pub negatives_on_link: Vec<(u32, u64)>,
}

/// A serializable snapshot of a curation session.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct SessionSnapshot {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// Candidate links as (left IRI, right IRI) pairs, sorted.
    pub candidates: Vec<(String, String)>,
    /// Blacklisted links as (left IRI, right IRI) pairs, sorted.
    pub blacklist: Vec<(String, String)>,
    /// The configuration the session ran with.
    pub config: AlexConfig,
    /// Learned policy state per partition, in partition order. Empty in
    /// version-1 snapshots (learning restarts from scratch).
    #[serde(default)]
    pub policy: Vec<PartitionPolicySnapshot>,
    /// Feedback episodes the session has completed (since version 3).
    #[serde(default)]
    pub episodes: u64,
    /// Total feedback items processed across episodes (since version 3).
    #[serde(default)]
    pub feedback_items: u64,
    /// ε-greedy choices the ε coin made at random, across episodes.
    #[serde(default)]
    pub explored: u64,
    /// ε-greedy choices that exploited, across episodes.
    #[serde(default)]
    pub exploited: u64,
    /// The highest WAL sequence number this snapshot covers (since
    /// version 3). Recovery replays only records *after* this point; `0`
    /// means the snapshot predates the WAL or the session has no log.
    #[serde(default)]
    pub applied_wal_seq: u64,
}

/// Current snapshot format version. Version 4 added the engines'
/// feedback bookkeeping, version 3 the episode counters and the WAL
/// high-water mark; older files still load, with those fields empty or
/// zero.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Errors restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The snapshot's version is newer than this library understands.
    UnsupportedVersion(u32),
    /// JSON (de)serialization failed.
    Serde(String),
    /// The snapshot does not resolve against the stores: a reference out
    /// of range, or a configuration the driver rejects.
    Restore(String),
    /// A partition's engine bookkeeping names a link that is not a pair
    /// of the partition's exploration space where only such pairs can be:
    /// its `provenance` or `generated` links.
    LinkOutsideSpace {
        /// The partition.
        partition: usize,
        /// The bookkeeping field: `"provenance"` or `"generated"`.
        field: &'static str,
        /// The link's left and right IRIs.
        link: (String, String),
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "snapshot version {v} is not supported (max {SNAPSHOT_VERSION})"
                )
            }
            SessionError::Serde(m) => write!(f, "snapshot serialization error: {m}"),
            SessionError::Restore(m) => write!(f, "{m}"),
            SessionError::LinkOutsideSpace {
                partition,
                field,
                link: (l, r),
            } => write!(
                f,
                "engine snapshot of partition {partition}: {field} names <{l}> <{r}>, \
                 which is not a pair of the partition's exploration space"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

fn link_strings(l: Link, left: &Store, right: &Store) -> (String, String) {
    (
        left.iri_str(l.left).to_string(),
        right.iri_str(l.right).to_string(),
    )
}

fn feature_strings(a: FeatureKey, left: &Store, right: &Store) -> (String, String) {
    (
        left.iri_str(a.left).to_string(),
        right.iri_str(a.right).to_string(),
    )
}

fn capture_policy(
    engine: &PartitionEngine,
    candidate_index: &FastMap<Link, u32>,
    left: &Store,
    right: &Store,
) -> PartitionPolicySnapshot {
    let mut returns: Vec<QEntrySnapshot> = engine
        .q_table()
        .entries()
        .map(|((state, action), sum, count)| QEntrySnapshot {
            state: link_strings(state, left, right),
            action: feature_strings(action, left, right),
            sum,
            count,
        })
        .collect();
    returns.sort_by(|a, b| (&a.state, &a.action).cmp(&(&b.state, &b.action)));
    let mut greedy: Vec<_> = engine
        .policy()
        .entries()
        .map(|(s, a)| {
            (
                link_strings(s, left, right),
                feature_strings(a, left, right),
            )
        })
        .collect();
    greedy.sort();
    let mut banned: Vec<_> = engine
        .banned_actions()
        .iter()
        .map(|&(s, a)| {
            (
                link_strings(s, left, right),
                feature_strings(a, left, right),
            )
        })
        .collect();
    banned.sort();
    PartitionPolicySnapshot {
        returns,
        greedy,
        banned,
        rng: engine.rng_state(),
        engine: Some(capture_engine(engine, candidate_index, left, right)),
    }
}

/// Numbers the values `refs` does not know yet by their rendered
/// strings, after the known ones, and returns the strings in number
/// order.
fn number_rest<T: Copy + Eq + std::hash::Hash>(
    refs: &mut FastMap<T, u32>,
    items: impl IntoIterator<Item = T>,
    render: impl Fn(T) -> (String, String),
) -> Vec<(String, String)> {
    let mut rest: Vec<((String, String), T)> = items
        .into_iter()
        .filter(|x| !refs.contains_key(x))
        .collect::<std::collections::HashSet<T>>()
        .into_iter()
        .map(|x| (render(x), x))
        .collect();
    rest.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let base = refs.len() as u32;
    rest.into_iter()
        .enumerate()
        .map(|(i, (strings, x))| {
            refs.insert(x, base + i as u32);
            strings
        })
        .collect()
}

fn capture_engine(
    engine: &PartitionEngine,
    candidate_index: &FastMap<Link, u32>,
    left: &Store,
    right: &Store,
) -> EngineStateSnapshot {
    let b = engine.bookkeeping();
    let order: Vec<u32> = engine
        .candidates()
        .iter()
        .map(|l| candidate_index[&l])
        .collect();
    let sas: Vec<StateAction> = b
        .provenance
        .iter()
        .flat_map(|(_, sas)| sas.iter().copied())
        .chain(b.generated.iter().map(|(sa, _)| *sa))
        .chain(b.negative_by_action.iter().map(|(sa, _)| *sa))
        .collect();
    let mut link_ref: FastMap<Link, u32> = engine
        .candidates()
        .iter()
        .enumerate()
        .map(|(i, l)| (l, i as u32))
        .collect();
    let links = number_rest(
        &mut link_ref,
        b.provenance
            .iter()
            .map(|(l, _)| *l)
            .chain(b.generated.iter().flat_map(|(_, ls)| ls.iter().copied()))
            .chain(b.approved.iter().copied())
            .chain(b.negatives_on_link.iter().map(|(l, _)| *l))
            .chain(sas.iter().map(|(s, _)| *s)),
        |l| link_strings(l, left, right),
    );
    let mut feature_ref = FastMap::default();
    let features = number_rest(&mut feature_ref, sas.iter().map(|(_, a)| *a), |a| {
        feature_strings(a, left, right)
    });
    let mut actions: Vec<(u32, u32)> = sas
        .iter()
        .map(|(s, a)| (link_ref[s], feature_ref[a]))
        .collect();
    actions.sort_unstable();
    actions.dedup();
    let action_ref: FastMap<StateAction, u32> = sas
        .iter()
        .map(|&(s, a)| {
            let key = (link_ref[&s], feature_ref[&a]);
            (
                (s, a),
                actions
                    .binary_search(&key)
                    .expect("every action is numbered") as u32,
            )
        })
        .collect();
    let sorted = |mut v: Vec<(u32, Vec<u32>)>| {
        v.sort_unstable();
        v
    };
    let mut negative_by_action: Vec<(u32, u64)> = b
        .negative_by_action
        .iter()
        .map(|(sa, n)| (action_ref[sa], *n as u64))
        .collect();
    negative_by_action.sort_unstable();
    let mut approved: Vec<u32> = b.approved.iter().map(|l| link_ref[l]).collect();
    approved.sort_unstable();
    let mut negatives_on_link: Vec<(u32, u64)> = b
        .negatives_on_link
        .iter()
        .map(|(l, n)| (link_ref[l], *n as u64))
        .collect();
    negatives_on_link.sort_unstable();
    EngineStateSnapshot {
        order,
        links,
        features,
        actions,
        provenance: sorted(
            b.provenance
                .iter()
                .map(|(l, sas)| (link_ref[l], sas.iter().map(|sa| action_ref[sa]).collect()))
                .collect(),
        ),
        generated: sorted(
            b.generated
                .iter()
                .map(|(sa, ls)| (action_ref[sa], ls.iter().map(|l| link_ref[l]).collect()))
                .collect(),
        ),
        negative_by_action,
        approved,
        negatives_on_link,
    }
}

/// Resolves a partition's [`EngineStateSnapshot`] against the stores:
/// its candidates in insertion order and its bookkeeping. `candidates`
/// are the snapshot's resolved top-level candidates. Out-of-range
/// references are an error, never a panic.
fn resolve_engine(
    snap: &EngineStateSnapshot,
    candidates: &[Link],
    left: &Store,
    right: &Store,
) -> Result<(Vec<Link>, EngineBookkeeping), String> {
    fn get<T: Copy>(items: &[T], i: u32, what: &str) -> Result<T, String> {
        items
            .get(i as usize)
            .copied()
            .ok_or_else(|| format!("engine snapshot: {what} reference {i} out of range"))
    }
    let order = snap
        .order
        .iter()
        .map(|&i| get(candidates, i, "candidate"))
        .collect::<Result<Vec<Link>, _>>()?;
    let links: Vec<Link> = order
        .iter()
        .copied()
        .chain(
            snap.links
                .iter()
                .map(|(l, r)| Link::new(left.intern_iri(l), right.intern_iri(r))),
        )
        .collect();
    let features: Vec<FeatureKey> = snap
        .features
        .iter()
        .map(|(l, r)| FeatureKey::new(left.intern_iri(l), right.intern_iri(r)))
        .collect();
    let actions = snap
        .actions
        .iter()
        .map(|&(s, a)| Ok((get(&links, s, "link")?, get(&features, a, "feature")?)))
        .collect::<Result<Vec<StateAction>, String>>()?;
    let link = |i: u32| get(&links, i, "link");
    let action = |i: u32| get(&actions, i, "action");
    let bookkeeping = EngineBookkeeping {
        provenance: snap
            .provenance
            .iter()
            .map(|(l, sas)| {
                Ok((
                    link(*l)?,
                    sas.iter().map(|&a| action(a)).collect::<Result<_, _>>()?,
                ))
            })
            .collect::<Result<_, String>>()?,
        generated: snap
            .generated
            .iter()
            .map(|(a, ls)| {
                Ok((
                    action(*a)?,
                    ls.iter().map(|&l| link(l)).collect::<Result<_, _>>()?,
                ))
            })
            .collect::<Result<_, String>>()?,
        negative_by_action: snap
            .negative_by_action
            .iter()
            .map(|&(a, n)| Ok((action(a)?, n as usize)))
            .collect::<Result<_, String>>()?,
        approved: snap
            .approved
            .iter()
            .map(|&l| link(l))
            .collect::<Result<_, _>>()?,
        negatives_on_link: snap
            .negatives_on_link
            .iter()
            .map(|&(l, n)| Ok((link(l)?, n as usize)))
            .collect::<Result<_, String>>()?,
    };
    Ok((order, bookkeeping))
}

/// The candidate links of `driver`, sorted by their IRI pairs.
fn sorted_candidates(
    driver: &AlexDriver,
    left: &Store,
    right: &Store,
) -> Vec<((String, String), Link)> {
    let mut candidates: Vec<((String, String), Link)> = driver
        .engines()
        .iter()
        .flat_map(|e| e.candidates().iter())
        .map(|l| (link_strings(l, left, right), l))
        .collect();
    candidates.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    candidates.dedup_by(|a, b| a.0 == b.0);
    candidates
}

/// Every partition's blacklist as IRI pairs, sorted and deduplicated.
fn sorted_blacklist(driver: &AlexDriver, left: &Store, right: &Store) -> Vec<IriPair> {
    let mut blacklist: Vec<IriPair> = driver
        .engines()
        .iter()
        .flat_map(|e| e.blacklist().iter())
        .map(|l| link_strings(*l, left, right))
        .collect();
    blacklist.sort_unstable();
    blacklist.dedup();
    blacklist
}

impl SessionSnapshot {
    /// Captures the current state of a driver. `left`/`right` resolve ids
    /// back to IRIs and must be the stores the driver was built over.
    /// The episode counters start at zero; [`LiveSession::snapshot`]
    /// fills them from its own bookkeeping.
    pub fn capture(driver: &AlexDriver, left: &Store, right: &Store) -> Self {
        let (candidates, links): (Vec<(String, String)>, Vec<Link>) =
            sorted_candidates(driver, left, right).into_iter().unzip();
        let candidate_index: FastMap<Link, u32> = links
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i as u32))
            .collect();
        let policy = driver
            .engines()
            .iter()
            .map(|e| capture_policy(e, &candidate_index, left, right))
            .collect();
        Self {
            version: SNAPSHOT_VERSION,
            candidates,
            blacklist: sorted_blacklist(driver, left, right),
            config: driver.config().clone(),
            policy,
            episodes: 0,
            feedback_items: 0,
            explored: 0,
            exploited: 0,
            applied_wal_seq: 0,
        }
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot always serializes")
    }

    /// Deserializes from JSON.
    pub fn from_json(text: &str) -> Result<Self, SessionError> {
        let snap: SessionSnapshot =
            serde_json::from_str(text).map_err(|e| SessionError::Serde(e.to_string()))?;
        if snap.version > SNAPSHOT_VERSION {
            return Err(SessionError::UnsupportedVersion(snap.version));
        }
        Ok(snap)
    }

    /// Resolves the snapshot's links against (possibly freshly loaded)
    /// stores, interning IRIs as needed.
    pub fn links(&self, left: &Store, right: &Store) -> (Vec<Link>, Vec<Link>) {
        let resolve = |pairs: &[(String, String)]| {
            pairs
                .iter()
                .map(|(l, r)| Link::new(left.intern_iri(l), right.intern_iri(r)))
                .collect::<Vec<_>>()
        };
        (resolve(&self.candidates), resolve(&self.blacklist))
    }

    /// Rebuilds a driver from this snapshot over `left`/`right`: candidate
    /// set, blacklist, learned policy *and* feedback bookkeeping resume
    /// where the session left off, so the restored driver evolves exactly
    /// as the original would have.
    pub fn restore(&self, left: &Store, right: &Store) -> Result<AlexDriver, SessionError> {
        self.restore_with_spaces(left, right, None)
    }

    /// [`SessionSnapshot::restore`] over partition spaces already built
    /// for these stores and this configuration (loaded from a session's
    /// space file); `None` builds them.
    pub(crate) fn restore_with_spaces(
        &self,
        left: &Store,
        right: &Store,
        spaces: Option<Vec<ExplorationSpace>>,
    ) -> Result<AlexDriver, SessionError> {
        let (candidates, blacklist) = self.links(left, right);
        // Partition assignment is deterministic (round-robin over the left
        // store's subject order), so partition k's state restores into
        // engine k. A partition-count mismatch means the config was edited
        // by hand; learning restarts empty rather than mis-routing.
        let aligned = self.policy.len() == self.config.partitions;
        let engines = if aligned && self.policy.iter().all(|p| p.engine.is_some()) {
            self.policy
                .iter()
                .filter_map(|p| p.engine.as_ref())
                .map(|e| resolve_engine(e, &candidates, left, right))
                .collect::<Result<Vec<_>, _>>()
                .map_err(SessionError::Restore)?
        } else {
            Vec::new()
        };
        // Each partition's candidates in insertion order, then any the
        // orders miss (every candidate, sorted, before version 4); the
        // candidate set keeps the first occurrence.
        let initial: Vec<Link> = engines
            .iter()
            .flat_map(|(order, _)| order.iter().copied())
            .chain(candidates.iter().copied())
            .collect();
        let mut driver = AlexDriver::with_spaces(
            left,
            right,
            &initial,
            &blacklist,
            self.config.clone(),
            spaces,
        )
        .map_err(SessionError::Restore)?;
        if aligned {
            let link =
                |p: &(String, String)| Link::new(left.intern_iri(&p.0), right.intern_iri(&p.1));
            let feature = |p: &(String, String)| FeatureKey {
                left: left.intern_iri(&p.0),
                right: right.intern_iri(&p.1),
            };
            for (engine, snap) in driver.engines_mut().iter_mut().zip(&self.policy) {
                engine.restore_learning(
                    snap.returns
                        .iter()
                        .map(|e| ((link(&e.state), feature(&e.action)), e.sum, e.count)),
                    snap.greedy.iter().map(|(s, a)| (link(s), feature(a))),
                    snap.banned.iter().map(|(s, a)| (link(s), feature(a))),
                    snap.rng,
                );
            }
        }
        for (partition, (engine, (_, bookkeeping))) in
            driver.engines_mut().iter_mut().zip(engines).enumerate()
        {
            engine.restore_bookkeeping(bookkeeping).map_err(|e| {
                SessionError::LinkOutsideSpace {
                    partition,
                    field: e.field,
                    link: link_strings(e.link, left, right),
                }
            })?;
        }
        Ok(driver)
    }
}

/// One interactively curated session: the loaded dataset pair, the driver
/// exploring links between them, and running counters for reporting.
///
/// This is the unit a server holds per user session (Figure 1's loop as a
/// long-lived object); wrap it in a [`SessionHandle`] for concurrent use.
///
/// A session changes only through [`LiveSession::feedback_episode`]: it
/// logs its WAL records first (when durable) and applies them through the
/// `apply` recovery replays the log with. The session keeps its own
/// [`Federation`] — the sameAs index over the candidate links — which the
/// first query builds and `apply` then patches with each episode's link
/// changes, so queries ([`LiveSession::federation`]) never rebuild it.
pub struct LiveSession {
    /// The left dataset (the one the driver partitions).
    pub left: Store,
    /// The right dataset.
    pub right: Store,
    /// The curation driver; read it through [`LiveSession::driver`], so
    /// that every change goes through `apply` and reaches `federation`.
    pub(crate) driver: AlexDriver,
    /// The federation queries run on: the candidate links as a sameAs
    /// index, kept equal to the driver's candidate set once built. Built
    /// by the first query, so a session nobody queries — and recovery's
    /// replay — indexes nothing.
    federation: OnceLock<Federation>,
    /// Feedback episodes completed so far.
    pub episodes: u64,
    /// Total feedback items processed across episodes.
    pub feedback_items: u64,
    /// ε-greedy choices the ε coin made at random, across episodes.
    pub explored: u64,
    /// ε-greedy choices that exploited, across episodes.
    pub exploited: u64,
    /// The session's directory (checkpoint and, when it logs, write-ahead
    /// log), when it has one.
    pub(crate) durable: Option<DurableSession>,
    /// Feedback records whose `EpisodeEnd` has not been applied yet;
    /// recovery drops what is left after replay.
    pub(crate) pending: Vec<(Link, bool)>,
}

/// What one feedback episode did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpisodeOutcome {
    /// Exploration's counters for the episode.
    pub stats: PartitionEpisodeStats,
    /// What the episode wrote to the write-ahead log (zero without one).
    pub logged: WalStats,
}

impl LiveSession {
    /// Wraps a freshly built (or restored) driver and its datasets.
    pub fn new(left: Store, right: Store, driver: AlexDriver) -> Self {
        Self {
            left,
            right,
            driver,
            federation: OnceLock::new(),
            episodes: 0,
            feedback_items: 0,
            explored: 0,
            exploited: 0,
            durable: None,
            pending: Vec::new(),
        }
    }

    /// Lays down the session's directory under `root` (see
    /// [`crate::durability`]) with its initial checkpoint. With `wal`,
    /// from then on every mutation is logged before it is applied;
    /// without, the directory changes only at [`LiveSession::checkpoint`].
    /// Call it before acknowledging the session to a client.
    pub fn make_durable(
        &mut self,
        root: &Path,
        id: &str,
        wal: Option<WalOptions>,
        compact_after: u64,
    ) -> Result<(), String> {
        let mut durable = DurableSession::create(root, id, self, wal, compact_after)?;
        (durable.checkpoint(&mut self.snapshot()))
            .map_err(|e| format!("writing the initial checkpoint: {e}"))?;
        self.durable = Some(durable);
        Ok(())
    }

    /// Whether the session logs its mutations to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.durable.as_ref().is_some_and(DurableSession::logs)
    }

    /// The curation driver, read-only: the session changes only through
    /// its episodes.
    pub fn driver(&self) -> &AlexDriver {
        &self.driver
    }

    /// A federated engine over the session's two datasets (sources
    /// `left` and `right`) and its live federation: the current candidate
    /// links. Only the session's first call indexes the candidate links.
    pub fn federation(&self) -> FederatedEngine<'_> {
        let federation = self.federation.get_or_init(|| {
            let mut federation = Federation::default();
            federation.add_links(self.driver.candidate_links());
            federation
        });
        FederatedEngine::over(
            federation,
            vec![("left".into(), &self.left), ("right".into(), &self.right)],
        )
    }

    /// Runs one feedback episode over `batch`. A durable session first
    /// logs a `Feedback` record per item and the `EpisodeEnd` in one group
    /// commit; if that fails, the session is unchanged. The records are
    /// then applied under one `rl.episode` span (the batch path's stage
    /// name), one `PolicyDelta` per partition is logged for
    /// recovery to cross-check (an error there comes after the episode is
    /// logged, so recovery still reproduces it), and the log is compacted
    /// if due.
    pub fn feedback_episode(&mut self, batch: &[(Link, bool)]) -> io::Result<EpisodeOutcome> {
        let mut records: Vec<WalRecord> = (batch.iter())
            .map(|&(link, positive)| WalRecord::Feedback {
                left: self.left.iri_str(link.left).to_string(),
                right: self.right.iri_str(link.right).to_string(),
                positive,
            })
            .collect();
        records.push(WalRecord::EpisodeEnd {
            episode: self.episodes + 1,
            feedback_items: self.feedback_items + batch.len() as u64,
        });
        let mut outcome = EpisodeOutcome::default();
        self.log(&records, &mut outcome.logged)?;
        {
            // Recovery's replay of the same records opens no span.
            let _episode = trace::span("rl.episode");
            for record in &records {
                if let Some(stats) = self.apply(record).map_err(io::Error::other)? {
                    outcome.stats = stats;
                }
            }
        }
        let deltas: Vec<WalRecord> = (self.driver.engines().iter().enumerate())
            .map(|(partition, engine)| WalRecord::PolicyDelta {
                partition: partition as u64,
                rng: engine.rng_state(),
                q_entries: engine.q_table().len() as u64,
            })
            .collect();
        self.log(&deltas, &mut outcome.logged)?;
        if let Some(durable) = self.durable.as_ref().filter(|d| d.should_compact()) {
            let id = durable.id().to_string();
            if let Some(Err(e)) = self.checkpoint() {
                // Not fatal: the log still holds everything.
                trace::diag("error", &format!("session {id}: compaction failed: {e}"));
            }
        }
        Ok(outcome)
    }

    /// Appends `records` to the session's log, if it has one, adding to
    /// `logged`.
    fn log(&mut self, records: &[WalRecord], logged: &mut WalStats) -> io::Result<()> {
        match &mut self.durable {
            Some(durable) => durable.log(records, logged),
            None => Ok(()),
        }
    }

    /// Applies one WAL record: the live write path and recovery's replay
    /// both come through here. Feedback waits for its `EpisodeEnd`, which
    /// runs the episode, moves each link it touched into or out of the
    /// federation (once built) by the link's candidacy after the episode,
    /// and returns the episode's counters. An `Err` reports a cross-check
    /// the record failed — an `EpisodeEnd` whose counters disagree (the
    /// session takes the logged ones) or a `PolicyDelta` whose RNG state
    /// differs — and the record is still applied.
    pub(crate) fn apply(
        &mut self,
        record: &WalRecord,
    ) -> Result<Option<PartitionEpisodeStats>, String> {
        match record {
            WalRecord::Feedback {
                left,
                right,
                positive,
            } => {
                let link = Link::new(self.left.intern_iri(left), self.right.intern_iri(right));
                self.pending.push((link, *positive));
            }
            WalRecord::EpisodeEnd {
                episode,
                feedback_items,
            } => {
                // The episode is the last `feedback_items - self.feedback_items`
                // feedback records. Any before them were logged by an append
                // that failed before its episode closed, and never applied.
                let items = usize::try_from(feedback_items.saturating_sub(self.feedback_items))
                    .unwrap_or(usize::MAX);
                let pending = std::mem::take(&mut self.pending);
                let batch = &pending[pending.len().saturating_sub(items)..];
                for &(link, positive) in batch {
                    self.driver.process_feedback(link, positive);
                }
                let stats = match self.federation.get_mut() {
                    Some(federation) => {
                        let (stats, touched) = self.driver.end_episode_touched();
                        let (present, absent): (Vec<Link>, Vec<Link>) = touched
                            .into_iter()
                            .partition(|&l| self.driver.is_candidate(l));
                        federation.add_links(present);
                        federation.remove_links(absent);
                        stats
                    }
                    None => self.driver.end_episode(),
                };
                self.episodes += 1;
                self.feedback_items += batch.len() as u64;
                self.explored += stats.explored as u64;
                self.exploited += stats.exploited as u64;
                let replayed = (self.episodes, self.feedback_items);
                (self.episodes, self.feedback_items) = (*episode, *feedback_items);
                if replayed != (*episode, *feedback_items) {
                    return Err(format!(
                        "episode counters diverged on replay: the log says (episode, items) = \
                         {:?}, replay reached {replayed:?}",
                        (episode, feedback_items)
                    ));
                }
                return Ok(Some(stats));
            }
            // Records in logs written by earlier builds: exploration
            // re-derives link additions and removals from the feedback,
            // and a session keeps no degraded-query tally.
            WalRecord::LinkAdded { .. }
            | WalRecord::LinkRemoved { .. }
            | WalRecord::Degraded { .. } => {}
            WalRecord::PolicyDelta { partition, rng, .. } => {
                let engine = usize::try_from(*partition).map(|p| self.driver.engines().get(p));
                if engine.ok().flatten().map(|e| e.rng_state()) != Some(*rng) {
                    return Err(format!(
                        "policy cross-check failed for partition {partition} — replayed RNG \
                         stream diverged from the logged one"
                    ));
                }
            }
        }
        Ok(None)
    }

    /// Writes a fresh checkpoint into the session's directory (folding its
    /// log, if it has one), returning the checkpoint's path; `None` when
    /// the session has no directory.
    pub fn checkpoint(&mut self) -> Option<io::Result<PathBuf>> {
        let mut snap = self.durable.as_ref().map(|_| self.snapshot())?;
        Some(self.durable.as_mut()?.checkpoint(&mut snap))
    }

    /// Captures a persistable snapshot of the current curation state,
    /// including the episode counters.
    pub fn snapshot(&self) -> SessionSnapshot {
        let mut snap = SessionSnapshot::capture(&self.driver, &self.left, &self.right);
        snap.episodes = self.episodes;
        snap.feedback_items = self.feedback_items;
        snap.explored = self.explored;
        snap.exploited = self.exploited;
        snap
    }

    /// The candidate links and the blacklist as sorted IRI pairs (the
    /// blacklist deduplicated), exactly as a snapshot would hold them,
    /// without capturing the learned state.
    pub fn link_pairs(&self) -> (Vec<IriPair>, Vec<IriPair>) {
        let candidates = sorted_candidates(&self.driver, &self.left, &self.right)
            .into_iter()
            .map(|(pair, _)| pair)
            .collect();
        let blacklist = sorted_blacklist(&self.driver, &self.left, &self.right);
        (candidates, blacklist)
    }

    /// Restores the bookkeeping counters from a snapshot (the driver
    /// itself is restored via [`SessionSnapshot::restore`]).
    pub fn restore_counters(&mut self, snap: &SessionSnapshot) {
        self.episodes = snap.episodes;
        self.feedback_items = snap.feedback_items;
        self.explored = snap.explored;
        self.exploited = snap.exploited;
    }
}

/// A cloneable, thread-safe handle to a [`LiveSession`].
///
/// Queries only need shared access (the federated engine borrows the
/// stores and the current candidate set), so many can run concurrently;
/// feedback mutates the driver and takes the write lock. Both accessors
/// recover a poisoned lock: a panicking handler thread must not wedge
/// every later request on the same session.
#[derive(Clone)]
pub struct SessionHandle(Arc<RwLock<LiveSession>>);

impl SessionHandle {
    /// Wraps a session for shared use.
    pub fn new(session: LiveSession) -> Self {
        Self(Arc::new(RwLock::new(session)))
    }

    /// Shared (read) access — concurrent queries.
    pub fn read(&self) -> RwLockReadGuard<'_, LiveSession> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive (write) access — feedback and curation steps.
    pub fn write(&self) -> RwLockWriteGuard<'_, LiveSession> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;
    use alex_rdf::{Interner, Literal};
    use std::collections::HashSet;

    fn world() -> (Store, Store, HashSet<Link>) {
        let interner = Interner::new_shared();
        let mut left = Store::new(interner.clone());
        let mut right = Store::new(interner.clone());
        let name_l = left.intern_iri("l/name");
        let name_r = right.intern_iri("r/label");
        let mut truth = HashSet::new();
        for i in 0..10 {
            let l = left.intern_iri(&format!("http://l/e{i}"));
            let r = right.intern_iri(&format!("http://r/e{i}"));
            let nm = format!("subject alpha {i}");
            left.insert_literal(l, name_l, Literal::str(&interner, &nm));
            right.insert_literal(r, name_r, Literal::str(&interner, &nm));
            truth.insert(Link::new(l, r));
        }
        (left, right, truth)
    }

    fn small_cfg() -> AlexConfig {
        AlexConfig {
            episode_size: 20,
            partitions: 2,
            max_episodes: 5,
            ..Default::default()
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(3).copied().collect();
        let mut driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        let oracle = ExactOracle::new(truth.clone());
        driver.run(&oracle, &truth);

        let snap = SessionSnapshot::capture(&driver, &left, &right);
        let json = snap.to_json();
        let back = SessionSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.version, SNAPSHOT_VERSION);
        assert_eq!(back.policy.len(), 2, "one policy snapshot per partition");
        // After a run with feedback the learning state is non-trivial and
        // it all survived the round trip.
        assert!(back.policy.iter().any(|p| !p.returns.is_empty()));
    }

    #[test]
    fn restore_resumes_with_same_candidates() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(2).copied().collect();
        let mut driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        let oracle = ExactOracle::new(truth.clone());
        driver.run(&oracle, &truth);
        let before = driver.candidate_links();

        let snap = SessionSnapshot::capture(&driver, &left, &right);
        let restored = snap.restore(&left, &right).unwrap();
        assert_eq!(restored.candidate_links(), before);
    }

    #[test]
    fn restore_resumes_full_learning_state() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(3).copied().collect();
        let mut driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        let oracle = ExactOracle::new(truth.clone());
        driver.run(&oracle, &truth);

        let snap = SessionSnapshot::capture(&driver, &left, &right);
        let restored = snap.restore(&left, &right).unwrap();
        for (orig, back) in driver.engines().iter().zip(restored.engines()) {
            assert_eq!(orig.q_table().len(), back.q_table().len());
            assert_eq!(orig.policy().len(), back.policy().len());
            assert_eq!(orig.banned_actions(), back.banned_actions());
            assert_eq!(orig.rng_state(), back.rng_state(), "RNG stream resumes");
            // Every Q entry survives with its exact statistics.
            for (sa, sum, count) in orig.q_table().entries() {
                assert_eq!(back.q_table().observations(sa.0, sa.1), count);
                let q = back.q_table().q(sa.0, sa.1).unwrap();
                assert!((q - sum / f64::from(count)).abs() < 1e-12);
            }
            // The greedy policy is identical state by state.
            for (s, a) in orig.policy().entries() {
                assert_eq!(back.policy().greedy_action(s), Some(a));
            }
        }
        assert!(
            driver.engines().iter().any(|e| !e.q_table().is_empty()),
            "the run produced learning state to compare"
        );
    }

    #[test]
    fn restored_session_makes_the_same_next_choice() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(3).copied().collect();
        // Nonzero ε so the next choice depends on the RNG stream, not just
        // the greedy map — the strongest form of the round-trip guarantee.
        let cfg = AlexConfig {
            epsilon: 0.3,
            ..small_cfg()
        };
        let mut driver = AlexDriver::new(&left, &right, &initial, cfg).unwrap();
        let oracle = ExactOracle::new(truth.clone());
        driver.run(&oracle, &truth);

        let snap = SessionSnapshot::capture(&driver, &left, &right);
        let mut restored = snap.restore(&left, &right).unwrap();

        // Drive both sessions through the same next episode of feedback;
        // identical learning state + identical RNG ⇒ identical outcome.
        let drive = |d: &mut AlexDriver| {
            d.step(&oracle);
            let mut links: Vec<Link> = d.candidate_links().into_iter().collect();
            links.sort();
            links
        };
        assert_eq!(drive(&mut driver), drive(&mut restored));
    }

    #[test]
    fn version1_snapshots_load_with_empty_learning_state() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(2).copied().collect();
        let driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        let mut snap = SessionSnapshot::capture(&driver, &left, &right);
        snap.version = 1;
        // Simulate a real pre-policy-state file: the new keys must be
        // *absent* from the JSON, not merely empty — version-1 writers
        // never emitted them.
        let mut value = serde_json::to_value(&snap).unwrap();
        let serde::Value::Object(fields) = &mut value else {
            panic!("snapshot serializes as an object");
        };
        fields.retain(|(k, _)| k != "policy");
        let json = value.to_json_string(true);
        let back = SessionSnapshot::from_json(&json).unwrap();
        assert_eq!(back.policy, vec![]);
        let restored = back.restore(&left, &right).unwrap();
        assert!(restored.engines().iter().all(|e| e.q_table().is_empty()));
    }

    #[test]
    fn version3_snapshots_restore_with_empty_bookkeeping() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(3).copied().collect();
        let mut driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        let oracle = ExactOracle::new(truth.clone());
        driver.run(&oracle, &truth);
        let mut snap = SessionSnapshot::capture(&driver, &left, &right);
        assert!(snap.policy.iter().all(|p| p.engine.is_some()));
        // A version-3 writer never emitted the engine bookkeeping.
        snap.version = 3;
        let mut value = serde_json::to_value(&snap).unwrap();
        let serde::Value::Object(fields) = &mut value else {
            panic!("snapshot serializes as an object");
        };
        for (k, v) in fields.iter_mut() {
            if k == "policy" {
                let serde::Value::Array(parts) = v else {
                    panic!("policy is an array");
                };
                for part in parts {
                    let serde::Value::Object(f) = part else {
                        panic!("a partition policy is an object");
                    };
                    f.retain(|(k, _)| k != "engine");
                }
            }
        }
        let back = SessionSnapshot::from_json(&value.to_json_string(false)).unwrap();
        assert!(back.policy.iter().all(|p| p.engine.is_none()));
        let restored = back.restore(&left, &right).unwrap();
        assert_eq!(restored.candidate_links(), driver.candidate_links());
        for (orig, back) in driver.engines().iter().zip(restored.engines()) {
            assert_eq!(orig.rng_state(), back.rng_state());
            assert_eq!(back.bookkeeping(), EngineBookkeeping::default());
        }
    }

    #[test]
    fn snapshots_with_the_retired_trace_config_restore_identically() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(3).copied().collect();
        let mut driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        let oracle = ExactOracle::new(truth.clone());
        driver.run(&oracle, &truth);
        let snap = SessionSnapshot::capture(&driver, &left, &right);
        assert_eq!(snap.version, 4);
        let plain = snap.to_json();
        // A version-4 writer whose `AlexConfig` still had a `trace` field.
        let mut value = serde_json::to_value(&snap).unwrap();
        let serde::Value::Object(fields) = &mut value else {
            panic!("snapshot serializes as an object");
        };
        let (_, config) = fields.iter_mut().find(|(k, _)| k == "config").unwrap();
        let serde::Value::Object(config) = config else {
            panic!("config is an object");
        };
        assert!(config.iter().all(|(k, _)| k != "trace"));
        let trace = r#"{"mode": "ring", "sample": 0.5, "ring_capacity": 1024}"#;
        config.push(("trace".into(), serde_json::from_str(trace).unwrap()));
        let with_trace = value.to_json_string(false);
        assert!(with_trace.contains(r#""trace":{"mode":"ring""#));
        // ... whose `DurabilityConfig` also still had `segment_bytes`.
        assert!(!with_trace.contains("segment_bytes"));
        let durability = r#""durability":{"#;
        assert_eq!(with_trace.matches(durability).count(), 1);
        let with_segment_bytes =
            with_trace.replace(durability, r#""durability":{"segment_bytes":1048576,"#);

        let state = |json: &str| {
            let restored = SessionSnapshot::from_json(json)
                .unwrap()
                .restore(&left, &right)
                .unwrap();
            let mut links: Vec<Link> = restored.candidate_links().into_iter().collect();
            links.sort();
            let fps: Vec<u64> = restored
                .engines()
                .iter()
                .map(|e| e.state_fingerprint())
                .collect();
            (links, fps)
        };
        assert_eq!(state(&with_trace), state(&plain));
        assert_eq!(state(&with_segment_bytes), state(&plain));
    }

    /// A session with the ratio numeric mode restores with it: the mode is
    /// part of the snapshot, so the restored spaces are the original ones.
    #[test]
    fn numeric_mode_survives_the_snapshot() {
        use alex_sim::{NumericSim, SimConfig};
        let (mut left, mut right, truth) = world();
        // Years 4 apart: the ratio mode scores them above θ, the default
        // half-life mode below it.
        let (born_l, born_r) = (left.intern_iri("l/born"), right.intern_iri("r/born"));
        for i in 0..10 {
            let l = left.intern_iri(&format!("http://l/e{i}"));
            let r = right.intern_iri(&format!("http://r/e{i}"));
            left.insert_literal(l, born_l, Literal::Integer(1900 + 10 * i));
            right.insert_literal(r, born_r, Literal::Integer(1904 + 10 * i));
        }
        let fingerprints = |d: &AlexDriver| -> Vec<u64> {
            d.engines()
                .iter()
                .map(|e| e.space().fingerprint())
                .collect()
        };
        let initial: Vec<Link> = truth.iter().take(3).copied().collect();
        let cfg = AlexConfig {
            sim: SimConfig {
                numeric: NumericSim::Ratio,
            },
            ..small_cfg()
        };
        let mut driver = AlexDriver::new(&left, &right, &initial, cfg).unwrap();
        let default = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        assert_ne!(fingerprints(&driver), fingerprints(&default));
        driver.run(&ExactOracle::new(truth.clone()), &truth);

        let json = SessionSnapshot::capture(&driver, &left, &right).to_json();
        assert!(json.contains(r#""sim":{"numeric":"ratio"}"#), "{json}");
        let restored = SessionSnapshot::from_json(&json)
            .unwrap()
            .restore(&left, &right)
            .unwrap();
        assert_eq!(restored.config().sim, driver.config().sim);
        assert_eq!(fingerprints(&restored), fingerprints(&driver));

        // An unknown mode is a typed error; a config without `sim` loads
        // the default.
        let bad = json.replace(r#""numeric":"ratio""#, r#""numeric":"cosine""#);
        assert!(SessionSnapshot::from_json(&bad).is_err());
        let absent = json.replace(r#""sim":{"numeric":"ratio"},"#, "");
        let back = SessionSnapshot::from_json(&absent).unwrap();
        assert_eq!(back.config.sim, SimConfig::default());
    }

    #[test]
    fn out_of_range_engine_references_are_errors() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(3).copied().collect();
        let mut driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        let oracle = ExactOracle::new(truth.clone());
        driver.run(&oracle, &truth);
        let snap = SessionSnapshot::capture(&driver, &left, &right);
        let corrupt = |edit: &dyn Fn(&mut EngineStateSnapshot)| {
            let mut s = snap.clone();
            edit(s.policy[0].engine.as_mut().unwrap());
            s.restore(&left, &right).err()
        };
        assert!(corrupt(&|e| e.order.push(u32::MAX)).is_some());
        assert!(corrupt(&|e| e.approved.push(u32::MAX)).is_some());
        assert!(corrupt(&|e| e.actions.push((0, u32::MAX))).is_some());
        assert!(corrupt(&|e| e.generated.push((u32::MAX, vec![]))).is_some());
        assert!(corrupt(&|_| {}).is_none());

        // Provenance and generated links are pairs of the partition's
        // space: a link outside it is a typed error, not a dropped entry.
        let outside = |e: &mut EngineStateSnapshot| {
            e.links
                .push(("http://nowhere/l".into(), "http://nowhere/r".into()));
            (e.order.len() + e.links.len() - 1) as u32
        };
        let err = corrupt(&|e| {
            let l = outside(e);
            e.provenance.push((l, vec![0]));
        });
        assert!(
            matches!(&err, Some(SessionError::LinkOutsideSpace { partition: 0, field: "provenance", link })
                if link.0 == "http://nowhere/l"),
            "{err:?}"
        );
        let err = corrupt(&|e| {
            let l = outside(e);
            e.generated.push((0, vec![l]));
        });
        assert!(
            matches!(
                &err,
                Some(SessionError::LinkOutsideSpace {
                    field: "generated",
                    ..
                })
            ),
            "{err:?}"
        );
    }

    /// Checkpoints written while sessions still kept a degraded-query
    /// tally carry its two counters; they restore like files without.
    #[test]
    fn snapshots_with_the_retired_query_tally_restore_identically() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(3).copied().collect();
        let mut driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        let oracle = ExactOracle::new(truth.clone());
        driver.run(&oracle, &truth);
        let mut session = LiveSession::new(left, right, driver);
        session.episodes = 3;
        session.feedback_items = 41;
        let plain = session.snapshot().to_json();
        assert!(!plain.contains("source_skips"));
        let episodes = r#""episodes":3,"#;
        assert_eq!(plain.matches(episodes).count(), 1);
        let with_tally = plain.replace(
            episodes,
            r#""degraded_queries":2,"source_skips":3,"episodes":3,"#,
        );

        let state = |json: &str| {
            let snap = SessionSnapshot::from_json(json).unwrap();
            let restored = snap.restore(&session.left, &session.right).unwrap();
            let mut links: Vec<Link> = restored.candidate_links().into_iter().collect();
            links.sort();
            let fps: Vec<u64> = (restored.engines().iter())
                .map(|e| e.state_fingerprint())
                .collect();
            (links, fps, snap.episodes, snap.feedback_items)
        };
        assert_eq!(state(&with_tally), state(&plain));
        assert_eq!(state(&plain).2, 3);
    }

    /// Checkpoints written while the federation had a failure model carry
    /// its ten knobs in their config; they restore like files without.
    #[test]
    fn snapshots_with_the_retired_federation_knobs_restore_identically() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(3).copied().collect();
        let mut driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        driver.run(&ExactOracle::new(truth.clone()), &truth);
        let session = LiveSession::new(left, right, driver);
        let plain = session.snapshot().to_json();
        let federation = r#""federation":{}"#;
        assert_eq!(plain.matches(federation).count(), 1);
        let with_knobs = plain.replace(
            federation,
            r#""federation":{"source_budget_ms":2000,"attempt_timeout_ms":250,"max_retries":2,
            "backoff_base_ms":10,"backoff_cap_ms":200,"backoff_jitter":0.5,"breaker_threshold":3,
            "breaker_cooldown_ms":1000,"breaker_halfopen_successes":1,"jitter_seed":1592697324}"#,
        );

        let state = |json: &str| {
            let snap = SessionSnapshot::from_json(json).unwrap();
            let restored = snap.restore(&session.left, &session.right).unwrap();
            let mut links: Vec<Link> = restored.candidate_links().into_iter().collect();
            links.sort();
            let fps: Vec<u64> = (restored.engines().iter())
                .map(|e| e.state_fingerprint())
                .collect();
            (links, fps)
        };
        let (links, fps) = state(&plain);
        assert!(!links.is_empty());
        assert_eq!(state(&with_knobs), (links, fps));
    }

    #[test]
    fn episode_counters_and_wal_mark_round_trip() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(2).copied().collect();
        let driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        let mut session = LiveSession::new(left, right, driver);
        session.episodes = 4;
        session.feedback_items = 80;
        (session.explored, session.exploited) = (7, 61);

        let mut snap = session.snapshot();
        assert_eq!(snap.version, SNAPSHOT_VERSION);
        assert_eq!(snap.episodes, 4);
        assert_eq!(snap.feedback_items, 80);
        assert_eq!((snap.explored, snap.exploited), (7, 61));
        snap.applied_wal_seq = 123;
        let back = SessionSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.applied_wal_seq, 123);

        let driver2 = back.restore(&session.left, &session.right).unwrap();
        let mut resumed = LiveSession::new(session.left, session.right, driver2);
        resumed.restore_counters(&back);
        assert_eq!(resumed.episodes, 4);
        assert_eq!(resumed.feedback_items, 80);
        assert_eq!((resumed.explored, resumed.exploited), (7, 61));

        // Version-2 files (no episode counters) and files written before
        // the choice counters load with zeros.
        let mut value = serde_json::to_value(&snap).unwrap();
        let serde::Value::Object(fields) = &mut value else {
            panic!("snapshot serializes as an object");
        };
        fields.retain(|(k, _)| {
            !matches!(
                k.as_str(),
                "episodes" | "feedback_items" | "explored" | "exploited" | "applied_wal_seq"
            )
        });
        let v2 = SessionSnapshot::from_json(&value.to_json_string(true)).unwrap();
        assert_eq!(v2.episodes, 0);
        assert_eq!((v2.explored, v2.exploited), (0, 0));
        assert_eq!(v2.applied_wal_seq, 0);
    }

    #[test]
    fn session_handle_interleaves_readers_and_feedback() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(4).copied().collect();
        let cfg = AlexConfig {
            partitions: 2,
            epsilon: 0.0,
            ..small_cfg()
        };
        let driver = AlexDriver::new(&left, &right, &initial, cfg).unwrap();
        let handle = SessionHandle::new(LiveSession::new(left, right, driver));

        let wrong = {
            let mut it = initial.iter();
            let a = *it.next().unwrap();
            let b = *it.next().unwrap();
            Link::new(a.left, b.right)
        };
        std::thread::scope(|s| {
            // Concurrent readers querying candidate links...
            for _ in 0..3 {
                let h = handle.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        let g = h.read();
                        let _ = g.driver.candidate_links();
                    }
                });
            }
            // ...while a writer applies feedback.
            let h = handle.clone();
            s.spawn(move || {
                h.write().feedback_episode(&[(wrong, false)]).unwrap();
            });
        });

        let g = handle.read();
        assert_eq!(g.episodes, 1);
        assert!(!g.driver.candidate_links().contains(&wrong));
        // The snapshot captured through the handle matches a direct capture
        // plus the session's own bookkeeping counters.
        let mut direct = SessionSnapshot::capture(&g.driver, &g.left, &g.right);
        direct.episodes = g.episodes;
        direct.feedback_items = g.feedback_items;
        assert_eq!(g.snapshot(), direct);
    }

    #[test]
    fn panicked_writer_does_not_wedge_the_session() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(2).copied().collect();
        let driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        let handle = SessionHandle::new(LiveSession::new(left, right, driver));

        let h = handle.clone();
        let joined = std::thread::spawn(move || {
            let mut g = h.write();
            g.episodes += 1;
            panic!("handler died holding the write lock");
        })
        .join();
        assert!(joined.is_err(), "the writer thread panicked");

        // Later readers and writers still get in and see the update.
        assert_eq!(handle.read().episodes, 1);
        handle.write().episodes += 1;
        assert_eq!(handle.read().episodes, 2);
    }

    #[test]
    fn restored_blacklist_blocks_rediscovery() {
        let (left, right, truth) = world();
        let wrong = {
            let mut it = truth.iter();
            let a = *it.next().unwrap();
            let b = *it.next().unwrap();
            Link::new(a.left, b.right)
        };
        let initial: Vec<Link> = truth.iter().take(2).copied().collect();
        let driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        // Force the wrong link onto the blacklist via direct feedback.
        let snap = {
            // a synthetic snapshot with the wrong link blacklisted
            let mut s = SessionSnapshot::capture(&driver, &left, &right);
            s.blacklist.push((
                left.iri_str(wrong.left).to_string(),
                right.iri_str(wrong.right).to_string(),
            ));
            s
        };
        let mut restored = snap.restore(&left, &right).unwrap();
        let oracle = ExactOracle::new(truth.clone());
        let out = restored.run(&oracle, &truth);
        assert!(
            !out.final_links.contains(&wrong),
            "blacklisted link must not return"
        );
    }

    #[test]
    fn future_versions_are_rejected() {
        let (left, right, truth) = world();
        let initial: Vec<Link> = truth.iter().take(1).copied().collect();
        let driver = AlexDriver::new(&left, &right, &initial, small_cfg()).unwrap();
        let mut snap = SessionSnapshot::capture(&driver, &left, &right);
        snap.version = SNAPSHOT_VERSION + 1;
        let err = SessionSnapshot::from_json(&snap.to_json()).unwrap_err();
        assert!(matches!(err, SessionError::UnsupportedVersion(_)));
    }

    #[test]
    fn garbage_json_is_an_error() {
        assert!(matches!(
            SessionSnapshot::from_json("not json"),
            Err(SessionError::Serde(_))
        ));
    }
}
