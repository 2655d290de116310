//! # alex-core — Automatic Link Exploration in Linked Data
//!
//! The primary contribution of *El-Roby & Aboulnaga, "ALEX: Automatic Link
//! Exploration in Linked Data", SIGMOD 2015*: a system that improves the
//! quality of `owl:sameAs` links between RDF datasets using feedback on
//! query answers, discovering **new** links similar to approved ones via
//! first-visit Monte-Carlo reinforcement learning with an ε-greedy policy.
//!
//! ## Model
//!
//! * **State** ([`FeatureSet`], §4.1) — an approved/rejected link,
//!   represented by predicate-pair features scored by value similarity.
//! * **Action** ([`FeatureKey`] + step, §4.2) — pick one feature of the
//!   state and add every link whose score for that feature lies within
//!   ±`step_size` of the state's score.
//! * **Reward** (§4.3) — `+1` for an approved link, `−1` (configurable)
//!   for a rejected one.
//! * **Learning** ([`QTable`], [`Policy`], §4.4) — first-visit Monte-Carlo
//!   policy evaluation over feedback episodes; ε-greedy policy improvement
//!   at episode end. Section 5 of the paper proves each improvement step
//!   dominates the previous policy.
//! * **Optimizations** (§6) — θ-filtering of the search space, equal-size
//!   round-robin partitioning with parallel exploration, a blacklist of
//!   user-rejected links, and rollback of state-action pairs that generate
//!   many wrong links.
//!
//! ## Quick start
//!
//! ```
//! use alex_core::{AlexConfig, AlexDriver, ExactOracle};
//! use alex_rdf::{Interner, Link, Literal, Store};
//! use std::collections::HashSet;
//!
//! // Two toy datasets sharing one interner.
//! let interner = Interner::new_shared();
//! let mut left = Store::new(interner.clone());
//! let mut right = Store::new(interner.clone());
//! let name_l = left.intern_iri("http://db/name");
//! let name_r = right.intern_iri("http://nyt/label");
//! let mut truth = HashSet::new();
//! for i in 0..8 {
//!     let l = left.intern_iri(&format!("http://db/e{i}"));
//!     let r = right.intern_iri(&format!("http://nyt/e{i}"));
//!     let nm = format!("entity number {i}");
//!     left.insert_literal(l, name_l, Literal::str(&interner, &nm));
//!     right.insert_literal(r, name_r, Literal::str(&interner, &nm));
//!     truth.insert(Link::new(l, r));
//! }
//!
//! // Start from a single known link; ALEX discovers the rest. (One
//! // partition: exploration can only reach links in partitions that have
//! // at least one candidate to collect feedback on.)
//! let initial: Vec<Link> = truth.iter().take(1).copied().collect();
//! let cfg = AlexConfig { partitions: 1, episode_size: 50, ..Default::default() };
//! let mut driver = AlexDriver::new(&left, &right, &initial, cfg).unwrap();
//! let outcome = driver.run(&ExactOracle::new(truth.clone()), &truth);
//! assert!(outcome.final_quality().recall > 0.9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod candidates;
mod config;
mod driver;
pub mod durability;
mod engine;
mod feature;
mod metrics;
mod oracle;
pub mod parallel;
mod partition;
mod policy;
mod session;
mod space;
pub mod space_file;

/// Structured tracing: spans, typed events, the flight recorder, and the
/// JSON-lines exporter (the `alex-trace` crate, re-exported).
pub use alex_trace as trace;

/// Durable storage primitives: the write-ahead log and the binary
/// triple-store snapshot codec (the `alex-store` crate, re-exported).
pub use alex_store as store;

pub use candidates::{Blacklist, CandidateSet, Candidates};
pub use config::{AlexConfig, DurabilityConfig};
pub use driver::{AlexDriver, RunOutcome, SpaceBuildStats};
pub use durability::{
    recover_session, recover_state_dir, session_dir, RecoveredSession, RecoveryOutcome,
    SessionRecoveryReport,
};
pub use engine::{
    EngineDiagnostics, GeneratingAction, LinkExplanation, PartitionEngine, PartitionEpisodeStats,
};
pub use feature::{Feature, FeatureKey, FeatureSet};
pub use metrics::{EpisodeReport, Quality};
pub use oracle::{ExactOracle, FeedbackOracle, NoisyOracle, ReluctantOracle};
pub use partition::{partition_of, round_robin};
pub use policy::{ChoiceExplanation, Policy, QTable, StateAction};
pub use session::{
    EngineStateSnapshot, EpisodeOutcome, LiveSession, SessionError, SessionHandle, SessionSnapshot,
    SNAPSHOT_VERSION,
};
pub use space::{ExplorationSpace, RightIndex, DEFAULT_MAX_BLOCK};
