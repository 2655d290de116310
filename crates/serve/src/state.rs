//! Shared server state: the session table and the metrics registry.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

use alex_core::telemetry::MetricsRegistry;
use alex_core::{DurabilityConfig, SessionHandle};
use alex_rdf::Link;

/// One server-side session: the shared curation handle plus optional
/// ground-truth links (when the client supplied them at creation time,
/// precision/recall gauges are updated after every feedback episode).
pub struct SessionEntry {
    /// The thread-safe curation session (with its session directory, when
    /// the server has a state directory).
    pub handle: SessionHandle,
    /// Optional ground truth for quality gauges.
    pub truth: Option<HashSet<Link>>,
}

/// State shared by every worker thread.
pub struct AppState {
    /// Session id → entry. The map lock is held only to look up or insert
    /// a handle; per-session work happens under the session's own lock.
    pub sessions: RwLock<HashMap<String, SessionEntry>>,
    /// Process-wide metrics, served at `GET /metrics`.
    pub metrics: MetricsRegistry,
    /// Where every session keeps its `session-<id>/` directory, if
    /// anywhere: written at creation, checkpointed at shutdown, and
    /// restored at boot.
    pub state_dir: Option<PathBuf>,
    /// Server-wide durability defaults; sessions may override via
    /// `config.durability` at creation time.
    pub durability: DurabilityConfig,
    next_id: AtomicU64,
    next_request_id: AtomicU64,
}

impl AppState {
    /// Fresh state with an empty session table and durability off.
    pub fn new(state_dir: Option<PathBuf>) -> Self {
        AppState {
            sessions: RwLock::new(HashMap::new()),
            metrics: MetricsRegistry::new(),
            state_dir,
            durability: DurabilityConfig::default(),
            next_id: AtomicU64::new(1),
            next_request_id: AtomicU64::new(1),
        }
    }

    /// Allocates the next session id (`s1`, `s2`, …).
    pub fn fresh_id(&self) -> String {
        format!("s{}", self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Makes sure freshly allocated ids never collide with `id` — called
    /// at boot for every session directory found in the state directory,
    /// recovered or not.
    pub fn advance_ids_past(&self, id: &str) {
        if let Some(n) = id.strip_prefix('s').and_then(|n| n.parse::<u64>().ok()) {
            self.next_id
                .fetch_max(n.saturating_add(1), Ordering::Relaxed);
        }
    }

    /// Allocates a request id (`r1`, `r2`, …) for requests that did not
    /// bring their own `X-Request-Id`.
    pub fn fresh_request_id(&self) -> String {
        format!("r{}", self.next_request_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Checkpoints every session into its `session-<id>/` directory
    /// (folding its WAL, if it has one), in id order. Checkpoints are
    /// written atomically (`*.tmp` + rename), so a crash mid-shutdown can
    /// never leave a torn one. Returns the checkpoint files written; empty
    /// when no `state_dir` is configured. Errors are reported per session
    /// rather than aborting the remaining ones.
    pub fn persist_sessions(&self) -> Vec<Result<PathBuf, String>> {
        let sessions = self.sessions.read().unwrap_or_else(PoisonError::into_inner);
        let mut ids: Vec<&String> = sessions.keys().collect();
        ids.sort();
        (ids.into_iter())
            .filter_map(|id| {
                let written = sessions[id].handle.write().checkpoint()?;
                Some(written.map_err(|e| format!("checkpointing session {id}: {e}")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_sequential() {
        let state = AppState::new(None);
        assert_eq!(state.fresh_id(), "s1");
        assert_eq!(state.fresh_id(), "s2");
    }

    #[test]
    fn recovered_ids_push_the_allocator_forward() {
        let state = AppState::new(None);
        state.advance_ids_past("s7");
        state.advance_ids_past("s3"); // going backwards is a no-op
        state.advance_ids_past("not-numeric"); // non-s{n} ids are ignored
        assert_eq!(state.fresh_id(), "s8");
    }

    #[test]
    fn persist_without_state_dir_is_empty() {
        let state = AppState::new(None);
        assert!(state.persist_sessions().is_empty());
    }
}
