//! FedX-style federated query processing with link provenance (paper §3.2),
//! hardened against source failures.
//!
//! A federated query spans several datasets: each triple pattern may be
//! answered by any source, and `owl:sameAs` links let a join variable bound
//! to an entity of one dataset match triples about its counterpart in
//! another. Every answer carries **provenance** — the exact links used to
//! produce it — which is the hook ALEX needs: user feedback on an answer is
//! "interpreted as feedback on the link that is used to generate the
//! answer" (§4).
//!
//! Sources are [`QuerySource`]s, not bare stores, and they are allowed to
//! fail. The engine applies, per source:
//!
//! * a **virtual-time budget** per query ([`FederationConfig::source_budget_ms`]),
//! * **bounded retries** with exponential backoff and deterministic jitter
//!   for retryable errors (timeouts, transient faults, truncation),
//! * a **circuit breaker** (closed → open after consecutive failures →
//!   half-open after a cooldown → closed again on success) so a dead
//!   source stops costing budget,
//! * **graceful degradation**: probes that cannot be completed yield no
//!   triples instead of failing the query, and [`QueryReport`] records
//!   which sources were skipped so callers can tell a complete answer set
//!   from a partial one.
//!
//! The breakers and the virtual clock belong to one [`FederatedEngine`]:
//! keep the engine across queries for cooldowns to span them. A query's
//! one record of its probes is its [`QueryReport`]; the trace holds only
//! its `query.federated` span.
//!
//! Implementation notes: patterns are evaluated one at a time in greedy
//! most-bound-first order (the same strategy as the single-store executor);
//! for each intermediate row, every source is probed — that is source
//! selection by attempted match, which at in-memory latencies is as fast as
//! maintaining predicate summaries. Entity translation tries the bound IRI
//! itself plus every `owl:sameAs` counterpart in ascending link order,
//! accumulating the used links in the row. Execution is serial and time
//! is virtual (charged by probes and backoff, never read from a wall
//! clock), so a fixed fault seed gives identical results at any thread
//! count — and with flawless sources the results are identical to the
//! pre-failure-model engine.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use alex_rdf::{Interner, IriId, Link, Store, Term, Triple};
use alex_trace as trace;

use crate::ast::{Group, PatternTerm, Query, TriplePattern};
use crate::exec::{eval_filter, resolve_literal, total_term_cmp, VarTable};
use crate::fault::{stable_mix, unit};
use crate::parser::{parse, ParseError};
use crate::same_as::{counterpart, SameAsIndex};
use crate::source::{InMemorySource, QuerySource, SourceError};

/// One answer of a federated query.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Projected terms, in projection order; `None` where a projection
    /// variable is unbound (possible only through `OPTIONAL`).
    pub row: Vec<Option<Term>>,
    /// The `owl:sameAs` links this answer depends on (deduplicated,
    /// unordered). Empty when the answer came from a single source.
    pub links: Vec<Link>,
}

/// Resilience knobs for federated execution. All durations are virtual
/// milliseconds (see [`crate::source::Probe::elapsed_ms`]).
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(default)]
pub struct FederationConfig {
    /// Virtual milliseconds each source may consume per query (probes plus
    /// backoff). Exhausting the budget skips the source for the rest of
    /// the query.
    pub source_budget_ms: u64,
    /// Deadline handed to each individual probe attempt.
    pub attempt_timeout_ms: u64,
    /// Retries after the first attempt of a probe (retryable errors only).
    pub max_retries: u32,
    /// Base backoff before the first retry; doubles per retry.
    pub backoff_base_ms: u64,
    /// Upper bound on a single backoff.
    pub backoff_cap_ms: u64,
    /// Jitter fraction: each backoff is scaled by a deterministic factor
    /// in `[1 − jitter/2, 1 + jitter/2]`.
    pub backoff_jitter: f64,
    /// Consecutive failed probes (retries exhausted) that trip the
    /// breaker from closed to open.
    pub breaker_threshold: u32,
    /// Virtual milliseconds an open breaker blocks all probes before
    /// allowing a half-open trial.
    pub breaker_cooldown_ms: u64,
    /// Successful probes required in half-open to close the breaker.
    pub breaker_halfopen_successes: u32,
    /// Seed for the deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        Self {
            source_budget_ms: 2_000,
            attempt_timeout_ms: 250,
            max_retries: 2,
            backoff_base_ms: 10,
            backoff_cap_ms: 200,
            backoff_jitter: 0.5,
            breaker_threshold: 3,
            breaker_cooldown_ms: 1_000,
            breaker_halfopen_successes: 1,
            jitter_seed: 0x5EED_A1EC,
        }
    }
}

impl FederationConfig {
    /// Checks the knobs for values that would break execution.
    pub fn validate(&self) -> Result<(), String> {
        if self.source_budget_ms == 0 {
            return Err("source_budget_ms must be positive".into());
        }
        if self.attempt_timeout_ms == 0 {
            return Err("attempt_timeout_ms must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.backoff_jitter) {
            return Err(format!(
                "backoff_jitter must be in [0, 1], got {}",
                self.backoff_jitter
            ));
        }
        if self.breaker_threshold == 0 {
            return Err("breaker_threshold must be positive".into());
        }
        if self.breaker_halfopen_successes == 0 {
            return Err("breaker_halfopen_successes must be positive".into());
        }
        Ok(())
    }
}

/// Externally visible circuit-breaker state of one source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerKind {
    /// Probes flow normally; failures are being counted.
    Closed,
    /// Probes are skipped until the cooldown elapses.
    Open,
    /// The cooldown elapsed; trial probes decide open vs. closed.
    HalfOpen,
}

impl BreakerKind {
    /// Lowercase label for logs, CLI summaries, and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerKind::Closed => "closed",
            BreakerKind::Open => "open",
            BreakerKind::HalfOpen => "half-open",
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Breaker {
    Closed { failures: u32 },
    Open { until_ms: u64 },
    HalfOpen { successes: u32 },
}

impl Breaker {
    fn kind(&self) -> BreakerKind {
        match self {
            Breaker::Closed { .. } => BreakerKind::Closed,
            Breaker::Open { .. } => BreakerKind::Open,
            Breaker::HalfOpen { .. } => BreakerKind::HalfOpen,
        }
    }
}

/// Per-source accounting of one query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SourceReport {
    /// Source name, as registered.
    pub name: String,
    /// Probe attempts issued (including retries).
    pub probes: u64,
    /// Attempts that were retries of a failed attempt.
    pub retries: u64,
    /// Attempts that timed out.
    pub timeouts: u64,
    /// Attempts that failed transiently.
    pub transient_errors: u64,
    /// Attempts that returned truncated answer sets (discarded).
    pub truncations: u64,
    /// Attempts that found the source down hard.
    pub outages: u64,
    /// Probes abandoned after retries were exhausted (each one may have
    /// lost answers; any makes the query degraded).
    pub failed_probes: u64,
    /// Probes skipped because the breaker was open.
    pub breaker_skipped: u64,
    /// Probes skipped because the per-query budget ran out.
    pub budget_exhausted: u64,
    /// Times the breaker tripped open during this query.
    pub breaker_opened: u64,
    /// Breaker state after the query.
    pub breaker: Option<BreakerKind>,
    /// Whether any probe against this source was lost (failed or
    /// skipped), i.e. answers from it may be missing.
    pub skipped: bool,
}

/// The result of a federated query under the failure model: the answers
/// that were derivable from reachable sources, plus per-source accounting.
#[derive(Clone, Debug)]
pub struct QueryReport {
    /// The answers (identical to [`FederatedEngine::execute`] when no
    /// source misbehaved).
    pub answers: Vec<Answer>,
    /// Per-source accounting, in registration order.
    pub sources: Vec<SourceReport>,
    /// True when at least one probe was lost: the answer set may be
    /// missing contributions from the skipped sources.
    pub degraded: bool,
}

impl QueryReport {
    /// Names of sources that lost at least one probe, registration order.
    pub fn skipped_sources(&self) -> Vec<&str> {
        self.sources
            .iter()
            .filter(|s| s.skipped)
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Total retry attempts across sources.
    pub fn total_retries(&self) -> u64 {
        self.sources.iter().map(|s| s.retries).sum()
    }

    /// Total timed-out attempts across sources.
    pub fn total_timeouts(&self) -> u64 {
        self.sources.iter().map(|s| s.timeouts).sum()
    }

    /// Total breaker trips across sources during this query.
    pub fn total_breaker_opens(&self) -> u64 {
        self.sources.iter().map(|s| s.breaker_opened).sum()
    }

    /// Total probes abandoned across sources.
    pub fn total_failed_probes(&self) -> u64 {
        self.sources.iter().map(|s| s.failed_probes).sum()
    }
}

#[derive(Clone, Debug)]
struct FedRow {
    bindings: Vec<Option<Term>>,
    links: Vec<Link>,
}

/// The resilience state of one engine: the virtual clock, each source's
/// breaker, and the jitter draw counter. It lives as long as its
/// [`FederatedEngine`], so breaker cooldowns span that engine's queries
/// the way they would against real endpoints.
struct FedState {
    clock_ms: u64,
    breakers: Vec<Breaker>,
    draws: u64,
}

/// Per-query bookkeeping, plus the engine's resilience state for the
/// length of the query.
struct QueryCtx<'s> {
    state: &'s mut FedState,
    budget: Vec<u64>,
    counters: Vec<SourceReport>,
    skipped: BTreeSet<usize>,
}

enum ProbeOutcome {
    Success(Vec<Triple>),
    /// Retries exhausted or a non-retryable error: counts against the
    /// breaker.
    Failed,
    /// No probe reached the source (open breaker, spent budget): the
    /// source may be fine, so the breaker is not charged.
    Skipped,
}

/// The owned half of a federation: the `owl:sameAs` index and the
/// resilience configuration. It borrows no source, so a long-lived owner
/// — a curation session — keeps one, patches its links as they change,
/// and wraps it with its sources per query through
/// [`FederatedEngine::over`].
#[derive(Clone)]
pub struct Federation {
    same_as: SameAsIndex,
    cfg: FederationConfig,
}

impl Federation {
    /// A federation with no links.
    pub fn new(cfg: FederationConfig) -> Self {
        Self {
            same_as: SameAsIndex::default(),
            cfg,
        }
    }

    /// Adds `owl:sameAs` links, both directions; links already present
    /// are left alone.
    pub fn add_links(&mut self, links: impl IntoIterator<Item = Link>) {
        let links = links.into_iter();
        self.same_as.reserve(links.size_hint().0);
        for link in links {
            self.same_as.insert(link);
        }
    }

    /// Removes `owl:sameAs` links; absent links are ignored.
    pub fn remove_links(&mut self, links: impl IntoIterator<Item = Link>) {
        for link in links {
            self.same_as.remove(link);
        }
    }

    /// The links naming `entity` in either direction, in ascending order —
    /// the order a query probes its counterparts in.
    pub fn peers(&self, entity: IriId) -> &[Link] {
        self.same_as.peers(entity)
    }

    /// Number of distinct entities with at least one counterpart.
    pub fn linked_entities(&self) -> usize {
        self.same_as.entities()
    }
}

/// A federation of query sources connected by `owl:sameAs` links: the
/// sources plus a [`Federation`], owned (built by
/// [`FederatedEngine::add_links`]) or borrowed from a long-lived owner,
/// and the resilience state the engine's queries share: its virtual
/// clock and one circuit breaker per source. Keep one engine across
/// queries for breaker cooldowns to span them.
///
/// All member sources must share one [`Interner`] (the workspace-wide
/// convention), so ids are comparable across sources.
pub struct FederatedEngine<'a> {
    sources: Vec<Box<dyn QuerySource + 'a>>,
    fed: Cow<'a, Federation>,
    state: Mutex<FedState>,
}

impl<'a> FederatedEngine<'a> {
    /// Creates a federation over named in-memory stores with default
    /// resilience settings — the compatibility constructor; flawless
    /// stores never trip any of the failure machinery.
    ///
    /// # Panics
    ///
    /// Panics if the sources do not share an interner, or no source is
    /// given.
    pub fn new(sources: Vec<(String, &'a Store)>) -> Self {
        Self::with_config(sources, FederationConfig::default())
    }

    /// Creates a federation over named in-memory stores with explicit
    /// resilience settings.
    ///
    /// # Panics
    ///
    /// See [`FederatedEngine::new`].
    pub fn with_config(sources: Vec<(String, &'a Store)>, cfg: FederationConfig) -> Self {
        let boxed = sources
            .into_iter()
            .map(|(name, store)| {
                Box::new(InMemorySource::new(name, store)) as Box<dyn QuerySource + 'a>
            })
            .collect();
        Self::from_sources(boxed, cfg)
    }

    /// Creates a federation over arbitrary [`QuerySource`]s (in-memory
    /// stores, fault-injected wrappers, …).
    ///
    /// # Panics
    ///
    /// Panics if the sources do not share an interner, or no source is
    /// given.
    pub fn from_sources(sources: Vec<Box<dyn QuerySource + 'a>>, cfg: FederationConfig) -> Self {
        Self::assemble(sources, Cow::Owned(Federation::new(cfg)))
    }

    /// Runs queries over `sources` through a borrowed [`Federation`]'s
    /// links and configuration, with every breaker closed and the virtual
    /// clock at zero. Costs O(sources); nothing is indexed.
    ///
    /// # Panics
    ///
    /// Panics if the sources do not share an interner, or no source is
    /// given.
    pub fn over(fed: &'a Federation, sources: Vec<Box<dyn QuerySource + 'a>>) -> Self {
        Self::assemble(sources, Cow::Borrowed(fed))
    }

    fn assemble(sources: Vec<Box<dyn QuerySource + 'a>>, fed: Cow<'a, Federation>) -> Self {
        assert!(!sources.is_empty(), "federation needs at least one source");
        let first = sources[0].interner().clone();
        for s in &sources {
            assert!(
                Arc::ptr_eq(&first, s.interner()),
                "source {} does not share the federation interner",
                s.name()
            );
        }
        let state = Mutex::new(FedState {
            clock_ms: 0,
            breakers: vec![Breaker::Closed { failures: 0 }; sources.len()],
            draws: 0,
        });
        Self {
            sources,
            fed,
            state,
        }
    }

    /// The shared interner.
    pub fn interner(&self) -> &Interner {
        self.sources[0].interner()
    }

    /// The links and configuration the engine runs on.
    pub fn federation(&self) -> &Federation {
        &self.fed
    }

    /// Current breaker state per source, in registration order.
    pub fn breaker_states(&self) -> Vec<BreakerKind> {
        self.state().breakers.iter().map(Breaker::kind).collect()
    }

    /// The virtual clock: total milliseconds charged by probes and
    /// backoff since the engine was built.
    pub fn virtual_clock_ms(&self) -> u64 {
        self.state().clock_ms
    }

    /// The resilience state. A query updates it between statements only,
    /// so one that panicked holding it leaves nothing half-written.
    fn state(&self) -> MutexGuard<'_, FedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Installs (or extends) the `owl:sameAs` link set, both directions.
    /// An engine over a borrowed [`Federation`] first takes a copy of it.
    pub fn add_links(&mut self, links: impl IntoIterator<Item = Link>) {
        self.fed.to_mut().add_links(links);
    }

    /// Removes `owl:sameAs` links; breaker state is kept. An engine over
    /// a borrowed [`Federation`] first takes a copy of it.
    pub fn remove_links(&mut self, links: impl IntoIterator<Item = Link>) {
        self.fed.to_mut().remove_links(links);
    }

    /// Parses and executes a query.
    pub fn execute_str(&self, text: &str) -> Result<Vec<Answer>, ParseError> {
        Ok(self.execute(&parse(text)?))
    }

    /// Parses and executes a query, returning the full [`QueryReport`].
    pub fn execute_str_report(&self, text: &str) -> Result<QueryReport, ParseError> {
        Ok(self.execute_report(&parse(text)?))
    }

    /// Executes a parsed query across all sources, discarding the
    /// resilience report.
    pub fn execute(&self, query: &Query) -> Vec<Answer> {
        self.execute_report(query).answers
    }

    /// Executes a parsed query across all sources under the failure
    /// model: unreachable sources are skipped (not fatal) and accounted
    /// in the report.
    pub fn execute_report(&self, query: &Query) -> QueryReport {
        let _span = trace::span("query.federated");
        let mut state = self.state();
        let mut ctx = QueryCtx {
            state: &mut state,
            budget: vec![self.fed.cfg.source_budget_ms; self.sources.len()],
            counters: self
                .sources
                .iter()
                .map(|s| SourceReport {
                    name: s.name().to_string(),
                    ..SourceReport::default()
                })
                .collect(),
            skipped: BTreeSet::new(),
        };
        let answers = self.run_query(query, &mut ctx);
        let mut sources = ctx.counters;
        for (idx, rep) in sources.iter_mut().enumerate() {
            rep.breaker = Some(ctx.state.breakers[idx].kind());
            rep.skipped = ctx.skipped.contains(&idx);
        }
        let degraded = !ctx.skipped.is_empty();
        QueryReport {
            answers,
            sources,
            degraded,
        }
    }

    fn run_query(&self, query: &Query, ctx: &mut QueryCtx<'_>) -> Vec<Answer> {
        let vars = VarTable::from_query(query);
        let interner = self.interner();
        #[allow(unused_mut)]
        let mut rows = vec![FedRow {
            bindings: vec![None; vars.len()],
            links: Vec::new(),
        }];
        let mut remaining: Vec<&TriplePattern> = query.patterns.iter().collect();

        while !remaining.is_empty() && !rows.is_empty() {
            let pattern = pick_next(&rows, &mut remaining, &vars);
            rows = self.extend(rows, pattern, &vars, ctx);
        }

        // UNION blocks: each row extends through either branch.
        for (a, b) in &query.unions {
            let mut next = self.extend_group(rows.clone(), a, &vars, ctx);
            next.extend(self.extend_group(rows, b, &vars, ctx));
            sort_rows(&mut next);
            next.dedup_by(|x, y| x.bindings == y.bindings && x.links == y.links);
            rows = next;
        }

        // OPTIONAL blocks: left join.
        for g in &query.optionals {
            rows = rows
                .into_iter()
                .flat_map(|r| {
                    let exts = self.extend_group(vec![r.clone()], g, &vars, ctx);
                    if exts.is_empty() {
                        vec![r]
                    } else {
                        exts
                    }
                })
                .collect();
        }

        // ORDER BY over full solutions.
        if !query.order_by.is_empty() {
            let keys: Vec<(usize, bool)> = query
                .order_by
                .iter()
                .filter_map(|k| vars.index_of(&k.var).map(|i| (i, k.descending)))
                .collect();
            rows.sort_by(|a, b| {
                for &(i, desc) in &keys {
                    let ord = total_term_cmp(&a.bindings[i], &b.bindings[i], interner);
                    let ord = if desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        // Filters, projection, DISTINCT, OFFSET, LIMIT.
        let proj: Vec<usize> = query
            .projection()
            .iter()
            .filter_map(|v| vars.index_of(v))
            .collect();
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut to_skip = query.offset.unwrap_or(0);
        for row in rows {
            if !query
                .filters
                .iter()
                .all(|f| eval_filter(f, &row.bindings, &vars, interner))
            {
                continue;
            }
            let projected: Vec<Option<Term>> = proj.iter().map(|&i| row.bindings[i]).collect();
            if query.distinct && !seen.insert(projected.clone()) {
                continue;
            }
            if to_skip > 0 {
                to_skip -= 1;
                continue;
            }
            let mut links = row.links;
            links.sort_unstable();
            links.dedup();
            out.push(Answer {
                row: projected,
                links,
            });
            if let Some(limit) = query.limit {
                if out.len() >= limit {
                    break;
                }
            }
        }
        out
    }

    /// Extends rows through a nested group's patterns and filters.
    fn extend_group(
        &self,
        mut rows: Vec<FedRow>,
        group: &Group,
        vars: &VarTable,
        ctx: &mut QueryCtx<'_>,
    ) -> Vec<FedRow> {
        let mut remaining: Vec<&TriplePattern> = group.patterns.iter().collect();
        while !remaining.is_empty() && !rows.is_empty() {
            let pattern = pick_next(&rows, &mut remaining, vars);
            rows = self.extend(rows, pattern, vars, ctx);
        }
        let interner = self.interner();
        rows.retain(|r| {
            group
                .filters
                .iter()
                .all(|f| eval_filter(f, &r.bindings, vars, interner))
        });
        rows
    }

    /// Entity ids equivalent to `id` (itself first, then its
    /// counterparts in ascending link order), with the link that
    /// justifies each non-identity alternative.
    fn alternatives(&self, id: IriId) -> impl Iterator<Item = (IriId, Option<Link>)> + '_ {
        let peers = self.fed.same_as.peers(id).iter();
        std::iter::once((id, None)).chain(peers.map(move |&l| (counterpart(l, id), Some(l))))
    }

    /// Probes one source with the full resilience pipeline: breaker gate,
    /// budgeted attempts, bounded retries with jittered backoff, breaker
    /// accounting. A lost probe yields no triples (graceful degradation)
    /// and marks the source skipped for the report.
    fn probe_source(
        &self,
        idx: usize,
        subject: Option<IriId>,
        predicate: Option<IriId>,
        object: Option<Term>,
        ctx: &mut QueryCtx<'_>,
    ) -> Vec<Triple> {
        let source = &self.sources[idx];
        let cfg = &self.fed.cfg;
        let st = &mut *ctx.state;

        // Breaker gate.
        match st.breakers[idx] {
            Breaker::Open { until_ms } if st.clock_ms < until_ms => {
                ctx.counters[idx].breaker_skipped += 1;
                ctx.skipped.insert(idx);
                return Vec::new();
            }
            Breaker::Open { .. } => st.breakers[idx] = Breaker::HalfOpen { successes: 0 },
            _ => {}
        }

        let mut attempt: u32 = 0;
        let outcome = loop {
            if ctx.budget[idx] == 0 {
                ctx.counters[idx].budget_exhausted += 1;
                break ProbeOutcome::Skipped;
            }
            let deadline = ctx.budget[idx].min(cfg.attempt_timeout_ms);
            ctx.counters[idx].probes += 1;
            if attempt > 0 {
                ctx.counters[idx].retries += 1;
            }
            let probe = source.probe(subject, predicate, object, deadline);
            ctx.budget[idx] = ctx.budget[idx].saturating_sub(probe.elapsed_ms);
            st.clock_ms = st.clock_ms.saturating_add(probe.elapsed_ms);
            let error = match probe.result {
                Ok(triples) => break ProbeOutcome::Success(triples),
                Err(error) => error,
            };
            let counter = &mut ctx.counters[idx];
            match &error {
                SourceError::Timeout => counter.timeouts += 1,
                SourceError::Transient(_) => counter.transient_errors += 1,
                SourceError::Truncated { .. } => counter.truncations += 1,
                SourceError::Unavailable(_) => counter.outages += 1,
            }
            if !error.is_retryable() || attempt >= cfg.max_retries {
                break ProbeOutcome::Failed;
            }
            // Exponential backoff with deterministic jitter, charged
            // against budget and clock like real waiting.
            let base = cfg
                .backoff_base_ms
                .saturating_mul(1u64 << attempt.min(16))
                .min(cfg.backoff_cap_ms);
            st.draws += 1;
            let u = unit(stable_mix(cfg.jitter_seed ^ st.draws, idx as u64));
            let factor = 1.0 + cfg.backoff_jitter * (u - 0.5);
            let backoff = (base as f64 * factor).round().max(0.0) as u64;
            ctx.budget[idx] = ctx.budget[idx].saturating_sub(backoff.max(1));
            st.clock_ms = st.clock_ms.saturating_add(backoff);
            attempt += 1;
        };

        let reopen = Breaker::Open {
            until_ms: st.clock_ms.saturating_add(cfg.breaker_cooldown_ms),
        };
        match outcome {
            ProbeOutcome::Success(triples) => {
                st.breakers[idx] = match st.breakers[idx] {
                    Breaker::HalfOpen { successes }
                        if successes + 1 < cfg.breaker_halfopen_successes =>
                    {
                        Breaker::HalfOpen {
                            successes: successes + 1,
                        }
                    }
                    // A success closes a half-open breaker once enough
                    // trials passed, and resets the failure count.
                    _ => Breaker::Closed { failures: 0 },
                };
                triples
            }
            ProbeOutcome::Failed => {
                ctx.counters[idx].failed_probes += 1;
                st.breakers[idx] = match st.breakers[idx] {
                    Breaker::Closed { failures } if failures + 1 < cfg.breaker_threshold => {
                        Breaker::Closed {
                            failures: failures + 1,
                        }
                    }
                    // The threshold was reached, or a half-open trial
                    // failed: (back) to open.
                    Breaker::Closed { .. } | Breaker::HalfOpen { .. } => {
                        ctx.counters[idx].breaker_opened += 1;
                        reopen
                    }
                    open @ Breaker::Open { .. } => open,
                };
                ctx.skipped.insert(idx);
                Vec::new()
            }
            ProbeOutcome::Skipped => {
                ctx.skipped.insert(idx);
                Vec::new()
            }
        }
    }

    fn extend(
        &self,
        rows: Vec<FedRow>,
        pattern: &TriplePattern,
        vars: &VarTable,
        ctx: &mut QueryCtx<'_>,
    ) -> Vec<FedRow> {
        let interner = self.interner();
        let mut out = Vec::new();
        for row in rows {
            // Resolve each position to a concrete term (or None for an
            // unbound variable); a constant unknown to the interner makes
            // the pattern unmatchable for this row.
            let resolve = |term: &PatternTerm| -> Result<Option<Term>, ()> {
                match term {
                    PatternTerm::Var(v) => Ok(row.bindings[vars.index_of(v).expect("known var")]),
                    PatternTerm::Iri(iri) => interner
                        .get(iri)
                        .map(|id| Some(Term::Iri(IriId(id))))
                        .ok_or(()),
                    PatternTerm::Literal(spec) => resolve_literal(spec, interner)
                        .map(|l| Some(Term::Literal(l)))
                        .ok_or(()),
                }
            };
            let (Ok(s), Ok(p), Ok(o)) = (
                resolve(&pattern.subject),
                resolve(&pattern.predicate),
                resolve(&pattern.object),
            ) else {
                continue;
            };
            let p_iri = match p {
                Some(Term::Iri(id)) => Some(id),
                Some(Term::Literal(_)) => continue,
                None => None,
            };

            // Subject alternatives (entity translation across datasets).
            let subject_alts: Vec<(Option<IriId>, Option<Link>)> = match s {
                Some(Term::Iri(id)) => self.alternatives(id).map(|(i, l)| (Some(i), l)).collect(),
                Some(Term::Literal(_)) => continue,
                None => vec![(None, None)],
            };
            // Object alternatives: only IRI objects are translatable.
            let object_alts: Vec<(Option<Term>, Option<Link>)> = match o {
                Some(Term::Iri(id)) => self
                    .alternatives(id)
                    .map(|(i, l)| (Some(Term::Iri(i)), l))
                    .collect(),
                Some(lit) => vec![(Some(lit), None)],
                None => vec![(None, None)],
            };

            for &(s_alt, s_link) in &subject_alts {
                for (o_alt, o_link) in &object_alts {
                    for idx in 0..self.sources.len() {
                        for triple in self.probe_source(idx, s_alt, p_iri, *o_alt, ctx) {
                            let mut new_row = row.clone();
                            let mut ok = true;
                            if let PatternTerm::Var(v) = &pattern.subject {
                                // Bind the *queried* identity, not the
                                // translated one: sameAs makes them one
                                // individual, and downstream joins may need
                                // either — they get their own translation.
                                let value = match s {
                                    Some(t) => t,
                                    None => Term::Iri(triple.subject),
                                };
                                ok &= bind(&mut new_row.bindings, vars.index_of(v).unwrap(), value);
                            }
                            if ok {
                                if let PatternTerm::Var(v) = &pattern.predicate {
                                    ok &= bind(
                                        &mut new_row.bindings,
                                        vars.index_of(v).unwrap(),
                                        Term::Iri(triple.predicate),
                                    );
                                }
                            }
                            if ok {
                                if let PatternTerm::Var(v) = &pattern.object {
                                    let value = match o {
                                        Some(t) => t,
                                        None => triple.object,
                                    };
                                    ok &= bind(
                                        &mut new_row.bindings,
                                        vars.index_of(v).unwrap(),
                                        value,
                                    );
                                }
                            }
                            if ok {
                                if let Some(l) = s_link {
                                    new_row.links.push(l);
                                }
                                if let Some(l) = o_link {
                                    new_row.links.push(*l);
                                }
                                out.push(new_row);
                            }
                        }
                    }
                }
            }
        }
        // Deduplicate identical (bindings, links) rows produced via
        // different sources matching the same data.
        sort_rows(&mut out);
        out.dedup_by(|a, b| a.bindings == b.bindings && a.links == b.links);
        out
    }
}

/// Sorts rows by their rendered `(bindings, links)`, rendering each row
/// once. Rows with equal keys are identical, so the order — and the
/// dedup that follows — is the same for any sort algorithm.
fn sort_rows(rows: &mut [FedRow]) {
    rows.sort_by_cached_key(|r| format!("{:?}", (&r.bindings, &r.links)));
}

fn pick_next<'p>(
    rows: &[FedRow],
    remaining: &mut Vec<&'p TriplePattern>,
    vars: &VarTable,
) -> &'p TriplePattern {
    let bound: Vec<bool> = (0..vars.len())
        .map(|i| rows.iter().any(|r| r.bindings[i].is_some()))
        .collect();
    let score = |p: &TriplePattern| -> usize {
        [&p.subject, &p.predicate, &p.object]
            .iter()
            .filter(|t| match t {
                PatternTerm::Var(v) => vars.index_of(v).is_some_and(|i| bound[i]),
                _ => true,
            })
            .count()
    };
    let (best, _) = remaining
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| score(p))
        .expect("non-empty");
    remaining.swap_remove(best)
}

fn bind(row: &mut [Option<Term>], idx: usize, value: Term) -> bool {
    match row[idx] {
        Some(existing) => existing == value,
        None => {
            row[idx] = Some(value);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultySource};
    use alex_rdf::Literal;

    /// The paper's motivating example: NYTimes articles about entities that
    /// DBpedia knows facts about, joined through an owl:sameAs link.
    fn federation_fixture() -> (Store, Store, Link) {
        let interner = Interner::new_shared();
        let mut dbpedia = Store::new(interner.clone());
        let mut nytimes = Store::new(interner.clone());

        let lebron_db = dbpedia.intern_iri("http://dbpedia/LeBron_James");
        let award = dbpedia.intern_iri("http://dbpedia/award");
        let mvp = dbpedia.intern_iri("http://dbpedia/NBA_MVP_2013");
        dbpedia.insert_iri(lebron_db, award, mvp);
        let name_db = dbpedia.intern_iri("http://dbpedia/name");
        dbpedia.insert_literal(lebron_db, name_db, Literal::str(&interner, "LeBron James"));

        let lebron_nyt = nytimes.intern_iri("http://nytimes/lebron");
        let about = nytimes.intern_iri("http://nytimes/about");
        for i in 0..3 {
            let article = nytimes.intern_iri(&format!("http://nytimes/article{i}"));
            nytimes.insert_iri(article, about, lebron_nyt);
        }
        // A decoy person with one article.
        let decoy = nytimes.intern_iri("http://nytimes/decoy");
        let article = nytimes.intern_iri("http://nytimes/article_decoy");
        nytimes.insert_iri(article, about, decoy);

        (dbpedia, nytimes, Link::new(lebron_db, lebron_nyt))
    }

    const JOIN_QUERY: &str = "SELECT ?article WHERE { \
        ?player <http://dbpedia/award> <http://dbpedia/NBA_MVP_2013> . \
        ?article <http://nytimes/about> ?player }";

    fn faulty_fed<'a>(
        dbpedia: &'a Store,
        nytimes: &'a Store,
        db_faults: FaultConfig,
        nyt_faults: FaultConfig,
        cfg: FederationConfig,
    ) -> FederatedEngine<'a> {
        FederatedEngine::from_sources(
            vec![
                Box::new(FaultySource::new(
                    InMemorySource::new("dbpedia", dbpedia),
                    db_faults,
                )),
                Box::new(FaultySource::new(
                    InMemorySource::new("nytimes", nytimes),
                    nyt_faults,
                )),
            ],
            cfg,
        )
    }

    #[test]
    fn cross_source_join_uses_links_and_reports_provenance() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);

        // "Find all NYTimes articles about the NBA MVP of 2013."
        let answers = fed.execute_str(JOIN_QUERY).unwrap();
        assert_eq!(answers.len(), 3, "three articles about LeBron: {answers:?}");
        for a in &answers {
            assert_eq!(
                a.links,
                vec![link],
                "every answer depends on the sameAs link"
            );
        }
    }

    #[test]
    fn without_links_the_join_is_empty() {
        let (dbpedia, nytimes, _) = federation_fixture();
        let fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        let answers = fed.execute_str(JOIN_QUERY).unwrap();
        assert!(answers.is_empty());
    }

    #[test]
    fn single_source_answers_have_no_provenance() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);
        let answers = fed
            .execute_str("SELECT ?n WHERE { ?p <http://dbpedia/name> ?n }")
            .unwrap();
        assert_eq!(answers.len(), 1);
        assert!(answers[0].links.is_empty());
    }

    #[test]
    fn constant_subjects_are_translated() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);
        // Ask for articles about the *DBpedia* identity directly.
        let answers = fed
            .execute_str(
                "SELECT ?article WHERE { ?article <http://nytimes/about> <http://dbpedia/LeBron_James> }",
            )
            .unwrap();
        assert_eq!(answers.len(), 3);
        assert_eq!(answers[0].links, vec![link]);
    }

    #[test]
    fn wrong_link_produces_wrong_answers_with_that_provenance() {
        // The feedback loop scenario: a *wrong* link makes the decoy's
        // article show up; rejecting that answer indicts the wrong link.
        let (dbpedia, nytimes, _) = federation_fixture();
        let lebron_db = dbpedia.intern_iri("http://dbpedia/LeBron_James");
        let decoy = nytimes.intern_iri("http://nytimes/decoy");
        let wrong = Link::new(lebron_db, decoy);
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([wrong]);
        let answers = fed.execute_str(JOIN_QUERY).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].links, vec![wrong]);
    }

    #[test]
    fn remove_links_undoes_add_links() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);
        assert_eq!(fed.federation().linked_entities(), 2);
        assert_eq!(fed.federation().peers(link.left), &[link]);
        fed.remove_links([link]);
        assert_eq!(fed.federation().linked_entities(), 0);
        assert!(fed.execute_str(JOIN_QUERY).unwrap().is_empty());
    }

    #[test]
    fn breaker_state_belongs_to_the_engine_not_the_federation() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let dead = FaultConfig {
            outage_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut shared = Federation::new(FederationConfig {
            breaker_cooldown_ms: 1_000_000,
            ..FederationConfig::default()
        });
        shared.add_links([link]);
        let engine = |fed| {
            FederatedEngine::over(
                fed,
                vec![
                    Box::new(InMemorySource::new("dbpedia", &dbpedia)),
                    Box::new(FaultySource::new(
                        InMemorySource::new("nytimes", &nytimes),
                        dead,
                    )),
                ],
            )
        };
        let first = engine(&shared);
        assert!(first.execute_str_report(JOIN_QUERY).unwrap().degraded);
        assert_eq!(first.breaker_states()[1], BreakerKind::Open);
        // The same engine's next query finds the breaker open…
        let report = first.execute_str_report(JOIN_QUERY).unwrap();
        assert_eq!(report.sources[1].probes, 0, "the breaker stayed open");
        // …while a second engine over the same federation starts closed
        // and probes the source again, through the same links.
        let second = engine(&shared);
        assert_eq!(second.breaker_states(), vec![BreakerKind::Closed; 2]);
        assert_eq!(second.virtual_clock_ms(), 0);
        let report = second.execute_str_report(JOIN_QUERY).unwrap();
        assert!(report.sources[1].probes > 0);
        assert!(report.sources[1].outages > 0);
    }

    #[test]
    #[should_panic(expected = "share the federation interner")]
    fn mixed_interners_are_rejected() {
        let a = Store::new(Interner::new_shared());
        let b = Store::new(Interner::new_shared());
        let _ = FederatedEngine::new(vec![("a".into(), &a), ("b".into(), &b)]);
    }

    #[test]
    fn order_by_and_offset_apply_federated() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);
        let answers = fed
            .execute_str(
                "SELECT ?article WHERE { ?article <http://nytimes/about> <http://dbpedia/LeBron_James> } \
                 ORDER BY DESC(?article) OFFSET 1 LIMIT 1",
            )
            .unwrap();
        assert_eq!(answers.len(), 1);
        let iri = answers[0].row[0].expect("bound").as_iri().unwrap();
        // Articles 0..2 sorted descending → [2, 1, 0]; offset 1 → article1.
        assert_eq!(&*fed.interner().resolve(iri.0), "http://nytimes/article1");
    }

    #[test]
    fn distinct_dedups_translated_duplicates() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);
        let answers = fed
            .execute_str("SELECT DISTINCT ?player WHERE { ?player <http://dbpedia/award> ?a }")
            .unwrap();
        assert_eq!(answers.len(), 1);
    }

    // ---- resilience ----

    #[test]
    fn flawless_sources_report_clean_execution() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        fed.add_links([link]);
        let report = fed.execute_str_report(JOIN_QUERY).unwrap();
        assert_eq!(report.answers.len(), 3);
        assert!(!report.degraded);
        assert!(report.skipped_sources().is_empty());
        assert_eq!(report.total_retries(), 0);
        assert_eq!(report.total_timeouts(), 0);
        assert_eq!(report.total_breaker_opens(), 0);
        assert!(report.sources.iter().all(|s| s.probes > 0));
        assert_eq!(fed.virtual_clock_ms(), 0, "in-memory probes are free");
        assert_eq!(
            fed.breaker_states(),
            vec![BreakerKind::Closed, BreakerKind::Closed]
        );
    }

    #[test]
    fn zero_fault_rate_matches_the_plain_engine_exactly() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut plain = FederatedEngine::new(vec![
            ("dbpedia".into(), &dbpedia),
            ("nytimes".into(), &nytimes),
        ]);
        plain.add_links([link]);
        let mut wrapped = faulty_fed(
            &dbpedia,
            &nytimes,
            FaultConfig::default(),
            FaultConfig::default(),
            FederationConfig::default(),
        );
        wrapped.add_links([link]);
        for q in [
            JOIN_QUERY,
            "SELECT ?n WHERE { ?p <http://dbpedia/name> ?n }",
            "SELECT DISTINCT ?player WHERE { ?player <http://dbpedia/award> ?a }",
        ] {
            assert_eq!(
                plain.execute_str(q).unwrap(),
                wrapped.execute_str(q).unwrap(),
                "fault-free wrapped engine must match the plain engine on {q}"
            );
        }
        let report = wrapped.execute_str_report(JOIN_QUERY).unwrap();
        assert!(!report.degraded);
    }

    #[test]
    fn transient_faults_are_retried_away() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = faulty_fed(
            &dbpedia,
            &nytimes,
            FaultConfig::transient(0.3, 0xA1),
            FaultConfig::transient(0.3, 0xA2),
            FederationConfig {
                max_retries: 6,
                ..FederationConfig::default()
            },
        );
        fed.add_links([link]);
        let report = fed.execute_str_report(JOIN_QUERY).unwrap();
        assert_eq!(
            report.answers.len(),
            3,
            "retries recover every answer: {report:?}"
        );
        assert!(report.total_retries() > 0, "the faults were actually hit");
        assert!(!report.degraded);
    }

    #[test]
    fn dead_source_degrades_gracefully_and_trips_the_breaker() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let dead = FaultConfig {
            outage_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut fed = faulty_fed(
            &dbpedia,
            &nytimes,
            FaultConfig::default(),
            dead,
            FederationConfig {
                breaker_cooldown_ms: 1_000_000,
                ..FederationConfig::default()
            },
        );
        fed.add_links([link]);
        let report = fed.execute_str_report(JOIN_QUERY).unwrap();
        // The join needs NYTimes triples, so no full answers survive…
        assert!(report.answers.is_empty());
        // …but the degradation is visible, not silent.
        assert!(report.degraded);
        assert_eq!(report.skipped_sources(), vec!["nytimes"]);
        assert!(report.sources[1].outages > 0);

        // DBpedia-only queries still work while NYTimes is down.
        let report = fed
            .execute_str_report("SELECT ?n WHERE { ?p <http://dbpedia/name> ?n }")
            .unwrap();
        assert_eq!(report.answers.len(), 1);
        assert!(report.degraded, "nytimes is probed and still down");

        // Enough consecutive failures have tripped the breaker; further
        // probes are skipped without even reaching the source.
        assert_eq!(fed.breaker_states()[1], BreakerKind::Open);
        let report = fed.execute_str_report(JOIN_QUERY).unwrap();
        assert!(report.sources[1].breaker_skipped > 0);
        assert_eq!(report.sources[1].probes, 0, "the source was not probed");
        assert_eq!(report.sources[1].outages, 0);
    }

    #[test]
    fn timeouts_consume_budget_until_the_source_is_skipped() {
        let (dbpedia, nytimes, link) = federation_fixture();
        let slow = FaultConfig {
            slow_rate: 1.0,
            slow_latency_ms: 500,
            ..FaultConfig::default()
        };
        let mut fed = faulty_fed(
            &dbpedia,
            &nytimes,
            FaultConfig::default(),
            slow,
            FederationConfig {
                source_budget_ms: 600,
                attempt_timeout_ms: 250,
                ..FederationConfig::default()
            },
        );
        fed.add_links([link]);
        let report = fed.execute_str_report(JOIN_QUERY).unwrap();
        assert!(report.degraded);
        assert_eq!(report.skipped_sources(), vec!["nytimes"]);
        assert!(report.sources[1].timeouts > 0);
        assert!(report.total_timeouts() > 0);
    }

    #[test]
    fn a_query_records_its_span_and_no_event_per_probe() {
        use alex_trace::{Payload, TraceMode};
        let (dbpedia, nytimes, link) = federation_fixture();
        let mut fed = faulty_fed(
            &dbpedia,
            &nytimes,
            FaultConfig::transient(0.3, 0xA1),
            FaultConfig::transient(0.3, 0xA2),
            FederationConfig {
                max_retries: 6,
                ..FederationConfig::default()
            },
        );
        fed.add_links([link]);

        alex_trace::configure(TraceMode::Ring).unwrap();
        let span = alex_trace::root_span("test.query");
        let trace_id = span.trace_id();
        let report = fed.execute_str_report(JOIN_QUERY).unwrap();
        drop(span);
        let events = alex_trace::recorder().trace_events(trace_id);
        alex_trace::configure(TraceMode::Off).unwrap();

        assert!(report.total_retries() > 0, "the faults were actually hit");
        let names: Vec<&str> = (events.iter())
            .map(|e| match &e.payload {
                Payload::SpanStart { name } | Payload::SpanEnd { name, .. } => name.as_str(),
                other => panic!("a query records spans only, got {other:?}"),
            })
            .collect();
        assert_eq!(
            names,
            [
                "test.query",
                "query.federated",
                "query.federated",
                "test.query"
            ]
        );
    }

    #[test]
    fn federation_config_validates() {
        assert!(FederationConfig::default().validate().is_ok());
        let bad = FederationConfig {
            backoff_jitter: 1.5,
            ..FederationConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = FederationConfig {
            source_budget_ms: 0,
            ..FederationConfig::default()
        };
        assert!(bad.validate().is_err());
    }
}
