//! The federated query source abstraction.
//!
//! The paper's setting is a federation over *remote* SPARQL endpoints, and
//! remote endpoints fail: they time out, drop connections mid-response, or
//! go down for minutes at a time (the availability problem Umbrich et al.
//! document for decentralised linked-data querying). [`QuerySource`]
//! abstracts the one operation [`crate::FederatedEngine`] needs — a triple
//! pattern probe — behind a fallible, latency-aware interface so the
//! engine can apply deadlines, retries, and circuit breaking uniformly.
//!
//! Only simulated remote sources fail: [`crate::fault::FaultySource`]
//! wraps an [`InMemorySource`] and injects faults. An [`InMemorySource`]
//! always answers ([`Probe::ok`]) at zero cost, so over in-memory stores
//! alone — a curation session's two datasets — no probe is retried, timed
//! out or skipped and no breaker opens.
//!
//! Time is *virtual*: a probe reports how many milliseconds it consumed
//! ([`Probe::elapsed_ms`]), and the engine charges that against per-source
//! budgets. In-memory sources report zero cost, which keeps fault-free
//! execution bit-identical to the pre-trait engine and makes fault
//! injection fully deterministic — no wall clocks, no sleeps.

use std::sync::Arc;

use alex_rdf::{Interner, IriId, Store, Term, Triple};

/// Why a source probe failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceError {
    /// The probe did not complete within the deadline it was given.
    /// Retryable while the source's budget lasts.
    Timeout,
    /// A transient fault (connection reset, HTTP 5xx, …). Retryable.
    Transient(String),
    /// The response arrived incomplete: `got` of `expected` triples before
    /// the connection dropped. The partial data is discarded (using it
    /// would silently lose answers); retryable.
    Truncated {
        /// Triples received before the cut.
        got: usize,
        /// Triples the full answer set contains.
        expected: usize,
    },
    /// The source is down hard (connection refused, DNS failure). Not
    /// retryable within this query; trips the circuit breaker immediately.
    Unavailable(String),
}

impl SourceError {
    /// Whether the engine may retry the probe (within budget).
    pub fn is_retryable(&self) -> bool {
        !matches!(self, SourceError::Unavailable(_))
    }
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Timeout => write!(f, "probe timed out"),
            SourceError::Transient(m) => write!(f, "transient error: {m}"),
            SourceError::Truncated { got, expected } => {
                write!(f, "truncated answer set ({got} of {expected} triples)")
            }
            SourceError::Unavailable(m) => write!(f, "source unavailable: {m}"),
        }
    }
}

/// The outcome of one triple-pattern probe against a source.
#[derive(Clone, Debug)]
pub struct Probe {
    /// The matching triples, or why the probe failed.
    pub result: Result<Vec<Triple>, SourceError>,
    /// Virtual milliseconds the probe consumed (simulated latency for
    /// fault-injected sources, `0` for in-memory stores). Charged against
    /// the source's per-query budget by the engine.
    pub elapsed_ms: u64,
}

impl Probe {
    /// A zero-cost successful probe.
    pub fn ok(triples: Vec<Triple>) -> Self {
        Probe {
            result: Ok(triples),
            elapsed_ms: 0,
        }
    }

    /// A failed probe that consumed `elapsed_ms`.
    pub fn fail(error: SourceError, elapsed_ms: u64) -> Self {
        Probe {
            result: Err(error),
            elapsed_ms,
        }
    }
}

/// One member of a federation: anything that can answer triple-pattern
/// probes. Implementations must share the federation's [`Interner`].
pub trait QuerySource: Send + Sync {
    /// The source's name, used in reports, metrics, and error messages.
    fn name(&self) -> &str;

    /// The interner this source's ids resolve through.
    fn interner(&self) -> &Arc<Interner>;

    /// Matches a triple pattern (`None` positions are wildcards) under a
    /// completion deadline of `deadline_ms` virtual milliseconds.
    ///
    /// Implementations must be deterministic: the same probe in the same
    /// source state yields the same [`Probe`].
    fn probe(
        &self,
        subject: Option<IriId>,
        predicate: Option<IriId>,
        object: Option<Term>,
        deadline_ms: u64,
    ) -> Probe;
}

/// A flawless, zero-latency [`QuerySource`] over an in-memory [`Store`].
pub struct InMemorySource<'a> {
    name: String,
    store: &'a Store,
}

impl<'a> InMemorySource<'a> {
    /// Wraps a store under a federation-visible name.
    pub fn new(name: impl Into<String>, store: &'a Store) -> Self {
        Self {
            name: name.into(),
            store,
        }
    }

    /// The wrapped store.
    pub fn store(&self) -> &'a Store {
        self.store
    }
}

impl QuerySource for InMemorySource<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn interner(&self) -> &Arc<Interner> {
        self.store.interner()
    }

    fn probe(
        &self,
        subject: Option<IriId>,
        predicate: Option<IriId>,
        object: Option<Term>,
        _deadline_ms: u64,
    ) -> Probe {
        Probe::ok(
            self.store
                .match_pattern(subject, predicate, object)
                .copied()
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_source_is_flawless_and_free() {
        let interner = Interner::new_shared();
        let mut store = Store::new(interner);
        let s = store.intern_iri("http://x/s");
        let p = store.intern_iri("http://x/p");
        let o = store.intern_iri("http://x/o");
        store.insert_iri(s, p, o);

        let src = InMemorySource::new("mem", &store);
        assert_eq!(src.name(), "mem");
        let probe = src.probe(Some(s), None, None, 0);
        assert_eq!(probe.elapsed_ms, 0);
        assert_eq!(probe.result.unwrap().len(), 1);
        let probe = src.probe(None, Some(p), Some(Term::Iri(o)), 1000);
        assert_eq!(probe.result.unwrap().len(), 1);
    }

    #[test]
    fn source_error_display_and_retryability() {
        assert!(SourceError::Timeout.is_retryable());
        assert!(SourceError::Transient("reset".into()).is_retryable());
        assert!(SourceError::Truncated {
            got: 3,
            expected: 9
        }
        .is_retryable());
        assert!(!SourceError::Unavailable("refused".into()).is_retryable());
        assert!(SourceError::Timeout.to_string().contains("timed out"));
        assert!(SourceError::Truncated {
            got: 3,
            expected: 9
        }
        .to_string()
        .contains("3 of 9"));
    }
}
