//! # alex-serve — the interactive curation server
//!
//! The paper's Figure 1 shows ALEX deployed *behind a query interface*:
//! users pose federated SPARQL queries, see answers with their
//! `owl:sameAs` provenance, and approve or reject them; the feedback
//! flows into the link explorer. This crate is that deployment surface —
//! a small, dependency-free HTTP/1.1 server exposing sessions, queries,
//! feedback, and metrics over TCP.
//!
//! * [`http`] — hand-rolled HTTP/1.1 parsing and response framing with
//!   keep-alive and per-connection timeouts.
//! * [`api`] — the JSON routes (`/sessions`, `…/query`, `…/feedback`,
//!   `…/links`, `…/explain`, `/healthz`, `/metrics`).
//! * [`metrics`] — the `/metrics` page: counters and latency histograms
//!   counted as events happen, and gauges read from the session table,
//!   the connection queue and each session at scrape time.
//! * [`state`] — the shared session table ([`alex_core::SessionHandle`]
//!   per session), connection-queue depth and metrics registry.
//! * [`server`] — acceptor + bounded-queue worker pool (`503` when
//!   saturated) + graceful shutdown that persists session snapshots.
//!
//! ```no_run
//! use alex_serve::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! println!("listening on http://{}", server.local_addr());
//! // ... serve traffic ...
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod http;
pub mod metrics;
pub mod server;
pub mod state;

pub use server::{ServeConfig, Server};
pub use state::{AppState, SessionEntry};
