//! # alex-query — SPARQL-subset engine and federated query processing
//!
//! ALEX sits behind a federated query system (the paper uses FedX): users
//! pose queries spanning several RDF datasets, the federation joins across
//! `owl:sameAs` links, and feedback on the *answers* becomes feedback on
//! the *links* that produced them (§3.2, Figure 1). This crate provides
//! that substrate:
//!
//! * [`parse`] — a recursive-descent parser for the SPARQL subset the
//!   paper's workloads need: basic graph patterns, `PREFIX`, `DISTINCT`,
//!   `FILTER` (comparisons, `CONTAINS`, `STRSTARTS`, `&&`/`||`/`!`),
//!   `LIMIT`;
//! * [`FederatedEngine`] — execution over several named stores with
//!   `owl:sameAs` entity translation and per-answer **link provenance**,
//!   the hook that turns answer feedback into the link feedback ALEX
//!   consumes; its owned half, [`Federation`] (the sameAs index), can
//!   outlive a query and be patched link by link.
//!
//! ```
//! use alex_query::FederatedEngine;
//! use alex_rdf::{Interner, Link, Literal, Store};
//!
//! let interner = Interner::new_shared();
//! let mut db = Store::new(interner.clone());
//! let mut nyt = Store::new(interner.clone());
//!
//! let lebron_db = db.intern_iri("http://db/LeBron");
//! let award = db.intern_iri("http://db/award");
//! let mvp = db.intern_iri("http://db/MVP2013");
//! db.insert_iri(lebron_db, award, mvp);
//!
//! let lebron_nyt = nyt.intern_iri("http://nyt/lebron");
//! let about = nyt.intern_iri("http://nyt/about");
//! let article = nyt.intern_iri("http://nyt/article1");
//! nyt.insert_iri(article, about, lebron_nyt);
//!
//! let mut fed = FederatedEngine::new(vec![("db".into(), &db), ("nyt".into(), &nyt)]);
//! let link = Link::new(lebron_db, lebron_nyt);
//! fed.add_links([link]);
//!
//! let answers = fed.execute_str(
//!     "SELECT ?a WHERE { ?p <http://db/award> <http://db/MVP2013> . \
//!                        ?a <http://nyt/about> ?p }").unwrap();
//! assert_eq!(answers.len(), 1);
//! assert_eq!(answers[0].links, vec![link]); // provenance: feedback target
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
mod exec;
mod federated;
mod parser;
mod same_as;

pub use ast::{
    CompareOp, FilterExpr, FilterOperand, LiteralSpec, OrderKey, PatternTerm, Query, TriplePattern,
    Variable,
};
pub use federated::{
    Answer, FederatedEngine, Federation, FederationConfig, QueryReport, SourceReport,
};
pub use parser::{parse, ParseError};
