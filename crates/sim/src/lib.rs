//! # alex-sim — typed value similarity for ALEX
//!
//! Section 4.1 of the paper builds the similarity matrix between two
//! entities "using a similarity function that returns a score in the range
//! \[0, 1\]" and notes that ALEX "uses a generic similarity function that
//! depends on the type of the attributes to be compared (string, integer,
//! float, date, etc.)". This crate is that function:
//!
//! * [`string`] — the two string metrics the similarity combines:
//!   normalized Levenshtein (on a bit-parallel kernel) and token Jaccard,
//!   and a char-histogram lower bound on the edit distance;
//! * [`numeric`] — ratio and half-life similarity for numbers and a distance-decay
//!   similarity for calendar dates;
//! * [`value_similarity`] — the type-dispatching function over RDF
//!   [`alex_rdf::Term`]s, and the reference the table below is tested
//!   against. Strings score `max(Levenshtein, TokenJaccard)`,
//!   case-insensitively; [`SimConfig`] picks only the numeric mode;
//! * [`ValueTable`] — a read-only table built once per pipeline from the
//!   values of both stores: dense ids, string forms computed once per
//!   distinct string, and lock-free scoring equal to [`value_similarity`]
//!   bit for bit. The parallel exploration-space and PARIS pipelines score
//!   through it, asking only whether a score reaches their threshold
//!   ([`ValueTable::similarity_at_least`]), which the bound mostly answers
//!   without an edit distance.
//!
//! Every public metric is guaranteed to return a finite value in `[0, 1]`,
//! to be symmetric in its arguments, and to return exactly `1.0` on equal
//! inputs. The property tests in `tests/` enforce this for all of them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod numeric;
pub mod string;
mod table;
mod value;

pub use table::{CacheStats, Scorer, ValueId, ValueTable};
pub use value::{iri_local_name, value_similarity, NumericSim, SimConfig};
