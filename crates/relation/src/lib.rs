//! # afd-relation
//!
//! Bag-based relation substrate for the AFD measure study (Section III of
//! "Measuring Approximate Functional Dependencies: A Comparative Study",
//! ICDE 2024).
//!
//! Provides:
//! * typed [`Value`]s with NULL, dictionary-encoded columnar [`Relation`]s
//!   with bag semantics,
//! * CSV I/O ([`read_csv`] / [`write_csv`]),
//! * the grouping primitives every measure consumes:
//!   [`ContingencyTable`] (joint frequencies of `X` vs `Y`), its
//!   aggregate [`Summary`] (also tallied straight from a stripped
//!   partition, for every RHS of a [`YMatrix`] in one pass) and exact
//!   [`ShannonSums`], whose float sums are
//!   [`ExactSum`]s (the same bits in every order), and [`Pli`]
//!   (stripped partitions for lattice discovery),
//! * functional dependencies ([`Fd`]) with the paper's NULL semantics, and
//! * structural statistics ([`lhs_uniqueness`], [`rhs_skew`]).
//!
//! ```
//! use afd_relation::{Relation, Fd, AttrId};
//!
//! let rel = Relation::from_pairs([(1, 10), (1, 10), (2, 20), (2, 99)]);
//! let fd = Fd::linear(AttrId(0), AttrId(1));
//! assert!(!fd.holds_in(&rel));
//! let table = fd.contingency(&rel);
//! assert_eq!(table.n(), 4);
//! assert_eq!(table.summary().sum_row_max(), 3); // best FD-satisfying subrelation
//! ```

pub mod cache;
pub mod candidates;
pub mod contingency;
pub mod csv;
pub mod dictionary;
pub mod error;
pub mod fd;
pub mod kernels;
pub mod naive;
pub mod pli;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod tally;
pub mod value;

pub use cache::EncodingCache;
pub use candidates::{linear_candidates, violated_candidates};
pub use contingency::{ContingencyTable, ExactSum, ShannonSums, Summary, YSide};
pub use csv::{read_csv, read_csv_typed, write_csv, CsvKind};
pub use dictionary::{Dictionary, NULL_CODE};
pub use error::RelationError;
pub use fd::Fd;
pub use kernels::{
    combine_codes_with, refine_stripped_into, strip_codes_into, with_scratch, Scratch,
};
pub use pli::Pli;
pub use relation::{Column, GroupEncoding, NullSemantics, Relation};
pub use schema::{AttrId, AttrSet, Schema};
pub use stats::{frequency_skewness, lhs_uniqueness, rhs_skew};
pub use tally::YMatrix;
pub use value::{OrderedF64, Value};
