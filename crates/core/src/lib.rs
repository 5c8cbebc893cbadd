//! # afd-core
//!
//! The 14 approximate-functional-dependency (AFD) measures from
//! "Measuring Approximate Functional Dependencies: A Comparative Study"
//! (ICDE 2024), behind one [`Measure`] trait.
//!
//! | Class | Measures |
//! |---|---|
//! | VIOLATION | ρ, g2, g3, g3′ |
//! | SHANNON | g1ˢ, FI, RFI⁺, RFI′⁺, SFI(α) |
//! | LOGICAL | g1, g1′, pdep, τ, µ⁺ |
//!
//! Every measure maps `(FD, relation)` to `[0, 1]` with the paper's
//! conventions: NULL-containing tuples are dropped per candidate, exactly
//! satisfied FDs score 1, and the formulas are only evaluated on violated,
//! non-empty tables (so denominators are never zero).
//!
//! The paper's recommendation for practice is [`MuPlus`] (`µ⁺`):
//! insensitive to LHS-uniqueness and RHS-skew like `RFI′⁺`, but cheap.
//!
//! ```
//! use afd_relation::{Relation, Fd, AttrId};
//! use afd_core::{MuPlus, Measure, all_measures};
//!
//! // An FD zip -> city with one error.
//! let rel = Relation::from_pairs([
//!     (10, 1), (10, 1), (10, 1), (20, 2), (20, 2), (20, 9),
//! ]);
//! let fd = Fd::linear(AttrId(0), AttrId(1));
//! let score = MuPlus.score(&rel, &fd);
//! assert!(score > 0.0 && score < 1.0);
//!
//! // Score under every measure of the study:
//! for m in all_measures() {
//!     let s = m.score(&rel, &fd);
//!     assert!((0.0..=1.0).contains(&s));
//! }
//! ```

pub mod extensions;
pub mod logical_measures;
pub mod measure;
pub mod registry;
pub mod shannon_measures;
pub mod violation;

pub use extensions::{extended_measures, RfiMcPlus};
pub use logical_measures::{G1Prime, MuPlus, Pdep, Tau, G1};
pub use measure::{score_summary, Measure, MeasureClass, MeasureProperties, Tribool};
pub use registry::{all_measures, fast_measures, fast_scores, measure_by_name};
pub use shannon_measures::{sfi_closed_form, Fi, RfiPlus, RfiPrimePlus, Sfi, G1S};
pub use violation::{G3Prime, Rho, G2, G3};
