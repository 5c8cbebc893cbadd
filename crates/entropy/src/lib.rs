//! # afd-entropy
//!
//! Shannon and logical entropy machinery for AFD measures (Section III of
//! the paper), including the permutation-null expectations that the
//! bias-corrected measures (`RFI⁺`, `RFI'⁺`, `µ⁺`) require:
//!
//! * [`shannon`]: `H(X)`, `H(Y)`, `H(Y|X)`, `I(X;Y)` in bits, from a
//!   table's exact Shannon sums;
//! * [`logical`]: `h(X)`, `h(Y|X)`, `E_x[h(Y|x)]`, `pdep`, and the
//!   closed-form `E[pdep]` / `E[τ]` of Theorem 1;
//! * [`expected_mi`]: exact `E[I(X;Y)]` under random (X;Y)-permutations
//!   (the hypergeometric sum) plus a Monte-Carlo estimator;
//! * [`permutation`]: generic Monte-Carlo expectation of any contingency
//!   statistic under the permutation null.
//!
//! ```
//! use afd_relation::ContingencyTable;
//! use afd_entropy::{mutual_information, expected_mi_exact};
//!
//! let t = ContingencyTable::from_counts(&[vec![3, 1], vec![0, 4]]);
//! let observed = mutual_information(&t.shannon_sums());
//! let expected = expected_mi_exact(&t); // bias under the null
//! assert!(observed > expected);
//! ```

pub mod expected_mi;
pub mod lfact;
pub mod logical;
pub mod permutation;
pub mod shannon;

pub use expected_mi::{expected_mi_cost, expected_mi_exact, expected_mi_monte_carlo};
pub use lfact::LogFactorial;
pub use logical::{
    expected_pdep, expected_tau, logical_x, logical_y, logical_y_given_x, pdep_xy, pdep_y,
};
pub use permutation::expected_under_permutations;
pub use shannon::{mutual_information, shannon_x, shannon_xy, shannon_y, shannon_y_given_x};
