//! # afd-discovery
//!
//! AFD discovery algorithms built on the measures of `afd-core`:
//!
//! * [`threshold`]: the paper's induced discovery algorithm `A_f^ε` over
//!   linear candidates, run as the first level of the lattice below;
//! * [`lattice`]: TANE-style levelwise search for minimal **non-linear**
//!   AFDs (multi-attribute LHS) on stripped partitions, in one lattice
//!   shared by every RHS (each LHS set refined once per call, then
//!   scored against every RHS it is a candidate for), with fused
//!   refine+score parallel levels, per-RHS exactness + minimality
//!   pruning, and candidates of the aggregate-only measures (ρ, g2, g3,
//!   g3′, g1′, pdep, τ, µ⁺) scored from a one-pass tally of the stripped
//!   partition instead of a contingency table — the use case for which the paper recommends the
//!   LHS-uniqueness-insensitive measures (g3′, RFI′⁺, µ⁺);
//! * [`naive_lattice`]: the retained full-codes lattice (`O(rows)` per
//!   node, sequential per-child clone + refine) — the reference the
//!   stripped lattice is proptest-pinned against bit for bit, mirroring
//!   `afd_relation::naive`.
//!
//! ```
//! use afd_discovery::{discover_linear};
//! use afd_core::MuPlus;
//! use afd_relation::Relation;
//!
//! let rel = Relation::from_pairs((0..100).map(|i| {
//!     let x = i as u64 % 10;
//!     (x, if i == 3 { 99 } else { x % 3 })
//! }));
//! let found = discover_linear(&rel, &MuPlus, 0.5);
//! assert_eq!(found.len(), 1); // X -> Y, despite the error
//! ```

pub mod lattice;
pub mod naive_lattice;
pub mod threshold;

pub use lattice::{
    discover_all, discover_all_threaded, discover_for_rhs, discover_for_rhs_threaded,
    try_discover_all_stats, try_discover_for_rhs_stats, LatticeConfig, LatticeError, LatticeStats,
    LevelStats, DEFAULT_EPSILON,
};
pub use threshold::{discover_linear, rank_linear, Discovered};
