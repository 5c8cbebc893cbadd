//! Extension measures beyond the paper's fourteen.
//!
//! The paper's conclusion laments that `RFI'⁺` — its best-ranking measure
//! — is "essentially useless in practice" because the exact permutation
//! expectation is so expensive, and leaves faster estimation as future
//! work. [`RfiMcPlus`] takes the obvious step: estimate `E[I]` by
//! Monte-Carlo permutation sampling instead of the exact hypergeometric
//! sum. With a few dozen samples it tracks `RFI'⁺`'s ranking closely at a
//! fraction of the cost (see the `ablation_expected_mi` bench).

use afd_entropy::{expected_mi_monte_carlo, shannon_y};
use afd_relation::ContingencyTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{Measure, MeasureClass, MeasureProperties, Tribool};
use crate::shannon_measures::Fi;

/// Monte-Carlo `RFI'⁺`: the normalised reliable fraction of information
/// with `E[I]` estimated from random (X;Y)-permutations.
///
/// Deterministic: the sampler is seeded from the table's margins, so the
/// same candidate always gets the same score.
pub struct RfiMcPlus {
    samples: usize,
}

impl RfiMcPlus {
    /// Uses `samples` permutation draws per candidate.
    ///
    /// # Panics
    /// Panics if `samples == 0` (programmer error; the estimate would be
    /// undefined).
    pub fn new(samples: usize) -> Self {
        assert!(samples > 0, "need at least one permutation sample");
        RfiMcPlus { samples }
    }

    /// A practical default (32 samples): ranking quality within noise of
    /// the exact variant on the study's benchmarks.
    pub fn default_samples() -> Self {
        RfiMcPlus::new(32)
    }

    fn seed_for(t: &ContingencyTable) -> u64 {
        // FNV-style fold over the margins: deterministic per table.
        let mut h = 0xcbf29ce484222325u64;
        for &v in t.row_totals().iter().chain(t.col_totals()) {
            h = (h ^ v).wrapping_mul(0x100000001b3);
        }
        h
    }
}

impl Measure for RfiMcPlus {
    fn name(&self) -> &'static str {
        "RFI'mc+"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Shannon
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "extension (this repository)",
            has_baselines: true,
            efficiently_computable: true,
            inverse_to_error: Tribool::Yes,
            insensitive_lhs_uniqueness: Tribool::Yes,
            insensitive_rhs_skew: Tribool::Yes,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        let h = t.shannon_sums();
        let (hy, fi) = (shannon_y(&h), Fi::formula(&h));
        let mut rng = StdRng::seed_from_u64(Self::seed_for(t));
        let efi = expected_mi_monte_carlo(t, self.samples, &mut rng) / hy;
        let denom = 1.0 - efi;
        if denom <= f64::EPSILON {
            return 0.0;
        }
        ((fi - efi) / denom).max(0.0)
    }

    fn bit_exact_on_implicit_singletons(&self) -> bool {
        // The Monte-Carlo seed folds the (explicit-only) row margins and
        // the expansion order differs, so the sampled expectation is not
        // bit-pinned against the full-codes table.
        false
    }
}

/// The 14 paper measures plus the extensions of this repository.
pub fn extended_measures() -> Vec<Box<dyn Measure>> {
    let mut ms = crate::registry::all_measures();
    ms.push(Box::new(RfiMcPlus::default_samples()));
    ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shannon_measures::RfiPrimePlus;

    #[test]
    fn deterministic_per_table() {
        let t = ContingencyTable::from_counts(&[vec![9, 1], vec![2, 8], vec![1, 1]]);
        let m = RfiMcPlus::new(16);
        assert_eq!(m.score_contingency(&t), m.score_contingency(&t));
    }

    #[test]
    fn tracks_exact_rfi_prime() {
        let tables = [
            vec![vec![40u64, 2], vec![1, 37]],
            vec![vec![5, 5], vec![5, 5]],
            vec![vec![20, 1, 0], vec![0, 15, 2], vec![1, 0, 18]],
        ];
        let mc = RfiMcPlus::new(256);
        for counts in tables {
            let t = ContingencyTable::from_counts(&counts);
            let exact = RfiPrimePlus.score_contingency(&t);
            let approx = mc.score_contingency(&t);
            assert!(
                (exact - approx).abs() < 0.08,
                "exact={exact} approx={approx}"
            );
        }
    }

    #[test]
    fn independent_table_scores_zero() {
        let t = ContingencyTable::from_counts(&[vec![2, 4], vec![4, 8]]);
        assert_eq!(RfiMcPlus::new(64).score_contingency(&t), 0.0);
    }

    #[test]
    fn extended_registry_has_fifteen() {
        let names: Vec<&str> = extended_measures().iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 15);
        assert!(names.contains(&"RFI'mc+"));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_samples_panics() {
        RfiMcPlus::new(0);
    }
}
