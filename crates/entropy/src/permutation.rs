//! Generic Monte-Carlo estimation under the (X;Y)-permutation null.
//!
//! [`expected_under_permutations`] estimates `E_R[f(X→Y, R)]` for *any*
//! statistic of the contingency table by sampling random
//! (X;Y)-permutations (Definition 1 of the paper): the X and Y marginals
//! — and therefore `H(Y)`, `pdep(Y)`, `|dom(X)|` — are invariant; only the
//! joint cell structure is resampled.
//!
//! This backs the test suite (validating the closed forms for `E[pdep]`
//! and `E[I]`) and the `expected_mi` ablation bench.

use afd_relation::ContingencyTable;

use crate::expected_mi::expand_codes;

/// Estimates `E[stat(T')]` over random (X;Y)-permutations `T'` of `t` by
/// drawing `samples` shuffles with `rng`.
pub fn expected_under_permutations(
    t: &ContingencyTable,
    samples: usize,
    rng: &mut impl rand::Rng,
    mut stat: impl FnMut(&ContingencyTable) -> f64,
) -> f64 {
    if t.n() == 0 || samples == 0 {
        return 0.0;
    }
    let (x_codes, mut y_codes) = expand_codes(t);
    let mut acc = 0.0;
    for _ in 0..samples {
        for i in (1..y_codes.len()).rev() {
            let j = rng.gen_range(0..=i);
            y_codes.swap(i, j);
        }
        acc += stat(&ContingencyTable::from_codes(&x_codes, &y_codes));
    }
    acc / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{expected_pdep, expected_tau, pdep_xy, pdep_y};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn marginals_are_invariant_under_permutation() {
        let t = ContingencyTable::from_counts(&[vec![3, 1, 0], vec![1, 2, 2]]);
        let mut rng = StdRng::seed_from_u64(1);
        let hy = |t: &ContingencyTable| crate::shannon::shannon_y(&t.shannon_sums());
        let avg_hy = expected_under_permutations(&t, 50, &mut rng, hy);
        let hy = hy(&t);
        assert!((hy - avg_hy).abs() < 1e-12);
    }

    #[test]
    fn closed_form_expected_pdep_matches_sampling() {
        let t = ContingencyTable::from_counts(&[vec![4, 2], vec![1, 3], vec![2, 2]]);
        let mut rng = StdRng::seed_from_u64(42);
        let sampled = expected_under_permutations(&t, 5000, &mut rng, |t2| pdep_xy(&t2.summary()));
        let closed = expected_pdep(&t.summary());
        assert!(
            (sampled - closed).abs() < 0.01,
            "sampled={sampled} closed={closed}"
        );
    }

    #[test]
    fn closed_form_expected_tau_matches_sampling() {
        let t = ContingencyTable::from_counts(&[vec![4, 2], vec![1, 3], vec![2, 2]]);
        let py = pdep_y(&t.summary());
        let tau = move |t2: &ContingencyTable| (pdep_xy(&t2.summary()) - py) / (1.0 - py);
        let mut rng = StdRng::seed_from_u64(43);
        let sampled = expected_under_permutations(&t, 5000, &mut rng, tau);
        let closed = expected_tau(&t.summary());
        assert!(
            (sampled - closed).abs() < 0.01,
            "sampled={sampled} closed={closed}"
        );
    }

    #[test]
    fn empty_table_returns_zero() {
        let t = ContingencyTable::from_counts(&[]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(expected_under_permutations(&t, 10, &mut rng, |_| 1.0), 0.0);
    }
}
