//! Expected mutual information under the (X;Y)-permutation null model.
//!
//! `RFI` and `RFI'⁺` (Section IV-C) correct FI by the expected value of
//! `I(X;Y)` over all relations with the same `X` and `Y` marginals — the
//! permutation model. The expectation has an exact closed form (the same
//! hypergeometric sum used by Adjusted Mutual Information and by Mandros
//! et al.'s reliable-FI algorithms):
//!
//! ```text
//! E[I] = Σ_i Σ_j  Σ_{n = max(1, a_i+b_j−N)}^{min(a_i, b_j)}
//!        (n/N) · log2(N·n / (a_i·b_j)) · P_hyp(n; a_i, b_j, N)
//! ```
//!
//! This is Θ(K_X · K_Y · overlap) work — intrinsically expensive, which is
//! exactly why the paper finds RFI-family measures impractically slow
//! (Table V). A Monte-Carlo estimator is provided as the cheap alternative
//! (ablation `expected_mi` in the bench crate).

use afd_relation::ContingencyTable;
use std::collections::HashMap;

use crate::lfact::LogFactorial;

/// Exact `E[I(X;Y)]` in bits under random (X;Y)-permutations.
///
/// Identical row/column totals are grouped so the cost scales with the
/// number of *distinct* margin values, not the raw dimensions.
pub fn expected_mi_exact(t: &ContingencyTable) -> f64 {
    let n = t.n();
    if n == 0 {
        return 0.0;
    }
    let lf = LogFactorial::new(n as usize);
    // Histogram the margins: many groups share the same size. Sorted so
    // the floating-point summation order — and hence the result bits —
    // never depends on hash iteration order.
    let hist = |totals: &[u64]| -> Vec<(u64, u64)> {
        let mut h: HashMap<u64, u64> = HashMap::new();
        for &v in totals {
            *h.entry(v).or_insert(0) += 1;
        }
        let mut v: Vec<(u64, u64)> = h.into_iter().collect();
        v.sort_unstable();
        v
    };
    // Implicit singleton groups (stripped-lattice tables) are row totals
    // of 1 that are not materialised; folding them into the histogram
    // reproduces the full-codes histogram exactly — the expectation only
    // depends on the margins, so RFI-family scores stay bit-identical.
    let mut row_hist = hist(t.row_totals());
    let implicit = t.implicit_singletons();
    if implicit > 0 {
        match row_hist.iter_mut().find(|e| e.0 == 1) {
            Some(e) => e.1 += implicit,
            None => {
                row_hist.push((1, implicit));
                row_hist.sort_unstable();
            }
        }
    }
    let col_hist = hist(t.col_totals());
    let nf = n as f64;
    let ln2 = std::f64::consts::LN_2;
    let mut total = 0.0f64;
    for &(a, ca) in &row_hist {
        for &(b, cb) in &col_hist {
            let lo = 1.max((a + b).saturating_sub(n));
            let hi = a.min(b);
            if lo > hi {
                continue;
            }
            // ln P(lo) via log-factorials, then the standard recurrence.
            let mut ln_p = lf.ln_choose(b, lo) + lf.ln_choose(n - b, a - lo) - lf.ln_choose(n, a);
            let mut inner = 0.0f64;
            let mut k = lo;
            loop {
                let p = ln_p.exp();
                let term = (k as f64 / nf) * ((nf * k as f64) / (a as f64 * b as f64)).ln() / ln2;
                inner += term * p;
                if k == hi {
                    break;
                }
                // P(k+1)/P(k) = (a−k)(b−k) / ((k+1)(N−a−b+k+1)).
                // k ≥ a+b−N, so N+k+1−a−b ≥ 1 and the u64 arithmetic below
                // cannot underflow (unlike the naive left-to-right order).
                ln_p += (((a - k) * (b - k)) as f64).ln()
                    - (((k + 1) * (n + k + 1 - a - b)) as f64).ln();
                k += 1;
            }
            total += (ca * cb) as f64 * inner;
        }
    }
    total.max(0.0)
}

/// Approximate work estimate of [`expected_mi_exact`] — used by the
/// evaluation harness's time budgeting to decide which candidates the
/// slow measures can afford (the paper's RWD⁻ mechanism).
pub fn expected_mi_cost(t: &ContingencyTable) -> u64 {
    let n = t.n();
    // Distinct margins × average overlap; a coarse but monotone proxy.
    let kx = t.n_x() as u64;
    let ky = t.n_y() as u64;
    let avg_a = n.checked_div(kx).unwrap_or(0);
    kx * ky * (1 + avg_a.min(ky.max(1))) + n
}

/// Monte-Carlo estimate of `E[I(X;Y)]` (bits): shuffles the Y codes among
/// rows `samples` times and averages the sample MI.
pub fn expected_mi_monte_carlo(
    t: &ContingencyTable,
    samples: usize,
    rng: &mut impl rand::Rng,
) -> f64 {
    if t.n() == 0 || samples == 0 {
        return 0.0;
    }
    let (x_codes, mut y_codes) = expand_codes(t);
    let mut acc = 0.0;
    for _ in 0..samples {
        shuffle(&mut y_codes, rng);
        let perm = ContingencyTable::from_codes(&x_codes, &y_codes);
        acc += crate::shannon::mutual_information(&perm.shannon_sums());
    }
    acc / samples as f64
}

/// Expands a contingency table back into parallel per-row code vectors
/// (one entry per tuple). Implicit singleton groups are materialised
/// with fresh X ids and their recovered Y values
/// ([`ContingencyTable::implicit_col_counts`]).
pub fn expand_codes(t: &ContingencyTable) -> (Vec<u32>, Vec<u32>) {
    let n = t.n() as usize;
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for (i, j, c) in t.cells() {
        for _ in 0..c {
            xs.push(i as u32);
            ys.push(j as u32);
        }
    }
    if t.implicit_singletons() > 0 {
        let mut next_x = t.n_explicit_x() as u32;
        for (j, c) in t.implicit_col_counts().into_iter().enumerate() {
            for _ in 0..c {
                xs.push(next_x);
                ys.push(j as u32);
                next_x += 1;
            }
        }
    }
    (xs, ys)
}

fn shuffle(v: &mut [u32], rng: &mut impl rand::Rng) {
    // Fisher–Yates; `rand::seq::SliceRandom` would pull in more of the rand
    // API surface than we need here.
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shannon::{mutual_information, shannon_x, shannon_y};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unique_lhs_expected_mi_equals_hy() {
        // All a_i = 1: every permutation is a bijection rows->values, so
        // I = H(Y) under every permutation.
        let t = ContingencyTable::from_counts(&[
            vec![1, 0, 0],
            vec![0, 1, 0],
            vec![0, 1, 0],
            vec![0, 0, 1],
        ]);
        let e = expected_mi_exact(&t);
        assert!((e - shannon_y(&t.shannon_sums())).abs() < 1e-10, "e={e}");
    }

    #[test]
    fn constant_y_expected_mi_zero() {
        let t = ContingencyTable::from_counts(&[vec![3], vec![2]]);
        assert_eq!(expected_mi_exact(&t), 0.0);
    }

    #[test]
    fn expected_mi_bounded_by_marginals() {
        let t = ContingencyTable::from_counts(&[vec![4, 1, 0], vec![0, 3, 2], vec![1, 1, 1]]);
        let e = expected_mi_exact(&t);
        assert!(e >= 0.0);
        assert!(e <= shannon_x(&t.shannon_sums()).min(shannon_y(&t.shannon_sums())) + 1e-12);
    }

    #[test]
    fn exact_matches_monte_carlo() {
        let t = ContingencyTable::from_counts(&[vec![5, 2, 1], vec![1, 4, 0], vec![2, 0, 3]]);
        let exact = expected_mi_exact(&t);
        let mut rng = StdRng::seed_from_u64(7);
        let mc = expected_mi_monte_carlo(&t, 4000, &mut rng);
        assert!((exact - mc).abs() < 0.02, "exact={exact} monte-carlo={mc}");
    }

    #[test]
    fn exact_matches_brute_force_on_tiny_table() {
        // N = 4, margins a = [2,2], b = [2,2]. Enumerate all 4! = 24
        // assignments of y-values to rows and average I.
        let t = ContingencyTable::from_counts(&[vec![2, 0], vec![0, 2]]);
        let (xs, ys) = expand_codes(&t);
        let mut perm = ys.clone();
        let mut total = 0.0;
        let mut count = 0usize;
        permute(&mut perm, 0, &mut |p: &[u32]| {
            let pt = ContingencyTable::from_codes(&xs, p);
            total += mutual_information(&pt.shannon_sums());
            count += 1;
        });
        let brute = total / count as f64;
        let exact = expected_mi_exact(&t);
        assert!((brute - exact).abs() < 1e-10, "brute={brute} exact={exact}");
    }

    fn permute(v: &mut Vec<u32>, k: usize, f: &mut impl FnMut(&[u32])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn expected_mi_positive_even_for_independent_data() {
        // The Roulston bias: even independent marginals give E[I] > 0.
        let t = ContingencyTable::from_counts(&[vec![2, 2], vec![2, 2]]);
        assert!(expected_mi_exact(&t) > 0.0);
    }

    #[test]
    fn expand_codes_roundtrip() {
        let t = ContingencyTable::from_counts(&[vec![2, 1], vec![0, 3]]);
        let (xs, ys) = expand_codes(&t);
        let back = ContingencyTable::from_codes(&xs, &ys);
        assert_eq!(back.n(), t.n());
        assert_eq!(back.sum_sq_cells(), t.sum_sq_cells());
    }

    #[test]
    fn cost_is_monotone_in_size() {
        let small = ContingencyTable::from_counts(&[vec![1, 1], vec![1, 1]]);
        let big = ContingencyTable::from_counts(&[
            vec![5, 5, 5, 5],
            vec![5, 5, 5, 5],
            vec![5, 5, 5, 5],
            vec![5, 5, 5, 5],
        ]);
        assert!(expected_mi_cost(&big) > expected_mi_cost(&small));
    }
}
