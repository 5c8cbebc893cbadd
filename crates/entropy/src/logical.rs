//! Logical entropy (Ellerman) over contingency tables, plus the closed-form
//! expectations from Piatetsky-Shapiro & Matheus (Theorem 1 of the paper).
//!
//! Logical entropy `h(X)` is the probability that two tuples drawn with
//! replacement differ on `X`; conditionally, `h_R(Y|X)` is the probability
//! they agree on `X` but differ on `Y`. Unlike Shannon entropy,
//! `h_R(Y|X) ≠ E_x[h_R(Y|x)]`: the former is [`logical_y_given_x`] (read
//! by `g1`), the latter `1 − pdep` (Lemma 3, [`pdep_xy`]).
//!
//! Every helper reads only table aggregates, so it takes a [`Summary`] —
//! of a built table
//! ([`ContingencyTable::summary`](afd_relation::ContingencyTable::summary)),
//! tallied straight from a stripped partition, or maintained by a stream.
//! The pdep family reads the summary's exact `Σ sq/a`, so its scores have
//! the same bits whatever the row or group order.

use afd_relation::Summary;

/// `h_R(X) = 1 − Σ_i p_i²`: marginal logical entropy of the X side.
pub fn logical_x(s: &Summary) -> f64 {
    if s.n() == 0 {
        return 0.0;
    }
    let n2 = (s.n() as f64) * (s.n() as f64);
    1.0 - s.sum_sq_rows() as f64 / n2
}

/// `h_R(Y) = 1 − Σ_j q_j²`: marginal logical entropy of the Y side.
/// Equals `1 − pdep(Y, R)`.
pub fn logical_y(s: &Summary) -> f64 {
    if s.n() == 0 {
        return 0.0;
    }
    let n2 = (s.n() as f64) * (s.n() as f64);
    1.0 - s.sum_sq_cols() as f64 / n2
}

/// `h_R(Y|X) = Σ_ij p_ij (p_i − p_ij)`: the probability that two random
/// tuples agree on `X` but differ on `Y`. `Σ_ij n_ij (a_i − n_ij)` is
/// `Σ a² − Σ n²`, an exact integer.
pub fn logical_y_given_x(s: &Summary) -> f64 {
    if s.n() == 0 {
        return 0.0;
    }
    let n2 = (s.n() as f64) * (s.n() as f64);
    (s.sum_sq_rows() - s.sum_sq_cells()) as f64 / n2
}

/// `pdep(X → Y, R) = Σ_i (Σ_j n_ij²)/a_i / N` (Section IV-D), from the
/// summary's exact sum; 1 on an empty table. Each `sq/a ≤ a`, so the
/// rounded sum stays `≤ N` and the score `≤ 1`.
pub fn pdep_xy(s: &Summary) -> f64 {
    if s.n() == 0 {
        return 1.0;
    }
    s.pdep_sum().value() / s.n() as f64
}

/// `pdep(Y, R) = Σ_j q_j² = 1 − h_R(Y)`: probabilistic self-dependency.
pub fn pdep_y(s: &Summary) -> f64 {
    1.0 - logical_y(s)
}

/// `E_R[pdep(X→Y, R)]` under random (X;Y)-permutations — the closed form
/// of Theorem 1: `pdep(Y) + (K−1)/(N−1) · (1 − pdep(Y))` with
/// `K = |dom_R(X)|`. Requires `N ≥ 2`; returns 1.0 for degenerate tables
/// (which the measure layer treats as exact FDs anyway).
pub fn expected_pdep(s: &Summary) -> f64 {
    let n = s.n();
    if n < 2 {
        return 1.0;
    }
    let k = s.n_x() as f64;
    let py = pdep_y(s);
    py + (k - 1.0) / (n as f64 - 1.0) * (1.0 - py)
}

/// `E_R[τ(X→Y, R)] = (K−1)/(N−1)` (Theorem 1).
pub fn expected_tau(s: &Summary) -> f64 {
    let n = s.n();
    if n < 2 {
        return 1.0;
    }
    (s.n_x() as f64 - 1.0) / (n as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_relation::ContingencyTable;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn marginal_logical_entropy_known_values() {
        // Uniform over 2 values: h = 1 − 2·(1/2)² = 1/2.
        let t = ContingencyTable::from_counts(&[vec![1, 0], vec![0, 1]]);
        assert!(close(logical_x(&t.summary()), 0.5));
        assert!(close(logical_y(&t.summary()), 0.5));
    }

    #[test]
    fn single_value_zero_entropy() {
        let t = ContingencyTable::from_counts(&[vec![7]]);
        assert_eq!(logical_x(&t.summary()), 0.0);
        assert_eq!(logical_y(&t.summary()), 0.0);
        assert_eq!(logical_y_given_x(&t.summary()), 0.0);
    }

    #[test]
    fn conditional_zero_iff_fd_holds() {
        let fd = ContingencyTable::from_counts(&[vec![4, 0], vec![0, 3]]);
        assert_eq!(logical_y_given_x(&fd.summary()), 0.0);
        assert_eq!(pdep_xy(&fd.summary()), 1.0);
        let no_fd = ContingencyTable::from_counts(&[vec![2, 2]]);
        assert!(logical_y_given_x(&no_fd.summary()) > 0.0);
    }

    #[test]
    fn conditional_logical_hand_computed() {
        // One x group: counts 2,2 over y. N=4.
        // h(Y|X) = Σ p_ij(p_i − p_ij) = 2 · (2/4)(4/4 − 2/4) = 0.5
        let t = ContingencyTable::from_counts(&[vec![2, 2]]);
        assert!(close(logical_y_given_x(&t.summary()), 0.5));
        // E_x[h(Y|x)] = 1 · (1 − 2·(1/2)²) = 0.5 here (single group),
        // and it is 1 − pdep (Lemma 3).
        assert!(close(1.0 - pdep_xy(&t.summary()), 0.5));
    }

    #[test]
    fn conditional_ne_expected_conditional_in_general() {
        // Two x-groups with different sizes: the two notions differ.
        let t = ContingencyTable::from_counts(&[vec![3, 1], vec![1, 1]]);
        let h = logical_y_given_x(&t.summary());
        let e = 1.0 - pdep_xy(&t.summary()); // E_x[h(Y|x)], Lemma 3
        assert!((h - e).abs() > 1e-3, "h={h} e={e}");
    }

    #[test]
    fn pdep_identities() {
        let t = ContingencyTable::from_counts(&[vec![3, 1], vec![0, 4]]);
        // pdep = Σ_i (Σ_j n_ij²/a_i) / N = (10/4 + 16/4) / 8.
        assert!(close(pdep_xy(&t.summary()), 6.5 / 8.0));
        assert!(close(pdep_y(&t.summary()), 1.0 - logical_y(&t.summary())));
        // pdep(X→Y) ≥ pdep(Y) always (paper, Section IV-D).
        assert!(pdep_xy(&t.summary()) >= pdep_y(&t.summary()) - 1e-12);
    }

    #[test]
    fn expected_pdep_closed_form() {
        let t = ContingencyTable::from_counts(&[vec![2, 1], vec![1, 2]]);
        let py = pdep_y(&t.summary());
        let want = py + (2.0 - 1.0) / (6.0 - 1.0) * (1.0 - py);
        assert!(close(expected_pdep(&t.summary()), want));
        assert!(close(expected_tau(&t.summary()), 1.0 / 5.0));
    }

    #[test]
    fn expected_pdep_key_lhs_is_one() {
        // K = N (X unique): E[pdep] = py + (N−1)/(N−1)(1−py) = 1.
        let t = ContingencyTable::from_counts(&[vec![1, 0], vec![0, 1], vec![1, 0]]);
        assert!(close(expected_pdep(&t.summary()), 1.0));
    }

    #[test]
    fn empty_and_degenerate_tables() {
        let t = ContingencyTable::from_counts(&[]);
        assert_eq!(logical_y_given_x(&t.summary()), 0.0);
        assert_eq!(expected_pdep(&t.summary()), 1.0);
        let one = ContingencyTable::from_counts(&[vec![1]]);
        assert_eq!(expected_pdep(&one.summary()), 1.0);
    }
}
