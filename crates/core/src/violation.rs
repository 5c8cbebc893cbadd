//! The VIOLATION class: ρ, g2, g3 and g3′ (Sections IV-A and IV-B).
//!
//! These measures count violations directly on the contingency table:
//! `ρ` compares distinct-value counts, `g2` measures the probability that
//! a random tuple participates in a violating pair, and `g3`/`g3′` measure
//! the relative size of the largest FD-satisfying subrelation.

use afd_relation::{ContingencyTable, Summary};

use crate::measure::{Measure, MeasureClass, MeasureProperties, Tribool};

/// `ρ = |dom(X)| / |dom(XY)|` — the CORDS co-occurrence ratio (Ilyas et
/// al.). Set-based: ignores multiplicities. Without baselines.
pub struct Rho;

impl Measure for Rho {
    fn name(&self) -> &'static str {
        "rho"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Violation
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "CORDS [17]",
            has_baselines: false,
            efficiently_computable: true,
            inverse_to_error: Tribool::Yes,
            insensitive_lhs_uniqueness: Tribool::No,
            insensitive_rhs_skew: Tribool::No,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        Self::formula(&t.summary())
    }
    fn summary_formula(&self) -> Option<fn(&Summary) -> f64> {
        Some(Self::formula)
    }
}

impl Rho {
    pub(crate) fn formula(s: &Summary) -> f64 {
        s.n_x() as f64 / s.nonzero_cells() as f64
    }
}

/// `g2 = 1 − Σ_{w ∈ G2} p(w)` — one minus the probability that a random
/// tuple participates in a violating pair (Kivinen & Mannila). A tuple in
/// X-group `i` participates iff group `i` has at least two distinct
/// Y-values. Has baselines. Basis of UNI-DETECT's FD-compliance ratio.
pub struct G2;

impl Measure for G2 {
    fn name(&self) -> &'static str {
        "g2"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Violation
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "Kivinen & Mannila [11]; UNI-DETECT [31]",
            has_baselines: true,
            efficiently_computable: true,
            inverse_to_error: Tribool::Yes,
            insensitive_lhs_uniqueness: Tribool::No,
            insensitive_rhs_skew: Tribool::No,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        Self::formula(&t.summary())
    }
    fn summary_formula(&self) -> Option<fn(&Summary) -> f64> {
        Some(Self::formula)
    }
}

impl G2 {
    pub(crate) fn formula(s: &Summary) -> f64 {
        1.0 - s.violating_rows() as f64 / s.n() as f64
    }
}

/// `g3 = max_{R' ⊆ R, R' |= φ} |R'| / |R|` — the relative size of the
/// largest FD-satisfying subrelation; equivalently `Σ_i max_j n_ij / N`
/// (Lemma 2). The most widely used AFD measure (TANE and many others) but
/// without baselines: bounded below by `|dom(X)|/N`.
pub struct G3;

impl Measure for G3 {
    fn name(&self) -> &'static str {
        "g3"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Violation
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "TANE [32]; [9, 11, 18, 33]",
            has_baselines: false,
            efficiently_computable: true,
            inverse_to_error: Tribool::Yes,
            insensitive_lhs_uniqueness: Tribool::No,
            insensitive_rhs_skew: Tribool::No,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        Self::formula(&t.summary())
    }
    fn summary_formula(&self) -> Option<fn(&Summary) -> f64> {
        Some(Self::formula)
    }
}

impl G3 {
    pub(crate) fn formula(s: &Summary) -> f64 {
        s.sum_row_max() as f64 / s.n() as f64
    }
}

/// `g3′ = (Σ_i max_j n_ij − |dom(X)|) / (N − |dom(X)|)` — Giannella &
/// Robertson's normalisation of `g3`, rescaling by its floor `|dom(X)|/N`.
/// Has baselines; the best VIOLATION measure in the study.
pub struct G3Prime;

impl Measure for G3Prime {
    fn name(&self) -> &'static str {
        "g3'"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Violation
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "Giannella & Robertson [12]",
            has_baselines: true,
            efficiently_computable: true,
            inverse_to_error: Tribool::Yes,
            insensitive_lhs_uniqueness: Tribool::Yes,
            insensitive_rhs_skew: Tribool::No,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        Self::formula(&t.summary())
    }
    fn summary_formula(&self) -> Option<fn(&Summary) -> f64> {
        Some(Self::formula)
    }
}

impl G3Prime {
    pub(crate) fn formula(s: &Summary) -> f64 {
        // FD violated => some group has ≥ 2 distinct Y values => K_X < N,
        // so the denominator is strictly positive.
        let k = s.n_x() as u64;
        (s.sum_row_max() - k) as f64 / (s.n() - k) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// X=a: y1 ×3, y2 ×1 ; X=b: y1 ×4. N = 8.
    fn t() -> ContingencyTable {
        ContingencyTable::from_counts(&[vec![3, 1], vec![4, 0]])
    }

    #[test]
    fn rho_counts_distinct_tuples() {
        // |dom(X)| = 2, |dom(XY)| = 3.
        assert!((Rho.score_table(&t()) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rho_is_set_based() {
        // Multiplicities don't matter for rho.
        let t1 = ContingencyTable::from_counts(&[vec![1, 1], vec![1, 0]]);
        let t2 = ContingencyTable::from_counts(&[vec![90, 5], vec![7, 0]]);
        assert_eq!(Rho.score_table(&t1), Rho.score_table(&t2));
    }

    #[test]
    fn g2_probability_of_violating_tuples() {
        // Group a (4 tuples) violates; group b (4 tuples) does not.
        assert!((G2.score_table(&t()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn g2_baseline_when_all_tuples_violate() {
        let all = ContingencyTable::from_counts(&[vec![2, 2], vec![1, 3]]);
        assert_eq!(G2.score_table(&all), 0.0);
    }

    #[test]
    fn g3_largest_satisfying_subrelation() {
        // Keep 3 (a,y1) + 4 (b,y1) = 7 of 8.
        assert!((G3.score_table(&t()) - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn g3_floor_is_dom_x_over_n() {
        // Worst case: every cell count 1 -> keep one tuple per group.
        let worst = ContingencyTable::from_counts(&[vec![1, 1, 1], vec![1, 1, 1]]);
        assert!((G3.score_table(&worst) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn g3_prime_normalises_the_floor_to_zero() {
        let worst = ContingencyTable::from_counts(&[vec![1, 1, 1], vec![1, 1, 1]]);
        assert_eq!(G3Prime.score_table(&worst), 0.0);
        // And our running example: (7−2)/(8−2).
        assert!((G3Prime.score_table(&t()) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn near_perfect_fd_scores_high_for_all() {
        // 999 clean tuples, 1 error.
        let near = ContingencyTable::from_counts(&[vec![500, 1], vec![0, 499]]);
        for m in [&Rho as &dyn Measure, &G2, &G3, &G3Prime] {
            let s = m.score_contingency(&near);
            // g2 is the harshest: one bad tuple poisons its whole group,
            // so 501 of 1000 tuples count as violating.
            assert!(s > 0.45, "{} scored {s}", m.name());
            assert!(s < 1.0, "{} scored {s}", m.name());
        }
    }

    #[test]
    fn exact_fd_scores_one_via_conventions() {
        let exact = ContingencyTable::from_counts(&[vec![5, 0], vec![0, 5]]);
        for m in [&Rho as &dyn Measure, &G2, &G3, &G3Prime] {
            assert_eq!(m.score_contingency(&exact), 1.0, "{}", m.name());
        }
    }

    #[test]
    fn ordering_g3_ge_g3_prime() {
        // Normalisation can only lower the score.
        for counts in [
            vec![vec![3u64, 1], vec![4, 0]],
            vec![vec![2, 2], vec![1, 3]],
            vec![vec![10, 1, 1], vec![1, 10, 1]],
        ] {
            let t = ContingencyTable::from_counts(&counts);
            assert!(G3.score_table(&t) >= G3Prime.score_table(&t));
        }
    }
}
