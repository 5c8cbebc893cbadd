//! The LOGICAL class: g1, g1′, pdep, τ and µ⁺ (Sections IV-B and IV-D).
//!
//! All five are functions of logical entropy. `g1`/`g1′` count violating
//! *pairs*; `pdep`, `τ` and `µ⁺` are the Piatetsky-Shapiro & Matheus family,
//! with `µ⁺` — the paper's overall recommendation — normalising `pdep`
//! against its closed-form expectation under random (X;Y)-permutations.

use afd_entropy::{expected_pdep, logical_y_given_x, pdep_xy, pdep_y};
use afd_relation::{ContingencyTable, Summary};

use crate::measure::{Measure, MeasureClass, MeasureProperties, Tribool};

/// `g1 = 1 − h(Y|X)` — one minus the (normalised) number of violating
/// pairs over all `|R|²` tuple pairs (Kivinen & Mannila). Without
/// baselines. Basis of FDX.
pub struct G1;

impl Measure for G1 {
    fn name(&self) -> &'static str {
        "g1"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Logical
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "Kivinen & Mannila [11]; FDX [23]",
            has_baselines: false,
            efficiently_computable: true,
            inverse_to_error: Tribool::NotApplicable,
            insensitive_lhs_uniqueness: Tribool::NotApplicable,
            insensitive_rhs_skew: Tribool::NotApplicable,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        Self::formula(&t.summary())
    }
    fn summary_formula(&self) -> Option<fn(&Summary) -> f64> {
        Some(Self::formula)
    }
}

impl G1 {
    pub(crate) fn formula(s: &Summary) -> f64 {
        1.0 - logical_y_given_x(s)
    }
}

/// `g1′ = 1 − |G1| / (N² − Σ n_ij²)` — `g1` normalised by the maximum
/// possible number of violating pairs (pairs of equal tuples can never
/// violate). Has baselines. Basis of PYRO.
///
/// Computed on the `XY`-projection: `Σ_w R(w)²` is `Σ_ij n_ij²` of the
/// contingency table, consistent with measures seeing only `X` and `Y`.
pub struct G1Prime;

impl Measure for G1Prime {
    fn name(&self) -> &'static str {
        "g1'"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Logical
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "PYRO [22]; denial constraints [29]",
            has_baselines: true,
            efficiently_computable: true,
            inverse_to_error: Tribool::NotApplicable,
            insensitive_lhs_uniqueness: Tribool::NotApplicable,
            insensitive_rhs_skew: Tribool::NotApplicable,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        Self::formula(&t.summary())
    }
    fn summary_formula(&self) -> Option<fn(&Summary) -> f64> {
        Some(Self::formula)
    }
}

impl G1Prime {
    pub(crate) fn formula(s: &Summary) -> f64 {
        // |G1| = Σ_i (a_i² − Σ_j n_ij²): ordered violating pairs.
        let violating = (s.sum_sq_rows() - s.sum_sq_cells()) as f64;
        let bound = (s.n() * s.n() - s.sum_sq_cells()) as f64;
        // FD violated => at least two distinct tuples => bound > 0.
        1.0 - violating / bound
    }
}

/// `pdep(X→Y) = Σ_x p(x) Σ_y p(y|x)²` — the probability that two random
/// tuples agreeing on `X` also agree on `Y` (Piatetsky-Shapiro & Matheus).
/// Without baselines: always ≥ pdep(Y) > 0.
pub struct Pdep;

impl Measure for Pdep {
    fn name(&self) -> &'static str {
        "pdep"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Logical
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "Piatetsky-Shapiro & Matheus [16]",
            has_baselines: false,
            efficiently_computable: true,
            inverse_to_error: Tribool::Yes,
            insensitive_lhs_uniqueness: Tribool::No,
            insensitive_rhs_skew: Tribool::No,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        pdep_xy(&t.summary())
    }
    fn summary_formula(&self) -> Option<fn(&Summary) -> f64> {
        Some(pdep_xy)
    }
}

/// Goodman & Kruskal's `τ = (pdep(X→Y) − pdep(Y)) / (1 − pdep(Y))` — the
/// relative improvement in guessing `Y` once `X` is known. Has baselines
/// (relations where knowing `X` does not help).
pub struct Tau;

impl Measure for Tau {
    fn name(&self) -> &'static str {
        "tau"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Logical
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "Goodman & Kruskal [41]; [16]",
            has_baselines: true,
            efficiently_computable: true,
            inverse_to_error: Tribool::Yes,
            insensitive_lhs_uniqueness: Tribool::No,
            insensitive_rhs_skew: Tribool::Yes,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        Self::formula(&t.summary())
    }
    fn summary_formula(&self) -> Option<fn(&Summary) -> f64> {
        Some(Self::formula)
    }
}

impl Tau {
    pub(crate) fn formula(s: &Summary) -> f64 {
        // FD violated => |dom(Y)| > 1 => pdep(Y) < 1.
        let py = pdep_y(s);
        (pdep_xy(s) - py) / (1.0 - py)
    }
}

/// `µ⁺ = max(µ, 0)` with
/// `µ = (pdep − E[pdep]) / (1 − E[pdep])
///    = 1 − (1−pdep)/(1−pdep(Y)) · (N−1)/(N−|dom(X)|)` —
/// `pdep` normalised against its expectation under random
/// (X;Y)-permutations (Theorem 1). The paper's recommended measure:
/// insensitive to LHS-uniqueness *and* RHS-skew, and cheap to compute.
pub struct MuPlus;

impl Measure for MuPlus {
    fn name(&self) -> &'static str {
        "mu+"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Logical
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "Piatetsky-Shapiro & Matheus [16]",
            has_baselines: true,
            efficiently_computable: true,
            inverse_to_error: Tribool::Yes,
            insensitive_lhs_uniqueness: Tribool::Yes,
            insensitive_rhs_skew: Tribool::Yes,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        Self::formula(&t.summary())
    }
    fn summary_formula(&self) -> Option<fn(&Summary) -> f64> {
        Some(Self::formula)
    }
}

impl MuPlus {
    pub(crate) fn formula(s: &Summary) -> f64 {
        // FD violated => |dom(X)| < N (Lemma 1 guarantees E[pdep] < 1).
        let e = expected_pdep(s);
        ((pdep_xy(s) - e) / (1.0 - e)).max(0.0)
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
    fn g1_equals_one_minus_conditional_logical_entropy() {
        // h(Y|X) = Σ p_ij (p_i − p_ij)
        //        = 3/8·1/8 + 1/8·3/8 + 4/8·0 = 6/64.
        assert!((G1.score_table(&t()) - (1.0 - 6.0 / 64.0)).abs() < 1e-12);
    }

    #[test]
    fn g1_prime_pair_counting() {
        // |G1| = Σ_i(a_i² − Σ_j n_ij²) = (16 − 10) + (16 − 16) = 6.
        // bound = 64 − Σ n_ij² = 64 − (9+1+16) = 38.
        assert!((G1Prime.score_table(&t()) - (1.0 - 6.0 / 38.0)).abs() < 1e-12);
    }

    #[test]
    fn g1_prime_baseline_all_pairs_violate() {
        // Every pair of distinct tuples violates: one x, all y distinct.
        let all = ContingencyTable::from_counts(&[vec![1, 1, 1]]);
        assert!(G1Prime.score_table(&all).abs() < 1e-12);
    }

    #[test]
    fn pdep_hand_computed() {
        // pdep = (1/N)·Σ_i (Σ_j n_ij²)/a_i = (10/4 + 16/4)/8 = 6.5/8.
        assert!((Pdep.score_table(&t()) - 6.5 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn pdep_never_below_pdep_y() {
        let tables = [
            vec![vec![1u64, 2], vec![3, 4]],
            vec![vec![5, 1], vec![1, 5]],
            vec![vec![1, 1, 1], vec![2, 0, 2]],
        ];
        for c in tables {
            let t = ContingencyTable::from_counts(&c);
            assert!(Pdep.score_table(&t) >= pdep_y(&t.summary()) - 1e-12);
        }
    }

    #[test]
    fn tau_zero_for_independent_table() {
        // Outer-product counts: knowing X doesn't improve guessing Y.
        let ind = ContingencyTable::from_counts(&[vec![2, 4], vec![4, 8]]);
        assert!(Tau.score_table(&ind).abs() < 1e-12);
    }

    #[test]
    fn tau_hand_computed() {
        // pdep(Y) = (49 + 1)/64 = 50/64; pdep = 6.5/8 = 52/64.
        // tau = (52/64 − 50/64)/(14/64) = 2/14.
        assert!((Tau.score_table(&t()) - 2.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn mu_plus_zero_for_independent_table() {
        // For an outer-product table pdep == pdep(Y)·…; µ must clamp at 0:
        // E[pdep] ≥ pdep(Y) means pdep − E[pdep] ≤ 0 here.
        let ind = ContingencyTable::from_counts(&[vec![2, 4], vec![4, 8]]);
        assert_eq!(MuPlus.score_table(&ind), 0.0);
    }

    #[test]
    fn mu_equivalent_closed_form() {
        // µ = 1 − (1−pdep)/(1−pdep(Y)) · (N−1)/(N−K) (Lemma 5).
        let table = t();
        let pd = pdep_xy(&table.summary());
        let py = pdep_y(&table.summary());
        let n = table.n() as f64;
        let k = table.n_x() as f64;
        let closed = 1.0 - (1.0 - pd) / (1.0 - py) * (n - 1.0) / (n - k);
        assert!((MuPlus.score_table(&table) - closed.max(0.0)).abs() < 1e-12);
    }

    #[test]
    fn mu_below_tau_below_pdep_on_noisy_data() {
        // Successive normalisations only subtract "luck".
        let table = t();
        let pd = Pdep.score_table(&table);
        let tau = Tau.score_table(&table);
        let mu = MuPlus.score_table(&table);
        assert!(pd >= tau && tau >= mu, "pdep={pd} tau={tau} mu={mu}");
    }

    #[test]
    fn all_respect_conventions() {
        let exact = ContingencyTable::from_counts(&[vec![9, 0], vec![0, 9]]);
        for m in [&G1 as &dyn Measure, &G1Prime, &Pdep, &Tau, &MuPlus] {
            assert_eq!(m.score_contingency(&exact), 1.0, "{}", m.name());
            let s = m.score_contingency(&t());
            assert!((0.0..=1.0).contains(&s), "{} out of range: {s}", m.name());
        }
    }

    #[test]
    fn near_perfect_fd_mu_close_to_one() {
        let near = ContingencyTable::from_counts(&[vec![499, 1], vec![0, 500]]);
        assert!(MuPlus.score_table(&near) > 0.9);
    }
}
