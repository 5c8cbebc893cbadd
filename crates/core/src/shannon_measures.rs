//! The SHANNON class: g1ˢ, FI, RFI⁺, RFI′⁺ and SFI (Sections IV-C and the
//! new measures of Appendix C).
//!
//! `FI` normalises mutual information by `H(Y)`; `RFI⁺`/`RFI′⁺` correct FI
//! by its expectation under the (X;Y)-permutation null (the exact
//! hypergeometric sum from `afd-entropy` — intrinsically expensive, which
//! is why the paper finds them impractically slow); `SFI` smooths the
//! joint distribution with Laplace-α before computing FI.

use afd_entropy::{expected_mi_exact, shannon_y, shannon_y_given_x};
use afd_relation::{ContingencyTable, ShannonSums};

use crate::measure::{Measure, MeasureClass, MeasureProperties, Tribool};

/// `g1ˢ = max(1 − H(Y|X), 0)` — the Shannon counterpart of `g1`,
/// introduced by the paper for completeness (Appendix C). Entropy in bits.
pub struct G1S;

impl Measure for G1S {
    fn name(&self) -> &'static str {
        "g1S"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Shannon
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "new (this paper)",
            has_baselines: true,
            efficiently_computable: true,
            inverse_to_error: Tribool::Yes,
            insensitive_lhs_uniqueness: Tribool::No,
            insensitive_rhs_skew: Tribool::No,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        Self::formula(&t.shannon_sums())
    }
}

impl G1S {
    pub(crate) fn formula(h: &ShannonSums) -> f64 {
        (1.0 - shannon_y_given_x(h)).max(0.0)
    }
}

/// `FI = 1 − H(Y|X)/H(Y)` — fraction of information (Cavallo &
/// Pittarelli): the proportional reduction of uncertainty about `Y` from
/// knowing `X`. Baselines are the relations where `X` and `Y` are
/// independent.
pub struct Fi;

impl Measure for Fi {
    fn name(&self) -> &'static str {
        "FI"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Shannon
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "Cavallo & Pittarelli [39]; [12]",
            has_baselines: true,
            efficiently_computable: true,
            inverse_to_error: Tribool::Yes,
            insensitive_lhs_uniqueness: Tribool::No,
            insensitive_rhs_skew: Tribool::Yes,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        Self::formula(&t.shannon_sums())
    }
}

impl Fi {
    pub(crate) fn formula(h: &ShannonSums) -> f64 {
        // FD violated => |dom(Y)| > 1 => H(Y) > 0.
        1.0 - shannon_y_given_x(h) / shannon_y(h)
    }
}

/// `RFI⁺ = max(FI − E[FI], 0)` — reliable fraction of information
/// (Mandros et al.): FI minus its expected value under random
/// (X;Y)-permutations. Uses the exact hypergeometric `E[I]`; **slow** —
/// Θ(K_X·K_Y·overlap) per candidate.
pub struct RfiPlus;

impl Measure for RfiPlus {
    fn name(&self) -> &'static str {
        "RFI+"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Shannon
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "Mandros et al. [13, 14]",
            has_baselines: true,
            efficiently_computable: false,
            inverse_to_error: Tribool::Yes,
            insensitive_lhs_uniqueness: Tribool::No,
            insensitive_rhs_skew: Tribool::Yes,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        let h = t.shannon_sums();
        let efi = expected_mi_exact(t) / shannon_y(&h);
        (Fi::formula(&h) - efi).max(0.0)
    }
}

/// `RFI′⁺ = max((FI − E[FI]) / (1 − E[FI]), 0)` — the paper's new
/// *normalised* variant of RFI (Appendix C), analogous to how `µ`
/// normalises `pdep`. The best-ranking measure on RWD, but as slow as
/// RFI⁺.
pub struct RfiPrimePlus;

impl Measure for RfiPrimePlus {
    fn name(&self) -> &'static str {
        "RFI'+"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Shannon
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "new (this paper)",
            has_baselines: true,
            efficiently_computable: false,
            inverse_to_error: Tribool::Yes,
            insensitive_lhs_uniqueness: Tribool::Yes,
            insensitive_rhs_skew: Tribool::Yes,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        let h = t.shannon_sums();
        let fi = Fi::formula(&h);
        let efi = expected_mi_exact(t) / shannon_y(&h);
        let denom = 1.0 - efi;
        if denom <= f64::EPSILON {
            // E[FI] = 1 can only arise for (numerically) key-like X; weak
            // evidence by definition.
            return 0.0;
        }
        ((fi - efi) / denom).max(0.0)
    }
}

/// `SFI_α = FI(π^{(α)}_{XY}(R))` — smoothed fraction of information
/// (Pennerath et al.): Laplace-smooths *every* cell of `dom(X) × dom(Y)`
/// by `α` and computes FI on the result.
///
/// The default scorer materialises the dense smoothed table, faithfully
/// reproducing the cost the paper observed (`π^{(α)}` can be many times
/// larger than `R`). [`sfi_closed_form`] computes the same value in
/// O(nonzero + K_X) by exploiting that all absent cells carry equal mass —
/// the `ablation_sfi` bench compares the two.
pub struct Sfi {
    alpha: f64,
}

impl Sfi {
    /// SFI with smoothing parameter `α > 0`.
    ///
    /// # Panics
    /// Panics if `alpha <= 0` (programmer error; the measure is undefined).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0, "SFI requires α > 0");
        Sfi { alpha }
    }

    /// The paper's best-performing parameterisation (α = 0.5).
    pub fn half() -> Self {
        Sfi::new(0.5)
    }

    /// The smoothing parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Measure for Sfi {
    fn name(&self) -> &'static str {
        "SFI"
    }
    fn class(&self) -> MeasureClass {
        MeasureClass::Shannon
    }
    fn properties(&self) -> MeasureProperties {
        MeasureProperties {
            considered_in: "Pennerath et al. [15]",
            has_baselines: true,
            efficiently_computable: false,
            inverse_to_error: Tribool::NotApplicable,
            insensitive_lhs_uniqueness: Tribool::NotApplicable,
            insensitive_rhs_skew: Tribool::NotApplicable,
        }
    }
    fn score_table(&self, t: &ContingencyTable) -> f64 {
        // Materialise the dense smoothed matrix (paper-faithful cost) for
        // the explicit groups; implicit singleton groups (stripped
        // tables) contribute a closed-form per-row term — every implicit
        // row has one cell of count 1 and `ky − 1` absent cells,
        // regardless of which Y value it carries.
        let (kx, ky) = (t.n_x(), t.n_y());
        let kx_explicit = t.n_explicit_x();
        let mut dense = vec![self.alpha; kx_explicit * ky];
        for (i, j, c) in t.cells() {
            dense[i * ky + j] += c as f64;
        }
        let n = t.n() as f64 + self.alpha * (kx * ky) as f64;
        let mut hy = 0.0;
        for j in 0..ky {
            let b = t.col_totals()[j] as f64 + self.alpha * kx as f64;
            let p = b / n;
            hy -= p * p.log2();
        }
        let mut hyx = 0.0;
        for i in 0..kx_explicit {
            let a = t.row_totals()[i] as f64 + self.alpha * ky as f64;
            for j in 0..ky {
                let c = dense[i * ky + j];
                hyx -= (c / n) * (c / a).log2();
            }
        }
        hyx += sfi_implicit_hyx(t.implicit_singletons(), ky, self.alpha, n);
        if hy <= f64::EPSILON {
            return 1.0;
        }
        1.0 - hyx / hy
    }

    fn bit_exact_on_implicit_singletons(&self) -> bool {
        // Singleton terms are nonzero and interleave with explicit ones
        // in the full-codes summation order; the implicit form is
        // value-equal but not bit-pinned.
        false
    }
}

/// Smoothed `H(Y|X)` contribution of `implicit` singleton X-groups:
/// each implicit row carries one present cell of count 1 and `ky − 1`
/// absent cells, regardless of which Y value it holds. Shared by both
/// SFI scorers so their "identical value" contract cannot drift.
fn sfi_implicit_hyx(implicit: u64, ky: usize, alpha: f64, n: f64) -> f64 {
    if implicit == 0 {
        return 0.0;
    }
    let a = 1.0 + alpha * ky as f64;
    let hit = 1.0 + alpha;
    let mut per_row = -(hit / n) * (hit / a).log2();
    per_row -= (ky as f64 - 1.0) * (alpha / n) * (alpha / a).log2();
    implicit as f64 * per_row
}

/// Closed-form SFI: identical value to [`Sfi::score_table`] without
/// materialising the dense matrix. Absent cells of row `i` all carry mass
/// `α`, so their contribution is `(K_Y − m_i) · (α/N′) log2(α/a_i′)`.
pub fn sfi_closed_form(t: &ContingencyTable, alpha: f64) -> f64 {
    assert!(alpha > 0.0, "SFI requires α > 0");
    let (kx, ky) = (t.n_x(), t.n_y());
    if t.is_empty() || t.is_exact_fd() {
        return 1.0;
    }
    let n = t.n() as f64 + alpha * (kx * ky) as f64;
    let mut hy = 0.0;
    for &b in t.col_totals() {
        let p = (b as f64 + alpha * kx as f64) / n;
        hy -= p * p.log2();
    }
    let mut hyx = 0.0;
    for i in 0..t.n_explicit_x() {
        let a = t.row_totals()[i] as f64 + alpha * ky as f64;
        let present = t.row(i).len();
        for &(_, c) in t.row(i) {
            let cs = c as f64 + alpha;
            hyx -= (cs / n) * (cs / a).log2();
        }
        let absent = (ky - present) as f64;
        if absent > 0.0 {
            hyx -= absent * (alpha / n) * (alpha / a).log2();
        }
    }
    hyx += sfi_implicit_hyx(t.implicit_singletons(), ky, alpha, n);
    if hy <= f64::EPSILON {
        return 1.0;
    }
    (1.0 - hyx / hy).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// X=a: y1 ×3, y2 ×1 ; X=b: y1 ×4. N = 8.
    fn t() -> ContingencyTable {
        ContingencyTable::from_counts(&[vec![3, 1], vec![4, 0]])
    }

    #[test]
    fn g1s_hand_computed() {
        // H(Y|X): group a contributes (4/8)·H(3/4,1/4); group b 0.
        let h = 0.5 * -(0.75f64 * 0.75f64.log2() + 0.25 * 0.25f64.log2());
        assert!((G1S.score_table(&t()) - (1.0 - h)).abs() < 1e-12);
    }

    #[test]
    fn g1s_clamps_high_entropy_to_zero() {
        // Many equiprobable Y values per X: H(Y|X) > 1 bit.
        let wide = ContingencyTable::from_counts(&[vec![2, 2, 2, 2]]);
        assert_eq!(G1S.score_table(&wide), 0.0);
    }

    #[test]
    fn fi_zero_iff_independent() {
        let ind = ContingencyTable::from_counts(&[vec![2, 4], vec![4, 8]]);
        assert!(Fi.score_table(&ind).abs() < 1e-9);
    }

    #[test]
    fn fi_equals_mi_over_hy() {
        let table = t();
        let h = table.shannon_sums();
        let want = afd_entropy::mutual_information(&h) / shannon_y(&h);
        assert!((Fi.score_table(&table) - want).abs() < 1e-12);
    }

    #[test]
    fn rfi_corrects_fi_downward() {
        let table = t();
        assert!(RfiPlus.score_table(&table) < Fi.score_table(&table));
        assert!(RfiPlus.score_table(&table) >= 0.0);
    }

    #[test]
    fn rfi_zero_on_independent_small_sample() {
        // Independent data where FI > 0 purely by the Roulston bias:
        // RFI should recognise it as luck.
        let ind = ContingencyTable::from_counts(&[vec![2, 4], vec![4, 8]]);
        assert_eq!(RfiPlus.score_table(&ind), 0.0);
        assert_eq!(RfiPrimePlus.score_table(&ind), 0.0);
    }

    #[test]
    fn rfi_prime_ge_rfi_when_positive() {
        // (FI−E)/(1−E) ≥ FI−E whenever FI−E ≥ 0 and 0 ≤ E < 1.
        let near = ContingencyTable::from_counts(&[vec![50, 1], vec![0, 49]]);
        let r = RfiPlus.score_table(&near);
        let rp = RfiPrimePlus.score_table(&near);
        assert!(r > 0.0);
        assert!(rp >= r - 1e-12, "rp={rp} r={r}");
    }

    #[test]
    fn sfi_naive_matches_closed_form() {
        for counts in [
            vec![vec![3u64, 1], vec![4, 0]],
            vec![vec![10, 0, 2], vec![0, 5, 0], vec![1, 1, 7]],
            vec![vec![1, 1], vec![1, 1]],
        ] {
            let table = ContingencyTable::from_counts(&counts);
            for alpha in [0.5, 1.0, 2.0] {
                let naive = Sfi::new(alpha).score_contingency(&table);
                let closed = sfi_closed_form(&table, alpha);
                assert!(
                    (naive - closed).abs() < 1e-10,
                    "α={alpha} naive={naive} closed={closed}"
                );
            }
        }
    }

    #[test]
    fn sfi_pulls_scores_towards_zero() {
        // Smoothing adds mass everywhere, so SFI < FI for near-exact FDs.
        let near = ContingencyTable::from_counts(&[vec![50, 1], vec![0, 49]]);
        assert!(Sfi::half().score_table(&near) < Fi.score_table(&near));
    }

    #[test]
    fn sfi_alpha_ordering() {
        // Bigger α = more smoothing = lower score on structured data.
        let near = ContingencyTable::from_counts(&[vec![50, 1], vec![0, 49]]);
        let s05 = Sfi::new(0.5).score_table(&near);
        let s2 = Sfi::new(2.0).score_table(&near);
        assert!(s05 > s2, "s05={s05} s2={s2}");
    }

    #[test]
    #[should_panic(expected = "α > 0")]
    fn sfi_rejects_zero_alpha() {
        Sfi::new(0.0);
    }

    #[test]
    fn all_respect_conventions() {
        let exact = ContingencyTable::from_counts(&[vec![9, 0], vec![0, 9]]);
        let sfi = Sfi::half();
        let measures: [&dyn Measure; 5] = [&G1S, &Fi, &RfiPlus, &RfiPrimePlus, &sfi];
        for m in measures {
            assert_eq!(m.score_contingency(&exact), 1.0, "{}", m.name());
            let s = m.score_contingency(&t());
            assert!((0.0..=1.0).contains(&s), "{} out of range: {s}", m.name());
        }
    }
}
