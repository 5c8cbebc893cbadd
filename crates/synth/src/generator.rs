//! The paper's B⁺/B⁻ relation generation process (Section V-A).
//!
//! Every synthetic relation is binary, over attributes `X` and `Y`.
//! Negative instances draw `X` and `Y` independently from Beta-shaped
//! distributions over their domains; positive instances first build a
//! dictionary `D : dom(X) → dom(Y)` (so the FD `X → Y` holds by
//! construction) and then pass the relation through a controlled error
//! channel that overwrites `k = ⌊η·N⌋` `Y`-cells with the `Y`-value of
//! another tuple — keeping `dom(Y)` and the `X` column stable, exactly as
//! in the paper.

use afd_relation::{AttrId, Relation};
use rand::Rng;

use crate::beta::Beta;

/// Parameters of one synthetic relation (Section V-A ranges).
#[derive(Debug, Clone, Copy)]
pub struct GenParams {
    /// Number of tuples `|R|`.
    pub n_rows: usize,
    /// Target `|dom(X)|`.
    pub dom_x: usize,
    /// Target `|dom(Y)|`.
    pub dom_y: usize,
    /// Value distribution of `X` over its domain.
    pub beta_x: Beta,
    /// Value distribution of `Y` over its domain.
    pub beta_y: Beta,
    /// Error rate η: fraction of tuples modified by the error channel.
    pub error_rate: f64,
}

impl GenParams {
    /// Samples parameters uniformly from the paper's ranges:
    /// `|R| ∈ [100, 10000]`, `|dom(X)| ∈ [N/5, 3N/4]`,
    /// `|dom(Y)| ∈ [5, |dom(X)|/2]`, `η ∈ [0.5%, 2%]`, and Beta shapes
    /// with skewness at most 1 (α ∈ (0,1], β ∈ \[1,10\]).
    pub fn sample(rng: &mut impl Rng) -> Self {
        Self::sample_with_rows(rng.gen_range(100..=10_000), rng)
    }

    /// As [`GenParams::sample`] but with a fixed row count — used to scale
    /// experiments down deterministically.
    pub fn sample_with_rows(n_rows: usize, rng: &mut impl Rng) -> Self {
        let dom_x = rng.gen_range(n_rows / 5..=(3 * n_rows / 4).max(n_rows / 5 + 1));
        let dom_y = rng.gen_range(5..=(dom_x / 2).max(6));
        GenParams {
            n_rows,
            dom_x: dom_x.max(2),
            dom_y: dom_y.max(2),
            beta_x: sample_low_skew_beta(rng),
            beta_y: sample_low_skew_beta(rng),
            error_rate: rng.gen_range(0.005..=0.02),
        }
    }
}

/// Rejection-samples Beta shapes from α ∈ (0,1], β ∈ \[1,10\] until the
/// skewness is at most 1 (the paper's default cap outside SKEW).
pub fn sample_low_skew_beta(rng: &mut impl Rng) -> Beta {
    loop {
        let alpha = rng.gen_range(f64::EPSILON..=1.0);
        let beta = rng.gen_range(1.0..=10.0);
        let b = Beta::new(alpha, beta);
        if b.skewness() <= 1.0 {
            return b;
        }
    }
}

/// Generates a B⁻ instance: `X` and `Y` sampled independently.
pub fn generate_negative(p: &GenParams, rng: &mut impl Rng) -> Relation {
    Relation::from_pairs((0..p.n_rows).map(|_| {
        (
            p.beta_x.sample_index(p.dom_x, rng) as u64,
            p.beta_y.sample_index(p.dom_y, rng) as u64,
        )
    }))
}

/// Generates a B⁺ instance: builds the dictionary `D`, materialises a
/// clean relation satisfying `X → Y`, then applies the copy error channel
/// at rate `p.error_rate`. Returns the relation and the number of cells
/// actually modified.
pub fn generate_positive(p: &GenParams, rng: &mut impl Rng) -> (Relation, usize) {
    // Dictionary D(x) ~ Beta_Y over dom(Y).
    let dict: Vec<u64> = (0..p.dom_x)
        .map(|_| p.beta_y.sample_index(p.dom_y, rng) as u64)
        .collect();
    let xs: Vec<usize> = (0..p.n_rows)
        .map(|_| p.beta_x.sample_index(p.dom_x, rng))
        .collect();
    let mut rel = Relation::from_pairs(xs.iter().map(|&x| (x as u64, dict[x])));
    let k = (p.error_rate * p.n_rows as f64).floor() as usize;
    let modified = apply_copy_errors(&mut rel, AttrId(1), k, rng);
    (rel, modified)
}

/// The paper's synthetic error channel: for `k` randomly chosen tuples `w`,
/// pick any tuple `w̃` with a different `Y`-value and overwrite `w`'s `Y`
/// with it. No new `Y`-values are introduced and `X` is untouched.
///
/// Returns the number of cells modified (less than `k` only if the column
/// is constant, in which case no error can be introduced at all).
pub fn apply_copy_errors(rel: &mut Relation, y: AttrId, k: usize, rng: &mut impl Rng) -> usize {
    let n = rel.n_rows();
    if n < 2 || k == 0 {
        return 0;
    }
    let mut modified = 0;
    let mut chosen = vec![false; n];
    let mut attempts = 0;
    while modified < k && attempts < 20 * k + 100 {
        attempts += 1;
        let row = rng.gen_range(0..n);
        if chosen[row] {
            continue;
        }
        let current = rel.value(row, y);
        // Find a donor with a different Y value.
        let mut donor_value = None;
        for _ in 0..64 {
            let d = rng.gen_range(0..n);
            let v = rel.value(d, y);
            if v != current {
                donor_value = Some(v);
                break;
            }
        }
        let Some(v) = donor_value else {
            // Column is (nearly) constant; nothing to copy.
            break;
        };
        rel.set_value(row, y, v);
        chosen[row] = true;
        modified += 1;
    }
    modified
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_relation::{lhs_uniqueness, AttrSet, Fd, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(n: usize, seed: u64) -> (GenParams, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        (GenParams::sample_with_rows(n, &mut rng), rng)
    }

    #[test]
    fn sampled_params_within_paper_ranges() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let p = GenParams::sample_with_rows(1000, &mut rng);
            assert!(p.dom_x >= 200 && p.dom_x <= 751, "dom_x={}", p.dom_x);
            assert!(p.dom_y >= 2 && p.dom_y <= p.dom_x / 2 + 6);
            assert!((0.005..=0.02).contains(&p.error_rate));
            assert!(p.beta_x.skewness() <= 1.0);
            assert!(p.beta_y.skewness() <= 1.0);
        }
    }

    #[test]
    fn positive_without_errors_satisfies_fd() {
        let (mut p, mut rng) = params(500, 2);
        p.error_rate = 0.0;
        let (rel, modified) = generate_positive(&p, &mut rng);
        assert_eq!(modified, 0);
        assert!(Fd::linear(AttrId(0), AttrId(1)).holds_in(&rel));
        assert_eq!(rel.n_rows(), 500);
    }

    #[test]
    fn positive_with_errors_modifies_k_cells() {
        let (mut p, mut rng) = params(1000, 3);
        p.error_rate = 0.02;
        let (rel, modified) = generate_positive(&p, &mut rng);
        assert_eq!(modified, 20);
        assert_eq!(rel.n_rows(), 1000);
    }

    #[test]
    fn error_channel_keeps_dom_y_stable() {
        let (mut p, mut rng) = params(800, 4);
        p.error_rate = 0.05;
        let dom_before_gen = p.dom_y;
        let (rel, _) = generate_positive(&p, &mut rng);
        let observed = rel.distinct_count(&AttrSet::single(AttrId(1)));
        assert!(observed <= dom_before_gen);
    }

    #[test]
    fn negative_instances_look_independent() {
        // Independence is statistical; just check the FD rarely holds and
        // domains are roughly as requested.
        let (p, mut rng) = params(2000, 5);
        let rel = generate_negative(&p, &mut rng);
        assert_eq!(rel.n_rows(), 2000);
        assert!(!Fd::linear(AttrId(0), AttrId(1)).holds_in(&rel));
        let u = lhs_uniqueness(&rel, &AttrSet::single(AttrId(0)));
        // dom_x ∈ [N/5, 3N/4]; sampling with collisions keeps u near that.
        assert!(u > 0.1 && u < 0.9, "uniqueness={u}");
    }

    #[test]
    fn copy_errors_on_constant_column_are_impossible() {
        let mut rel = Relation::from_pairs([(1, 5), (2, 5), (3, 5)]);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(apply_copy_errors(&mut rel, AttrId(1), 2, &mut rng), 0);
    }

    #[test]
    fn copy_errors_never_invent_values() {
        let mut rel = Relation::from_pairs([(1, 5), (2, 6), (3, 5), (4, 6), (5, 5)]);
        let mut rng = StdRng::seed_from_u64(7);
        apply_copy_errors(&mut rel, AttrId(1), 3, &mut rng);
        for r in 0..rel.n_rows() {
            let v = rel.value(r, AttrId(1));
            assert!(v == Value::Int(5) || v == Value::Int(6), "got {v:?}");
        }
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let (p1, mut rng1) = params(300, 42);
        let (p2, mut rng2) = params(300, 42);
        assert_eq!(format!("{p1:?}"), format!("{p2:?}"));
        let (a, _) = generate_positive(&p1, &mut rng1);
        let (b, _) = generate_positive(&p2, &mut rng2);
        for i in 0..a.n_rows() {
            assert_eq!(a.row(i), b.row(i));
        }
    }
}
