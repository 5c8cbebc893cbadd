//! Property-based tests for entropy invariants.

use afd_entropy::*;
use afd_relation::ContingencyTable;
use proptest::prelude::*;

/// Strategy: a small dense count matrix (some cells zero).
fn counts() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..6, 1..5), 1..5)
}

fn nonempty(c: &[Vec<u64>]) -> bool {
    c.iter().flatten().any(|&v| v > 0)
}

proptest! {
    #[test]
    fn shannon_inequalities(c in counts()) {
        prop_assume!(nonempty(&c));
        let table = ContingencyTable::from_counts(&c);
        let t = table.shannon_sums();
        let hy = shannon_y(&t);
        let hyx = shannon_y_given_x(&t);
        prop_assert!(hyx >= -1e-12);
        prop_assert!(hyx <= hy + 1e-9, "H(Y|X)={hyx} > H(Y)={hy}");
        prop_assert!(hy <= (table.n_y() as f64).log2() + 1e-9);
        // Chain rule.
        prop_assert!((hyx - (shannon_xy(&t) - shannon_x(&t))).abs() < 1e-9);
        // MI symmetry bound.
        let mi = mutual_information(&t);
        prop_assert!(mi <= shannon_x(&t).min(hy) + 1e-9);
    }

    #[test]
    fn logical_inequalities(c in counts()) {
        prop_assume!(nonempty(&c));
        let t = ContingencyTable::from_counts(&c);
        let hy = logical_y(&t.summary());
        let hyx = logical_y_given_x(&t.summary());
        prop_assert!((0.0..=1.0).contains(&hy));
        prop_assert!(hyx >= -1e-12);
        // Agreeing on X and differing on Y implies differing on Y.
        prop_assert!(hyx <= hy + 1e-12);
        // pdep(X→Y) ≥ pdep(Y) (paper Section IV-D).
        prop_assert!(pdep_xy(&t.summary()) >= pdep_y(&t.summary()) - 1e-12);
        // E_x[h(Y|x)] = 1 − pdep (Lemma 3) lies within [0, 1].
        let e = 1.0 - pdep_xy(&t.summary());
        prop_assert!((0.0..=1.0 + 1e-12).contains(&e));
    }

    #[test]
    fn expected_pdep_between_pdep_y_and_one(c in counts()) {
        prop_assume!(nonempty(&c));
        let t = ContingencyTable::from_counts(&c);
        prop_assume!(t.n() >= 2);
        let e = expected_pdep(&t.summary());
        prop_assert!(e >= pdep_y(&t.summary()) - 1e-12);
        prop_assert!(e <= 1.0 + 1e-12);
    }

    #[test]
    fn exact_expected_mi_bounds(c in counts()) {
        prop_assume!(nonempty(&c));
        let t = ContingencyTable::from_counts(&c);
        let e = expected_mi_exact(&t);
        prop_assert!(e >= 0.0);
        let h = t.shannon_sums();
        prop_assert!(e <= shannon_x(&h).min(shannon_y(&h)) + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn exact_expected_mi_matches_monte_carlo(c in counts()) {
        prop_assume!(nonempty(&c));
        let t = ContingencyTable::from_counts(&c);
        prop_assume!(t.n() >= 4 && t.n() <= 40);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let exact = expected_mi_exact(&t);
        let mc = expected_mi_monte_carlo(&t, 3000, &mut rng);
        prop_assert!((exact - mc).abs() < 0.06, "exact={exact} mc={mc}");
    }
}
