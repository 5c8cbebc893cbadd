//! Cross-measure property tests: invariants every AFD measure must obey.

use afd_core::*;
use afd_relation::{AttrId, AttrSet, ContingencyTable, Fd, Relation, Schema, Value};
use proptest::prelude::*;

fn counts() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..7, 1..5), 1..5)
}

fn nonempty(c: &[Vec<u64>]) -> bool {
    c.iter().flatten().any(|&v| v > 0)
}

/// Rows of three small attributes (None = NULL), each with a random
/// sort key that shuffles them.
fn keyed_rows() -> impl Strategy<Value = Vec<([Option<i64>; 3], u64)>> {
    let cell = |k: i64| prop::option::weighted(0.9, 0..k);
    prop::collection::vec(([cell(8), cell(3), cell(5)], 0u64..1 << 32), 1..150)
}

fn relation(rows: &[([Option<i64>; 3], u64)]) -> Relation {
    let schema = Schema::new(["A", "B", "C"]).unwrap();
    Relation::from_rows(schema, rows.iter().map(|(r, _)| r.map(Value::from))).unwrap()
}

proptest! {
    /// Every measure returns a value in [0, 1] on every table.
    #[test]
    fn scores_in_unit_interval(c in counts()) {
        prop_assume!(nonempty(&c));
        let t = ContingencyTable::from_counts(&c);
        for m in all_measures() {
            let s = m.score_contingency(&t);
            prop_assert!((0.0..=1.0).contains(&s), "{} scored {s}", m.name());
            prop_assert!(s.is_finite(), "{} not finite", m.name());
        }
    }

    /// A measure scores exactly 1 if and only if the FD holds exactly
    /// (Section IV: the formulas are all strictly below 1 on violated
    /// tables).
    #[test]
    fn one_iff_exact(c in counts()) {
        prop_assume!(nonempty(&c));
        let t = ContingencyTable::from_counts(&c);
        for m in all_measures() {
            let s = m.score_contingency(&t);
            if t.is_exact_fd() {
                prop_assert_eq!(s, 1.0, "{} on exact FD", m.name());
            } else {
                prop_assert!(s < 1.0, "{} scored 1 on violated table", m.name());
            }
        }
    }

    /// Tuple-frequency scaling: duplicating the whole bag leaves the
    /// distribution-based measures unchanged.
    #[test]
    fn distribution_measures_scale_invariant(c in counts(), k in 2u64..4) {
        prop_assume!(nonempty(&c));
        let t1 = ContingencyTable::from_counts(&c);
        let scaled: Vec<Vec<u64>> = c.iter().map(|r| r.iter().map(|&v| v * k).collect()).collect();
        let t2 = ContingencyTable::from_counts(&scaled);
        // rho, g2, g3, g1S, FI, g1, pdep, tau are functions of the joint
        // distribution (or the support) only.
        for name in ["rho", "g2", "g3", "g1S", "FI", "g1", "pdep", "tau"] {
            let m = measure_by_name(name).unwrap();
            let a = m.score_contingency(&t1);
            let b = m.score_contingency(&t2);
            prop_assert!((a - b).abs() < 1e-9, "{name}: {a} vs {b}");
        }
    }

    /// Normalisation orderings the formulas imply.
    #[test]
    fn normalisation_orderings(c in counts()) {
        prop_assume!(nonempty(&c));
        let t = ContingencyTable::from_counts(&c);
        prop_assume!(!t.is_exact_fd());
        let score = |n: &str| measure_by_name(n).unwrap().score_contingency(&t);
        // g3' rescales g3's floor to 0.
        prop_assert!(score("g3'") <= score("g3") + 1e-12);
        // tau subtracts baseline luck from pdep; mu subtracts more.
        prop_assert!(score("tau") <= score("pdep") + 1e-12);
        prop_assert!(score("mu+") <= score("tau") + 1e-12);
        // RFI+ subtracts E[FI] from FI.
        prop_assert!(score("RFI+") <= score("FI") + 1e-12);
    }

    /// On outer-product (independent) tables the bias-corrected and
    /// independence-baselined measures are ~0.
    #[test]
    fn independence_baselines(px in prop::collection::vec(1u64..5, 2..4),
                              py in prop::collection::vec(1u64..5, 2..4)) {
        let c: Vec<Vec<u64>> = px.iter().map(|&a| py.iter().map(|&b| a * b).collect()).collect();
        let t = ContingencyTable::from_counts(&c);
        prop_assume!(!t.is_exact_fd());
        for name in ["FI", "tau"] {
            let s = measure_by_name(name).unwrap().score_contingency(&t);
            prop_assert!(s < 1e-6, "{name} on independent table: {s}");
        }
        for name in ["RFI+", "RFI'+", "mu+"] {
            let s = measure_by_name(name).unwrap().score_contingency(&t);
            prop_assert!(s < 1e-9, "{name} on independent table: {s}");
        }
    }

    /// SFI closed form agrees with the materialising scorer everywhere.
    #[test]
    fn sfi_closed_form_agrees(c in counts(), alpha in prop::sample::select(vec![0.5f64, 1.0, 2.0])) {
        prop_assume!(nonempty(&c));
        let t = ContingencyTable::from_counts(&c);
        let naive = Sfi::new(alpha).score_contingency(&t);
        let closed = sfi_closed_form(&t, alpha);
        prop_assert!((naive - closed).abs() < 1e-9, "naive={naive} closed={closed}");
    }

    /// Row order never moves a bit: a relation and a row-shuffled copy
    /// give the same summary, the same exact Shannon sums and the same
    /// score bits under every fast measure, and `fast_scores` returns
    /// each fast measure's `score_contingency` bit for bit, in
    /// `fast_measures()` order (the stream's `StreamScores::NAMES`).
    #[test]
    fn row_order_never_moves_a_bit(rows in keyed_rows()) {
        let mut shuffled = rows.clone();
        shuffled.sort_by_key(|&(_, key)| key);
        let (rel, shuffled) = (relation(&rows), relation(&shuffled));
        let fds = [
            Fd::linear(AttrId(0), AttrId(2)),
            Fd::new(AttrSet::new([AttrId(0), AttrId(1)]), AttrSet::single(AttrId(2))).unwrap(),
            Fd::linear(AttrId(2), AttrId(1)),
        ];
        for fd in &fds {
            let (t, u) = (fd.contingency(&rel), fd.contingency(&shuffled));
            prop_assert_eq!(t.summary(), u.summary(), "{:?}", fd);
            prop_assert_eq!(t.shannon_sums(), u.shannon_sums(), "{:?}", fd);
            let fast = fast_scores(&t.summary(), &t.shannon_sums());
            for (m, v) in fast_measures().iter().zip(fast) {
                let (a, b) = (m.score_contingency(&t), m.score_contingency(&u));
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} moved under a shuffle: {} vs {}", m.name(), a, b);
                prop_assert_eq!(v.to_bits(), a.to_bits(), "fast_scores differs on {}: {} vs {}", m.name(), v, a);
            }
        }
    }
}
