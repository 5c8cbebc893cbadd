//! The paper's key formal and empirical claims, as executable assertions.
//!
//! Each test names the paper artifact it checks. These are the
//! "shape-level outcomes" DESIGN.md §4 commits to.

use afd::entropy::{
    expected_mi_exact, expected_pdep, expected_tau, logical_y, logical_y_given_x,
    mutual_information, pdep_xy, pdep_y, shannon_y, shannon_y_given_x,
};
use afd::eval::{sensitivity_sweep, Labeled};
use afd::{all_measures, measure_by_name, Axis, ContingencyTable, SynthBenchmark};

fn noisy_table() -> ContingencyTable {
    ContingencyTable::from_counts(&[vec![40, 2, 0], vec![1, 30, 0], vec![0, 3, 24]])
}

/// Table IV row 1: `g1 = 1 − h(Y|X)`; its Shannon analogue uses `H(Y|X)`.
#[test]
fn table4_g1_is_logical_entropy() {
    let t = noisy_table();
    let g1 = measure_by_name("g1").unwrap().score_contingency(&t);
    assert!((g1 - (1.0 - logical_y_given_x(&t.summary()))).abs() < 1e-12);
}

/// Table IV row 3: `FI = 1 − H(Y|X)/H(Y)` is the Shannon version of
/// `τ = 1 − E_x[h(Y|x)]/h(Y)` (Lemmas 4 and 6).
#[test]
fn table4_fi_and_tau_are_parallel() {
    let t = noisy_table();
    let fi = measure_by_name("FI").unwrap().score_contingency(&t);
    let h = t.shannon_sums();
    assert!((fi - (1.0 - shannon_y_given_x(&h) / shannon_y(&h))).abs() < 1e-12);
    let tau = measure_by_name("tau").unwrap().score_contingency(&t);
    let ex_h = 1.0 - pdep_xy(&t.summary()); // Lemma 3: E_x[h(Y|x)] = 1 − pdep
    assert!((tau - (1.0 - ex_h / logical_y(&t.summary()))).abs() < 1e-12);
}

/// Theorem 1: the closed forms for E[pdep] and E[τ] under random
/// (X;Y)-permutations.
#[test]
fn theorem1_closed_forms() {
    let t = noisy_table();
    let n = t.n() as f64;
    let k = t.n_x() as f64;
    let py = pdep_y(&t.summary());
    assert!(
        (expected_pdep(&t.summary()) - (py + (k - 1.0) / (n - 1.0) * (1.0 - py))).abs() < 1e-12
    );
    assert!((expected_tau(&t.summary()) - (k - 1.0) / (n - 1.0)).abs() < 1e-12);
}

/// Roulston's bias (Section IV-C): on a finite sample of independent
/// data, observed MI overestimates zero — and the exact permutation
/// expectation captures it.
#[test]
fn roulston_bias_is_positive_and_corrected() {
    // Outer-product marginals, N = 24: I should be ~0 but E[I] > 0.
    let t = ContingencyTable::from_counts(&[vec![4, 8], vec![4, 8]]);
    assert!(mutual_information(&t.shannon_sums()) < 1e-9);
    assert!(expected_mi_exact(&t) > 0.01);
    // RFI+ therefore scores 0 where FI would be fooled on noisy samples.
    let rfi = measure_by_name("RFI+").unwrap();
    assert_eq!(rfi.score_contingency(&t), 0.0);
}

/// Section V conclusions, ERR axis: separation decreases with the error
/// rate for the good measures; g1/g1' have (near-)zero separation
/// everywhere.
#[test]
fn fig1_err_axis_shapes() {
    let bench = SynthBenchmark {
        axis: Axis::ErrorRate,
        steps: 4,
        tables_per_step: 6,
        rows: (200, 900),
        seed: 31,
    };
    let measures = all_measures();
    let sweep = sensitivity_sweep(&bench, &measures, 4);
    let idx = |n: &str| measures.iter().position(|m| m.name() == n).unwrap();
    for name in ["g3'", "mu+", "RFI'+"] {
        let m = idx(name);
        let first = sweep[1].separation(m); // step 0 is error-free
        let last = sweep[3].separation(m);
        assert!(first > 0.5, "{name} separation at low error: {first}");
        assert!(
            last < first + 0.05,
            "{name} separation should not grow with error: {first} -> {last}"
        );
    }
    for name in ["g1", "g1'"] {
        let m = idx(name);
        for s in &sweep[1..] {
            assert!(
                s.separation(m) < 0.15,
                "{name} must have near-zero separation, got {}",
                s.separation(m)
            );
        }
    }
}

/// Section V conclusions, UNIQ axis: g3', RFI'+ and mu+ keep their
/// separation at extreme LHS-uniqueness; FI, pdep and tau lose theirs.
#[test]
fn fig1_uniq_axis_shapes() {
    let bench = SynthBenchmark {
        axis: Axis::LhsUniqueness,
        steps: 4,
        tables_per_step: 6,
        rows: (300, 900),
        seed: 32,
    };
    let measures = all_measures();
    let sweep = sensitivity_sweep(&bench, &measures, 4);
    let idx = |n: &str| measures.iter().position(|m| m.name() == n).unwrap();
    let last = &sweep[3]; // dom multiplier 10
    for name in ["g3'", "mu+", "RFI'+"] {
        assert!(
            last.separation(idx(name)) > 0.5,
            "{name} must stay separated at high uniqueness: {}",
            last.separation(idx(name))
        );
    }
    for name in ["FI", "pdep", "tau", "rho"] {
        let first = sweep[0].separation(idx(name));
        let drop = last.separation(idx(name));
        assert!(
            drop < first * 0.8,
            "{name} must lose separation: {first} -> {drop}"
        );
    }
}

/// Section V conclusions, SKEW axis: the VIOLATION measures and pdep are
/// skew-sensitive; FI, tau, mu+ and RFI'+ are not.
#[test]
fn fig1_skew_axis_shapes() {
    let bench = SynthBenchmark {
        axis: Axis::RhsSkew,
        steps: 4,
        tables_per_step: 6,
        rows: (300, 900),
        seed: 33,
    };
    let measures = all_measures();
    let sweep = sensitivity_sweep(&bench, &measures, 4);
    let idx = |n: &str| measures.iter().position(|m| m.name() == n).unwrap();
    let (first, last) = (&sweep[0], &sweep[3]);
    for name in ["g3", "g3'", "pdep"] {
        let m = idx(name);
        assert!(
            last.separation(m) < first.separation(m) * 0.6,
            "{name} must lose separation with skew: {} -> {}",
            first.separation(m),
            last.separation(m)
        );
    }
    for name in ["tau", "mu+", "RFI'+"] {
        let m = idx(name);
        assert!(
            last.separation(m) > 0.5,
            "{name} must stay separated under skew: {}",
            last.separation(m)
        );
    }
}

/// Section VI headline: normalisation matters — each normalised variant
/// out-ranks its unnormalised parent on a trap-rich ranking task.
#[test]
fn normalisation_beats_parents_on_traps() {
    // Candidates: one true AFD (moderate uniqueness, 3 errors) and many
    // near-key traps. Labels: only the AFD is positive.
    let mut tables: Vec<(ContingencyTable, bool)> = Vec::new();
    // True AFD: 20 groups of 10 over 5 values, 3 stray tuples.
    let mut afd = vec![vec![0u64; 20]; 20];
    for (i, row) in afd.iter_mut().enumerate() {
        row[i % 5] = 10;
    }
    afd[0][6] = 3; // three stray tuples
    afd[0][0] -= 3;
    tables.push((ContingencyTable::from_counts(&afd), true));
    // Traps: near-key LHS (uniqueness 0.99) — 392 singleton groups plus
    // 4 split pairs, so the FD is *violated* yet g3 = pdep = 0.99.
    for t in 0..10 {
        let mut counts = vec![vec![0u64; 4]; 396];
        for (i, row) in counts.iter_mut().enumerate().take(392) {
            row[(i + t) % 4] = 1;
        }
        for (i, row) in counts.iter_mut().enumerate().skip(392) {
            row[(i + t) % 4] = 1;
            row[(i + t + 1) % 4] = 1;
        }
        let table = ContingencyTable::from_counts(&counts);
        assert!(!table.is_exact_fd(), "trap must be a violated candidate");
        tables.push((table, false));
    }
    let rank_of_positive = |name: &str| -> usize {
        let m = measure_by_name(name).unwrap();
        let labels: Vec<Labeled> = tables
            .iter()
            .map(|(t, pos)| Labeled::new(m.score_contingency(t), *pos))
            .collect();
        afd::rank_at_max_recall(&labels)
    };
    assert!(
        rank_of_positive("g3'") <= rank_of_positive("g3"),
        "g3' must rank the AFD at least as well as g3"
    );
    assert!(
        rank_of_positive("mu+") <= rank_of_positive("pdep"),
        "mu+ must rank the AFD at least as well as pdep"
    );
    assert_eq!(rank_of_positive("mu+"), 1, "mu+ sees through near-keys");
}
