//! Property-based tests for the discovery algorithms.

use afd_core::{measure_by_name, MuPlus};
use afd_discovery::{discover_for_rhs, discover_linear, LatticeConfig};
use afd_relation::{AttrId, Relation, Schema, Value};
use proptest::prelude::*;

/// Strategy: a random 3-attribute relation with small domains.
fn rel3() -> impl Strategy<Value = Relation> {
    prop::collection::vec((0i64..5, 0i64..4, 0i64..3), 1..80).prop_map(|rows| {
        Relation::from_rows(
            Schema::new(["A", "B", "C"]).unwrap(),
            rows.into_iter()
                .map(|(a, b, c)| vec![Value::Int(a), Value::Int(b), Value::Int(c)]),
        )
        .unwrap()
    })
}

/// As [`rel3`], with NULLs sprinkled in (value 0 becomes NULL) so the
/// stripped lattice's full-codes fallback path is exercised.
fn rel3_nulls() -> impl Strategy<Value = Relation> {
    prop::collection::vec((0i64..5, 0i64..4, 0i64..3), 1..80).prop_map(|rows| {
        let v = |x: i64| if x == 0 { Value::Null } else { Value::Int(x) };
        Relation::from_rows(
            Schema::new(["A", "B", "C"]).unwrap(),
            rows.into_iter().map(|(a, b, c)| vec![v(a), v(b), v(c)]),
        )
        .unwrap()
    })
}

proptest! {
    #[test]
    fn discovered_scores_respect_threshold(rel in rel3(), eps in 0.0f64..0.99) {
        let found = discover_linear(&rel, &MuPlus, eps);
        for d in &found {
            prop_assert!(d.score >= eps && d.score < 1.0);
            prop_assert!(!d.fd.holds_in(&rel), "satisfied FD returned");
        }
        // Sorted descending.
        for w in found.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn lower_threshold_is_superset(rel in rel3()) {
        let strict = discover_linear(&rel, &MuPlus, 0.7);
        let loose = discover_linear(&rel, &MuPlus, 0.3);
        for d in &strict {
            prop_assert!(loose.iter().any(|l| l.fd == d.fd), "monotonicity violated");
        }
    }

    #[test]
    fn lattice_results_are_minimal_and_violated(rel in rel3()) {
        let measure = measure_by_name("g3'").unwrap();
        let cfg = LatticeConfig { max_lhs: 2, epsilon: 0.5 };
        let found = discover_for_rhs(&rel, AttrId(2), measure.as_ref(), cfg);
        for d in &found {
            prop_assert!(!d.fd.holds_in(&rel));
            prop_assert!(d.fd.lhs().len() <= 2);
            prop_assert_eq!(d.fd.rhs().ids(), &[AttrId(2)]);
        }
        for a in &found {
            for b in &found {
                if a.fd != b.fd {
                    prop_assert!(
                        !a.fd.lhs().is_subset(b.fd.lhs()),
                        "non-minimal result"
                    );
                }
            }
        }
    }

    #[test]
    fn lattice_level1_matches_linear_discovery(rel in rel3()) {
        let cfg = LatticeConfig { max_lhs: 1, epsilon: 0.4 };
        let lattice = discover_for_rhs(&rel, AttrId(2), &MuPlus, cfg);
        let linear: Vec<_> = discover_linear(&rel, &MuPlus, 0.4)
            .into_iter()
            .filter(|d| d.fd.rhs().ids() == [AttrId(2)])
            .collect();
        prop_assert_eq!(lattice.len(), linear.len());
        for (a, b) in lattice.iter().zip(&linear) {
            prop_assert_eq!(&a.fd, &b.fd);
            prop_assert!((a.score - b.score).abs() < 1e-12);
        }
    }
}

// ------------------------------------------------------------------
// Parallel discovery ≡ sequential discovery, and the optimized lattice
// agrees with a brute-force candidate sweep.

use afd_discovery::{discover_all_threaded, discover_for_rhs_threaded};

proptest! {
    #[test]
    fn parallel_discover_all_identical_to_sequential(rel in rel3()) {
        let measure = measure_by_name("g3'").unwrap();
        let cfg = LatticeConfig { max_lhs: 2, epsilon: 0.5 };
        let seq = discover_all_threaded(&rel, measure.as_ref(), cfg, 1);
        let par = discover_all_threaded(&rel, measure.as_ref(), cfg, 4);
        prop_assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            prop_assert_eq!(&a.fd, &b.fd);
            // Byte-identical scores: same kernel, same order of operations.
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn parallel_per_rhs_identical_to_sequential(rel in rel3()) {
        let cfg = LatticeConfig { max_lhs: 2, epsilon: 0.4 };
        let seq = discover_for_rhs_threaded(&rel, AttrId(2), &MuPlus, cfg, 1);
        let par = discover_for_rhs_threaded(&rel, AttrId(2), &MuPlus, cfg, 8);
        prop_assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            prop_assert_eq!(&a.fd, &b.fd);
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    /// The stripped lattice is pinned **bit-identical** to the
    /// retained full-codes reference (`afd_discovery::naive_lattice`,
    /// mirroring `afd_relation::naive`): same FDs, same order, same
    /// `f64::to_bits` scores — for every fast measure (the tallied ones
    /// and the g1/g1ˢ/FI table path), across thread counts and level
    /// caps. Its search statistics do not depend on the thread count
    /// either.
    #[test]
    fn stripped_lattice_bit_identical_to_naive(rel in rel3(), eps in 0.0f64..0.95) {
        for measure in afd_core::fast_measures() {
            let name = measure.name();
            for max_lhs in [1usize, 2, 3] {
                let cfg = LatticeConfig { max_lhs, epsilon: eps };
                let reference =
                    afd_discovery::naive_lattice::discover_all_threaded(&rel, measure.as_ref(), cfg, 1);
                let (_, stats1) =
                    afd_discovery::try_discover_all_stats(&rel, measure.as_ref(), cfg, 1).unwrap();
                for threads in [1usize, 2, 4] {
                    let (stripped, stats) = afd_discovery::try_discover_all_stats(
                        &rel, measure.as_ref(), cfg, threads).unwrap();
                    prop_assert_eq!(&stats, &stats1,
                        "{} max_lhs={} threads={}", name, max_lhs, threads);
                    prop_assert_eq!(stripped.len(), reference.len(),
                        "{} max_lhs={} threads={}", name, max_lhs, threads);
                    for (a, b) in stripped.iter().zip(&reference) {
                        prop_assert_eq!(&a.fd, &b.fd,
                            "{} max_lhs={} threads={}", name, max_lhs, threads);
                        prop_assert_eq!(a.score.to_bits(), b.score.to_bits(),
                            "{} max_lhs={} threads={}: {} vs {}",
                            name, max_lhs, threads, a.score, b.score);
                    }
                }
            }
        }
    }

    /// As above on relations with NULLs — candidates over NULL-bearing
    /// attributes are tallied with their NULL rows skipped, or take the
    /// lattice's full-codes fallback for g1/g1ˢ/FI, and must be just as
    /// bit-identical.
    #[test]
    fn stripped_lattice_bit_identical_with_nulls(rel in rel3_nulls(), eps in 0.0f64..0.95) {
        for measure in afd_core::fast_measures() {
            let name = measure.name();
            for max_lhs in [1usize, 2, 3] {
                let cfg = LatticeConfig { max_lhs, epsilon: eps };
                let reference = afd_discovery::naive_lattice::discover_all_threaded(
                    &rel, measure.as_ref(), cfg, 1);
                for threads in [1usize, 2, 4] {
                    let stripped = discover_all_threaded(&rel, measure.as_ref(), cfg, threads);
                    prop_assert_eq!(stripped.len(), reference.len(),
                        "{} max_lhs={} threads={}", name, max_lhs, threads);
                    for (a, b) in stripped.iter().zip(&reference) {
                        prop_assert_eq!(&a.fd, &b.fd,
                            "{} max_lhs={} threads={}", name, max_lhs, threads);
                        prop_assert_eq!(a.score.to_bits(), b.score.to_bits(),
                            "{} max_lhs={} threads={}", name, max_lhs, threads);
                    }
                }
            }
        }
    }

    /// The per-RHS entry agrees with the reference too, and its stats
    /// account for every emission.
    #[test]
    fn stripped_per_rhs_stats_consistent(rel in rel3(), eps in 0.0f64..0.95) {
        let measure = measure_by_name("mu+").unwrap();
        let cfg = LatticeConfig { max_lhs: 3, epsilon: eps };
        let (found, stats) = afd_discovery::try_discover_for_rhs_stats(
            &rel, AttrId(2), measure.as_ref(), cfg, 1).unwrap();
        let reference = afd_discovery::naive_lattice::discover_for_rhs_threaded(
            &rel, AttrId(2), measure.as_ref(), cfg, 1);
        prop_assert_eq!(found.len(), reference.len());
        for (a, b) in found.iter().zip(&reference) {
            prop_assert_eq!(&a.fd, &b.fd);
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        let emitted: usize = stats.levels.iter().map(|l| l.emitted).sum();
        prop_assert_eq!(emitted, found.len());
        for lvl in &stats.levels {
            prop_assert_eq!(lvl.candidates, lvl.emitted + lvl.exact + lvl.open,
                "level {}", lvl.level);
        }
    }

    /// The lattice with the pair-code kernel finds exactly the minimal
    /// scoring sets a brute-force scan over all LHS subsets finds.
    #[test]
    fn lattice_matches_bruteforce_enumeration(rel in rel3()) {
        let measure = measure_by_name("g3'").unwrap();
        let cfg = LatticeConfig { max_lhs: 2, epsilon: 0.5 };
        let found = discover_for_rhs(&rel, AttrId(2), measure.as_ref(), cfg);
        // Brute force: score every subset of {A, B} for RHS C via
        // naive contingency construction; keep ε-qualifying minimal ones.
        use afd_relation::AttrSet;
        let subsets: [&[AttrId]; 3] = [&[AttrId(0)], &[AttrId(1)], &[AttrId(0), AttrId(1)]];
        let rhs_codes = rel.group_encode(&AttrSet::single(AttrId(2))).codes;
        let mut expect: Vec<(Vec<AttrId>, f64)> = Vec::new();
        let mut exact_or_emitted: Vec<Vec<AttrId>> = Vec::new();
        for ids in subsets {
            let attrs = AttrSet::new(ids.iter().copied());
            // Skip non-minimal: any emitted/exact strict subset closes it.
            if exact_or_emitted
                .iter()
                .any(|s| AttrSet::new(s.iter().copied()).is_subset(&attrs))
            {
                continue;
            }
            let codes = rel.group_encode(&attrs).codes;
            let t = afd_relation::naive::contingency_from_codes(&codes, &rhs_codes);
            if t.is_exact_fd() {
                exact_or_emitted.push(ids.to_vec());
                continue;
            }
            let score = measure.score_contingency(&t);
            if score >= cfg.epsilon {
                exact_or_emitted.push(ids.to_vec());
                expect.push((ids.to_vec(), score));
            }
        }
        prop_assert_eq!(found.len(), expect.len(), "found {:?}", &found);
        for (fd, score) in &expect {
            let hit = found.iter().find(|d| {
                d.fd.lhs().ids() == fd.as_slice()
            });
            prop_assert!(hit.is_some(), "missing {:?}", fd);
            prop_assert!((hit.unwrap().score - score).abs() < 1e-12);
        }
    }
}

// ------------------------------------------------------------------
// One lattice for every RHS ≡ one search per RHS. On three attributes
// each LHS pair is a candidate for exactly one RHS; six attributes let a
// set serve several RHS at once, so a child kept, pruned or counted for
// the wrong RHS shows here.

/// Strategy: a random 6-attribute relation with small domains; with
/// `nulls`, value 0 becomes NULL in every column.
fn rel6(nulls: bool) -> impl Strategy<Value = Relation> {
    let row = [0i64..4, 0i64..3, 0i64..5, 0i64..2, 0i64..4, 0i64..3];
    prop::collection::vec(row, 1..80).prop_map(move |rows| {
        let v = |x: i64| {
            if nulls && x == 0 {
                Value::Null
            } else {
                Value::Int(x)
            }
        };
        Relation::from_rows(
            Schema::new(["A", "B", "C", "D", "E", "F"]).unwrap(),
            rows.into_iter().map(|r| r.map(v).to_vec()),
        )
        .unwrap()
    })
}

/// Checks the shared all-RHS search on `rel` against the reference, the
/// per-RHS entry and the thread count.
fn check_shared_lattice(rel: &Relation, eps: f64) -> Result<(), TestCaseError> {
    use afd_discovery::{
        naive_lattice, try_discover_all_stats, try_discover_for_rhs_stats, LatticeStats,
    };
    for name in ["g3'", "mu+"] {
        let measure = measure_by_name(name).unwrap();
        for max_lhs in [1usize, 2, 3] {
            let cfg = LatticeConfig {
                max_lhs,
                epsilon: eps,
            };
            let reference = naive_lattice::discover_all_threaded(rel, measure.as_ref(), cfg, 1);
            let (all, stats) = try_discover_all_stats(rel, measure.as_ref(), cfg, 1).unwrap();
            let (all2, stats2) = try_discover_all_stats(rel, measure.as_ref(), cfg, 2).unwrap();
            prop_assert_eq!(&stats2, &stats, "{} max_lhs={}", name, max_lhs);
            for found in [&all, &all2] {
                prop_assert_eq!(found.len(), reference.len(), "{} max_lhs={}", name, max_lhs);
                for (a, b) in found.iter().zip(&reference) {
                    prop_assert_eq!(&a.fd, &b.fd, "{} max_lhs={}", name, max_lhs);
                    prop_assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "{} max_lhs={}: {} vs {}",
                        name,
                        max_lhs,
                        a.score,
                        b.score
                    );
                }
            }
            // The per-RHS runs: their sorted union is the shared output,
            // and their level counts sum to the shared ones.
            let mut union = Vec::new();
            let mut per_rhs = LatticeStats::default();
            for rhs in rel.schema().attrs() {
                let (found, s) =
                    try_discover_for_rhs_stats(rel, rhs, measure.as_ref(), cfg, 1).unwrap();
                union.extend(found);
                per_rhs.absorb(&s);
            }
            union.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.fd.cmp(&b.fd)));
            prop_assert_eq!(union.len(), all.len(), "{} max_lhs={}", name, max_lhs);
            for (a, b) in union.iter().zip(&all) {
                prop_assert_eq!(&a.fd, &b.fd, "{} max_lhs={}", name, max_lhs);
                prop_assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "{} max_lhs={}",
                    name,
                    max_lhs
                );
            }
            let counts = |s: &LatticeStats| -> Vec<_> {
                s.levels
                    .iter()
                    .map(|l| (l.level, l.candidates, l.pruned, l.emitted, l.exact, l.open))
                    .collect()
            };
            prop_assert_eq!(
                counts(&stats),
                counts(&per_rhs),
                "{} max_lhs={}",
                name,
                max_lhs
            );
        }
    }
    Ok(())
}

proptest! {
    /// `try_discover_all_stats` on six attributes is bit-identical to the
    /// reference at one and two threads, and equals the per-RHS entry run
    /// for every RHS: same FDs and scores, and per level the same
    /// (candidates, pruned, emitted, exact, open) summed over the RHS.
    #[test]
    fn shared_lattice_equals_per_rhs_searches(rel in rel6(false), eps in 0.0f64..0.95) {
        check_shared_lattice(&rel, eps)?;
    }

    /// As above with NULLs in every column, so candidates take the
    /// full-codes fallback for some RHS and the fast path for others.
    #[test]
    fn shared_lattice_equals_per_rhs_searches_with_nulls(
        rel in rel6(true),
        eps in 0.0f64..0.95,
    ) {
        check_shared_lattice(&rel, eps)?;
    }
}
