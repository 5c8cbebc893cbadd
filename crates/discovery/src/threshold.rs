//! Threshold-based linear AFD discovery (Section IV).
//!
//! Every AFD measure `f` and threshold `ε ∈ [0, 1)` induce the discovery
//! algorithm `A_f^ε`: return all FDs violated by `R` whose score lies in
//! `[ε, 1)`. On linear candidates it is the first level of the lattice
//! search ([`crate::lattice`], `max_lhs = 1`): every attribute's stripped
//! partition scored against every other attribute, and the satisfied
//! FDs closed unscored.

use afd_core::Measure;
use afd_relation::{Fd, Relation};

use crate::lattice::{discover_all_threaded, LatticeConfig};

/// One discovered AFD with its score.
#[derive(Debug, Clone)]
pub struct Discovered {
    /// The dependency.
    pub fd: Fd,
    /// The measure's score (in `[ε, 1)`).
    pub score: f64,
}

/// Runs `A_f^ε` on linear candidates: all violated candidate FDs with
/// `f(φ, R) ∈ [ε, 1)`, sorted by descending score (ties broken by FD
/// order for determinism) — the lattice at `max_lhs = 1` on one thread.
///
/// # Panics
/// Panics if `epsilon` is outside `[0, 1)` (programmer error — `ε = 1`
/// would return satisfied FDs, which exact discovery already finds).
pub fn discover_linear(rel: &Relation, measure: &dyn Measure, epsilon: f64) -> Vec<Discovered> {
    assert!((0.0..1.0).contains(&epsilon), "ε must be in [0, 1)");
    let cfg = LatticeConfig {
        max_lhs: 1,
        epsilon,
    };
    let mut out = discover_all_threaded(rel, measure, cfg, 1);
    out.retain(|d| d.score < 1.0);
    out
}

/// Ranks *all* violated linear candidates by descending score — the
/// ranking view the paper evaluates (AUC over thresholds).
pub fn rank_linear(rel: &Relation, measure: &dyn Measure) -> Vec<Discovered> {
    discover_linear(rel, measure, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::{measure_by_name, MuPlus};
    use afd_relation::AttrId;

    /// A -> B holds with 2 errors; C is random-ish.
    fn noisy_rel() -> Relation {
        Relation::from_rows(
            afd_relation::Schema::new(["A", "B", "C"]).unwrap(),
            (0..80).map(|i| {
                let a = i % 16;
                let b = if i == 5 || i == 11 { 97 } else { a % 4 };
                let c = (i * 7 + i / 3) % 13;
                [a, b, c]
                    .into_iter()
                    .map(|v| afd_relation::Value::Int(v as i64))
                    .collect::<Vec<_>>()
            }),
        )
        .unwrap()
    }

    #[test]
    fn planted_afd_ranks_first() {
        let rel = noisy_rel();
        let ranked = rank_linear(&rel, &MuPlus);
        assert!(!ranked.is_empty());
        let top = &ranked[0];
        assert_eq!(top.fd, Fd::linear(AttrId(0), AttrId(1)));
        assert!(top.score > 0.8, "score={}", top.score);
    }

    #[test]
    fn epsilon_filters() {
        let rel = noisy_rel();
        let all = discover_linear(&rel, &MuPlus, 0.0);
        let strict = discover_linear(&rel, &MuPlus, 0.8);
        assert!(strict.len() < all.len());
        assert!(strict.iter().all(|d| d.score >= 0.8));
    }

    #[test]
    fn satisfied_fds_never_returned() {
        // B = A % 4... A -> B violated; but B -> nothing? Check none of
        // the returned FDs hold exactly.
        let rel = noisy_rel();
        for d in rank_linear(&rel, measure_by_name("g3'").unwrap().as_ref()) {
            assert!(!d.fd.holds_in(&rel));
            assert!(d.score < 1.0);
        }
    }

    #[test]
    fn sorted_descending() {
        let rel = noisy_rel();
        let ranked = rank_linear(&rel, measure_by_name("g3").unwrap().as_ref());
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    #[should_panic(expected = "ε must be")]
    fn bad_epsilon_panics() {
        discover_linear(&noisy_rel(), &MuPlus, 1.0);
    }
}
