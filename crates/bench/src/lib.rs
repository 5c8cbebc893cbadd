//! # afd-bench
//!
//! Criterion benchmarks for the AFD measure study. The benches live in
//! `benches/`; this library only hosts shared fixture builders and
//! sample statistics so the bench targets and `record_*` examples stay
//! small.

use afd_relation::{AttrId, AttrSet, ContingencyTable, Relation};
use afd_synth::{generate_positive, GenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic noisy-FD relation of `n` rows (the Table V workload
/// shape: |dom(X)| = n/8, |dom(Y)| = n/32, 1% errors).
pub fn fixture_relation(n: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = GenParams::sample_with_rows(n, &mut rng);
    p.dom_x = (n / 8).max(4);
    p.dom_y = (n / 32).max(3);
    p.error_rate = 0.01;
    generate_positive(&p, &mut rng).0
}

/// The contingency table of `X -> Y` on [`fixture_relation`].
pub fn fixture_table(n: usize, seed: u64) -> ContingencyTable {
    let rel = fixture_relation(n, seed);
    ContingencyTable::from_relation(
        &rel,
        &AttrSet::single(AttrId(0)),
        &AttrSet::single(AttrId(1)),
    )
}

/// The median of `samples`: the middle element after sorting (the
/// upper middle for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median<T: Ord + Copy>(mut samples: Vec<T>) -> T {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median(vec![3, 1, 2]), 2);
        assert_eq!(median(vec![4, 1, 3, 2]), 3);
        assert_eq!(median(vec![7u64]), 7);
    }

    #[test]
    fn fixtures_have_requested_shape() {
        let t = fixture_table(1024, 1);
        assert_eq!(t.n(), 1024);
        assert!(t.n_x() <= 128);
        assert!(!t.is_exact_fd());
    }
}
