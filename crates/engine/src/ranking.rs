//! The cache-backed batch scoring path behind [`crate::MatrixRequest`].
//!
//! The expensive part of evaluating a candidate is shared by all measures:
//! building the NULL-filtered contingency table. [`score_matrix`] therefore
//! builds each candidate's table once and scores every measure on it,
//! fanning candidates out over an `afd-parallel` scoped-thread pool. The
//! measures whose formula reads only the table's `Summary` (ρ, g2, g3,
//! g3′, g1, g1′, pdep, τ, µ⁺) share one summary per candidate, scored
//! through [`afd_core::score_summary`].
//!
//! The table build itself shares work too: each distinct attribute set in
//! the candidate list is group-encoded once into an
//! [`afd_relation::EncodingCache`] (in parallel), and every candidate's
//! table is assembled from the cached side codes — with `m` attributes and
//! all `m(m−1)` linear candidates this cuts the encoding work from
//! `2m(m−1)` passes over the rows to `m`.
//!
//! This module is deliberately crate-private: [`crate::AfdEngine::matrix`]
//! is the one public way in, so no caller can bypass the request layer.

use afd_core::{score_summary, Measure};
use afd_parallel::par_map;
use afd_relation::{AttrSet, EncodingCache, Fd, Relation};

/// Encodes every distinct attribute set of `candidates` exactly once
/// (fanning the encodings out over `threads`) into a fresh cache.
pub(crate) fn warm_cache(rel: &Relation, candidates: &[Fd], threads: usize) -> EncodingCache {
    let mut sets: Vec<AttrSet> = candidates
        .iter()
        .flat_map(|fd| [fd.lhs().clone(), fd.rhs().clone()])
        .collect();
    sets.sort_unstable();
    sets.dedup();
    let encodings = par_map(&sets, threads, |_, attrs| rel.group_encode(attrs));
    let mut cache = EncodingCache::new();
    for (attrs, enc) in sets.into_iter().zip(encodings) {
        cache.insert(attrs, enc);
    }
    cache
}

/// Scores `[measure][candidate]` for all `candidates` on `rel`.
///
/// `threads = 1` runs inline; larger values fan candidates out over a
/// scoped thread pool. Results are deterministic regardless of thread
/// count.
pub(crate) fn score_matrix(
    rel: &Relation,
    measures: &[Box<dyn Measure>],
    candidates: &[Fd],
    threads: usize,
) -> Vec<Vec<f64>> {
    let n = candidates.len();
    let m = measures.len();
    let cache = warm_cache(rel, candidates, threads);
    let formulas: Vec<_> = measures.iter().map(|x| x.summary_formula()).collect();
    let any_formula = formulas.iter().any(Option::is_some);
    let cols = par_map(candidates, threads, |_, fd| {
        let t = cache
            .contingency_prewarmed(fd)
            .expect("all candidate sides warmed above");
        let summary = any_formula.then(|| t.summary());
        measures
            .iter()
            .zip(&formulas)
            .map(|(measure, formula)| match (formula, &summary) {
                (Some(formula), Some(s)) => score_summary(s, formula),
                _ => measure.score_contingency(&t),
            })
            .collect::<Vec<f64>>()
    });
    let mut out = vec![vec![0.0; n]; m];
    for (c, col) in cols.into_iter().enumerate() {
        for (mi, v) in col.into_iter().enumerate() {
            out[mi][c] = v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::all_measures;
    use afd_relation::violated_candidates;

    fn small_noisy_relation() -> Relation {
        // 3 columns: A key-ish, B functionally determined by A with
        // noise, C low-cardinality.
        Relation::from_rows(
            afd_relation::Schema::new(["A", "B", "C"]).unwrap(),
            (0..60).map(|i| {
                let a = i % 20;
                let b = if i == 3 { 99 } else { a % 5 };
                let c = i % 2;
                [a, b, c]
                    .into_iter()
                    .map(|v| afd_relation::Value::Int(v as i64))
                    .collect::<Vec<_>>()
            }),
        )
        .unwrap()
    }

    #[test]
    fn parallel_matches_sequential() {
        let rel = small_noisy_relation();
        let cands = violated_candidates(&rel);
        assert!(!cands.is_empty());
        let measures = all_measures();
        let seq = score_matrix(&rel, &measures, &cands, 1);
        let par = score_matrix(&rel, &measures, &cands, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn cached_matrix_matches_uncached_per_candidate_path() {
        let rel = small_noisy_relation();
        let cands = violated_candidates(&rel);
        let measures = all_measures();
        let m = score_matrix(&rel, &measures, &cands, 2);
        for (ci, fd) in cands.iter().enumerate() {
            let t = fd.contingency(&rel);
            for (mi, measure) in measures.iter().enumerate() {
                assert_eq!(
                    m[mi][ci].to_bits(),
                    measure.score_contingency(&t).to_bits(),
                    "{}",
                    measure.name()
                );
            }
        }
    }

    #[test]
    fn warm_cache_covers_every_candidate_side() {
        let rel = small_noisy_relation();
        let cands = violated_candidates(&rel);
        let cache = warm_cache(&rel, &cands, 2);
        // 3 attributes -> at most 3 distinct sides, regardless of how
        // many candidates reference them.
        assert!(cache.len() <= 3);
        for fd in &cands {
            assert!(cache.contingency_prewarmed(fd).is_some());
        }
    }
}
