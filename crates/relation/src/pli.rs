//! Position list indexes (stripped partitions).
//!
//! A [`Pli`] represents the equivalence classes of rows that agree on an
//! attribute set, with singleton classes stripped — the classic TANE
//! structure. PLIs make multi-attribute (non-linear) AFD discovery cheap:
//! the partition of `X ∪ {A}` is the product of the partition of `X` with
//! the codes of `A`, computed in time linear in the stripped size.
//!
//! Rows whose group code is [`NULL_CODE`] are treated as pairwise-distinct
//! (each NULL its own class), matching the paper's NULL semantics: a NULL
//! row never participates in an agree-pair and is dropped from measure
//! computation.
//!
//! Storage is CSR-style (one flat row vector plus cluster offsets). A
//! `Pli` is built and refined ([`Pli::refine`], the partition product) by
//! the same stamped kernels the lattice runs on its nodes,
//! [`strip_codes_into`] and [`refine_stripped_into`] — no hashing, no
//! per-cluster allocations. The hash-based reference implementations are
//! retained in [`crate::naive`].

use crate::dictionary::NULL_CODE;
use crate::kernels::{refine_stripped_into, strip_codes_into, with_scratch, Scratch};
use crate::relation::{GroupEncoding, Relation};
use crate::schema::AttrSet;

/// A stripped partition: clusters (size ≥ 2) of row indices.
#[derive(Debug, Clone)]
pub struct Pli {
    /// Row indices of all clusters, concatenated.
    rows: Vec<u32>,
    /// CSR offsets into `rows`; length `n_clusters() + 1`.
    starts: Vec<u32>,
    n_rows: usize,
}

impl Pli {
    /// Builds the PLI of an attribute set on a relation.
    pub fn from_relation(rel: &Relation, attrs: &AttrSet) -> Self {
        with_scratch(|scratch| {
            let enc = rel.group_encode_with_scratch(
                attrs,
                crate::relation::NullSemantics::DropTuples,
                scratch,
            );
            Self::from_encoding_with(scratch, &enc, rel.n_rows())
        })
    }

    /// Builds a PLI from per-row group codes.
    pub fn from_encoding(enc: &GroupEncoding, n_rows: usize) -> Self {
        with_scratch(|scratch| Self::from_encoding_with(scratch, enc, n_rows))
    }

    /// As [`Pli::from_encoding`], reusing the caller's [`Scratch`]
    /// ([`strip_codes_into`]): clusters come out in group-id order, rows
    /// ascending within each.
    pub fn from_encoding_with(scratch: &mut Scratch, enc: &GroupEncoding, n_rows: usize) -> Self {
        let (mut rows, mut starts, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
        strip_codes_into(
            scratch,
            &enc.codes,
            enc.n_groups,
            &mut rows,
            &mut starts,
            &mut dropped,
        );
        Pli {
            rows,
            starts,
            n_rows,
        }
    }

    /// Builds a PLI directly from clusters (naive reference constructor).
    pub(crate) fn from_clusters(clusters: Vec<Vec<u32>>, n_rows: usize) -> Self {
        let mut rows = Vec::with_capacity(clusters.iter().map(Vec::len).sum());
        let mut starts = Vec::with_capacity(clusters.len() + 1);
        for c in clusters {
            starts.push(rows.len() as u32);
            rows.extend(c);
        }
        starts.push(rows.len() as u32);
        Pli {
            rows,
            starts,
            n_rows,
        }
    }

    /// Number of stripped clusters.
    pub fn n_clusters(&self) -> usize {
        self.starts.len() - 1
    }

    /// The rows of cluster `i`.
    pub fn cluster(&self, i: usize) -> &[u32] {
        &self.rows[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Iterates over the stripped clusters.
    pub fn clusters(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.n_clusters()).map(|i| self.cluster(i))
    }

    /// Number of rows of the underlying relation.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Total number of rows inside clusters (the "stripped size").
    pub fn stripped_size(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff every row is in its own class (a key / unique column).
    pub fn is_unique(&self) -> bool {
        self.rows.is_empty()
    }

    /// Refines this partition with another attribute's per-row codes,
    /// producing the PLI of the union attribute set.
    ///
    /// This is the TANE partition product: within each cluster, rows are
    /// re-grouped by `codes`; NULL rows ([`NULL_CODE`]) fall out.
    pub fn refine(&self, codes: &[u32]) -> Pli {
        with_scratch(|scratch| self.refine_with(scratch, codes))
    }

    /// As [`Pli::refine`], reusing the caller's [`Scratch`]
    /// ([`refine_stripped_into`]): time linear in the stripped size, zero
    /// allocation beyond the output.
    pub fn refine_with(&self, scratch: &mut Scratch, codes: &[u32]) -> Pli {
        assert_eq!(codes.len(), self.n_rows, "codes cover all rows");
        let (mut rows, mut starts) = (Vec::new(), Vec::new());
        refine_stripped_into(
            scratch,
            &self.rows,
            &self.starts,
            codes,
            self.code_bound(codes),
            &mut rows,
            &mut starts,
        );
        Pli {
            rows,
            starts,
            n_rows: self.n_rows,
        }
    }

    /// Exclusive upper bound on the non-NULL codes of this PLI's
    /// clustered rows — the stamp-table size the refine kernel
    /// needs. O(stripped size), not O(rows): only clustered rows are
    /// ever looked up.
    fn code_bound(&self, codes: &[u32]) -> u32 {
        self.rows
            .iter()
            .map(|&r| codes[r as usize])
            .filter(|&c| c != NULL_CODE)
            .max()
            .map_or(0, |m| m + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;
    use crate::value::Value;
    use crate::Schema;

    fn rel3(rows: &[[i64; 3]]) -> Relation {
        Relation::from_rows(
            Schema::new(["A", "B", "C"]).unwrap(),
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>()),
        )
        .unwrap()
    }

    fn sorted_clusters(p: &Pli) -> Vec<Vec<u32>> {
        let mut cs: Vec<Vec<u32>> = p
            .clusters()
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_unstable();
                c
            })
            .collect();
        cs.sort();
        cs
    }

    #[test]
    fn singletons_are_stripped() {
        let r = rel3(&[[1, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]]);
        let p = Pli::from_relation(&r, &AttrSet::single(AttrId(0)));
        assert_eq!(sorted_clusters(&p), vec![vec![0, 1]]);
        assert_eq!(p.stripped_size(), 2);
        assert!(!p.is_unique());
    }

    #[test]
    fn unique_column_gives_empty_pli() {
        let r = rel3(&[[1, 0, 0], [2, 0, 0], [3, 0, 0]]);
        let p = Pli::from_relation(&r, &AttrSet::single(AttrId(0)));
        assert!(p.is_unique());
        assert_eq!(p.n_clusters(), 0);
    }

    #[test]
    fn refine_equals_direct_multiattr_pli() {
        let r = rel3(&[
            [1, 1, 0],
            [1, 1, 0],
            [1, 2, 0],
            [2, 1, 0],
            [2, 1, 0],
            [1, 1, 0],
        ]);
        let pa = Pli::from_relation(&r, &AttrSet::single(AttrId(0)));
        let refined = pa.refine(r.group_encode(&AttrSet::single(AttrId(1))).codes.as_slice());
        let direct = Pli::from_relation(&r, &AttrSet::new([AttrId(0), AttrId(1)]));
        assert_eq!(sorted_clusters(&refined), sorted_clusters(&direct));
    }

    #[test]
    fn null_rows_form_no_pairs() {
        let mut r = rel3(&[[1, 0, 0], [1, 0, 0], [1, 0, 0]]);
        r.set_value(2, AttrId(0), Value::Null);
        let p = Pli::from_relation(&r, &AttrSet::single(AttrId(0)));
        assert_eq!(sorted_clusters(&p), vec![vec![0, 1]]);
    }

    #[test]
    fn refine_matches_naive_reference() {
        let r = rel3(&[
            [1, 1, 0],
            [1, 1, 0],
            [1, 2, 1],
            [2, 1, 1],
            [2, 1, 0],
            [1, 1, 1],
            [2, 2, 0],
            [1, 2, 1],
        ]);
        let pa = Pli::from_relation(&r, &AttrSet::single(AttrId(0)));
        let codes = r.group_encode(&AttrSet::single(AttrId(1))).codes;
        let fast = pa.refine(&codes);
        let slow = crate::naive::pli_refine(&pa, &codes);
        assert_eq!(sorted_clusters(&fast), sorted_clusters(&slow));
    }
}
