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
//! Storage is CSR-style (one flat row vector plus cluster offsets) and
//! the partition product ([`Pli::refine`] / [`Pli::intersect`]) runs on
//! dense generation-stamped scratch counters — no hashing, no per-cluster
//! allocations. The hash-based reference implementations are retained in
//! [`crate::naive`].

use crate::dictionary::NULL_CODE;
use crate::kernels::{with_scratch, Scratch};
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

    /// As [`Pli::from_encoding`], reusing the caller's [`Scratch`]:
    /// a counting sort over group ids keeping only groups of size ≥ 2.
    /// Clusters come out in group-id order, rows ascending within each.
    pub fn from_encoding_with(scratch: &mut Scratch, enc: &GroupEncoding, n_rows: usize) -> Self {
        let n_groups = enc.n_groups as usize;
        scratch.count.ensure(n_groups);
        scratch.count.begin();
        for &c in &enc.codes {
            if c != NULL_CODE {
                scratch.count.bump(c);
            }
        }
        // Reserve output ranges for groups with ≥ 2 rows, in group order.
        scratch.pos.ensure(n_groups);
        scratch.pos.begin();
        let mut starts = Vec::new();
        let mut total = 0u32;
        for g in 0..n_groups as u32 {
            let c = scratch.count.count(g);
            if c >= 2 {
                scratch.pos.set(g, total);
                starts.push(total);
                total += c;
            }
        }
        starts.push(total);
        let mut rows = vec![0u32; total as usize];
        for (row, &c) in enc.codes.iter().enumerate() {
            if c != NULL_CODE {
                if let Some(p) = scratch.pos.get(c) {
                    rows[p as usize] = row as u32;
                    scratch.pos.set(c, p + 1);
                }
            }
        }
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

    /// As [`Pli::refine`], reusing the caller's [`Scratch`]. Two stamped
    /// passes per cluster (tally, then place) — time linear in the
    /// stripped size, zero allocation beyond the output.
    pub fn refine_with(&self, scratch: &mut Scratch, codes: &[u32]) -> Pli {
        assert_eq!(codes.len(), self.n_rows, "codes cover all rows");
        // Codes are dense group ids (or NULL); bound the stamp tables by
        // scanning only the clustered rows, keeping the whole kernel
        // linear in the stripped size.
        let bound = self.code_bound(codes);
        scratch.count.ensure(bound);
        scratch.pos.ensure(bound);
        let mut out_rows: Vec<u32> = Vec::new();
        let mut out_starts: Vec<u32> = Vec::new();
        for ci in 0..self.n_clusters() {
            let cluster = self.cluster(ci);
            scratch.count.begin();
            scratch.touched.clear();
            for &row in cluster {
                let c = codes[row as usize];
                if c == NULL_CODE {
                    continue;
                }
                if scratch.count.bump(c) == 1 {
                    scratch.touched.push(c);
                }
            }
            // Reserve output ranges for subclusters of size ≥ 2, in
            // first-encounter order (deterministic).
            scratch.pos.begin();
            let mut cur = out_rows.len() as u32;
            for ti in 0..scratch.touched.len() {
                let c = scratch.touched[ti];
                let k = scratch.count.count(c);
                if k >= 2 {
                    scratch.pos.set(c, cur);
                    out_starts.push(cur);
                    cur += k;
                }
            }
            out_rows.resize(cur as usize, 0);
            for &row in cluster {
                let c = codes[row as usize];
                if c == NULL_CODE {
                    continue;
                }
                if let Some(p) = scratch.pos.get(c) {
                    out_rows[p as usize] = row;
                    scratch.pos.set(c, p + 1);
                }
            }
        }
        out_starts.push(out_rows.len() as u32);
        Pli {
            rows: out_rows,
            starts: out_starts,
            n_rows: self.n_rows,
        }
    }

    /// Intersection of two PLIs — the partition of the union attribute
    /// set. Probes from the side with the smaller [`Pli::stripped_size`]:
    /// the larger side is materialised as stamped per-row cluster ids
    /// (no `O(n_rows)` clearing), and the smaller side is refined against
    /// them, so cost is linear in the stripped sizes only.
    pub fn intersect(&self, other: &Pli) -> Pli {
        assert_eq!(self.n_rows, other.n_rows, "PLIs over the same relation");
        with_scratch(|scratch| self.intersect_with(scratch, other))
    }

    /// As [`Pli::intersect`], reusing the caller's [`Scratch`].
    pub fn intersect_with(&self, scratch: &mut Scratch, other: &Pli) -> Pli {
        assert_eq!(self.n_rows, other.n_rows, "PLIs over the same relation");
        let (base, probe) = if self.stripped_size() <= other.stripped_size() {
            (self, other)
        } else {
            (other, self)
        };
        // Stamp probe cluster ids onto rows; unstamped rows are probe
        // singletons and can never pair, so they drop out below.
        scratch.map_b.ensure(base.n_rows);
        scratch.map_b.begin();
        for (cid, cluster) in probe.clusters().enumerate() {
            for &row in cluster {
                scratch.map_b.set(row, cid as u32);
            }
        }
        let probe_bound = probe.n_clusters();
        scratch.count.ensure(probe_bound);
        scratch.pos.ensure(probe_bound);
        let mut out_rows: Vec<u32> = Vec::new();
        let mut out_starts: Vec<u32> = Vec::new();
        for ci in 0..base.n_clusters() {
            let cluster = base.cluster(ci);
            scratch.count.begin();
            scratch.touched.clear();
            for &row in cluster {
                let Some(c) = scratch.map_b.get(row) else {
                    continue;
                };
                if scratch.count.bump(c) == 1 {
                    scratch.touched.push(c);
                }
            }
            scratch.pos.begin();
            let mut cur = out_rows.len() as u32;
            for ti in 0..scratch.touched.len() {
                let c = scratch.touched[ti];
                let k = scratch.count.count(c);
                if k >= 2 {
                    scratch.pos.set(c, cur);
                    out_starts.push(cur);
                    cur += k;
                }
            }
            out_rows.resize(cur as usize, 0);
            for &row in cluster {
                let Some(c) = scratch.map_b.get(row) else {
                    continue;
                };
                if let Some(p) = scratch.pos.get(c) {
                    out_rows[p as usize] = row;
                    scratch.pos.set(c, p + 1);
                }
            }
        }
        out_starts.push(out_rows.len() as u32);
        Pli {
            rows: out_rows,
            starts: out_starts,
            n_rows: self.n_rows,
        }
    }

    /// Exclusive upper bound on the non-NULL codes of this PLI's
    /// clustered rows — the stamp-table size the refine kernel
    /// needs. O(stripped size), not O(rows): only clustered rows are
    /// ever looked up.
    fn code_bound(&self, codes: &[u32]) -> usize {
        self.rows
            .iter()
            .map(|&r| codes[r as usize])
            .filter(|&c| c != NULL_CODE)
            .max()
            .map_or(0, |m| m as usize + 1)
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
    fn intersect_equals_direct_multiattr_pli() {
        let r = rel3(&[
            [1, 1, 0],
            [1, 1, 0],
            [1, 2, 0],
            [2, 2, 0],
            [2, 2, 0],
            [2, 1, 0],
        ]);
        let pa = Pli::from_relation(&r, &AttrSet::single(AttrId(0)));
        let pb = Pli::from_relation(&r, &AttrSet::single(AttrId(1)));
        let both = pa.intersect(&pb);
        let direct = Pli::from_relation(&r, &AttrSet::new([AttrId(0), AttrId(1)]));
        assert_eq!(sorted_clusters(&both), sorted_clusters(&direct));
        // And symmetrically (exercises both probe orientations).
        let both_rev = pb.intersect(&pa);
        assert_eq!(sorted_clusters(&both_rev), sorted_clusters(&direct));
    }

    #[test]
    fn intersect_probes_from_smaller_side() {
        // One side far smaller than the other: both orientations agree.
        let rows: Vec<[i64; 3]> = (0..64)
            .map(|i| [i % 2, i, 0]) // A has 2 huge clusters, B is unique-ish
            .collect();
        let mut rows = rows;
        rows.push([0, 0, 0]); // make one B duplicate so pb is non-empty
        let r = rel3(&rows);
        let pa = Pli::from_relation(&r, &AttrSet::single(AttrId(0)));
        let pb = Pli::from_relation(&r, &AttrSet::single(AttrId(1)));
        assert!(pb.stripped_size() < pa.stripped_size());
        let direct = Pli::from_relation(&r, &AttrSet::new([AttrId(0), AttrId(1)]));
        assert_eq!(
            sorted_clusters(&pa.intersect(&pb)),
            sorted_clusters(&direct)
        );
        assert_eq!(
            sorted_clusters(&pb.intersect(&pa)),
            sorted_clusters(&direct)
        );
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
