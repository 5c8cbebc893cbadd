//! Retained naive reference implementations of the partition kernels.
//!
//! These are the original hash-based inner loops that the stamped-array
//! kernels in [`crate::kernels`] replaced. They are kept (and exported)
//! for two reasons:
//!
//! * **correctness pinning** — the crate's property tests assert
//!   `optimized ≡ naive` on random relations with NULLs;
//! * **benchmark baselines** — `afd-bench`'s `substrate` bench and
//!   `BENCH_substrate.json` report optimized-vs-naive speedups.
//!
//! They allocate per row / per cluster by design; do not use them on hot
//! paths.

use std::collections::HashMap;

use crate::dictionary::NULL_CODE;
use crate::relation::{GroupEncoding, NullSemantics, Relation};
use crate::schema::{AttrId, AttrSet};
use crate::value::Value;
use crate::{ContingencyTable, Pli, Schema};

/// Reference [`ContingencyTable::from_codes`]: per-row `HashMap` lookups
/// with one map per X-group.
pub fn contingency_from_codes(x_codes: &[u32], y_codes: &[u32]) -> ContingencyTable {
    assert_eq!(x_codes.len(), y_codes.len(), "parallel code slices");
    let mut xmap: HashMap<u32, u32> = HashMap::new();
    let mut ymap: HashMap<u32, u32> = HashMap::new();
    let mut cells: Vec<HashMap<u32, u64>> = Vec::new();
    let mut row_totals: Vec<u64> = Vec::new();
    let mut col_totals: Vec<u64> = Vec::new();
    let mut n = 0u64;
    for (&xc, &yc) in x_codes.iter().zip(y_codes) {
        if xc == NULL_CODE || yc == NULL_CODE {
            continue;
        }
        let xn = xmap.len() as u32;
        let i = *xmap.entry(xc).or_insert(xn);
        if i as usize == cells.len() {
            cells.push(HashMap::new());
            row_totals.push(0);
        }
        let yn = ymap.len() as u32;
        let j = *ymap.entry(yc).or_insert(yn);
        if j as usize == col_totals.len() {
            col_totals.push(0);
        }
        *cells[i as usize].entry(j).or_insert(0) += 1;
        row_totals[i as usize] += 1;
        col_totals[j as usize] += 1;
        n += 1;
    }
    let rows = cells
        .into_iter()
        .map(|m| {
            let mut v: Vec<(u32, u64)> = m.into_iter().collect();
            v.sort_unstable_by_key(|&(j, _)| j);
            v
        })
        .collect();
    ContingencyTable::from_sparse_rows(rows, row_totals, col_totals, n)
}

/// Reference [`Pli::from_encoding`]: one bucket `Vec` per group.
pub fn pli_from_encoding(enc: &GroupEncoding, n_rows: usize) -> Pli {
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); enc.n_groups as usize];
    for (row, &c) in enc.codes.iter().enumerate() {
        if c != NULL_CODE {
            buckets[c as usize].push(row as u32);
        }
    }
    let clusters: Vec<Vec<u32>> = buckets.into_iter().filter(|b| b.len() >= 2).collect();
    Pli::from_clusters(clusters, n_rows)
}

/// Reference [`Pli::refine`]: a fresh probe `HashMap` per cluster.
///
/// Cluster order is normalised (sorted) because `HashMap::drain` yields
/// arbitrary order; compare partitions up to cluster renaming.
pub fn pli_refine(pli: &Pli, codes: &[u32]) -> Pli {
    assert_eq!(codes.len(), pli.n_rows(), "codes cover all rows");
    let mut clusters = Vec::new();
    let mut probe: HashMap<u32, Vec<u32>> = HashMap::new();
    for cluster in pli.clusters() {
        probe.clear();
        for &row in cluster {
            let c = codes[row as usize];
            if c != NULL_CODE {
                probe.entry(c).or_default().push(row);
            }
        }
        for (_, rows) in probe.drain() {
            if rows.len() >= 2 {
                clusters.push(rows);
            }
        }
    }
    clusters.sort();
    Pli::from_clusters(clusters, pli.n_rows())
}

/// Reference [`Relation::project`]: materialises every cell as a
/// [`Value`] and re-interns it row by row.
pub fn project(rel: &Relation, attrs: &AttrSet) -> Relation {
    let schema = Schema::new(
        attrs
            .ids()
            .iter()
            .map(|&a| rel.schema().name(a).to_string()),
    )
    .expect("attribute names unique in source schema");
    let mut out = Relation::empty(schema);
    for r in 0..rel.n_rows() {
        let row: Vec<Value> = attrs.ids().iter().map(|&a| rel.value(r, a)).collect();
        out.push_row(row).expect("arity matches");
    }
    out
}

/// Reference [`Relation::filter_rows`]: pushes kept rows value by value.
pub fn filter_rows(rel: &Relation, mut keep: impl FnMut(usize) -> bool) -> Relation {
    let mut out = Relation::empty(rel.schema().clone());
    for r in 0..rel.n_rows() {
        if keep(r) {
            out.push_row(rel.row(r)).expect("same arity");
        }
    }
    out
}

/// Reference multi-attribute [`Relation::group_encode_with`]: composite
/// `Vec<u32>` keys cloned into a `HashMap` per distinct group.
pub fn group_encode_multi(rel: &Relation, ids: &[AttrId], nulls: NullSemantics) -> GroupEncoding {
    let cols: Vec<_> = ids.iter().map(|&a| rel.column(a)).collect();
    let mut index: HashMap<Vec<u32>, u32> = HashMap::new();
    let mut codes = Vec::with_capacity(rel.n_rows());
    let mut key = Vec::with_capacity(ids.len());
    'rows: for r in 0..rel.n_rows() {
        key.clear();
        for col in &cols {
            let c = col.codes()[r];
            if c == NULL_CODE && nulls == NullSemantics::DropTuples {
                codes.push(NULL_CODE);
                continue 'rows;
            }
            // Under NullAsValue, NULL_CODE acts as one ordinary symbol
            // inside the composite key.
            key.push(c);
        }
        let next = index.len() as u32;
        let id = *index.entry(key.clone()).or_insert(next);
        codes.push(id);
    }
    GroupEncoding {
        n_groups: index.len() as u32,
        codes,
    }
}
