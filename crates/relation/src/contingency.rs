//! Contingency tables: the joint frequency structure every AFD measure
//! consumes.
//!
//! For a candidate FD `X -> Y` over relation `R`, the contingency table
//! holds the nonzero joint counts `n_ij` of each distinct (non-NULL)
//! `X`-tuple `x_i` with each distinct `Y`-tuple `y_j`, along with the row
//! sums `a_i = |σ_{X=x_i}(R)|`, the column sums `b_j = |σ_{Y=y_j}(R)|` and
//! the total `N`. Rows with a NULL in `X ∪ Y` are dropped, implementing the
//! paper's Section VI-A semantics.
//!
//! Storage is CSR-style: one flat cell vector plus per-X-group offsets,
//! built by [`ContingencyTable::from_codes_with`] using only dense
//! stamped scratch arrays (no hashing, no per-group allocations) — a
//! counting sort by X-group followed by a stamped tally per group. The
//! hash-based reference implementation is retained as
//! [`crate::naive::contingency_from_codes`].
//!
//! ## Exact sums: the same bits in every order
//!
//! The float measures read sums of `sq/a` per X-group (pdep, τ, µ⁺) and
//! of `v·lg v` per row total, cell and column total (g1ˢ, FI). Both are
//! [`ExactSum`]s, carried by [`Summary`] and [`ShannonSums`], so a
//! shuffled relation, a stripped table, the tally below and a stream
//! (`afd-stream`) all score the same bits.
//!
//! ## Stripped candidates: the tally and implicit singletons
//!
//! The stripped lattice (TANE-style discovery in `afd-discovery`) stores
//! only the rows of non-singleton X-groups, and scores each candidate
//! against a [`YSide`] built once per RHS attribute. Two kernels read
//! that layout:
//!
//! * [`crate::YMatrix::tally_with`] (module [`crate::tally`]) fills the
//!   [`Summary`] of every candidate RHS of an LHS set in one pass over
//!   its clusters, with no allocation and no table built. Small groups
//!   are compared lane-wise over the RHS codes laid out row-major;
//!   larger groups keep a stamped counter per RHS. Y-NULL rows are
//!   skipped, X-NULL rows come off the column totals in `O(dropped)`,
//!   and the singleton X-groups outside the clusters are counted
//!   arithmetically. Each summary equals the full-codes table's
//!   [`ContingencyTable::summary`], NULLs included. Every measure whose
//!   formula reads only a [`Summary`] scores from it. The tally leaves
//!   the [`ShannonSums`] out: a `log2` per group would cost every
//!   candidate of every measure.
//! * [`ContingencyTable::from_stripped_with`] builds the table of a
//!   NULL-free candidate for the measures that read cells. Each
//!   singleton X-group stays implicit (row total 1, one cell of count 1),
//!   and every aggregate ([`ContingencyTable::n_x`],
//!   [`ContingencyTable::sum_row_max`], [`ContingencyTable::summary`],
//!   [`ContingencyTable::shannon_sums`], ...) folds them in
//!   arithmetically; an implicit singleton adds exactly 0 to the Shannon
//!   sums. Row-level accessors ([`ContingencyTable::row_totals`],
//!   [`ContingencyTable::row`], [`ContingencyTable::cells`]) expose
//!   **explicit** groups only; callers that iterate rows must add the
//!   implicit contribution themselves. The per-Y distribution of the
//!   implicit rows stays recoverable as
//!   [`ContingencyTable::implicit_col_counts`] because `col_totals`
//!   always covers *all* surviving rows.

use crate::dictionary::NULL_CODE;
use crate::kernels::{with_scratch, Scratch};
use crate::relation::{NullSemantics, Relation};
use crate::schema::AttrSet;

/// A sparse `K_X × K_Y` joint frequency table.
#[derive(Debug, Clone)]
pub struct ContingencyTable {
    n: u64,
    row_totals: Vec<u64>,
    col_totals: Vec<u64>,
    /// Nonzero cells `(y_index, count)` of all X-groups, row-major,
    /// sorted by `y_index` within each row.
    cells: Vec<(u32, u64)>,
    /// CSR offsets into `cells`; length `n_explicit_x() + 1`.
    row_starts: Vec<u32>,
    /// Number of X-groups with a single row that are *not* materialised
    /// in `row_totals`/`cells` (each has row total 1 and one cell of
    /// count 1). Always 0 for tables built from full per-row codes.
    implicit_singletons: u64,
}

impl ContingencyTable {
    /// Builds the contingency table of `x_attrs` vs `y_attrs` on `rel`,
    /// dropping rows with a NULL in either side (the paper's semantics).
    pub fn from_relation(rel: &Relation, x_attrs: &AttrSet, y_attrs: &AttrSet) -> Self {
        Self::from_relation_with(rel, x_attrs, y_attrs, NullSemantics::DropTuples)
    }

    /// As [`ContingencyTable::from_relation`] with explicit NULL
    /// semantics ([`NullSemantics::NullAsValue`] keeps NULL rows, grouping
    /// all NULLs as one value).
    pub fn from_relation_with(
        rel: &Relation,
        x_attrs: &AttrSet,
        y_attrs: &AttrSet,
        nulls: NullSemantics,
    ) -> Self {
        with_scratch(|scratch| {
            let gx = rel.group_encode_with_scratch(x_attrs, nulls, scratch);
            let gy = rel.group_encode_with_scratch(y_attrs, nulls, scratch);
            Self::from_codes_with(scratch, &gx.codes, &gy.codes)
        })
    }

    /// Builds the table from parallel per-row group codes ([`NULL_CODE`]
    /// marks rows to drop). Codes need not be dense; they are remapped.
    pub fn from_codes(x_codes: &[u32], y_codes: &[u32]) -> Self {
        with_scratch(|scratch| Self::from_codes_with(scratch, x_codes, y_codes))
    }

    /// As [`ContingencyTable::from_codes`], reusing the caller's
    /// [`Scratch`] — the allocation-free kernel behind every measure
    /// evaluation. Group indices are assigned in first-encounter (row)
    /// order on both axes, exactly like the naive reference.
    pub fn from_codes_with(scratch: &mut Scratch, x_codes: &[u32], y_codes: &[u32]) -> Self {
        assert_eq!(x_codes.len(), y_codes.len(), "parallel code slices");
        // Pass 0: key bounds for the dense remap tables.
        let (mut max_x, mut max_y, mut any) = (0u32, 0u32, false);
        for (&xc, &yc) in x_codes.iter().zip(y_codes) {
            if xc != NULL_CODE && yc != NULL_CODE {
                any = true;
                max_x = max_x.max(xc);
                max_y = max_y.max(yc);
            }
        }
        if !any {
            return ContingencyTable {
                n: 0,
                row_totals: Vec::new(),
                col_totals: Vec::new(),
                cells: Vec::new(),
                row_starts: vec![0],
                implicit_singletons: 0,
            };
        }
        scratch.map_a.ensure(max_x as usize + 1);
        scratch.map_b.ensure(max_y as usize + 1);
        scratch.map_a.begin();
        scratch.map_b.begin();
        let mut row_totals: Vec<u64> = Vec::new();
        let mut col_totals: Vec<u64> = Vec::new();
        // Pass 1: remap both sides to dense first-encounter ids.
        let mut xs = std::mem::take(&mut scratch.buf_a);
        let mut ys = std::mem::take(&mut scratch.buf_b);
        xs.clear();
        ys.clear();
        for (&xc, &yc) in x_codes.iter().zip(y_codes) {
            if xc == NULL_CODE || yc == NULL_CODE {
                continue;
            }
            let xi = match scratch.map_a.get(xc) {
                Some(v) => v,
                None => {
                    let id = row_totals.len() as u32;
                    scratch.map_a.set(xc, id);
                    row_totals.push(0);
                    id
                }
            };
            let yj = match scratch.map_b.get(yc) {
                Some(v) => v,
                None => {
                    let id = col_totals.len() as u32;
                    scratch.map_b.set(yc, id);
                    col_totals.push(0);
                    id
                }
            };
            row_totals[xi as usize] += 1;
            col_totals[yj as usize] += 1;
            xs.push(xi);
            ys.push(yj);
        }
        let n = xs.len() as u64;
        let kx = row_totals.len();
        // Pass 2: counting sort of the Y ids by X-group.
        let cursors = &mut scratch.buf_c;
        cursors.clear();
        let mut acc = 0u32;
        for &t in &row_totals {
            cursors.push(acc);
            acc += t as u32;
        }
        let sorted_y = &mut scratch.buf_d;
        sorted_y.clear();
        sorted_y.resize(xs.len(), 0);
        for (&xi, &yj) in xs.iter().zip(ys.iter()) {
            let c = &mut cursors[xi as usize];
            sorted_y[*c as usize] = yj;
            *c += 1;
        }
        // Pass 3: stamped tally per X-group, emitting CSR cells sorted
        // by y index.
        scratch.count.ensure(col_totals.len());
        let mut cells: Vec<(u32, u64)> = Vec::new();
        let mut row_starts: Vec<u32> = Vec::with_capacity(kx + 1);
        let mut start = 0usize;
        for (i, &total) in row_totals.iter().enumerate() {
            let end = start + total as usize;
            scratch.count.begin();
            scratch.touched.clear();
            for &yj in &sorted_y[start..end] {
                if scratch.count.bump(yj) == 1 {
                    scratch.touched.push(yj);
                }
            }
            scratch.touched.sort_unstable();
            row_starts.push(cells.len() as u32);
            for &yj in &scratch.touched {
                cells.push((yj, scratch.count.count(yj).into()));
            }
            debug_assert_eq!(i + 1, row_starts.len());
            start = end;
        }
        row_starts.push(cells.len() as u32);
        scratch.buf_a = xs;
        scratch.buf_b = ys;
        ContingencyTable {
            n,
            row_totals,
            col_totals,
            cells,
            row_starts,
            implicit_singletons: 0,
        }
    }

    /// Internal constructor from per-X-group sparse rows (used by the
    /// naive reference implementation in [`crate::naive`]).
    pub(crate) fn from_sparse_rows(
        rows: Vec<Vec<(u32, u64)>>,
        row_totals: Vec<u64>,
        col_totals: Vec<u64>,
        n: u64,
    ) -> Self {
        let mut cells = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        let mut row_starts = Vec::with_capacity(rows.len() + 1);
        for row in rows {
            row_starts.push(cells.len() as u32);
            cells.extend(row);
        }
        row_starts.push(cells.len() as u32);
        ContingencyTable {
            n,
            row_totals,
            col_totals,
            cells,
            row_starts,
            implicit_singletons: 0,
        }
    }

    /// Builds a table from a dense count matrix (`counts[i][j] = n_ij`).
    /// Zero rows/columns are dropped so margins stay strictly positive.
    pub fn from_counts(counts: &[Vec<u64>]) -> Self {
        let n_cols = counts.iter().map(Vec::len).max().unwrap_or(0);
        let mut col_totals = vec![0u64; n_cols];
        let mut rows = Vec::new();
        let mut row_totals = Vec::new();
        let mut n = 0u64;
        for row in counts {
            let mut cells = Vec::new();
            let mut total = 0u64;
            for (j, &c) in row.iter().enumerate() {
                if c > 0 {
                    cells.push((j as u32, c));
                    col_totals[j] += c;
                    total += c;
                    n += c;
                }
            }
            if total > 0 {
                rows.push(cells);
                row_totals.push(total);
            }
        }
        // Compact away all-zero columns.
        let mut remap = vec![u32::MAX; n_cols];
        let mut next = 0u32;
        for (j, &t) in col_totals.iter().enumerate() {
            if t > 0 {
                remap[j] = next;
                next += 1;
            }
        }
        for row in &mut rows {
            for cell in row.iter_mut() {
                cell.0 = remap[cell.0 as usize];
            }
        }
        let col_totals = col_totals.into_iter().filter(|&t| t > 0).collect();
        Self::from_sparse_rows(rows, row_totals, col_totals, n)
    }

    /// Builds the table of a *stripped* X-partition against a shared
    /// [`YSide`] — the table path of the stripped lattice in
    /// `afd-discovery`, for measures that read cells.
    ///
    /// `cluster_rows`/`cluster_starts` are the CSR clusters (size ≥ 2) of
    /// the X-partition, **ordered by first row** with rows ascending
    /// inside each cluster — the first-encounter group order the
    /// full-codes path would produce. Every row outside the clusters is
    /// an implicit singleton X-group.
    ///
    /// The caller guarantees there are no NULLs on either side (the
    /// stripped lattice falls back to [`ContingencyTable::from_codes_with`]
    /// otherwise). Under that contract the resulting table is identical
    /// to the full-codes table up to the implicit representation of
    /// singleton groups, and every measure score that reads it through
    /// the aggregate accessors is **bit-identical**.
    pub fn from_stripped_with(
        scratch: &mut Scratch,
        cluster_rows: &[u32],
        cluster_starts: &[u32],
        y: &YSide,
    ) -> Self {
        debug_assert!(!y.has_nulls(), "stripped table requires NULL-free sides");
        let n_clusters = cluster_starts.len().saturating_sub(1);
        scratch.count.ensure(y.col_totals.len());
        let mut row_totals: Vec<u64> = Vec::with_capacity(n_clusters);
        let mut cells: Vec<(u32, u64)> = Vec::new();
        let mut row_starts: Vec<u32> = Vec::with_capacity(n_clusters + 1);
        for ci in 0..n_clusters {
            let cluster =
                &cluster_rows[cluster_starts[ci] as usize..cluster_starts[ci + 1] as usize];
            scratch.count.begin();
            scratch.touched.clear();
            for &row in cluster {
                let yc = y.codes[row as usize];
                if scratch.count.bump(yc) == 1 {
                    scratch.touched.push(yc);
                }
            }
            scratch.touched.sort_unstable();
            row_starts.push(cells.len() as u32);
            for &yc in &scratch.touched {
                cells.push((yc, scratch.count.count(yc).into()));
            }
            row_totals.push(cluster.len() as u64);
        }
        row_starts.push(cells.len() as u32);
        ContingencyTable {
            n: y.n,
            row_totals,
            col_totals: y.col_totals.clone(),
            cells,
            row_starts,
            implicit_singletons: y.n - cluster_rows.len() as u64,
        }
    }

    /// Total count `N` (tuples surviving NULL filtering).
    pub fn n(&self) -> u64 {
        self.n
    }

    /// `true` iff no tuple survived NULL filtering.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `K_X`: number of distinct X-tuples (`|dom_R(X)|`), implicit
    /// singleton groups included.
    pub fn n_x(&self) -> usize {
        self.row_totals.len() + self.implicit_singletons as usize
    }

    /// Number of *materialised* X-groups — the index bound for
    /// [`ContingencyTable::row`] / [`ContingencyTable::row_totals`].
    /// Equals [`ContingencyTable::n_x`] unless the table was built from a
    /// stripped partition.
    pub fn n_explicit_x(&self) -> usize {
        self.row_totals.len()
    }

    /// Number of non-materialised singleton X-groups (row total 1, one
    /// cell of count 1 each). Zero for tables built from full codes.
    pub fn implicit_singletons(&self) -> u64 {
        self.implicit_singletons
    }

    /// Per-Y counts of the implicit singleton rows: `col_totals` minus
    /// the explicit cells. Lets consumers that need the full joint
    /// distribution (e.g. permutation Monte-Carlo expansion) reconstruct
    /// the singleton cells — their Y values are recoverable even though
    /// their X positions are not.
    pub fn implicit_col_counts(&self) -> Vec<u64> {
        let mut counts = self.col_totals.clone();
        for &(j, c) in &self.cells {
            counts[j as usize] -= c;
        }
        counts
    }

    /// `K_Y`: number of distinct Y-tuples (`|dom_R(Y)|`).
    pub fn n_y(&self) -> usize {
        self.col_totals.len()
    }

    /// Row sums `a_i` of the **explicit** X-groups (see
    /// [`ContingencyTable::n_explicit_x`]).
    pub fn row_totals(&self) -> &[u64] {
        &self.row_totals
    }

    /// Column sums `b_j`.
    pub fn col_totals(&self) -> &[u64] {
        &self.col_totals
    }

    /// Sparse cells of **explicit** X-group `i`: `(y_index, n_ij)` sorted
    /// by `y_index`.
    pub fn row(&self, i: usize) -> &[(u32, u64)] {
        &self.cells[self.row_starts[i] as usize..self.row_starts[i + 1] as usize]
    }

    /// Iterates over `(i, j, n_ij)` for all nonzero **explicit** cells
    /// (implicit singleton cells are not materialised; see
    /// [`ContingencyTable::implicit_singletons`]).
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        (0..self.n_explicit_x())
            .flat_map(move |i| self.row(i).iter().map(move |&(j, c)| (i, j as usize, c)))
    }

    /// Number of nonzero cells, i.e. `|dom_R(XY)|` (implicit singleton
    /// groups carry one cell each).
    pub fn nonzero_cells(&self) -> usize {
        self.cells.len() + self.implicit_singletons as usize
    }

    /// `true` iff the FD `X -> Y` holds exactly on the NULL-filtered data:
    /// every X-group maps to a single Y-value (implicit singletons
    /// trivially do). Vacuously true when empty.
    pub fn is_exact_fd(&self) -> bool {
        self.row_starts.windows(2).all(|w| w[1] - w[0] <= 1)
    }

    /// `Σ_i max_j n_ij` — the size of the largest FD-satisfying subrelation
    /// (numerator of `g3`).
    pub fn sum_row_max(&self) -> u64 {
        (0..self.n_explicit_x())
            .map(|i| self.row(i).iter().map(|&(_, c)| c).max().unwrap_or(0))
            .sum::<u64>()
            + self.implicit_singletons
    }

    /// `Σ_ij n_ij²` — used by `g1'` and logical entropy.
    pub fn sum_sq_cells(&self) -> u64 {
        self.cells.iter().map(|&(_, c)| c * c).sum::<u64>() + self.implicit_singletons
    }

    /// `Σ_i a_i²`.
    pub fn sum_sq_rows(&self) -> u64 {
        self.row_totals.iter().map(|&a| a * a).sum::<u64>() + self.implicit_singletons
    }

    /// `Σ_j b_j²`.
    pub fn sum_sq_cols(&self) -> u64 {
        self.col_totals.iter().map(|&b| b * b).sum()
    }

    /// The table's [`Summary`]. An implicit singleton group adds `1/1`
    /// to the exact pdep sum, like its full-codes twin.
    pub fn summary(&self) -> Summary {
        // Each implicit singleton group is one cell of count 1.
        let mut s = Summary {
            n: self.n,
            n_x: self.n_x(),
            nonzero_cells: self.nonzero_cells(),
            sum_row_max: self.implicit_singletons,
            sum_sq_rows: self.sum_sq_rows(),
            sum_sq_cells: self.implicit_singletons,
            sum_sq_cols: self.sum_sq_cols(),
            ..Summary::default()
        };
        s.pdep_sum.add_sq_over_a(1, 1, self.implicit_singletons);
        for (i, &a) in self.row_totals.iter().enumerate() {
            let row = self.row(i);
            let (mut max, mut sq) = (0, 0);
            for &(_, c) in row {
                max = max.max(c);
                sq += c * c;
            }
            s.sum_row_max += max;
            s.sum_sq_cells += sq;
            if row.len() >= 2 {
                s.violating_rows += a;
            }
            s.pdep_sum.add_sq_over_a(sq, a, 1);
        }
        s
    }

    /// The table's exact [`ShannonSums`]. An implicit singleton group
    /// adds `1·lg 1 = 0` to the row and cell sums, so a stripped table
    /// and its full-codes twin give the same sums.
    pub fn shannon_sums(&self) -> ShannonSums {
        let mut h = ShannonSums {
            n: self.n,
            ..ShannonSums::default()
        };
        for (i, &a) in self.row_totals.iter().enumerate() {
            let before = h.rows;
            h.rows.add_v_lg_v(a, 1);
            match self.row(i) {
                // A one-cell group's cell term is its row term.
                [_] => h.cells.0 += h.rows.0 - before.0,
                row => row.iter().for_each(|&(_, c)| h.cells.add_v_lg_v(c, 1)),
            }
        }
        for &b in &self.col_totals {
            h.cols.add_v_lg_v(b, 1);
        }
        h
    }
}

/// The Y side of stripped candidates for one RHS attribute, built once
/// and shared by every candidate scored against it: the attribute's
/// dense first-encounter codes over all rows ([`NULL_CODE`] for NULL),
/// the per-Y totals over its non-NULL rows, their count and `Σ b²`, and
/// the number of NULL rows.
#[derive(Debug)]
pub struct YSide<'a> {
    codes: &'a [u32],
    pub(crate) col_totals: Vec<u64>,
    pub(crate) n: u64,
    pub(crate) sum_sq_cols: u64,
    nulls: u64,
}

impl<'a> YSide<'a> {
    /// The Y side of dense per-row codes below `n_groups` (a
    /// single-attribute [`crate::GroupEncoding`]).
    pub fn new(codes: &'a [u32], n_groups: u32) -> Self {
        let mut col_totals = vec![0u64; n_groups as usize];
        let mut nulls = 0;
        for &c in codes {
            if c == NULL_CODE {
                nulls += 1;
            } else {
                col_totals[c as usize] += 1;
            }
        }
        YSide {
            codes,
            n: codes.len() as u64 - nulls,
            sum_sq_cols: col_totals.iter().map(|&b| b * b).sum(),
            col_totals,
            nulls,
        }
    }

    /// The per-row codes.
    pub fn codes(&self) -> &'a [u32] {
        self.codes
    }

    /// `true` iff some row is NULL on this side.
    pub fn has_nulls(&self) -> bool {
        self.nulls > 0
    }
}

/// The aggregates of one candidate's contingency table that the measures
/// reading no cells consume: `N`, `K_X`, the nonzero cells, `Σ max`, the
/// rows of violating groups, the three sums of squares, and the exact
/// pdep sum `Σ sq/a`. Produced by [`ContingencyTable::summary`] from a
/// built table, by [`crate::YMatrix::tally_with`] straight from a stripped
/// partition, or by [`Summary::from_aggregates`] from counts maintained
/// elsewhere; all give the same value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    n: u64,
    n_x: usize,
    nonzero_cells: usize,
    sum_row_max: u64,
    violating_rows: u64,
    sum_sq_rows: u64,
    sum_sq_cells: u64,
    sum_sq_cols: u64,
    pdep_sum: ExactSum,
}

impl Summary {
    /// The summary of aggregates maintained elsewhere (a stream), in
    /// field order; the sums of squares are `[Σ a², Σ n², Σ b²]`.
    pub fn from_aggregates(
        n: u64,
        n_x: usize,
        nonzero_cells: usize,
        sum_row_max: u64,
        violating_rows: u64,
        [sum_sq_rows, sum_sq_cells, sum_sq_cols]: [u64; 3],
        pdep_sum: ExactSum,
    ) -> Summary {
        Summary {
            n,
            n_x,
            nonzero_cells,
            sum_row_max,
            violating_rows,
            sum_sq_rows,
            sum_sq_cells,
            sum_sq_cols,
            pdep_sum,
        }
    }

    /// Total count `N`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// `K_X`: number of distinct X-tuples.
    pub fn n_x(&self) -> usize {
        self.n_x
    }

    /// Number of nonzero cells, `|dom_R(XY)|`.
    pub fn nonzero_cells(&self) -> usize {
        self.nonzero_cells
    }

    /// `Σ_i max_j n_ij`.
    pub fn sum_row_max(&self) -> u64 {
        self.sum_row_max
    }

    /// Rows of the X-groups with at least two distinct Y values — the
    /// tuples in a violating pair (g2).
    pub fn violating_rows(&self) -> u64 {
        self.violating_rows
    }

    /// `Σ_i a_i²`.
    pub fn sum_sq_rows(&self) -> u64 {
        self.sum_sq_rows
    }

    /// `Σ_ij n_ij²`.
    pub fn sum_sq_cells(&self) -> u64 {
        self.sum_sq_cells
    }

    /// `Σ_j b_j²`.
    pub fn sum_sq_cols(&self) -> u64 {
        self.sum_sq_cols
    }

    /// `Σ_i (Σ_j n_ij²)/a_i`, exactly: `N · pdep(X → Y)`.
    pub fn pdep_sum(&self) -> ExactSum {
        self.pdep_sum
    }

    /// `true` iff the FD `X -> Y` holds exactly: every X-group has one
    /// cell. Vacuously true when empty.
    pub fn is_exact_fd(&self) -> bool {
        self.nonzero_cells == self.n_x
    }
}

/// An exact sum of `f64` terms that are each 0 or ≥ 1. Such a term is a
/// whole number of units of 2⁻⁵², so the sum is kept as an `i128` count
/// of those units: every order of additions, and every merge of partial
/// sums, gives the same integer, and [`ExactSum::value`] rounds it once.
/// Only the two terms the measures read can be added.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactSum(pub(crate) i128);

impl ExactSum {
    /// Adds `mult` times `sq/a`, the pdep term of an X-group with row
    /// total `a` and `Σ_j n_j² = sq` (`sq ≥ a ≥ 1`, so the term is ≥ 1).
    #[inline]
    pub fn add_sq_over_a(&mut self, sq: u64, a: u64, mult: u64) {
        self.add(sq as f64 / a as f64, mult);
    }

    /// Adds `mult` times `v·lg v`, the Shannon term of a count `v`
    /// (exactly 0 at `v = 1`, ≥ 2 above).
    #[inline]
    pub fn add_v_lg_v(&mut self, v: u64, mult: u64) {
        if v > 1 {
            let v = v as f64;
            self.add(v * v.log2(), mult);
        }
    }

    #[inline]
    fn add(&mut self, term: f64, mult: u64) {
        self.0 += units(term) * i128::from(mult);
    }

    /// The sum, rounded once to the nearest `f64`.
    pub fn value(self) -> f64 {
        // `f64::EPSILON` is exactly 2⁻⁵².
        self.0 as f64 * f64::EPSILON
    }
}

impl std::ops::Sub for ExactSum {
    type Output = ExactSum;
    fn sub(self, other: ExactSum) -> ExactSum {
        ExactSum(self.0 - other.0)
    }
}

/// `term` (0, or in `[1, 2⁷⁵)`) in units of 2⁻⁵², exactly: the 53-bit
/// significand shifted by the unbiased exponent (an `as i128` cast goes
/// through a much slower software conversion). A `const fn`, so the
/// tally's table of small-group pdep terms is built at compile time.
#[inline]
pub(crate) const fn units(term: f64) -> i128 {
    let bits = term.to_bits();
    if bits == 0 {
        return 0;
    }
    let exp = (bits >> 52) as u32;
    debug_assert!(exp >= 1023 && exp < 1023 + 75, "term out of range");
    let significand = (bits & ((1 << 52) - 1)) | (1 << 52);
    ((significand as u128) << (exp - 1023)) as i128
}

/// The exact Shannon sums of a table: `N` and `Σ v·lg v` over its row
/// totals, cells and column totals. Every Shannon quantity is a
/// difference of these over `N` (`afd-entropy`), so it is order-free up
/// to one rounding. Produced by [`ContingencyTable::shannon_sums`], or
/// filled from counts maintained elsewhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShannonSums {
    /// Total count `N`.
    pub n: u64,
    /// `Σ_i a_i·lg a_i` over the row totals.
    pub rows: ExactSum,
    /// `Σ_ij n_ij·lg n_ij` over the cells.
    pub cells: ExactSum,
    /// `Σ_j b_j·lg b_j` over the column totals.
    pub cols: ExactSum,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;
    use crate::tally::YMatrix;
    use crate::value::Value;
    use crate::Schema;

    fn table(pairs: &[(u64, u64)]) -> ContingencyTable {
        let rel = Relation::from_pairs(pairs.iter().copied());
        ContingencyTable::from_relation(
            &rel,
            &AttrSet::single(AttrId(0)),
            &AttrSet::single(AttrId(1)),
        )
    }

    #[test]
    fn margins_sum_to_n() {
        let t = table(&[(1, 1), (1, 2), (2, 1), (2, 1), (3, 3)]);
        assert_eq!(t.n(), 5);
        assert_eq!(t.row_totals().iter().sum::<u64>(), 5);
        assert_eq!(t.col_totals().iter().sum::<u64>(), 5);
        assert_eq!(t.cells().map(|(_, _, c)| c).sum::<u64>(), 5);
        assert_eq!(t.n_x(), 3);
        assert_eq!(t.n_y(), 3);
        assert_eq!(t.nonzero_cells(), 4);
    }

    #[test]
    fn exact_fd_detection() {
        assert!(table(&[(1, 1), (1, 1), (2, 2)]).is_exact_fd());
        assert!(!table(&[(1, 1), (1, 2)]).is_exact_fd());
        assert!(table(&[]).is_exact_fd());
    }

    #[test]
    fn null_rows_dropped() {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let mut rel = Relation::empty(schema);
        rel.push_row([Value::Int(1), Value::Int(1)]).unwrap();
        rel.push_row([Value::Null, Value::Int(1)]).unwrap();
        rel.push_row([Value::Int(1), Value::Null]).unwrap();
        rel.push_row([Value::Int(2), Value::Int(2)]).unwrap();
        let t = ContingencyTable::from_relation(
            &rel,
            &AttrSet::single(AttrId(0)),
            &AttrSet::single(AttrId(1)),
        );
        assert_eq!(t.n(), 2);
        assert_eq!(t.n_x(), 2);
        assert!(t.is_exact_fd());
    }

    #[test]
    fn sums_match_hand_computation() {
        // X=1: y1->2, y2->1 ; X=2: y1->3
        let t = table(&[(1, 1), (1, 1), (1, 2), (2, 1), (2, 1), (2, 1)]);
        assert_eq!(t.sum_row_max(), 2 + 3);
        assert_eq!(t.sum_sq_cells(), 4 + 1 + 9);
        assert_eq!(t.sum_sq_rows(), 9 + 9);
        assert_eq!(t.sum_sq_cols(), 25 + 1);
    }

    #[test]
    fn from_counts_drops_zero_margins() {
        let t = ContingencyTable::from_counts(&[
            vec![2, 0, 1],
            vec![0, 0, 0], // dropped row
            vec![0, 0, 3],
        ]);
        assert_eq!(t.n(), 6);
        assert_eq!(t.n_x(), 2);
        assert_eq!(t.n_y(), 2); // middle column empty -> dropped
        assert_eq!(t.col_totals(), &[2, 4]);
    }

    #[test]
    fn from_counts_matches_from_relation() {
        let t1 = table(&[(0, 0), (0, 1), (1, 1)]);
        let t2 = ContingencyTable::from_counts(&[vec![1, 1], vec![0, 1]]);
        assert_eq!(t1.n(), t2.n());
        assert_eq!(t1.sum_sq_cells(), t2.sum_sq_cells());
        assert_eq!(t1.sum_row_max(), t2.sum_row_max());
    }

    #[test]
    fn empty_relation_gives_empty_table() {
        let t = table(&[]);
        assert!(t.is_empty());
        assert_eq!(t.n_x(), 0);
        assert_eq!(t.sum_row_max(), 0);
    }

    #[test]
    fn multi_attribute_sides() {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let rows = [[1i64, 1, 1], [1, 1, 1], [1, 2, 2], [2, 1, 2]];
        let rel = Relation::from_rows(
            schema,
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>()),
        )
        .unwrap();
        let t = ContingencyTable::from_relation(
            &rel,
            &AttrSet::new([AttrId(0), AttrId(1)]),
            &AttrSet::single(AttrId(2)),
        );
        assert_eq!(t.n_x(), 3); // (1,1),(1,2),(2,1)
        assert_eq!(t.n_y(), 2);
        assert!(t.is_exact_fd());
    }

    #[test]
    fn stripped_table_aggregates_match_full_codes() {
        use crate::kernels::strip_codes_into;
        // NULL-free codes so the stripped contract applies; interleaved
        // singleton groups (odd codes 100+) exercise the implicit path.
        let x: Vec<u32> = (0..240u32)
            .map(|i| if i % 3 == 1 { 100 + i } else { (i * 13) % 70 })
            .collect();
        let y: Vec<u32> = (0..240).map(|i| (i * 7) % 6).collect();
        let full = ContingencyTable::from_codes(&x, &y);
        // Stripped layout + shared dense Y side.
        let (mut rows, mut starts, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
        with_scratch(|s| strip_codes_into(s, &x, 340, &mut rows, &mut starts, &mut dropped));
        assert!(dropped.is_empty());
        assert!(rows.len() < x.len(), "fixture must contain singletons");
        // `(i·7) mod 6 = i mod 6`: Y is already dense first-encounter.
        let y_side = YSide::new(&y, 6);
        let implicit = (x.len() - rows.len()) as u64;
        let stripped =
            with_scratch(|s| ContingencyTable::from_stripped_with(s, &rows, &starts, &y_side));
        let mut tally = Vec::new();
        let y_lane = YMatrix::new(vec![YSide::new(&y, 6)]);
        with_scratch(|s| y_lane.tally_with(s, &rows, &starts, &dropped, &[0], &mut tally));
        assert_eq!(stripped.summary(), full.summary());
        assert_eq!(tally, [full.summary()]);
        assert_eq!(stripped.shannon_sums(), full.shannon_sums());
        assert_eq!(stripped.n(), full.n());
        assert_eq!(stripped.n_x(), full.n_x());
        assert_eq!(stripped.n_y(), full.n_y());
        assert_eq!(stripped.nonzero_cells(), full.nonzero_cells());
        assert_eq!(stripped.sum_row_max(), full.sum_row_max());
        assert_eq!(stripped.sum_sq_cells(), full.sum_sq_cells());
        assert_eq!(stripped.sum_sq_rows(), full.sum_sq_rows());
        assert_eq!(stripped.sum_sq_cols(), full.sum_sq_cols());
        assert_eq!(stripped.col_totals(), full.col_totals());
        assert_eq!(stripped.is_exact_fd(), full.is_exact_fd());
        // Implicit singleton Y distribution is recoverable.
        let implicit_cols = stripped.implicit_col_counts();
        assert_eq!(implicit_cols.iter().sum::<u64>(), implicit);
        // Explicit rows are the full table's multi-row groups, in the
        // same relative (first-encounter) order.
        let full_big: Vec<usize> = (0..full.n_x())
            .filter(|&i| full.row_totals()[i] >= 2)
            .collect();
        assert_eq!(stripped.n_explicit_x(), full_big.len());
        for (si, &fi) in full_big.iter().enumerate() {
            assert_eq!(stripped.row_totals()[si], full.row_totals()[fi]);
            assert_eq!(stripped.row(si), full.row(fi), "group {si}");
        }
    }

    #[test]
    fn exact_units_match_the_reference_conversion() {
        let reference = |t: f64| (t * 2f64.powi(52)) as i128;
        let mut terms = vec![0.0, 1.0];
        terms.extend((0..70).map(|k| 2f64.powi(k)));
        for a in 1..=60u64 {
            for sq in (a..=a * a).step_by(7) {
                terms.push(sq as f64 / a as f64);
            }
        }
        let mut vs: Vec<u64> = (1..=5000).collect();
        vs.extend((1..=32).flat_map(|k| [(1 << k) - 1, 1 << k, (1 << k) + 1]));
        vs.extend((1..=4096u64).map(|i| i * 1_048_573));
        for v in vs {
            let v = v as f64;
            terms.push(v * v.log2());
        }
        for t in terms {
            assert_eq!(units(t), reference(t), "term {t}");
        }
    }

    #[test]
    fn optimized_matches_naive_on_sparse_codes() {
        use crate::dictionary::NULL_CODE;
        // Non-dense codes with NULLs and duplicates.
        let x = vec![9, 9, 4, NULL_CODE, 4, 17, 9, NULL_CODE];
        let y = vec![3, 3, 8, 1, NULL_CODE, 3, 8, 2];
        let fast = ContingencyTable::from_codes(&x, &y);
        let slow = crate::naive::contingency_from_codes(&x, &y);
        assert_eq!(fast.n(), slow.n());
        assert_eq!(fast.row_totals(), slow.row_totals());
        assert_eq!(fast.col_totals(), slow.col_totals());
        for i in 0..fast.n_x() {
            assert_eq!(fast.row(i), slow.row(i), "row {i}");
        }
    }
}
