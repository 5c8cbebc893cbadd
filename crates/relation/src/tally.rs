//! The lattice's one-pass tally: the [`Summary`] of every RHS of a
//! stripped LHS partition, counted in one pass over its clusters.
//!
//! A [`YMatrix`] holds the [`YSide`]s of a search's RHS attributes (its
//! *lanes*) and, beside them, their codes laid out row-major, so that
//! one row's codes for every RHS sit side by side. Most clustered rows
//! of real relations sit in small X-groups, and
//! [`YMatrix::tally_with`] counts those by comparing whole matrix rows
//! lane by lane — no stamped counter, no branch on NULL, and no
//! division: a group of at most 8 rows reads its exact pdep term from a
//! compile-time table. Two-row groups, the most common, only add to
//! three per-lane counts (non-NULL rows, groups with both rows non-NULL,
//! equal ones) that are folded in arithmetically at the end. Larger
//! groups and the X-NULL rows are counted one RHS at a time over that
//! RHS's own column, with the scratch's stamped counter.

use std::borrow::Cow;

use crate::contingency::{units, ExactSum, Summary, YSide};
use crate::dictionary::NULL_CODE;
use crate::kernels::Scratch;

/// The largest X-group the lane-wise compare counts; larger groups go
/// through the stamped counter.
const SMALL_GROUP: usize = 8;

/// Lanes compared at once: the matrix width is padded to a multiple of
/// this with NULL lanes, which count nothing.
const BLOCK: usize = 8;

/// Row length of [`PDEP_UNITS`]: every `sq ≤ SMALL_GROUP²`.
const SQ_SPAN: usize = SMALL_GROUP * SMALL_GROUP + 1;

/// `units(sq / a)`, the exact pdep term of an X-group with `a` rows and
/// `Σ n² = sq`, at index `a · SQ_SPAN + sq` for `1 ≤ a ≤ SMALL_GROUP`
/// and `a ≤ sq ≤ a²`; 0 elsewhere (`a = 0` is a lane whose rows in the
/// group are all NULL).
static PDEP_UNITS: [u64; (SMALL_GROUP + 1) * SQ_SPAN] = pdep_units();

const fn pdep_units() -> [u64; (SMALL_GROUP + 1) * SQ_SPAN] {
    let mut table = [0; (SMALL_GROUP + 1) * SQ_SPAN];
    let mut a = 1;
    while a <= SMALL_GROUP {
        let mut sq = a;
        while sq <= a * a {
            table[a * SQ_SPAN + sq] = units(sq as f64 / a as f64) as u64;
            sq += 1;
        }
        a += 1;
    }
    table
}

/// The Y sides of a set of RHS attributes — the *lanes* — with their
/// per-row codes also laid out row-major: row `r`'s code on lane `k` is
/// `codes[r · stride + k]` ([`NULL_CODE`] kept). Built once per search
/// and shared read-only by every worker. A single lane is its column,
/// borrowed; wider matrices pad each row to a multiple of the compare
/// block with NULL lanes.
#[derive(Debug)]
pub struct YMatrix<'a> {
    sides: Vec<YSide<'a>>,
    codes: Cow<'a, [u32]>,
    stride: usize,
}

impl<'a> YMatrix<'a> {
    /// The matrix of `sides`, lane `k` being `sides[k]`.
    ///
    /// # Panics
    /// Panics if the sides cover different numbers of rows.
    pub fn new(sides: Vec<YSide<'a>>) -> Self {
        let n_rows = sides.first().map_or(0, |y| y.codes().len());
        assert!(
            sides.iter().all(|y| y.codes().len() == n_rows),
            "every lane covers the same rows"
        );
        let (codes, stride) = match sides.as_slice() {
            [y] => (Cow::Borrowed(y.codes()), 1),
            _ => {
                let stride = sides.len().next_multiple_of(BLOCK);
                let mut codes = vec![NULL_CODE; n_rows * stride];
                for (k, y) in sides.iter().enumerate() {
                    for (row, &c) in y.codes().iter().enumerate() {
                        codes[row * stride + k] = c;
                    }
                }
                (Cow::Owned(codes), stride)
            }
        };
        YMatrix {
            sides,
            codes,
            stride,
        }
    }

    /// Bytes the matrix owns beyond its lanes' columns: the row-major
    /// codes, none for a single lane, which borrows its column.
    pub fn bytes(&self) -> u64 {
        match &self.codes {
            Cow::Borrowed(_) => 0,
            Cow::Owned(c) => (c.len() * std::mem::size_of::<u32>()) as u64,
        }
    }

    fn row(&self, row: u32) -> &[u32] {
        &self.codes[row as usize * self.stride..][..self.stride]
    }

    /// Tallies, for each lane in `lanes`, the [`Summary`] of the stripped
    /// candidate `X -> Y` without building its table, into `out`
    /// (cleared first, one entry per lane in `lanes` order). One pass
    /// over the clusters counts every lane; no allocation once the
    /// scratch has grown.
    ///
    /// `cluster_rows`/`cluster_starts` are the CSR clusters (size ≥ 2) of
    /// the X-partition — the layout [`crate::strip_codes_into`] and
    /// [`crate::refine_stripped_into`] write — and `dropped` holds its
    /// NULL rows. Every other row is a singleton X-group. Lanes may have
    /// NULLs. Each result equals the [`crate::ContingencyTable::summary`]
    /// of the lane's full-codes table.
    pub fn tally_with(
        &self,
        scratch: &mut Scratch,
        cluster_rows: &[u32],
        cluster_starts: &[u32],
        dropped: &[u32],
        lanes: &[usize],
        out: &mut Vec<Summary>,
    ) {
        let lane_sums = &mut scratch.lanes;
        lane_sums.reset(self.stride);
        for (ci, w) in cluster_starts.windows(2).enumerate() {
            let group = &cluster_rows[w[0] as usize..w[1] as usize];
            if group.len() > SMALL_GROUP {
                lane_sums.big.push(ci as u32);
            } else if group.len() == 2 {
                let (r0, r1) = (self.row(group[0]), self.row(group[1]));
                for ((p, &c0), &c1) in lane_sums.pairs.iter_mut().zip(r0).zip(r1) {
                    p.add(c0, c1);
                }
            } else if self.stride == 1 {
                lane_sums.small_group::<1>(&self.codes, 1, 0, group);
            } else {
                for off in (0..self.stride).step_by(BLOCK) {
                    lane_sums.small_group::<BLOCK>(&self.codes, self.stride, off, group);
                }
            }
        }
        out.clear();
        for &k in lanes {
            let s = self.finish_lane(scratch, cluster_rows, cluster_starts, dropped, k);
            out.push(s);
        }
    }

    /// Lane `k`'s summary: its small-group sums, its two-row groups
    /// folded in, its large groups and X-NULL rows counted over its own
    /// column, and the singleton groups added arithmetically.
    fn finish_lane(
        &self,
        scratch: &mut Scratch,
        cluster_rows: &[u32],
        cluster_starts: &[u32],
        dropped: &[u32],
        k: usize,
    ) -> Summary {
        let y = &self.sides[k];
        let codes = y.codes();
        let l = &scratch.lanes;
        let counter = &mut scratch.count;
        counter.ensure(y.col_totals.len());
        // X-NULL rows leave the table: take them off N and Σ b².
        let (mut n, mut sum_sq_cols) = (y.n, y.sum_sq_cols);
        if !dropped.is_empty() {
            counter.begin();
            scratch.touched.clear();
            for &row in dropped {
                let yc = codes[row as usize];
                if yc == NULL_CODE {
                    continue;
                }
                n -= 1;
                if counter.bump(yc) == 1 {
                    scratch.touched.push(yc);
                }
            }
            for &yc in &scratch.touched {
                let b = y.col_totals[yc as usize];
                let d = u64::from(counter.count(yc));
                sum_sq_cols -= b * b - (b - d) * (b - d);
            }
        }
        // Two-row groups: with both rows non-NULL, one cell of 2 when
        // they are equal (pdep term 4/2), else two cells of 1 (term 2/2);
        // with one non-NULL row, one cell of 1 (term 1/1).
        let p = l.pairs[k];
        let (v, full, eq) = (u64::from(p.rows), u64::from(p.full), u64::from(p.equal));
        let mut t = LaneTotal {
            n_x: v - full,
            cells: v - eq,
            max: v - full + eq,
            violating: 2 * (full - eq),
            sq_rows: v + 2 * full,
            sq_cells: v + 2 * eq,
            rows: v,
            pdep: 0,
        };
        t.add(&l.totals[k]);
        let mut pdep = ExactSum(t.pdep as i128);
        pdep.add_sq_over_a(4, 2, eq);
        pdep.add_sq_over_a(1, 1, v - full - eq);
        for &ci in &l.big {
            let ci = ci as usize;
            let group = &cluster_rows[cluster_starts[ci] as usize..cluster_starts[ci + 1] as usize];
            counter.begin();
            let (mut a, mut cells, mut max, mut sq) = (0, 0, 0, 0);
            for &row in group {
                let yc = codes[row as usize];
                if yc == NULL_CODE {
                    continue;
                }
                let c = u64::from(counter.bump(yc));
                a += 1;
                cells += u64::from(c == 1);
                max = max.max(c);
                // c² − (c − 1)²: keeps Σ n_j² current.
                sq += 2 * c - 1;
            }
            if a == 0 {
                continue;
            }
            t.add_group(a, cells, max, sq);
            pdep.add_sq_over_a(sq, a, 1);
        }
        // Surviving rows outside the clusters: one group, one cell of
        // count 1 each, and a pdep term of 1/1.
        let singletons = n - t.rows;
        pdep.add_sq_over_a(1, 1, singletons);
        Summary::from_aggregates(
            n,
            (t.n_x + singletons) as usize,
            (t.cells + singletons) as usize,
            t.max + singletons,
            t.violating,
            [t.sq_rows + singletons, t.sq_cells + singletons, sum_sq_cols],
            pdep,
        )
    }
}

/// One lane's running sums over X-groups: the group count, nonzero
/// cells, `Σ max`, violating rows, `Σ a²`, `Σ n²`, rows, and the exact
/// pdep sum in 2⁻⁵² units.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaneTotal {
    n_x: u64,
    cells: u64,
    max: u64,
    violating: u64,
    sq_rows: u64,
    sq_cells: u64,
    rows: u64,
    pdep: u128,
}

impl LaneTotal {
    /// Adds one group of `a ≥ 1` rows, all but its pdep term.
    #[inline]
    fn add_group(&mut self, a: u64, cells: u64, max: u64, sq: u64) {
        self.n_x += 1;
        self.cells += cells;
        self.max += max;
        if cells >= 2 {
            self.violating += a;
        }
        self.sq_rows += a * a;
        self.sq_cells += sq;
        self.rows += a;
    }

    fn add(&mut self, o: &LaneTotal) {
        self.n_x += o.n_x;
        self.cells += o.cells;
        self.max += o.max;
        self.violating += o.violating;
        self.sq_rows += o.sq_rows;
        self.sq_cells += o.sq_cells;
        self.rows += o.rows;
        self.pdep += o.pdep;
    }
}

/// The buffers of [`YMatrix::tally_with`], kept in a [`Scratch`]: per
/// lane the small groups' sums and the two-row groups' counts, then the
/// indices of the large groups.
#[derive(Debug, Default)]
pub(crate) struct LaneSums {
    totals: Vec<LaneTotal>,
    pairs: Vec<PairSums>,
    big: Vec<u32>,
}

/// One lane's counts over the two-row X-groups: its non-NULL rows in
/// them, the groups with both rows non-NULL, and those of them whose two
/// codes are equal. Every sum of such a group follows from the three.
#[derive(Debug, Clone, Copy, Default)]
struct PairSums {
    rows: u32,
    full: u32,
    equal: u32,
}

impl PairSums {
    /// Counts one two-row group whose rows hold `c0` and `c1`.
    #[inline]
    fn add(&mut self, c0: u32, c1: u32) {
        let (v0, v1) = (u32::from(c0 != NULL_CODE), u32::from(c1 != NULL_CODE));
        self.rows += v0 + v1;
        self.full += v0 & v1;
        self.equal += v0 & u32::from(c0 == c1);
    }
}

impl LaneSums {
    fn reset(&mut self, stride: usize) {
        self.totals.clear();
        self.totals.resize(stride, LaneTotal::default());
        self.pairs.clear();
        self.pairs.resize(stride, PairSums::default());
        self.big.clear();
    }

    /// Counts one group of at most [`SMALL_GROUP`] rows on the `B` lanes
    /// from `off`. Row `i` is the `kᵢ`-th row of its Y value, where
    /// `kᵢ − 1` counts the earlier rows with the same code; its cell
    /// then grows from `kᵢ − 1` to `kᵢ`. A NULL row is masked out, so a
    /// NULL never matches.
    #[inline]
    fn small_group<const B: usize>(
        &mut self,
        codes: &[u32],
        stride: usize,
        off: usize,
        group: &[u32],
    ) {
        let row = |r: u32| -> &[u32; B] {
            codes[r as usize * stride + off..][..B]
                .try_into()
                .expect("B lanes")
        };
        let (mut a, mut cells, mut max, mut sq) = ([0u32; B], [0u32; B], [0u32; B], [0u32; B]);
        for (i, &ri) in group.iter().enumerate() {
            let yi = row(ri);
            let mut k = [1u32; B];
            for &rj in &group[..i] {
                let yj = row(rj);
                for l in 0..B {
                    k[l] += u32::from(yi[l] == yj[l]);
                }
            }
            for l in 0..B {
                let valid = u32::from(yi[l] != NULL_CODE);
                let kv = k[l] * valid;
                a[l] += valid;
                cells[l] += u32::from(kv == 1);
                max[l] = max[l].max(kv);
                sq[l] += 2 * kv - valid;
            }
        }
        for l in 0..B {
            if a[l] == 0 {
                continue;
            }
            let t = &mut self.totals[off + l];
            let (a, sq) = (a[l] as usize, sq[l] as usize);
            t.add_group(a as u64, cells[l].into(), max[l].into(), sq as u64);
            t.pdep += u128::from(PDEP_UNITS[a * SQ_SPAN + sq]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn bytes_count_the_row_major_copy_only() {
        let (a, b) = ([0, 1, 0, 2, 1], [3, 3, 0, 1, 2]);
        let one = YMatrix::new(vec![YSide::new(&a, 3)]);
        assert_eq!(one.bytes(), 0);
        let two = YMatrix::new(vec![YSide::new(&a, 3), YSide::new(&b, 4)]);
        assert_eq!(two.bytes(), 5 * BLOCK as u64 * 4);
    }

    #[test]
    fn pdep_table_matches_run_time_units() {
        for a in 1..=SMALL_GROUP {
            for sq in a..=a * a {
                let term = black_box(sq as f64) / black_box(a as f64);
                assert_eq!(
                    i128::from(PDEP_UNITS[a * SQ_SPAN + sq]),
                    units(term),
                    "a {a} sq {sq}"
                );
            }
        }
    }
}
