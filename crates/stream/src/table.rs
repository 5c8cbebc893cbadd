//! Delta-maintained joint-count state and deterministic score reads.
//!
//! [`IncTable`] is the streaming counterpart of
//! [`afd_relation::ContingencyTable`]: the same joint counts `n_ij`, row
//! sums `a_i`, column sums `b_j` and `N`, but mutable one tuple at a time
//! ([`IncTable::insert`] / [`IncTable::delete`], O(1) amortised each, plus
//! an O(distinct-Y-of-group) max recomputation when a delete lowers a
//! group's majority count).
//!
//! # Why score reads equal the batch scores bit for bit
//!
//! Every maintained aggregate is an **integer** (exact under insert and
//! delete), and the per-group terms the float measures sum are kept as
//! `BTreeMap` *histograms* keyed by count value, patched group by group.
//! A score read ([`IncTable::scores`]) turns each histogram into an exact
//! `Σ mult·term` ([`afd_relation::ExactSum`]), builds the [`Summary`] and
//! [`ShannonSums`] a batch table of the same rows has, and scores them
//! through [`afd_core::fast_scores`]. So a stream, a rebuild, a merge of
//! shards in any order and `afd-core` return bit-identical `f64`s, and
//! compaction asserts equivalence instead of "approximately equal".

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

use afd_core::fast_scores;
use afd_relation::{ExactSum, ShannonSums, Summary};
use afd_wire::{Decode, DecodeError, Encode, Reader};

/// Per-X-group state: total, sum of squared cell counts, majority count,
/// and the nonzero cells themselves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct XGroup {
    /// `a_i = Σ_j n_ij`.
    total: u64,
    /// `Σ_j n_ij²`.
    sq: u64,
    /// `max_j n_ij` (the g3 majority).
    max: u64,
    /// Nonzero cells `y -> n_ij`.
    ys: HashMap<u32, u64>,
}

/// Count-value histogram: `count -> how many groups/cells hold it`.
///
/// Distinct positive integers summing to `N` number at most `O(√N)`, so
/// these stay tiny even for large relations — score reads cost
/// `O(distinct count values)`, not `O(K)`.
type CountHist = BTreeMap<u64, u64>;

/// The largest Y id among column keys `cols` and the cells of `groups`.
fn max_y_id<'a>(
    cols: impl Iterator<Item = u32>,
    groups: impl Iterator<Item = &'a XGroup>,
) -> Option<u32> {
    let cells = groups.flat_map(|g| g.ys.keys().copied()).max();
    cols.max().into_iter().chain(cells).max()
}

fn hist_inc(h: &mut CountHist, v: u64) {
    if v > 0 {
        *h.entry(v).or_insert(0) += 1;
    }
}

fn hist_dec(h: &mut CountHist, v: u64) {
    if v == 0 {
        return;
    }
    let m = h.get_mut(&v).expect("histogram holds every live count");
    *m -= 1;
    if *m == 0 {
        h.remove(&v);
    }
}

/// `Σ mult·(v·lg v)` over a count histogram, exactly.
fn lg_sum(h: &CountHist) -> ExactSum {
    let mut s = ExactSum::default();
    for (&v, &mult) in h {
        s.add_v_lg_v(v, mult);
    }
    s
}

/// Incrementally maintained joint counts of one FD candidate `X -> Y`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncTable {
    /// Tuples currently counted (`N`).
    n: u64,
    /// X-groups by dense side id.
    groups: HashMap<u32, XGroup>,
    /// Column sums `b_j` by dense side id.
    col_totals: HashMap<u32, u64>,
    /// `|dom(XY)|`: number of nonzero cells.
    nonzero_cells: u64,
    /// `Σ_i max_j n_ij` (the g3 numerator).
    sum_row_max: u64,
    /// `Σ_i a_i` over groups with ≥ 2 distinct Y values (the g2 mass).
    violating_mass: u64,
    /// `Σ_i a_i²`, `Σ_j b_j²`, `Σ_ij n_ij²` — exact integers.
    sum_sq_rows: u64,
    sum_sq_cols: u64,
    sum_sq_cells: u64,
    /// Histograms of `a_i` / `b_j` / `n_ij` values (Shannon terms).
    hist_rows: CountHist,
    hist_cols: CountHist,
    hist_cells: CountHist,
    /// Histogram of `(a_i, Σ_j n_ij²)` group shapes (the pdep term).
    hist_row_shape: BTreeMap<(u64, u64), u64>,
}

impl IncTable {
    /// An empty table.
    pub fn new() -> Self {
        IncTable::default()
    }

    /// Total tuple count `N`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// `K_X = |dom(X)|`.
    pub fn n_x(&self) -> usize {
        self.groups.len()
    }

    /// `K_Y = |dom(Y)|`.
    pub fn n_y(&self) -> usize {
        self.col_totals.len()
    }

    /// `|dom(XY)|`: nonzero cells.
    pub fn nonzero_cells(&self) -> u64 {
        self.nonzero_cells
    }

    /// `Σ_i max_j n_ij`.
    pub fn sum_row_max(&self) -> u64 {
        self.sum_row_max
    }

    /// The largest Y side id this table references (cells and column
    /// totals) — what a coordinator bounds-checks a decoded shard table
    /// against before handing it a Y remap slice.
    pub fn max_y_id(&self) -> Option<u32> {
        max_y_id(self.col_totals.keys().copied(), self.groups.values())
    }

    /// The current state of X groups `xs` and Y columns `ys` (each may
    /// repeat; absent ones are recorded as gone), plus the scalar
    /// aggregates and the four count histograms whole — what
    /// [`IncTable::apply_patch`] needs to bring a copy of this table that
    /// matched it before those groups and columns last changed back into
    /// exact equality. O(|xs| + |ys| + histograms).
    pub fn patch(&self, xs: &[u32], ys: &[u32]) -> TablePatch {
        let mut xs = xs.to_vec();
        xs.sort_unstable();
        xs.dedup();
        let mut ys = ys.to_vec();
        ys.sort_unstable();
        ys.dedup();
        TablePatch {
            n: self.n,
            nonzero_cells: self.nonzero_cells,
            sum_row_max: self.sum_row_max,
            violating_mass: self.violating_mass,
            sum_sq_rows: self.sum_sq_rows,
            sum_sq_cols: self.sum_sq_cols,
            sum_sq_cells: self.sum_sq_cells,
            groups: xs
                .into_iter()
                .map(|x| (x, self.groups.get(&x).cloned().unwrap_or_default()))
                .collect(),
            cols: ys
                .into_iter()
                .map(|y| (y, self.col_totals.get(&y).copied().unwrap_or(0)))
                .collect(),
            hist_rows: self.hist_rows.clone(),
            hist_cols: self.hist_cols.clone(),
            hist_cells: self.hist_cells.clone(),
            hist_row_shape: self.hist_row_shape.clone(),
        }
    }

    /// Writes a [`TablePatch`] taken by [`IncTable::patch`] into this
    /// table: scalars and histograms are replaced, each named group and
    /// column is set to its patched state or removed when gone.
    /// O(patch).
    pub fn apply_patch(&mut self, patch: TablePatch) {
        self.n = patch.n;
        self.nonzero_cells = patch.nonzero_cells;
        self.sum_row_max = patch.sum_row_max;
        self.violating_mass = patch.violating_mass;
        self.sum_sq_rows = patch.sum_sq_rows;
        self.sum_sq_cols = patch.sum_sq_cols;
        self.sum_sq_cells = patch.sum_sq_cells;
        for (x, g) in patch.groups {
            if g.total == 0 {
                self.groups.remove(&x);
            } else {
                self.groups.insert(x, g);
            }
        }
        for (y, b) in patch.cols {
            if b == 0 {
                self.col_totals.remove(&y);
            } else {
                self.col_totals.insert(y, b);
            }
        }
        self.hist_rows = patch.hist_rows;
        self.hist_cols = patch.hist_cols;
        self.hist_cells = patch.hist_cells;
        self.hist_row_shape = patch.hist_row_shape;
    }

    /// `true` iff the (NULL-filtered) FD holds exactly: every X-group
    /// carries a single Y value. Vacuously true when empty.
    pub fn is_exact_fd(&self) -> bool {
        self.nonzero_cells == self.groups.len() as u64
    }

    /// Counts one tuple `(x, y)` in.
    pub fn insert(&mut self, x: u32, y: u32) {
        self.n += 1;
        // Column side.
        let b = self.col_totals.entry(y).or_insert(0);
        let old_b = *b;
        *b += 1;
        hist_dec(&mut self.hist_cols, old_b);
        hist_inc(&mut self.hist_cols, old_b + 1);
        self.sum_sq_cols += 2 * old_b + 1;
        // Group side.
        let g = self.groups.entry(x).or_default();
        let old_a = g.total;
        let old_sq = g.sq;
        let old_distinct = g.ys.len();
        let c = g.ys.entry(y).or_insert(0);
        let old_c = *c;
        *c += 1;
        g.total += 1;
        g.sq += 2 * old_c + 1;
        if old_c + 1 > g.max {
            self.sum_row_max += old_c + 1 - g.max;
            g.max = old_c + 1;
        }
        let (new_total, new_sq, new_distinct) = (g.total, g.sq, g.ys.len());
        if old_c == 0 {
            self.nonzero_cells += 1;
        }
        self.sum_sq_cells += 2 * old_c + 1;
        self.sum_sq_rows += 2 * old_a + 1;
        hist_dec(&mut self.hist_cells, old_c);
        hist_inc(&mut self.hist_cells, old_c + 1);
        hist_dec(&mut self.hist_rows, old_a);
        hist_inc(&mut self.hist_rows, old_a + 1);
        self.shape_move((old_a, old_sq), (new_total, new_sq));
        if old_distinct >= 2 {
            self.violating_mass -= old_a;
        }
        if new_distinct >= 2 {
            self.violating_mass += new_total;
        }
    }

    /// Counts one tuple `(x, y)` out.
    ///
    /// # Panics
    /// Panics if `(x, y)` is not currently counted (engine bug — callers
    /// translate row ids to side ids, so a miss means corrupted state).
    pub fn delete(&mut self, x: u32, y: u32) {
        self.n -= 1;
        // Column side.
        let b = self
            .col_totals
            .get_mut(&y)
            .expect("delete of uncounted y id");
        let old_b = *b;
        *b -= 1;
        if *b == 0 {
            self.col_totals.remove(&y);
        }
        hist_dec(&mut self.hist_cols, old_b);
        hist_inc(&mut self.hist_cols, old_b - 1);
        self.sum_sq_cols -= 2 * old_b - 1;
        // Group side.
        let g = self.groups.get_mut(&x).expect("delete of uncounted x id");
        let old_a = g.total;
        let old_sq = g.sq;
        let old_distinct = g.ys.len();
        let c = g.ys.get_mut(&y).expect("delete of uncounted cell");
        let old_c = *c;
        *c -= 1;
        if *c == 0 {
            g.ys.remove(&y);
            self.nonzero_cells -= 1;
        }
        g.total -= 1;
        g.sq -= 2 * old_c - 1;
        if old_c == g.max {
            // The decremented cell was (one of) the majority: re-derive
            // the max over this group's remaining cells only.
            let new_max = g.ys.values().copied().max().unwrap_or(0);
            self.sum_row_max -= g.max - new_max;
            g.max = new_max;
        }
        let (new_total, new_sq, new_distinct) = (g.total, g.sq, g.ys.len());
        if new_total == 0 {
            self.groups.remove(&x);
        }
        self.sum_sq_cells -= 2 * old_c - 1;
        self.sum_sq_rows -= 2 * old_a - 1;
        hist_dec(&mut self.hist_cells, old_c);
        hist_inc(&mut self.hist_cells, old_c - 1);
        hist_dec(&mut self.hist_rows, old_a);
        hist_inc(&mut self.hist_rows, old_a - 1);
        self.shape_move((old_a, old_sq), (new_total, new_sq));
        if old_distinct >= 2 {
            self.violating_mass -= old_a;
        }
        if new_distinct >= 2 {
            self.violating_mass += new_total;
        }
    }

    fn shape_move(&mut self, from: (u64, u64), to: (u64, u64)) {
        if from.0 > 0 {
            let m = self
                .hist_row_shape
                .get_mut(&from)
                .expect("shape histogram holds every live group");
            *m -= 1;
            if *m == 0 {
                self.hist_row_shape.remove(&from);
            }
        }
        if to.0 > 0 {
            *self.hist_row_shape.entry(to).or_insert(0) += 1;
        }
    }

    /// The current scores of the incremental measure family, through
    /// [`afd_core::fast_scores`]: bit for bit what each measure's
    /// `score_contingency` returns on the batch table of the same rows.
    pub fn scores(&self) -> StreamScores {
        XSide::of(self).scores(self.sum_sq_cols, &self.hist_cols)
    }

    /// Column total `b_j` of Y side id `y` (0 when the column is empty).
    pub(crate) fn col_total(&self, y: u32) -> u64 {
        self.col_totals.get(&y).copied().unwrap_or(0)
    }

    /// The scores of the *union* of shard tables, bit-identical to the
    /// [`IncTable::scores`] of one unsharded table over the same rows.
    ///
    /// Each part comes with a *Y-side remap* `local id -> global id`
    /// (length ≥ the part's largest live Y id + 1) identifying which local
    /// Y ids across shards denote the same Y value. The caller guarantees
    /// the parts' **X-group key spaces are value-disjoint** (rows were
    /// hash-partitioned by a key the X side determines — see
    /// `DeltaRouter`); under that contract every X-side aggregate is a
    /// plain sum, while the Y margins (`b_j`, their squares and histogram)
    /// are re-derived from the remapped, summed column totals.
    ///
    /// The merge is **order-independent by design**: all maintained
    /// aggregates are integers or count-value histograms, so any part
    /// order yields bit-identical scores. Nothing merges the group/cell
    /// maps, which scores never read, but every call re-sums every
    /// part's column totals, so it costs O(histograms + K_Y). A sharded
    /// coordinator instead keeps its Y margins current column by column
    /// (`FoldedYMargins`); this full re-merge is the reference that fold
    /// is checked against.
    pub fn merged_scores<'a>(
        parts: impl IntoIterator<Item = (&'a IncTable, &'a [u32])>,
    ) -> StreamScores {
        let mut x = XSide::default();
        let mut cols: BTreeMap<u32, u64> = BTreeMap::new();
        for (t, y_map) in parts {
            x.add(t);
            for (&y, &b) in &t.col_totals {
                *cols.entry(y_map[y as usize]).or_insert(0) += b;
            }
        }
        let mut sum_sq_cols = 0u64;
        let mut hist_cols = CountHist::new();
        for &b in cols.values() {
            sum_sq_cols += b * b;
            hist_inc(&mut hist_cols, b);
        }
        x.scores(sum_sq_cols, &hist_cols)
    }
}

/// The X-side score inputs of one table, borrowed, or of a union of
/// shard tables whose X-group key spaces are value-disjoint: plain sums
/// of the scalars and of the three X-side count histograms, each bounded
/// by the number of distinct count values. Every score read goes through
/// [`XSide::scores`].
#[derive(Default)]
struct XSide<'a> {
    n: u64,
    kx: u64,
    nonzero_cells: u64,
    sum_row_max: u64,
    violating_mass: u64,
    sum_sq_rows: u64,
    sum_sq_cells: u64,
    hist_rows: Cow<'a, CountHist>,
    hist_cells: Cow<'a, CountHist>,
    hist_row_shape: Cow<'a, BTreeMap<(u64, u64), u64>>,
}

impl<'a> XSide<'a> {
    fn of(t: &'a IncTable) -> Self {
        XSide {
            n: t.n,
            kx: t.groups.len() as u64,
            nonzero_cells: t.nonzero_cells,
            sum_row_max: t.sum_row_max,
            violating_mass: t.violating_mass,
            sum_sq_rows: t.sum_sq_rows,
            sum_sq_cells: t.sum_sq_cells,
            hist_rows: Cow::Borrowed(&t.hist_rows),
            hist_cells: Cow::Borrowed(&t.hist_cells),
            hist_row_shape: Cow::Borrowed(&t.hist_row_shape),
        }
    }

    fn add(&mut self, t: &IncTable) {
        self.n += t.n;
        self.kx += t.groups.len() as u64;
        self.nonzero_cells += t.nonzero_cells;
        self.sum_row_max += t.sum_row_max;
        self.violating_mass += t.violating_mass;
        self.sum_sq_rows += t.sum_sq_rows;
        self.sum_sq_cells += t.sum_sq_cells;
        for (&v, &mult) in &t.hist_rows {
            *self.hist_rows.to_mut().entry(v).or_insert(0) += mult;
        }
        for (&v, &mult) in &t.hist_cells {
            *self.hist_cells.to_mut().entry(v).or_insert(0) += mult;
        }
        for (&shape, &mult) in &t.hist_row_shape {
            *self.hist_row_shape.to_mut().entry(shape).or_insert(0) += mult;
        }
    }

    /// The scores with Y margins `sum_sq_cols` and `hist_cols`: every
    /// histogram becomes an exact `Σ mult·term` of the batch sums.
    fn scores(&self, sum_sq_cols: u64, hist_cols: &CountHist) -> StreamScores {
        let mut pdep = ExactSum::default();
        for (&(a, sq), &mult) in self.hist_row_shape.iter() {
            pdep.add_sq_over_a(sq, a, mult);
        }
        let summary = Summary::from_aggregates(
            self.n,
            self.kx as usize,
            self.nonzero_cells as usize,
            self.sum_row_max,
            self.violating_mass,
            [self.sum_sq_rows, self.sum_sq_cells, sum_sq_cols],
            pdep,
        );
        let shannon = ShannonSums {
            n: self.n,
            rows: lg_sum(&self.hist_rows),
            cells: lg_sum(&self.hist_cells),
            cols: lg_sum(hist_cols),
        };
        StreamScores::from_values(fast_scores(&summary, &shannon))
    }
}

/// The Y margins of a union of shard tables, kept current one global
/// column at a time: the column totals by global Y id, their count
/// histogram and `Σ_j b_j²`.
///
/// A sharded coordinator re-sums each column its shards' last apply
/// touched and [`set`](FoldedYMargins::set)s the new total, so an apply
/// costs O(touched columns · shards) instead of the O(K_Y) re-merge of
/// [`IncTable::merged_scores`]. Every margin is an integer, so the fold
/// holds exactly the histogram and sum that re-merge would build, and
/// [`FoldedYMargins::scores`] is bit-identical to it (the mergeable-summary
/// pattern).
#[derive(Debug, Clone, Default)]
pub(crate) struct FoldedYMargins {
    /// `b_j` by global Y id (0 for an empty or never-set column).
    cols: Vec<u64>,
    sum_sq_cols: u64,
    hist_cols: CountHist,
}

impl FoldedYMargins {
    /// Moves global column `g` from its current total to `total`.
    pub(crate) fn set(&mut self, g: u32, total: u64) {
        let g = g as usize;
        if g >= self.cols.len() {
            self.cols.resize(g + 1, 0);
        }
        let old = std::mem::replace(&mut self.cols[g], total);
        if old != total {
            hist_dec(&mut self.hist_cols, old);
            hist_inc(&mut self.hist_cols, total);
            self.sum_sq_cols = self.sum_sq_cols - old * old + total * total;
        }
    }

    /// The scores of the union of `tables`, whose Y margins these are.
    pub(crate) fn scores<'a>(
        &self,
        tables: impl IntoIterator<Item = &'a IncTable>,
    ) -> StreamScores {
        let mut x = XSide::default();
        for t in tables {
            x.add(t);
        }
        x.scores(self.sum_sq_cols, &self.hist_cols)
    }
}

/// What one apply changed in a shard's [`IncTable`], taken by
/// [`IncTable::patch`] and written by [`IncTable::apply_patch`]: the
/// absolute scalar aggregates, the new state of every X group and Y
/// column the apply touched (a group with total 0, or a column total of
/// 0, means it is gone), and the four count histograms whole. The
/// histograms are bounded by the number of distinct count values, so a
/// patch grows with the delta, not with the table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TablePatch {
    n: u64,
    nonzero_cells: u64,
    sum_row_max: u64,
    violating_mass: u64,
    sum_sq_rows: u64,
    sum_sq_cols: u64,
    sum_sq_cells: u64,
    /// Touched X groups, sorted by id.
    groups: Vec<(u32, XGroup)>,
    /// Touched Y column totals, sorted by id.
    cols: Vec<(u32, u64)>,
    hist_rows: CountHist,
    hist_cols: CountHist,
    hist_cells: CountHist,
    hist_row_shape: BTreeMap<(u64, u64), u64>,
}

impl TablePatch {
    /// The largest Y side id the patch names (touched columns and the
    /// cells of touched groups) — what a coordinator bounds-checks
    /// against its Y keys before applying the patch.
    pub(crate) fn max_y_id(&self) -> Option<u32> {
        max_y_id(self.col_ids(), self.groups.iter().map(|(_, g)| g))
    }

    /// The ids of the Y columns the patch names.
    pub(crate) fn col_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.cols.iter().map(|&(y, _)| y)
    }
}

// ------------------------------------------------------------- wire form

fn encode_hist(h: &CountHist, out: &mut Vec<u8>) {
    (h.len() as u32).encode(out);
    for (&k, &v) in h {
        k.encode(out);
        v.encode(out);
    }
}

fn decode_hist(r: &mut Reader<'_>) -> Result<CountHist, DecodeError> {
    let len = r.len_prefix("count histogram", 16)?;
    let mut h = CountHist::new();
    for _ in 0..len {
        let k = u64::decode(r)?;
        let v = u64::decode(r)?;
        h.insert(k, v);
    }
    Ok(h)
}

fn encode_shapes(h: &BTreeMap<(u64, u64), u64>, out: &mut Vec<u8>) {
    (h.len() as u32).encode(out);
    for (&(a, sq), &mult) in h {
        a.encode(out);
        sq.encode(out);
        mult.encode(out);
    }
}

fn decode_shapes(r: &mut Reader<'_>) -> Result<BTreeMap<(u64, u64), u64>, DecodeError> {
    let n_shapes = r.len_prefix("row-shape histogram", 24)?;
    let mut h = BTreeMap::new();
    for _ in 0..n_shapes {
        let a = u64::decode(r)?;
        let sq = u64::decode(r)?;
        let mult = u64::decode(r)?;
        h.insert((a, sq), mult);
    }
    Ok(h)
}

/// One X group: id, total/sq/max, then its `(y, count)` cells sorted by
/// `y` (canonical bytes).
fn encode_group(x: u32, g: &XGroup, out: &mut Vec<u8>) {
    x.encode(out);
    g.total.encode(out);
    g.sq.encode(out);
    g.max.encode(out);
    let mut ys: Vec<(u32, u64)> = g.ys.iter().map(|(&y, &c)| (y, c)).collect();
    ys.sort_unstable();
    ys.encode(out);
}

fn decode_group(r: &mut Reader<'_>) -> Result<(u32, XGroup), DecodeError> {
    let x = u32::decode(r)?;
    let total = u64::decode(r)?;
    let sq = u64::decode(r)?;
    let max = u64::decode(r)?;
    let ys: Vec<(u32, u64)> = Vec::decode(r)?;
    Ok((
        x,
        XGroup {
            total,
            sq,
            max,
            ys: ys.into_iter().collect(),
        },
    ))
}

/// Byte budget of one encoded group before its cells.
const GROUP_MIN_BYTES: usize = 4 + 8 * 3 + 4;

/// `IncTable` is the full-state unit of the coordinator⇄worker wire
/// protocol: a shard ships its tables whole when a candidate is
/// subscribed or the shard is compacted, and a [`TablePatch`] after
/// every applied delta slice; the coordinator writes both into its copy
/// of the shard's state and reads its merged scores from there.
///
/// Layout: `n`, then the X-groups **sorted by local id** (each with its
/// total/sq/max and its `(y, count)` cells sorted by `y`), the column
/// totals sorted by `y`, the six scalar aggregates, and the four count
/// histograms in ascending key order. Sorting makes the encoding
/// canonical: two equal tables produce identical bytes. Every maintained
/// aggregate is an integer, so the round-trip is exact and merged scores
/// read from a decoded table are **bit-identical** to ones read from the
/// original.
impl Encode for IncTable {
    fn encode(&self, out: &mut Vec<u8>) {
        self.n.encode(out);
        let mut xs: Vec<u32> = self.groups.keys().copied().collect();
        xs.sort_unstable();
        (xs.len() as u32).encode(out);
        for x in xs {
            encode_group(x, &self.groups[&x], out);
        }
        let mut cols: Vec<(u32, u64)> = self.col_totals.iter().map(|(&y, &b)| (y, b)).collect();
        cols.sort_unstable();
        cols.encode(out);
        self.nonzero_cells.encode(out);
        self.sum_row_max.encode(out);
        self.violating_mass.encode(out);
        self.sum_sq_rows.encode(out);
        self.sum_sq_cols.encode(out);
        self.sum_sq_cells.encode(out);
        encode_hist(&self.hist_rows, out);
        encode_hist(&self.hist_cols, out);
        encode_hist(&self.hist_cells, out);
        encode_shapes(&self.hist_row_shape, out);
    }
}

impl Decode for IncTable {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut t = IncTable::new();
        t.n = u64::decode(r)?;
        let n_groups = r.len_prefix("X groups", GROUP_MIN_BYTES)?;
        for _ in 0..n_groups {
            let (x, g) = decode_group(r)?;
            t.groups.insert(x, g);
        }
        let cols: Vec<(u32, u64)> = Vec::decode(r)?;
        t.col_totals = cols.into_iter().collect();
        t.nonzero_cells = u64::decode(r)?;
        t.sum_row_max = u64::decode(r)?;
        t.violating_mass = u64::decode(r)?;
        t.sum_sq_rows = u64::decode(r)?;
        t.sum_sq_cols = u64::decode(r)?;
        t.sum_sq_cells = u64::decode(r)?;
        t.hist_rows = decode_hist(r)?;
        t.hist_cols = decode_hist(r)?;
        t.hist_cells = decode_hist(r)?;
        t.hist_row_shape = decode_shapes(r)?;
        Ok(t)
    }
}

/// Layout: the seven scalar aggregates, the touched groups (sorted by
/// id, each encoded as in [`IncTable`]'s form), the touched column
/// totals sorted by id, and the four histograms. Canonical and exact,
/// like the table's own form.
impl Encode for TablePatch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.n.encode(out);
        self.nonzero_cells.encode(out);
        self.sum_row_max.encode(out);
        self.violating_mass.encode(out);
        self.sum_sq_rows.encode(out);
        self.sum_sq_cols.encode(out);
        self.sum_sq_cells.encode(out);
        (self.groups.len() as u32).encode(out);
        for (x, g) in &self.groups {
            encode_group(*x, g, out);
        }
        self.cols.encode(out);
        encode_hist(&self.hist_rows, out);
        encode_hist(&self.hist_cols, out);
        encode_hist(&self.hist_cells, out);
        encode_shapes(&self.hist_row_shape, out);
    }
}

impl Decode for TablePatch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut p = TablePatch {
            n: u64::decode(r)?,
            nonzero_cells: u64::decode(r)?,
            sum_row_max: u64::decode(r)?,
            violating_mass: u64::decode(r)?,
            sum_sq_rows: u64::decode(r)?,
            sum_sq_cols: u64::decode(r)?,
            sum_sq_cells: u64::decode(r)?,
            ..TablePatch::default()
        };
        let n_groups = r.len_prefix("patched X groups", GROUP_MIN_BYTES)?;
        p.groups = (0..n_groups)
            .map(|_| decode_group(r))
            .collect::<Result<_, _>>()?;
        p.cols = Vec::decode(r)?;
        p.hist_rows = decode_hist(r)?;
        p.hist_cols = decode_hist(r)?;
        p.hist_cells = decode_hist(r)?;
        p.hist_row_shape = decode_shapes(r)?;
        Ok(p)
    }
}

/// Scores of the incrementally maintained measures: the paper's eleven
/// *efficiently computable* measures (everything except the RFI family
/// and SFI, whose permutation/smoothing sums are not decomposable into
/// per-group patches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamScores {
    /// ρ (CORDS co-occurrence ratio).
    pub rho: f64,
    /// g2 (non-violating tuple probability).
    pub g2: f64,
    /// g3 (largest satisfying subrelation).
    pub g3: f64,
    /// g3′ (rescaled g3).
    pub g3_prime: f64,
    /// g1ˢ (Shannon counterpart of g1).
    pub g1s: f64,
    /// FI (fraction of information).
    pub fi: f64,
    /// g1 (one minus violating-pair probability).
    pub g1: f64,
    /// g1′ (normalised g1).
    pub g1_prime: f64,
    /// pdep (Piatetsky-Shapiro & Matheus).
    pub pdep: f64,
    /// τ (Goodman & Kruskal).
    pub tau: f64,
    /// µ⁺ (the paper's recommended measure).
    pub mu_plus: f64,
}

impl StreamScores {
    /// Measure names in [`StreamScores::values`] order — the same paper
    /// order as `afd_core::fast_measures()`.
    pub const NAMES: [&'static str; 11] = [
        "rho", "g2", "g3", "g3'", "g1S", "FI", "g1", "g1'", "pdep", "tau", "mu+",
    ];

    /// All scores 1.0 — the exactly-satisfied / empty convention.
    pub fn exact() -> Self {
        Self::from_values([1.0; 11])
    }

    /// The scores from values in [`StreamScores::NAMES`] order.
    fn from_values(
        [rho, g2, g3, g3_prime, g1s, fi, g1, g1_prime, pdep, tau, mu_plus]: [f64; 11],
    ) -> Self {
        StreamScores {
            rho,
            g2,
            g3,
            g3_prime,
            g1s,
            fi,
            g1,
            g1_prime,
            pdep,
            tau,
            mu_plus,
        }
    }

    /// The scores in [`StreamScores::NAMES`] order.
    pub fn values(&self) -> [f64; 11] {
        [
            self.rho,
            self.g2,
            self.g3,
            self.g3_prime,
            self.g1s,
            self.fi,
            self.g1,
            self.g1_prime,
            self.pdep,
            self.tau,
            self.mu_plus,
        ]
    }

    /// Looks a score up by its paper name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<f64> {
        Self::NAMES
            .iter()
            .position(|n| n.eq_ignore_ascii_case(name))
            .map(|i| self.values()[i])
    }

    /// Largest absolute per-measure difference to `other`.
    pub fn max_abs_diff(&self, other: &StreamScores) -> f64 {
        self.values()
            .iter()
            .zip(other.values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// `true` iff every score is bit-identical to `other`'s.
    pub fn bits_eq(&self, other: &StreamScores) -> bool {
        self.values()
            .iter()
            .zip(other.values())
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts the hand-computed fixture from the measure tests:
    /// X=a: y1 ×3, y2 ×1 ; X=b: y1 ×4. N = 8.
    fn fixture() -> IncTable {
        let mut t = IncTable::new();
        for _ in 0..3 {
            t.insert(0, 0);
        }
        t.insert(0, 1);
        for _ in 0..4 {
            t.insert(1, 0);
        }
        t
    }

    #[test]
    fn aggregates_match_hand_computation() {
        let t = fixture();
        assert_eq!(t.n(), 8);
        assert_eq!(t.n_x(), 2);
        assert_eq!(t.n_y(), 2);
        assert_eq!(t.nonzero_cells(), 3);
        assert_eq!(t.sum_row_max(), 3 + 4);
        assert_eq!(t.sum_sq_rows, 16 + 16);
        assert_eq!(t.sum_sq_cols, 49 + 1);
        assert_eq!(t.sum_sq_cells, 9 + 1 + 16);
        assert_eq!(t.violating_mass, 4);
        assert!(!t.is_exact_fd());
    }

    #[test]
    fn scores_match_paper_hand_values() {
        let s = fixture().scores();
        assert!((s.rho - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.g2 - 0.5).abs() < 1e-12);
        assert!((s.g3 - 7.0 / 8.0).abs() < 1e-12);
        assert!((s.g1 - (1.0 - 6.0 / 64.0)).abs() < 1e-12);
        assert!((s.g1_prime - (1.0 - 6.0 / 38.0)).abs() < 1e-12);
        assert!((s.pdep - 6.5 / 8.0).abs() < 1e-12);
        assert!((s.tau - 2.0 / 14.0).abs() < 1e-12);
        let h = 0.5 * -(0.75f64 * 0.75f64.log2() + 0.25 * 0.25f64.log2());
        assert!((s.g1s - (1.0 - h)).abs() < 1e-12);
    }

    #[test]
    fn delete_undoes_insert_exactly() {
        let base = fixture();
        let mut t = base.clone();
        t.insert(0, 1);
        t.insert(2, 5);
        t.delete(2, 5);
        t.delete(0, 1);
        assert!(t.scores().bits_eq(&base.scores()));
        assert_eq!(t.n(), base.n());
        assert_eq!(t.hist_rows, base.hist_rows);
        assert_eq!(t.hist_row_shape, base.hist_row_shape);
    }

    #[test]
    fn delete_majority_cell_recomputes_max() {
        let mut t = fixture();
        // X=1 has only y1 ×4; delete two -> max drops to 2.
        t.delete(1, 0);
        t.delete(1, 0);
        assert_eq!(t.sum_row_max(), 3 + 2);
        // Delete X=0's majority down below the minority.
        t.delete(0, 0);
        t.delete(0, 0);
        t.delete(0, 0);
        // X=0 now has only y2 ×1 -> exact-FD shape for that group.
        assert_eq!(t.sum_row_max(), 1 + 2);
    }

    #[test]
    fn empty_and_exact_score_one() {
        let t = IncTable::new();
        assert!(t.scores().bits_eq(&StreamScores::exact()));
        let mut t = IncTable::new();
        t.insert(0, 0);
        t.insert(1, 1);
        t.insert(1, 1);
        assert!(t.is_exact_fd());
        assert_eq!(t.scores().g3, 1.0);
        // One violation flips it.
        t.insert(1, 0);
        assert!(!t.is_exact_fd());
        assert!(t.scores().g3 < 1.0);
    }

    #[test]
    fn group_vanishes_when_emptied() {
        let mut t = IncTable::new();
        t.insert(5, 5);
        t.delete(5, 5);
        assert_eq!(t.n(), 0);
        assert_eq!(t.n_x(), 0);
        assert_eq!(t.n_y(), 0);
        assert_eq!(t.nonzero_cells(), 0);
        assert!(t.hist_rows.is_empty());
        assert!(t.hist_row_shape.is_empty());
    }

    #[test]
    fn merge_of_disjoint_x_partitions_is_bit_exact_and_order_independent() {
        // Whole table: X=a {y1×3, y2×1}, X=b {y1×4}, X=c {y2×2, y3×1}.
        let mut whole = fixture(); // a, b with y ids 0/1
        whole.insert(2, 1);
        whole.insert(2, 1);
        whole.insert(2, 2);
        // Shard 0 holds {a, b} with local y ids 0=y1, 1=y2; shard 1 holds
        // {c} with local y ids 0=y2, 1=y3.
        let s0 = fixture();
        let mut s1 = IncTable::new();
        s1.insert(0, 0);
        s1.insert(0, 0);
        s1.insert(0, 1);
        let (m0, m1): (&[u32], &[u32]) = (&[0, 1], &[1, 2]);
        assert!(IncTable::merged_scores([(&s0, m0), (&s1, m1)]).bits_eq(&whole.scores()));
        // Reversed part order: bit-identical scores.
        assert!(IncTable::merged_scores([(&s1, m1), (&s0, m0)]).bits_eq(&whole.scores()));
    }

    #[test]
    fn merge_of_single_part_is_identity_for_scores() {
        let t = fixture();
        let map: Vec<u32> = vec![0, 1];
        assert!(IncTable::merged_scores([(&t, map.as_slice())]).bits_eq(&t.scores()));
    }

    #[test]
    fn max_y_id_tracks_cells_and_columns() {
        assert_eq!(IncTable::new().max_y_id(), None);
        let mut t = IncTable::new();
        t.insert(0, 7);
        t.insert(1, 3);
        assert_eq!(t.max_y_id(), Some(7));
        t.delete(0, 7);
        assert_eq!(t.max_y_id(), Some(3));
    }

    #[test]
    fn patch_of_touched_ids_brings_a_stale_copy_to_equality() {
        let mut t = fixture();
        let mut copy = t.clone();
        // Empties group 1 and column 0's share of it, adds group 2 and
        // column 3, moves group 0's majority.
        for _ in 0..4 {
            t.delete(1, 0);
        }
        t.insert(2, 3);
        t.insert(0, 1);
        t.insert(0, 1);
        t.insert(0, 1);
        let patch = t.patch(&[1, 1, 1, 1, 2, 0, 0, 0], &[0, 0, 0, 0, 3, 1, 1, 1]);
        assert_eq!(patch.max_y_id(), Some(3));
        let back = TablePatch::decode_exact(&patch.encode_to_vec()).expect("patch decodes");
        assert_eq!(back, patch);
        copy.apply_patch(back);
        assert_eq!(copy, t);
        assert!(copy.scores().bits_eq(&t.scores()));
    }

    #[test]
    fn wire_roundtrip_is_exact_and_canonical() {
        let mut t = fixture();
        t.insert(7, 9);
        t.delete(1, 0);
        let bytes = t.encode_to_vec();
        let back = IncTable::decode_exact(&bytes).expect("table decodes");
        assert_eq!(back, t);
        assert!(back.scores().bits_eq(&t.scores()));
        // Canonical form: equal tables encode to identical bytes even
        // though the in-memory maps hash nondeterministically.
        assert_eq!(back.encode_to_vec(), bytes);
        // A decoded table keeps working as a live table.
        let mut live = back;
        live.insert(42, 1);
        live.delete(42, 1);
        assert!(live.scores().bits_eq(&t.scores()));
    }

    #[test]
    fn names_align_with_values() {
        let s = fixture().scores();
        assert_eq!(s.get("mu+"), Some(s.mu_plus));
        assert_eq!(s.get("G3'"), Some(s.g3_prime));
        assert_eq!(s.get("nope"), None);
        assert_eq!(StreamScores::NAMES.len(), s.values().len());
        let fast: Vec<&str> = afd_core::fast_measures().iter().map(|m| m.name()).collect();
        assert_eq!(fast, StreamScores::NAMES);
    }
}
