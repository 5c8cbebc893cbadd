//! Columnar kernel substrate: dense, generation-stamped scratch arrays
//! shared by every hot grouping loop in the crate.
//!
//! The paper's headline observation is that AFD measure *runtime* is
//! dominated by contingency-table and PLI construction. The original
//! reference implementations allocate a fresh `HashMap` (or clone a
//! `Vec<u32>` key per row) inside every inner loop. This module replaces
//! them with flat `u32` remap tables and counter vectors that are reused
//! across calls via a [`Scratch`] value:
//!
//! * a *generation stamp* per slot makes clearing O(1) — bumping the
//!   generation invalidates the whole table without touching memory;
//! * every kernel is allocation-free in steady state: buffers grow to a
//!   high-water mark and stay there;
//! * callers that fan work out across threads hand each worker its own
//!   `Scratch` (see `afd-parallel`'s `par_map_with`); single-threaded
//!   callers get a thread-local one via [`with_scratch`].
//!
//! The retained naive implementations live in [`crate::naive`]; property
//! tests pin optimized ≡ naive.
//!
//! The central pair-code kernel is [`combine_codes_with`]: it folds a
//! dense group-code column with another code column into dense codes of
//! the pair, packing each `(a, b)` into a single integer key — the
//! partition-product primitive behind `group_encode` on multi-attribute
//! sets and the lattice's node refinement. When the pair-key space is
//! small it is remapped through a dense stamped table; otherwise through
//! a reused `u64 -> u32` hash map (no per-row `Vec` keys either way).

use crate::dictionary::NULL_CODE;
use crate::tally::LaneSums;
use std::cell::RefCell;
use std::collections::HashMap;

/// A `u32`-indexed map with O(1) bulk clear via generation stamps.
///
/// `get` returns a value only if it was `set` since the last [`begin`].
/// Backing storage is two flat vectors that grow monotonically.
///
/// [`begin`]: Stamped::begin
#[derive(Debug, Default, Clone)]
pub(crate) struct Stamped<T> {
    stamp: Vec<u32>,
    val: Vec<T>,
    gen: u32,
}

impl<T: Copy + Default> Stamped<T> {
    /// Grows the table to cover keys `0..n`.
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.val.resize(n, T::default());
        }
    }

    /// Starts a new generation, logically clearing the table.
    pub(crate) fn begin(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // One physical clear every 2^32 generations.
            self.stamp.fill(0);
            self.gen = 1;
        }
    }

    /// The value at `key`, if written in the current generation.
    #[inline]
    pub(crate) fn get(&self, key: u32) -> Option<T> {
        let i = key as usize;
        (self.stamp[i] == self.gen).then(|| self.val[i])
    }

    /// Writes `key -> v` in the current generation.
    #[inline]
    pub(crate) fn set(&mut self, key: u32, v: T) {
        let i = key as usize;
        self.stamp[i] = self.gen;
        self.val[i] = v;
    }
}

/// A `u32`-indexed counter with O(1) bulk reset: each slot packs the
/// generation that last counted it (high 32 bits) with its count (low 32
/// bits), so counting a key is one load and one store. Counting one more
/// key and reading the count back is every grouping pass's pattern; this
/// layout ran the lattice tally about a fifth faster than [`Stamped`],
/// whether that keeps stamps and values in two arrays or in one array of
/// pairs.
#[derive(Debug, Default, Clone)]
pub(crate) struct Counter {
    slots: Vec<u64>,
    gen: u32,
}

impl Counter {
    /// Grows the counter to cover keys `0..n`.
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, 0);
        }
    }

    /// Starts a new generation, logically zeroing every count.
    pub(crate) fn begin(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // One physical clear every 2^32 generations.
            self.slots.fill(0);
            self.gen = 1;
        }
    }

    /// Counts one more `key` and returns its count in this generation
    /// (1 the first time).
    #[inline]
    pub(crate) fn bump(&mut self, key: u32) -> u32 {
        let slot = &mut self.slots[key as usize];
        let count = if (*slot >> 32) as u32 == self.gen {
            *slot as u32 + 1
        } else {
            1
        };
        *slot = (u64::from(self.gen) << 32) | u64::from(count);
        count
    }

    /// `key`'s count in this generation (0 if never bumped).
    #[inline]
    pub(crate) fn count(&self, key: u32) -> u32 {
        let slot = self.slots[key as usize];
        if (slot >> 32) as u32 == self.gen {
            slot as u32
        } else {
            0
        }
    }
}

/// Reusable scratch buffers for the partition kernels.
///
/// One `Scratch` serves all kernels ([`ContingencyTable::from_codes_with`],
/// [`Pli::refine_with`], [`Relation::group_encode_with_scratch`], ...);
/// each call stamps a fresh generation, so values never leak between
/// calls. A `Scratch` must not be shared across threads — give each
/// worker its own (it is cheap to create and grows lazily).
///
/// [`ContingencyTable::from_codes_with`]: crate::ContingencyTable::from_codes_with
/// [`Pli::refine_with`]: crate::Pli::refine_with
/// [`Relation::group_encode_with_scratch`]: crate::Relation::group_encode_with_scratch
#[derive(Debug, Default)]
pub struct Scratch {
    /// Primary remap table (X side / pair keys).
    pub(crate) map_a: Stamped<u32>,
    /// Secondary remap table (Y side).
    pub(crate) map_b: Stamped<u32>,
    /// Per-group counts of keys.
    pub(crate) count: Counter,
    /// Stamped write cursors (subcluster placement).
    pub(crate) pos: Stamped<u32>,
    /// Keys touched in the current generation, in first-touch order.
    pub(crate) touched: Vec<u32>,
    /// General-purpose row buffers.
    pub(crate) buf_a: Vec<u32>,
    pub(crate) buf_b: Vec<u32>,
    pub(crate) buf_c: Vec<u32>,
    pub(crate) buf_d: Vec<u32>,
    /// Fallback pair-key index when the dense key space would be too big.
    pub(crate) pair_hash: HashMap<u64, u32>,
    /// Buffers of the multi-RHS tally ([`crate::YMatrix::tally_with`]).
    pub(crate) lanes: LaneSums,
}

impl Scratch {
    /// A fresh, empty scratch. Buffers grow on first use.
    pub fn new() -> Self {
        Scratch::default()
    }
}

thread_local! {
    static TLS_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Runs `f` with this thread's shared [`Scratch`].
///
/// Top-level convenience wrappers (`ContingencyTable::from_codes`,
/// `Pli::refine`, ...) use this so existing call sites stay
/// allocation-free without threading a `Scratch` through. `f` must not
/// itself call a wrapper that re-enters `with_scratch` (the `_with`
/// kernel variants never do).
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    TLS_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Upper bound on dense pair-table size: beyond this the pair kernel
/// falls back to hashing. Chosen so the dense table stays within a few
/// multiples of the row count (cache-resident for bench-sized inputs).
fn dense_pair_limit(n_rows: usize) -> u64 {
    ((4 * n_rows as u64) + 1024).clamp(1 << 16, 1 << 22)
}

/// Folds `b`'s codes into the dense group codes `acc`, in place.
///
/// `acc` holds dense group ids `< acc_groups` (or [`NULL_CODE`]);
/// `b` holds codes `< b_bound` (or [`NULL_CODE`]). On return, `acc`
/// holds dense ids of the *pair* partition, numbered in first-encounter
/// (row) order; the new group count is returned.
///
/// NULL handling: with `null_b_as_value = false`, a NULL on either side
/// propagates (the paper's drop-tuples semantics). With `true`, `b`'s
/// NULLs act as one ordinary value (NULL-as-value semantics); `acc`
/// NULLs still propagate, since upstream single-attribute encoding under
/// NULL-as-value never produces them.
pub fn combine_codes_with(
    scratch: &mut Scratch,
    acc: &mut [u32],
    acc_groups: u32,
    b: &[u32],
    b_bound: u32,
    null_b_as_value: bool,
) -> u32 {
    assert_eq!(acc.len(), b.len(), "parallel code slices");
    let stride = u64::from(b_bound) + u64::from(null_b_as_value);
    let key_space = u64::from(acc_groups) * stride;
    let mut next = 0u32;
    if key_space <= dense_pair_limit(acc.len()) {
        scratch.map_a.ensure(key_space as usize);
        scratch.map_a.begin();
        for (a, &bc) in acc.iter_mut().zip(b) {
            let xi = *a;
            if xi == NULL_CODE {
                continue;
            }
            let bc = match (bc, null_b_as_value) {
                (NULL_CODE, false) => {
                    *a = NULL_CODE;
                    continue;
                }
                (NULL_CODE, true) => b_bound,
                (c, _) => c,
            };
            let key = (u64::from(xi) * stride + u64::from(bc)) as u32;
            *a = match scratch.map_a.get(key) {
                Some(id) => id,
                None => {
                    scratch.map_a.set(key, next);
                    next += 1;
                    next - 1
                }
            };
        }
    } else {
        scratch.pair_hash.clear();
        for (a, &bc) in acc.iter_mut().zip(b) {
            let xi = *a;
            if xi == NULL_CODE {
                continue;
            }
            let bc = match (bc, null_b_as_value) {
                (NULL_CODE, false) => {
                    *a = NULL_CODE;
                    continue;
                }
                (NULL_CODE, true) => b_bound,
                (c, _) => c,
            };
            let key = (u64::from(xi) << 32) | u64::from(bc);
            let id = *scratch.pair_hash.entry(key).or_insert(next);
            if id == next {
                next += 1;
            }
            *a = id;
        }
    }
    next
}

/// Builds a stripped partition (CSR clusters of size ≥ 2, in group-id
/// order, rows ascending within each cluster) from dense per-row group
/// codes, writing into caller-owned buffers (the lattice's per-attribute
/// bases, [`Pli::from_encoding_with`]). Rows with [`NULL_CODE`] are
/// appended to `out_dropped` (ascending) instead.
///
/// `bound` is an exclusive upper bound on the non-NULL codes (e.g. the
/// encoding's `n_groups`).
///
/// [`Pli::from_encoding_with`]: crate::Pli::from_encoding_with
pub fn strip_codes_into(
    scratch: &mut Scratch,
    codes: &[u32],
    bound: u32,
    out_rows: &mut Vec<u32>,
    out_starts: &mut Vec<u32>,
    out_dropped: &mut Vec<u32>,
) {
    out_rows.clear();
    out_starts.clear();
    out_dropped.clear();
    scratch.count.ensure(bound as usize);
    scratch.count.begin();
    for &c in codes {
        if c != NULL_CODE {
            scratch.count.bump(c);
        }
    }
    scratch.pos.ensure(bound as usize);
    scratch.pos.begin();
    let mut total = 0u32;
    for g in 0..bound {
        let k = scratch.count.count(g);
        if k >= 2 {
            scratch.pos.set(g, total);
            out_starts.push(total);
            total += k;
        }
    }
    out_starts.push(total);
    out_rows.resize(total as usize, 0);
    for (row, &c) in codes.iter().enumerate() {
        if c == NULL_CODE {
            out_dropped.push(row as u32);
        } else if let Some(p) = scratch.pos.get(c) {
            out_rows[p as usize] = row as u32;
            scratch.pos.set(c, p + 1);
        }
    }
}

/// Refines a stripped partition (`rows`/`starts`, the layout
/// [`strip_codes_into`] produces) by another attribute's per-row codes
/// below `bound`, writing the stripped partition of the union set into
/// caller-owned buffers — the TANE partition product behind
/// [`Pli::refine_with`] and the lattice's node refinement (which reuses
/// per-worker buffers across candidates).
///
/// Within each input cluster, rows are re-grouped by `codes` (NULL rows
/// fall out, subclusters of size 1 are stripped). Subclusters come out
/// parent by parent, each parent's in first-encounter order, rows
/// ascending. Two stamped passes per cluster (tally, then place): time
/// linear in the stripped size.
///
/// [`Pli::refine_with`]: crate::Pli::refine_with
pub fn refine_stripped_into(
    scratch: &mut Scratch,
    rows: &[u32],
    starts: &[u32],
    codes: &[u32],
    bound: u32,
    out_rows: &mut Vec<u32>,
    out_starts: &mut Vec<u32>,
) {
    out_rows.clear();
    out_starts.clear();
    scratch.count.ensure(bound as usize);
    scratch.pos.ensure(bound as usize);
    let n_clusters = starts.len().saturating_sub(1);
    for ci in 0..n_clusters {
        let cluster = &rows[starts[ci] as usize..starts[ci + 1] as usize];
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
        // Subclusters in first-encounter order; rows stay ascending.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_clears_by_generation() {
        let mut m: Stamped<u32> = Stamped::default();
        m.ensure(8);
        m.begin();
        m.set(3, 7);
        assert_eq!(m.get(3), Some(7));
        assert_eq!(m.get(4), None);
        m.begin();
        assert_eq!(m.get(3), None);
    }

    #[test]
    fn counter_counts_per_generation() {
        let mut c = Counter::default();
        c.ensure(4);
        c.begin();
        assert_eq!((c.bump(2), c.bump(2), c.bump(3)), (1, 2, 1));
        assert_eq!((c.count(2), c.count(3), c.count(0)), (2, 1, 0));
        c.ensure(100);
        assert_eq!((c.count(2), c.count(99)), (2, 0));
        c.begin();
        assert_eq!((c.count(2), c.bump(3)), (0, 1));
    }

    #[test]
    fn counter_clears_when_the_generation_wraps() {
        let mut c = Counter::default();
        c.ensure(2);
        c.begin();
        c.bump(1);
        // A count left from a generation 2^32 ago must not resurface.
        c.gen = u32::MAX;
        c.bump(0);
        c.begin();
        assert_eq!(c.gen, 1);
        assert_eq!((c.count(0), c.count(1)), (0, 0));
        assert_eq!(c.bump(1), 1);
    }

    #[test]
    fn stamped_survives_growth() {
        let mut m: Stamped<u64> = Stamped::default();
        m.ensure(2);
        m.begin();
        m.set(1, 10);
        m.ensure(100);
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.get(50), None);
    }

    #[test]
    fn combine_codes_matches_pairwise_equality() {
        let a = vec![0, 0, 1, 1, 2, NULL_CODE, 0];
        let b = vec![5, 5, 5, 6, 5, 0, NULL_CODE];
        let mut acc = a.clone();
        let groups = with_scratch(|s| combine_codes_with(s, &mut acc, 3, &b, 7, false));
        // Pairs: (0,5)x2, (1,5), (1,6), (2,5), NULL, NULL.
        assert_eq!(groups, 4);
        for i in 0..a.len() {
            for j in 0..a.len() {
                let null_i = a[i] == NULL_CODE || b[i] == NULL_CODE;
                let null_j = a[j] == NULL_CODE || b[j] == NULL_CODE;
                if null_i || null_j {
                    continue;
                }
                assert_eq!(
                    acc[i] == acc[j],
                    (a[i], b[i]) == (a[j], b[j]),
                    "rows {i} {j}"
                );
            }
        }
        assert_eq!(acc[5], NULL_CODE);
        assert_eq!(acc[6], NULL_CODE);
    }

    #[test]
    fn combine_codes_null_as_value() {
        let a = vec![0, 1, 0, 1];
        let b = vec![NULL_CODE, NULL_CODE, 2, NULL_CODE];
        let mut acc = a.clone();
        let groups = with_scratch(|s| combine_codes_with(s, &mut acc, 2, &b, 3, true));
        // Pairs: (0,N), (1,N), (0,2), (1,N) -> 3 groups, none NULL.
        assert_eq!(groups, 3);
        assert_eq!(acc[1], acc[3]);
        assert!(acc.iter().all(|&c| c != NULL_CODE));
    }

    #[test]
    fn strip_codes_orders_clusters_by_group_id() {
        // codes: groups 2 -> rows {0,3}, 0 -> {1,4}, NULL row 2, 1 -> {5} single.
        let codes = vec![2, 0, NULL_CODE, 2, 0, 1];
        let (mut rows, mut starts, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
        with_scratch(|s| strip_codes_into(s, &codes, 3, &mut rows, &mut starts, &mut dropped));
        assert_eq!(rows, vec![1, 4, 0, 3]); // group 0 first, then group 2
        assert_eq!(starts, vec![0, 2, 4]);
        assert_eq!(dropped, vec![2]);
    }

    #[test]
    fn combine_codes_hash_fallback_agrees_with_dense() {
        // Force the hash path with a huge key space, then compare
        // against the dense path on remapped inputs.
        let n = 2000usize;
        let a: Vec<u32> = (0..n).map(|i| (i % 37) as u32).collect();
        let b: Vec<u32> = (0..n).map(|i| (i % 41) as u32).collect();
        let mut dense = a.clone();
        let g_dense = with_scratch(|s| combine_codes_with(s, &mut dense, 37, &b, 41, false));
        let mut hashed = a.clone();
        // Lie about the bound (huge) so key_space overflows the limit;
        // correctness must not depend on the path taken.
        let g_hash =
            with_scratch(|s| combine_codes_with(s, &mut hashed, 37, &b, u32::MAX - 1, false));
        assert_eq!(g_dense, g_hash);
        assert_eq!(dense, hashed, "paths must assign identical dense ids");
    }
}
