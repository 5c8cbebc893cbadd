//! Levelwise lattice search for **non-linear** AFDs (multi-attribute
//! LHS), TANE-style — on stripped partitions, in one lattice shared by
//! every RHS, with a fused generation/evaluation pipeline.
//!
//! The paper's concluding observation motivates this module: because
//! LHS-uniqueness tends to 1 as the LHS grows, only uniqueness-insensitive
//! measures (g3′, RFI′⁺, µ⁺) are fit for non-linear discovery. The search
//! here is measure-agnostic: plug in any [`Measure`].
//!
//! Search: LHS attribute sets are explored level by level, each node
//! carrying the RHS attributes it is still *open* for. A set `X` is
//! *closed* for an RHS `A` (not extended for it) when
//!
//! * `X -> A` holds exactly (every superset then holds too — classic TANE
//!   key pruning also falls out: a unique LHS implies an exact FD), or
//! * it was emitted as an AFD (supersets are non-minimal), or
//! * the level limit is reached.
//!
//! A child set `Z` (its prefix parent plus one attribute above the
//! parent's largest) is a *candidate* for `A` when the parent is open for
//! `A`, `A ∉ Z`, and no set closed for `A` is a subset of `Z`.
//! [`discover_all`] runs the search for every attribute as RHS,
//! [`discover_for_rhs`] for one.
//!
//! ## Performance architecture
//!
//! **Stripped nodes.** A node stores only the rows of its partition's
//! non-singleton groups (CSR clusters ordered by first row, like
//! `Pli`), plus the usually-empty list of NULL-dropped rows — not a
//! dense `O(rows)` code vector. Work and memory per node shrink
//! monotonically up the lattice: once a group shrinks to one row it
//! leaves the representation for good.
//!
//! **Table-free scoring.** As TANE reads g3 off stripped partitions
//! with one counting pass per cluster, a measure with a
//! [`Measure::summary_formula`] (ρ, g2, g3, g3′, g1, g1′, pdep, τ, µ⁺)
//! scores every candidate — NULL-bearing ones included — from
//! [`YMatrix::tally_with`]: **one pass per node**, not per candidate,
//! fills the [`Summary`] of every RHS the node is a candidate for, with
//! no allocation and no table. For these measures only, the search's
//! RHS codes are laid out once per call as a row-major matrix beside
//! the attribute bases (`rows × lanes` `u32`s, lanes rounded up to a
//! multiple of 8; not counted in `LatticeStats::base_bytes`), so a
//! small X-group is counted by comparing whole rows, one lane per RHS;
//! larger groups keep a stamped counter over each RHS's column. Y-NULL
//! rows are skipped, X-NULL rows come off the RHS column totals,
//! singleton groups are counted arithmetically, and the pdep sum is
//! exact, so it needs no group order: scores
//! ([`afd_core::score_summary`]) are **bit-identical** to the full-codes
//! reference retained in [`crate::naive_lattice`].
//! The other measures keep two table paths. NULL-free candidates of a
//! measure whose [`Measure::bit_exact_on_implicit_singletons`] holds
//! (g1ˢ, FI and the RFI family) go through
//! [`ContingencyTable::from_stripped_with`], which folds the implicit
//! singleton groups in arithmetically (they add exactly 0 to the exact
//! Shannon sums). The rest — candidates over NULL-bearing attributes,
//! and measures that need materialised singleton rows, like SFI —
//! reconstruct dense codes in a per-worker scratch buffer (once per set,
//! however many RHS need them) and are evaluated through the classic
//! [`ContingencyTable::from_codes_with`] kernel, bit-identical by
//! construction.
//!
//! **One lattice for every RHS.** As in TANE (Huhtala et al., *The
//! Computer Journal* 1999), an LHS set is a single node whatever the
//! RHS: it is refined once per call and scored against every RHS it is
//! a candidate for, instead of being refined again in a separate search
//! per RHS. Each RHS keeps its own closed sets, so the output and the
//! per-(LHS set, RHS) counts are exactly those of searching every RHS
//! on its own.
//!
//! **Fused generation + evaluation.** Each level is one `par_map_with`
//! pass over the parent nodes. A worker generates a parent's children
//! (cheap set ops plus subset-index probes against the sets closed on
//! earlier levels, read-only during the pass), refines each child that
//! has a candidate RHS ([`afd_relation::refine_stripped_into`]) and
//! scores it — the parent partitions shared read-only. Nothing
//! `O(rows)` happens outside the workers; their verdicts are then folded
//! into the closed sets sequentially, in parent order.
//!
//! **Node storage.** Children refine into per-worker buffers; only a
//! child that stays open for some RHS (and is not on the last level)
//! copies its clusters into vectors it owns — once, however many RHS it
//! stays open for. A level's parents are dropped when the level ends,
//! so the most node storage alive at once is one level's parents plus
//! its open children — the "peak lattice bytes"
//! ([`LatticeStats::peak_node_bytes`]) that `record_lattice` benchmarks
//! (bar: ≥ 4× below the full-codes reference on the 65 536-row fixture).
//!
//! **Exactness pruning.** Per RHS, emitted *and* exactly-satisfied LHS
//! sets go into one `SubsetIndex`; candidate generation skips any
//! superset before its partition is materialised. Indexing only emitted
//! sets would let a superset of an exact set reached through a different
//! prefix parent be built and scored (always to a silent `Exact`) — pure
//! wasted work, avoided without changing output.
//!
//! The search is *level-synchronous parallel*: all candidates of a level
//! have the same LHS size, so a same-level emission can never subsume
//! another same-level candidate, and evaluating a level across workers
//! is exactly equivalent to the sequential left-to-right sweep — output
//! and statistics are identical for every thread count. The
//! per-attribute encodings, stripped bases and RHS code matrix are built
//! once per call and shared by every node and RHS, instead of
//! re-encoding `O(m²)` times.

use afd_core::{score_summary, Measure};
use afd_parallel::{max_threads, par_map_with};
use afd_relation::{
    refine_stripped_into, strip_codes_into, AttrId, AttrSet, ContingencyTable, Fd, GroupEncoding,
    Relation, Scratch, Summary, YMatrix, YSide, NULL_CODE,
};

use crate::threshold::Discovered;

/// The ε both discovery front doors default to (`LatticeConfig` here,
/// `DiscoverRequest` in `afd-engine` — a regression test in the engine
/// pins the two together).
pub const DEFAULT_EPSILON: f64 = 0.5;

/// Configuration of the lattice search.
#[derive(Debug, Clone, Copy)]
pub struct LatticeConfig {
    /// Maximum LHS size (level cap). Defaults to 3 — the non-linear
    /// depth the paper's experiments use. (The engine's
    /// `DiscoverRequest` defaults to `max_lhs = 1` instead because its
    /// default algorithm is the *linear* threshold search; this type is
    /// the non-linear preset.)
    pub max_lhs: usize,
    /// Discovery threshold ε: emit AFDs with score in `[ε, 1)`.
    /// Defaults to [`DEFAULT_EPSILON`], shared with the engine.
    pub epsilon: f64,
}

impl Default for LatticeConfig {
    fn default() -> Self {
        LatticeConfig {
            max_lhs: 3,
            epsilon: DEFAULT_EPSILON,
        }
    }
}

/// An invalid [`LatticeConfig`] — the non-panicking form of the
/// validation the `discover_*` wrappers enforce with `assert!`.
#[derive(Debug, Clone, PartialEq)]
pub enum LatticeError {
    /// `epsilon` outside `[0, 1)`.
    Epsilon(f64),
    /// `max_lhs == 0`.
    MaxLhs,
    /// The RHS attribute id `rhs` is not below the relation's `arity`.
    UnknownRhs {
        /// The requested RHS attribute id.
        rhs: u32,
        /// The relation's number of attributes.
        arity: usize,
    },
}

impl std::fmt::Display for LatticeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatticeError::Epsilon(e) => write!(f, "epsilon must be in [0, 1), got {e}"),
            LatticeError::MaxLhs => write!(f, "max_lhs must be at least 1"),
            LatticeError::UnknownRhs { rhs, arity } => write!(
                f,
                "rhs attribute {rhs} is not in the relation (arity {arity})"
            ),
        }
    }
}

impl std::error::Error for LatticeError {}

impl LatticeConfig {
    /// Checks the configuration without running anything — the shared
    /// validation behind every `discover_*` entry (and the engine's
    /// linear threshold path, so both algorithms reject identically).
    ///
    /// # Errors
    /// [`LatticeError`] for `epsilon ∉ [0, 1)` or `max_lhs == 0`.
    pub fn validate(&self) -> Result<(), LatticeError> {
        if !(0.0..1.0).contains(&self.epsilon) {
            return Err(LatticeError::Epsilon(self.epsilon));
        }
        if self.max_lhs == 0 {
            return Err(LatticeError::MaxLhs);
        }
        Ok(())
    }
}

// ------------------------------------------------------------------
// Search statistics

/// Per-level node accounting of one lattice run.
///
/// The counts are per (LHS set, RHS) pair: a set scored against three
/// RHS is three candidates, so they equal the sum of searching each RHS
/// on its own. The storage figures count each node once, however many
/// RHS it stays open for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// LHS size of this level (1-based).
    pub level: usize,
    /// Candidate pairs scored.
    pub candidates: usize,
    /// Pairs skipped before materialisation because a set closed for
    /// that RHS is a subset of the LHS (charged to the level being
    /// generated).
    pub pruned: usize,
    /// Candidate pairs emitted as AFDs.
    pub emitted: usize,
    /// Candidate pairs whose FD held exactly (silently closed).
    pub exact: usize,
    /// Candidate pairs left open for the next level.
    pub open: usize,
    /// Bytes of partition storage held by the nodes kept from this
    /// level.
    pub node_bytes: u64,
    /// Rows stored across the nodes kept from this level (stripped size
    /// for the stripped lattice, `rows × nodes` for the full-codes
    /// reference).
    pub stored_rows: u64,
}

impl LevelStats {
    fn add(&mut self, other: &LevelStats) {
        self.candidates += other.candidates;
        self.pruned += other.pruned;
        self.emitted += other.emitted;
        self.exact += other.exact;
        self.open += other.open;
        self.node_bytes += other.node_bytes;
        self.stored_rows += other.stored_rows;
    }
}

/// Statistics of a lattice run ([`try_discover_all_stats`],
/// [`try_discover_for_rhs_stats`]): one shared search over every RHS it
/// was asked for. Nothing here depends on the thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatticeStats {
    /// Per-level accounting (see [`LevelStats`]).
    pub levels: Vec<LevelStats>,
    /// Most node partition bytes the search holds at once: the largest
    /// sum, over its levels, of the level's parents plus its open
    /// children, each shared node counted once (level-1 nodes borrow the
    /// shared bases and count 0). The full-codes reference, which runs
    /// one search per RHS, counts its dense node vectors at the same
    /// point (parents plus every generated child) and reports the
    /// maximum over its RHS searches.
    pub peak_node_bytes: u64,
    /// Bytes of the shared per-attribute encodings + stripped bases
    /// (allocated once per run, not per node; 0 for the reference path,
    /// which re-encodes per RHS instead).
    pub base_bytes: u64,
}

impl LatticeStats {
    /// Folds another run's stats into this one (levels summed, peak
    /// maximised) — how the full-codes reference's `discover_all`
    /// combines its per-RHS searches.
    pub fn absorb(&mut self, other: &LatticeStats) {
        for lvl in &other.levels {
            match self.levels.iter_mut().find(|l| l.level == lvl.level) {
                Some(mine) => mine.add(lvl),
                None => self.levels.push(lvl.clone()),
            }
        }
        self.levels.sort_by_key(|l| l.level);
        self.peak_node_bytes = self.peak_node_bytes.max(other.peak_node_bytes);
        self.base_bytes = self.base_bytes.max(other.base_bytes);
    }

    /// Candidates evaluated across all levels.
    pub fn total_candidates(&self) -> usize {
        self.levels.iter().map(|l| l.candidates).sum()
    }

    /// Records the node bytes alive at one point of a search, keeping
    /// the maximum.
    pub(crate) fn note_bytes(&mut self, bytes: u64) {
        self.peak_node_bytes = self.peak_node_bytes.max(bytes);
    }
}

// ------------------------------------------------------------------
// Subset index

/// Index over closed (emitted or exact) LHS sets answering "is any
/// closed set a subset of this candidate?" without scanning every
/// closure.
///
/// Sets are stored as `u64` bitmasks bucketed by their smallest
/// attribute: a subset of the candidate must have its smallest attribute
/// inside the candidate, so only the candidate's own attribute buckets
/// are probed. Relations wider than 64 attributes fall back to a linear
/// scan over `AttrSet`s.
pub(crate) struct SubsetIndex {
    buckets: Vec<Vec<u64>>,
    wide: Vec<AttrSet>,
}

impl SubsetIndex {
    pub(crate) fn new(arity: usize) -> Self {
        SubsetIndex {
            buckets: vec![Vec::new(); arity.min(64)],
            wide: Vec::new(),
        }
    }

    fn mask(attrs: &AttrSet) -> Option<u64> {
        let mut m = 0u64;
        for a in attrs.ids() {
            if a.0 >= 64 {
                return None;
            }
            m |= 1u64 << a.0;
        }
        Some(m)
    }

    pub(crate) fn insert(&mut self, attrs: &AttrSet) {
        match Self::mask(attrs) {
            Some(m) => {
                let lowest = attrs.ids()[0].0 as usize;
                self.buckets[lowest].push(m);
            }
            None => self.wide.push(attrs.clone()),
        }
    }

    pub(crate) fn any_subset_of(&self, attrs: &AttrSet) -> bool {
        if let Some(cand) = Self::mask(attrs) {
            for a in attrs.ids() {
                for &m in &self.buckets[a.0 as usize] {
                    if m & cand == m {
                        return true;
                    }
                }
            }
            false
        } else {
            // Wide relation: masks may be unusable for the candidate;
            // check both stores linearly.
            let bucket_hit = self.buckets.iter().flatten().any(|&m| {
                // Reconstruct cheaply: a mask is a subset iff all its
                // bits name attributes of the candidate.
                (0..64).all(|b| m & (1 << b) == 0 || attrs.contains(AttrId(b)))
            });
            bucket_hit || self.wide.iter().any(|s| s.is_subset(attrs))
        }
    }
}

// ------------------------------------------------------------------
// Shared per-attribute data

/// Everything the search needs about one attribute, computed **once**
/// per run and shared read-only by every worker: the dense
/// first-encounter encoding (the refinement operand and, as an RHS, the
/// Y codes), the stripped CSR of its partition (the level-1 node), and
/// its NULL rows.
struct AttrBase {
    enc: GroupEncoding,
    rows: Vec<u32>,
    starts: Vec<u32>,
    dropped: Vec<u32>,
}

impl AttrBase {
    fn bytes(&self) -> u64 {
        ((self.enc.codes.len() + self.rows.len() + self.starts.len() + self.dropped.len())
            * std::mem::size_of::<u32>()) as u64
    }
}

/// Builds the shared attribute bases — `m` encodings total, not
/// `O(m²)` as the per-RHS re-encoding baseline performs.
fn build_bases(rel: &Relation, threads: usize) -> Vec<AttrBase> {
    let attrs: Vec<AttrId> = rel.schema().attrs().collect();
    par_map_with(&attrs, threads, Scratch::new, |scratch, _, &a| {
        let enc = rel.group_encode_with_scratch(
            &AttrSet::single(a),
            afd_relation::NullSemantics::DropTuples,
            scratch,
        );
        let mut rows = Vec::new();
        let mut starts = Vec::new();
        let mut dropped = Vec::new();
        strip_codes_into(
            scratch,
            &enc.codes,
            enc.n_groups,
            &mut rows,
            &mut starts,
            &mut dropped,
        );
        AttrBase {
            enc,
            rows,
            starts,
            dropped,
        }
    })
}

/// One RHS attribute of a search and the LHS sets closed for it. Its
/// [`YSide`] has the same index in the search's [`Scoring`].
struct Rhs {
    attr: AttrId,
    /// Emitted and exact LHS sets: their supersets are never candidates
    /// for this RHS.
    closed: SubsetIndex,
}

// ------------------------------------------------------------------
// Nodes and evaluation

/// Where an open node's stripped CSR lives: level-1 nodes share their
/// attribute base read-only (zero per-node storage); refined nodes own
/// their buffers.
enum NodeStore {
    /// Index into the shared `AttrBase` slice.
    Shared(usize),
    /// CSR buffers owned by this node.
    Owned { rows: Vec<u32>, starts: Vec<u32> },
}

/// An open stripped node: an LHS attribute set, stored once however many
/// RHS it serves, with its CSR clusters, the sorted NULL-dropped rows of
/// its attribute set (usually empty) and the RHS it is still open for.
struct Node {
    attrs: AttrSet,
    store: NodeStore,
    dropped: Vec<u32>,
    /// Indices into the search's RHS list.
    open: Vec<usize>,
}

impl Node {
    /// The node's CSR clusters (shared base or owned).
    fn csr<'a>(&'a self, bases: &'a [AttrBase]) -> (&'a [u32], &'a [u32]) {
        match &self.store {
            NodeStore::Shared(i) => (&bases[*i].rows, &bases[*i].starts),
            NodeStore::Owned { rows, starts } => (rows, starts),
        }
    }

    /// Bytes this node *owns* (shared level-1 bases are accounted once
    /// in `LatticeStats::base_bytes`, not per node).
    fn bytes(&self) -> u64 {
        let owned = match &self.store {
            NodeStore::Shared(_) => 0,
            NodeStore::Owned { rows, starts } => rows.len() + starts.len(),
        };
        ((owned + self.dropped.len()) * std::mem::size_of::<u32>()) as u64
    }

    /// Rows stored in this node's clusters.
    fn stored_rows(&self, bases: &[AttrBase]) -> u64 {
        self.csr(bases).0.len() as u64
    }

    /// The node's NULL-dropped rows (shared level-1 nodes read the
    /// attribute base's list instead of owning a copy).
    fn dropped_rows<'a>(&'a self, bases: &'a [AttrBase]) -> &'a [u32] {
        match &self.store {
            NodeStore::Shared(i) => &bases[*i].dropped,
            NodeStore::Owned { .. } => &self.dropped,
        }
    }
}

/// What evaluating one (LHS set, RHS) candidate produced.
enum Verdict {
    /// FD holds exactly: close silently (supersets hold too) and index
    /// the set so supersets are pruned before materialisation.
    Exact,
    /// Scored at or above ε: emit, close the branch.
    Emit(f64),
    /// Below ε: keep searching upward.
    Open,
}

/// One LHS set a worker scored: its verdict for each RHS (an index into
/// the search's RHS list) it was a candidate for, and — when the set is
/// kept as a node — its partition storage and NULL-dropped rows.
struct Scored {
    attrs: AttrSet,
    verdicts: Vec<(usize, Verdict)>,
    kept: Option<(NodeStore, Vec<u32>)>,
}

/// Whether any RHS left the set open.
fn any_open(verdicts: &[(usize, Verdict)]) -> bool {
    verdicts.iter().any(|(_, v)| matches!(v, Verdict::Open))
}

/// Per-worker state: kernel scratch (the tally's per-lane sums
/// included), refinement output buffers, a dense code buffer for the
/// NULL/full-table fallback reconstruction, and the tallied summaries.
/// Children that close (the common case) live and die entirely in these
/// buffers — only open nodes copy into storage of their own.
#[derive(Default)]
struct EvalCtx {
    scratch: Scratch,
    rows_buf: Vec<u32>,
    starts_buf: Vec<u32>,
    codes_buf: Vec<u32>,
    summaries: Vec<Summary>,
}

/// Marker for rows that are neither clustered nor dropped during
/// fallback reconstruction — i.e. implicit singletons.
const SINGLETON_MARK: u32 = u32::MAX - 1;

/// The verdict on a candidate: exact, or its score (computed only when
/// not exact) against ε.
fn verdict(exact: bool, score: impl FnOnce() -> f64, epsilon: f64) -> Verdict {
    if exact {
        return Verdict::Exact;
    }
    let score = score();
    if score >= epsilon {
        Verdict::Emit(score)
    } else {
        Verdict::Open
    }
}

/// Reconstructs dense per-row codes from a stripped partition: clusters
/// keep their index, dropped rows are NULL, everything else is its own
/// group. The full-codes kernel remaps to first-encounter order, so the
/// ids only need to be distinct.
fn densify(buf: &mut Vec<u32>, rows: &[u32], starts: &[u32], dropped: &[u32], n_rows: usize) {
    buf.clear();
    buf.resize(n_rows, SINGLETON_MARK);
    let n_clusters = starts.len().saturating_sub(1);
    for ci in 0..n_clusters {
        for &r in &rows[starts[ci] as usize..starts[ci + 1] as usize] {
            buf[r as usize] = ci as u32;
        }
    }
    for &r in dropped {
        buf[r as usize] = NULL_CODE;
    }
    let mut next = n_clusters as u32;
    for v in buf.iter_mut() {
        if *v == SINGLETON_MARK {
            *v = next;
            next += 1;
        }
    }
}

/// Sorted union of two ascending row lists (NULL-dropped rows).
fn merge_dropped(a: &[u32], b: &[u32]) -> Vec<u32> {
    if a.is_empty() {
        return b.to_vec();
    }
    if b.is_empty() {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

// ------------------------------------------------------------------
// The shared search

/// How a search scores its candidates, fixed per call by the measure's
/// [`Measure::summary_formula`]. Index `k` is the Y side of `rhss[k]`.
enum Scoring<'a> {
    /// Every candidate is tallied: the RHS codes laid out row-major
    /// (lane `k`) and the formula that scores a [`Summary`].
    Tally {
        ys: YMatrix<'a>,
        formula: fn(&Summary) -> f64,
    },
    /// Every candidate builds a contingency table from its RHS column;
    /// no row-major copy is made.
    Table(Vec<YSide<'a>>),
}

/// One lattice search over a set of RHS attributes: the shared
/// read-only inputs, each RHS's closed sets, and the AFDs found so far.
struct Search<'a> {
    n_rows: usize,
    bases: &'a [AttrBase],
    rhss: Vec<Rhs>,
    scoring: Scoring<'a>,
    measure: &'a dyn Measure,
    epsilon: f64,
    found: Vec<Discovered>,
}

impl Search<'_> {
    /// Scores a stripped partition against each RHS in `rhs`.
    ///
    /// A measure with a summary formula scores every candidate from one
    /// [`YMatrix::tally_with`] pass over the node — `O(stripped ·
    /// lanes + dropped)` work and no table, NULLs or not. For the other
    /// measures, a NULL-free candidate of an implicit-exact measure
    /// builds the implicit-singleton table straight from the clusters;
    /// any other candidate is evaluated on dense codes through the
    /// full-codes kernel, bit-identical to the reference by construction.
    /// The dense codes depend only on the partition, so they are rebuilt
    /// in the worker's buffer at most once per set, however many RHS need
    /// them.
    fn score(
        &self,
        scratch: &mut Scratch,
        codes_buf: &mut Vec<u32>,
        summaries: &mut Vec<Summary>,
        (rows, starts): (&[u32], &[u32]),
        dropped: &[u32],
        rhs: Vec<usize>,
    ) -> Vec<(usize, Verdict)> {
        let ys = match &self.scoring {
            Scoring::Tally { ys, formula } => {
                ys.tally_with(scratch, rows, starts, dropped, &rhs, summaries);
                return rhs
                    .into_iter()
                    .zip(summaries.iter())
                    .map(|(k, s)| {
                        let v =
                            verdict(s.is_exact_fd(), || score_summary(s, *formula), self.epsilon);
                        (k, v)
                    })
                    .collect();
            }
            Scoring::Table(ys) => ys,
        };
        let mut dense = false;
        rhs.into_iter()
            .map(|k| {
                let y = &ys[k];
                let t = if !y.has_nulls()
                    && dropped.is_empty()
                    && self.measure.bit_exact_on_implicit_singletons()
                {
                    ContingencyTable::from_stripped_with(scratch, rows, starts, y)
                } else {
                    if !dense {
                        densify(codes_buf, rows, starts, dropped, self.n_rows);
                        dense = true;
                    }
                    ContingencyTable::from_codes_with(scratch, codes_buf, y.codes())
                };
                let v = verdict(
                    t.is_exact_fd(),
                    || self.measure.score_contingency(&t),
                    self.epsilon,
                );
                (k, v)
            })
            .collect()
    }

    /// Scores the single attribute `a` straight off its shared stripped
    /// base against every RHS but `a` itself; if it stays open it keeps
    /// borrowing the base (zero copies, zero per-node storage — level-1
    /// nodes are only ever read as refinement parents).
    fn level1(&self, ctx: &mut EvalCtx, a: AttrId) -> Scored {
        let base = &self.bases[a.index()];
        let rhs = (0..self.rhss.len())
            .filter(|&k| self.rhss[k].attr != a)
            .collect();
        let verdicts = self.score(
            &mut ctx.scratch,
            &mut ctx.codes_buf,
            &mut ctx.summaries,
            (&base.rows, &base.starts),
            &base.dropped,
            rhs,
        );
        let kept = any_open(&verdicts).then(|| (NodeStore::Shared(a.index()), Vec::new()));
        Scored {
            attrs: AttrSet::single(a),
            verdicts,
            kept,
        }
    }

    /// Generates, refines and scores the children of `parent`: the sets
    /// `parent ∪ {a}` for every attribute `a` above the parent's largest.
    /// A child is a candidate for each RHS the parent is open for, except
    /// the added attribute itself (skipped, not counted) and any RHS with
    /// a closed subset of the child (counted as pruned). A child with
    /// candidates is refined once into the worker's buffers and scored
    /// against all of them; its clusters are copied out only when `keep`
    /// holds and some RHS leaves it open. Returns the scored children and
    /// the pruned count.
    fn expand(&self, ctx: &mut EvalCtx, parent: &Node, keep: bool) -> (Vec<Scored>, usize) {
        let EvalCtx {
            scratch,
            rows_buf,
            starts_buf,
            codes_buf,
            summaries,
        } = ctx;
        let (p_rows, p_starts) = parent.csr(self.bases);
        let max_attr = parent.attrs.ids().last().expect("non-empty LHS").index();
        let mut children = Vec::new();
        let mut pruned = 0;
        for (i, b) in self.bases.iter().enumerate().skip(max_attr + 1) {
            let a = AttrId(i as u32);
            let attrs = parent.attrs.union(&AttrSet::single(a));
            let mut rhs = Vec::new();
            for &k in &parent.open {
                let y = &self.rhss[k];
                if y.attr == a {
                    continue;
                }
                if y.closed.any_subset_of(&attrs) {
                    pruned += 1;
                } else {
                    rhs.push(k);
                }
            }
            if rhs.is_empty() {
                continue;
            }
            refine_stripped_into(
                scratch,
                p_rows,
                p_starts,
                &b.enc.codes,
                b.enc.n_groups,
                rows_buf,
                starts_buf,
            );
            let dropped = merge_dropped(parent.dropped_rows(self.bases), &b.dropped);
            let verdicts = self.score(
                scratch,
                codes_buf,
                summaries,
                (rows_buf, starts_buf),
                &dropped,
                rhs,
            );
            let kept = (keep && any_open(&verdicts)).then(|| {
                let store = NodeStore::Owned {
                    rows: rows_buf.to_vec(),
                    starts: starts_buf.to_vec(),
                };
                (store, dropped)
            });
            children.push(Scored {
                attrs,
                verdicts,
                kept,
            });
        }
        (children, pruned)
    }

    /// Folds a level's scored sets into the search in input order:
    /// counts every verdict, closes (and emits) the set for each RHS it
    /// settled, and returns the kept nodes with the RHS each stays open
    /// for.
    fn settle(
        &mut self,
        scored: impl IntoIterator<Item = Scored>,
        lvl: &mut LevelStats,
    ) -> Vec<Node> {
        let mut next = Vec::new();
        for s in scored {
            lvl.candidates += s.verdicts.len();
            let mut open = Vec::new();
            for (k, v) in s.verdicts {
                let y = &mut self.rhss[k];
                match v {
                    Verdict::Exact => {
                        lvl.exact += 1;
                        y.closed.insert(&s.attrs);
                    }
                    Verdict::Emit(score) => {
                        lvl.emitted += 1;
                        y.closed.insert(&s.attrs);
                        self.found.push(Discovered {
                            fd: Fd::new(s.attrs.clone(), AttrSet::single(y.attr))
                                .expect("rhs excluded"),
                            score,
                        });
                    }
                    Verdict::Open => {
                        lvl.open += 1;
                        open.push(k);
                    }
                }
            }
            if let Some((store, dropped)) = s.kept {
                next.push(Node {
                    attrs: s.attrs,
                    store,
                    dropped,
                    open,
                });
            }
        }
        lvl.node_bytes = next.iter().map(Node::bytes).sum();
        lvl.stored_rows = next.iter().map(|n| n.stored_rows(self.bases)).sum();
        next
    }

    /// Runs the search level by level up to `max_lhs`, each level's
    /// generation, refinement and scoring fanned out over `threads`
    /// workers, one parent node per work item.
    fn run(mut self, max_lhs: usize, threads: usize) -> (Vec<Discovered>, LatticeStats) {
        let mut stats = LatticeStats::default();
        if self.rhss.is_empty() {
            return (self.found, stats);
        }
        let scored = par_map_with(self.bases, threads, EvalCtx::default, |ctx, i, _| {
            self.level1(ctx, AttrId(i as u32))
        });
        let mut lvl = LevelStats {
            level: 1,
            ..LevelStats::default()
        };
        let mut frontier = self.settle(scored, &mut lvl);
        stats.levels.push(lvl);

        for level in 2..=max_lhs {
            if frontier.is_empty() {
                break;
            }
            // Nodes of the final level can never become refinement
            // parents; they are scored in the worker's buffers and never
            // copied out.
            let keep = level < max_lhs;
            let expanded = par_map_with(&frontier, threads, EvalCtx::default, |ctx, _, p| {
                self.expand(ctx, p, keep)
            });
            let mut lvl = LevelStats {
                level,
                pruned: expanded.iter().map(|(_, pruned)| pruned).sum(),
                ..LevelStats::default()
            };
            let next = self.settle(expanded.into_iter().flat_map(|(c, _)| c), &mut lvl);
            // Parents and open children are alive together here; the
            // parents served every child of this level and are dropped.
            stats.note_bytes(frontier.iter().map(Node::bytes).sum::<u64>() + lvl.node_bytes);
            frontier = next;
            stats.levels.push(lvl);
        }
        self.found
            .sort_by(|a, b| b.score.total_cmp(&a.score).then(a.fd.cmp(&b.fd)));
        (self.found, stats)
    }
}

/// Builds the shared attribute bases and, for a measure with a summary
/// formula, the row-major matrix of `rhs`'s codes beside them, and runs
/// one search over `rhs`.
fn discover(
    rel: &Relation,
    rhs: &[AttrId],
    measure: &dyn Measure,
    cfg: LatticeConfig,
    threads: usize,
) -> (Vec<Discovered>, LatticeStats) {
    let bases = build_bases(rel, threads);
    let sides = rhs
        .iter()
        .map(|a| {
            let enc = &bases[a.index()].enc;
            YSide::new(&enc.codes, enc.n_groups)
        })
        .collect();
    let search = Search {
        n_rows: rel.n_rows(),
        bases: &bases,
        rhss: rhs
            .iter()
            .map(|&attr| Rhs {
                attr,
                closed: SubsetIndex::new(rel.arity()),
            })
            .collect(),
        scoring: match measure.summary_formula() {
            Some(formula) => Scoring::Tally {
                ys: YMatrix::new(sides),
                formula,
            },
            None => Scoring::Table(sides),
        },
        measure,
        epsilon: cfg.epsilon,
        found: Vec::new(),
    };
    let (found, mut stats) = search.run(cfg.max_lhs, threads);
    stats.base_bytes = bases.iter().map(AttrBase::bytes).sum();
    (found, stats)
}

// ------------------------------------------------------------------
// Public entry points

/// Discovers minimal non-linear AFDs `X -> rhs` with `|X| ≤ max_lhs`,
/// fanning each level's refinement and scoring out over [`max_threads`]
/// workers.
///
/// # Panics
/// Panics if `epsilon ∉ [0, 1)`, `max_lhs == 0` or `rhs` is not an
/// attribute of `rel` (programmer errors); use
/// [`try_discover_for_rhs_stats`] for a `Result`.
pub fn discover_for_rhs(
    rel: &Relation,
    rhs: AttrId,
    measure: &dyn Measure,
    cfg: LatticeConfig,
) -> Vec<Discovered> {
    discover_for_rhs_threaded(rel, rhs, measure, cfg, max_threads())
}

/// As [`discover_for_rhs`] with an explicit worker count. Output is
/// identical for every `threads` value (see the module docs).
///
/// # Panics
/// As [`discover_for_rhs`].
pub fn discover_for_rhs_threaded(
    rel: &Relation,
    rhs: AttrId,
    measure: &dyn Measure,
    cfg: LatticeConfig,
    threads: usize,
) -> Vec<Discovered> {
    try_discover_for_rhs_stats(rel, rhs, measure, cfg, threads)
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

/// Non-panicking [`discover_for_rhs_threaded`], also returning the
/// search statistics (mirroring `afd_parallel::try_max_threads`): the
/// shared search run for the one RHS.
///
/// # Errors
/// [`LatticeError`] when the configuration is invalid or `rhs` is not an
/// attribute of `rel`.
pub fn try_discover_for_rhs_stats(
    rel: &Relation,
    rhs: AttrId,
    measure: &dyn Measure,
    cfg: LatticeConfig,
    threads: usize,
) -> Result<(Vec<Discovered>, LatticeStats), LatticeError> {
    cfg.validate()?;
    if rhs.index() >= rel.arity() {
        return Err(LatticeError::UnknownRhs {
            rhs: rhs.0,
            arity: rel.arity(),
        });
    }
    Ok(discover(rel, &[rhs], measure, cfg, threads))
}

/// Discovers minimal non-linear AFDs for every RHS attribute in one
/// lattice shared by all of them: each LHS set is refined once and scored
/// against every RHS it is a candidate for, over per-attribute encodings
/// and stripped bases built once per call. Each level fans out over
/// [`max_threads`] workers; output is identical to the fully sequential
/// path and to searching each RHS on its own.
pub fn discover_all(rel: &Relation, measure: &dyn Measure, cfg: LatticeConfig) -> Vec<Discovered> {
    discover_all_threaded(rel, measure, cfg, max_threads())
}

/// As [`discover_all`] with an explicit worker count (`threads = 1`
/// is the sequential reference the property tests compare against).
///
/// # Panics
/// Panics if `epsilon ∉ [0, 1)` or `max_lhs == 0`; use
/// [`try_discover_all_stats`] for a `Result`.
pub fn discover_all_threaded(
    rel: &Relation,
    measure: &dyn Measure,
    cfg: LatticeConfig,
    threads: usize,
) -> Vec<Discovered> {
    try_discover_all_stats(rel, measure, cfg, threads)
        .unwrap_or_else(|e| panic!("{e}"))
        .0
}

/// Non-panicking [`discover_all_threaded`] with the search statistics:
/// counts per (LHS set, RHS) pair, equal to the sum of per-RHS searches,
/// and node bytes counting each shared node once (see [`LatticeStats`]).
///
/// # Errors
/// [`LatticeError`] when the configuration is invalid.
pub fn try_discover_all_stats(
    rel: &Relation,
    measure: &dyn Measure,
    cfg: LatticeConfig,
    threads: usize,
) -> Result<(Vec<Discovered>, LatticeStats), LatticeError> {
    cfg.validate()?;
    let rhs: Vec<AttrId> = rel.schema().attrs().collect();
    Ok(discover(rel, &rhs, measure, cfg, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_core::{measure_by_name, G3Prime, MuPlus};
    use afd_relation::{Schema, Value};

    /// (A, B) -> C holds with a couple of errors; neither A -> C nor
    /// B -> C comes close. D is noise.
    fn nonlinear_rel() -> Relation {
        Relation::from_rows(
            Schema::new(["A", "B", "C", "D"]).unwrap(),
            (0..240).map(|i| {
                let a = i % 6;
                let b = (i / 6) % 8;
                let c = if i == 17 || i == 99 {
                    77
                } else {
                    (a * 3 + b * 5) % 11
                };
                let d = (i * 13) % 17;
                [a, b, c, d]
                    .into_iter()
                    .map(|v| Value::Int(v as i64))
                    .collect::<Vec<_>>()
            }),
        )
        .unwrap()
    }

    #[test]
    fn finds_planted_nonlinear_afd() {
        let rel = nonlinear_rel();
        let cfg = LatticeConfig {
            max_lhs: 2,
            epsilon: 0.8,
        };
        let found = discover_for_rhs(&rel, AttrId(2), &MuPlus, cfg);
        let want = Fd::new(
            AttrSet::new([AttrId(0), AttrId(1)]),
            AttrSet::single(AttrId(2)),
        )
        .unwrap();
        assert!(
            found.iter().any(|d| d.fd == want),
            "planted AFD missing from {found:?}"
        );
    }

    #[test]
    fn singletons_do_not_reach_threshold() {
        let rel = nonlinear_rel();
        let cfg = LatticeConfig {
            max_lhs: 1,
            epsilon: 0.8,
        };
        let found = discover_for_rhs(&rel, AttrId(2), &MuPlus, cfg);
        assert!(found.is_empty(), "unexpected singleton AFDs: {found:?}");
    }

    #[test]
    fn minimality_no_supersets_of_emitted() {
        let rel = nonlinear_rel();
        let cfg = LatticeConfig {
            max_lhs: 3,
            epsilon: 0.8,
        };
        let found = discover_for_rhs(&rel, AttrId(2), &G3Prime, cfg);
        for a in &found {
            for b in &found {
                if a.fd != b.fd {
                    assert!(
                        !a.fd.lhs().is_subset(b.fd.lhs()),
                        "{:?} subsumes {:?}",
                        a.fd,
                        b.fd
                    );
                }
            }
        }
    }

    #[test]
    fn exact_fds_never_emitted() {
        // Make (A, B) -> C exact: no errors.
        let rel = Relation::from_rows(
            Schema::new(["A", "B", "C"]).unwrap(),
            (0..120).map(|i| {
                let a = i % 5;
                let b = (i / 5) % 6;
                let c = (a + b * 2) % 7;
                [a, b, c]
                    .into_iter()
                    .map(|v| Value::Int(v as i64))
                    .collect::<Vec<_>>()
            }),
        )
        .unwrap();
        let cfg = LatticeConfig {
            max_lhs: 3,
            epsilon: 0.5,
        };
        let found = discover_for_rhs(&rel, AttrId(2), &MuPlus, cfg);
        for d in &found {
            assert!(!d.fd.holds_in(&rel), "exact FD emitted: {:?}", d.fd);
        }
    }

    #[test]
    fn discover_all_covers_every_rhs() {
        let rel = nonlinear_rel();
        let cfg = LatticeConfig {
            max_lhs: 2,
            epsilon: 0.8,
        };
        let found = discover_all(&rel, measure_by_name("g3'").unwrap().as_ref(), cfg);
        // At least the planted FD shows up; nothing satisfied leaks in.
        assert!(found.iter().any(|d| d.fd.rhs().ids() == [AttrId(2)]));
        for d in &found {
            assert!(d.score >= 0.8 && d.score < 1.0);
        }
    }

    #[test]
    fn parallel_identical_to_sequential() {
        let rel = nonlinear_rel();
        let cfg = LatticeConfig {
            max_lhs: 3,
            epsilon: 0.6,
        };
        let measure = measure_by_name("g3'").unwrap();
        let seq = discover_all_threaded(&rel, measure.as_ref(), cfg, 1);
        for threads in [2, 4, 8] {
            let par = discover_all_threaded(&rel, measure.as_ref(), cfg, threads);
            assert_eq!(seq.len(), par.len(), "threads={threads}");
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.fd, b.fd, "threads={threads}");
                assert!(a.score.to_bits() == b.score.to_bits(), "threads={threads}");
            }
        }
        // Per-RHS parallel evaluation is also invariant.
        let s1 = discover_for_rhs_threaded(&rel, AttrId(2), measure.as_ref(), cfg, 1);
        let s4 = discover_for_rhs_threaded(&rel, AttrId(2), measure.as_ref(), cfg, 4);
        assert_eq!(s1.len(), s4.len());
        for (a, b) in s1.iter().zip(&s4) {
            assert_eq!(a.fd, b.fd);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn matches_naive_reference_bit_for_bit() {
        let rel = nonlinear_rel();
        for epsilon in [0.5, 0.8] {
            for max_lhs in [1, 2, 3] {
                let cfg = LatticeConfig { max_lhs, epsilon };
                for measure in afd_core::fast_measures() {
                    let name = measure.name();
                    let fast = discover_all_threaded(&rel, measure.as_ref(), cfg, 1);
                    let slow =
                        crate::naive_lattice::discover_all_threaded(&rel, measure.as_ref(), cfg, 1);
                    assert_eq!(fast.len(), slow.len(), "{name} {cfg:?}");
                    for (a, b) in fast.iter().zip(&slow) {
                        assert_eq!(a.fd, b.fd, "{name} {cfg:?}");
                        assert_eq!(
                            a.score.to_bits(),
                            b.score.to_bits(),
                            "{name} {cfg:?}: {} vs {}",
                            a.score,
                            b.score
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nulls_fall_back_to_full_codes_and_match_reference() {
        let mut rel = nonlinear_rel();
        // Sprinkle NULLs across three columns: tallied measures skip the
        // NULL rows, g1/g1ˢ/FI fall back to full codes.
        for (row, col) in [(3usize, 0u32), (17, 1), (40, 2), (41, 0), (100, 3)] {
            rel.set_value(row, AttrId(col), Value::Null);
        }
        let cfg = LatticeConfig {
            max_lhs: 3,
            epsilon: 0.6,
        };
        for measure in afd_core::fast_measures() {
            let name = measure.name();
            let fast = discover_all_threaded(&rel, measure.as_ref(), cfg, 1);
            let slow = crate::naive_lattice::discover_all_threaded(&rel, measure.as_ref(), cfg, 1);
            assert_eq!(fast.len(), slow.len(), "{name}");
            for (a, b) in fast.iter().zip(&slow) {
                assert_eq!(a.fd, b.fd, "{name}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{name}");
            }
        }
    }

    #[test]
    fn sfi_takes_the_fallback_and_matches_reference() {
        // SFI is not implicit-exact: the lattice must route it through
        // the materialised full-codes path and still match the naive
        // reference bit for bit.
        let rel = nonlinear_rel();
        let sfi = afd_core::Sfi::half();
        assert!(!afd_core::Measure::bit_exact_on_implicit_singletons(&sfi));
        let cfg = LatticeConfig {
            max_lhs: 2,
            epsilon: 0.3,
        };
        let fast = discover_all_threaded(&rel, &sfi, cfg, 1);
        let slow = crate::naive_lattice::discover_all_threaded(&rel, &sfi, cfg, 1);
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.fd, b.fd);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn try_entries_reject_bad_config() {
        let rel = nonlinear_rel();
        let bad_eps = LatticeConfig {
            max_lhs: 2,
            epsilon: 1.5,
        };
        assert_eq!(
            try_discover_all_stats(&rel, &MuPlus, bad_eps, 1).unwrap_err(),
            LatticeError::Epsilon(1.5)
        );
        let bad_lhs = LatticeConfig {
            max_lhs: 0,
            epsilon: 0.5,
        };
        assert_eq!(
            try_discover_for_rhs_stats(&rel, AttrId(0), &MuPlus, bad_lhs, 1).unwrap_err(),
            LatticeError::MaxLhs
        );
        // An RHS outside the schema is a typed error, not an index panic.
        let two = Relation::from_pairs([(1u64, 2u64), (3, 4)]);
        let cfg = LatticeConfig::default();
        let err = try_discover_for_rhs_stats(&two, AttrId(7), &MuPlus, cfg, 1).unwrap_err();
        assert_eq!(err, LatticeError::UnknownRhs { rhs: 7, arity: 2 });
        assert!(err.to_string().contains("attribute 7") && err.to_string().contains("arity 2"));
        // Error text is what the panicking wrappers print.
        assert!(LatticeError::Epsilon(1.5).to_string().contains("[0, 1)"));
    }

    #[test]
    fn stats_account_for_every_candidate() {
        let rel = nonlinear_rel();
        let cfg = LatticeConfig {
            max_lhs: 3,
            epsilon: 0.6,
        };
        let (found, stats) = try_discover_all_stats(&rel, &G3Prime, cfg, 1).unwrap();
        assert_eq!(stats.levels.len(), 3);
        let emitted: usize = stats.levels.iter().map(|l| l.emitted).sum();
        assert_eq!(emitted, found.len());
        for lvl in &stats.levels {
            assert_eq!(
                lvl.candidates,
                lvl.emitted + lvl.exact + lvl.open,
                "level {}",
                lvl.level
            );
        }
        assert!(stats.peak_node_bytes > 0);
        assert!(stats.base_bytes > 0);
    }

    #[test]
    fn default_epsilon_is_shared_constant() {
        assert_eq!(LatticeConfig::default().epsilon, DEFAULT_EPSILON);
        assert_eq!(LatticeConfig::default().max_lhs, 3);
    }

    #[test]
    fn subset_index_agrees_with_linear_scan() {
        let sets = [
            AttrSet::new([AttrId(0)]),
            AttrSet::new([AttrId(1), AttrId(3)]),
            AttrSet::new([AttrId(2), AttrId(4), AttrId(5)]),
        ];
        let mut idx = SubsetIndex::new(8);
        for s in &sets {
            idx.insert(s);
        }
        let candidates = [
            AttrSet::new([AttrId(0), AttrId(7)]),
            AttrSet::new([AttrId(1), AttrId(2), AttrId(3)]),
            AttrSet::new([AttrId(2), AttrId(4)]),
            AttrSet::new([AttrId(5), AttrId(6)]),
            AttrSet::new([AttrId(2), AttrId(4), AttrId(5), AttrId(6)]),
        ];
        for c in &candidates {
            let linear = sets.iter().any(|s| s.is_subset(c));
            assert_eq!(idx.any_subset_of(c), linear, "candidate {c:?}");
        }
    }

    #[test]
    fn pair_codes_match_group_encode() {
        use afd_relation::combine_codes_with;
        let rel = nonlinear_rel();
        let ea = rel.group_encode(&AttrSet::single(AttrId(0)));
        let eb = rel.group_encode(&AttrSet::single(AttrId(1)));
        let mut combined = ea.codes.clone();
        afd_relation::with_scratch(|s| {
            combine_codes_with(s, &mut combined, ea.n_groups, &eb.codes, eb.n_groups, false)
        });
        let direct = rel
            .group_encode(&AttrSet::new([AttrId(0), AttrId(1)]))
            .codes;
        // Same partition: codes equal up to renaming.
        for i in 0..combined.len() {
            for j in 0..combined.len() {
                assert_eq!(combined[i] == combined[j], direct[i] == direct[j]);
            }
        }
    }
}
