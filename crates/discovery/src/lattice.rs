//! Levelwise lattice search for **non-linear** AFDs (multi-attribute
//! LHS), TANE-style — on stripped partitions and a fused
//! generation/evaluation pipeline.
//!
//! The paper's concluding observation motivates this module: because
//! LHS-uniqueness tends to 1 as the LHS grows, only uniqueness-insensitive
//! measures (g3′, RFI′⁺, µ⁺) are fit for non-linear discovery. The search
//! here is measure-agnostic: plug in any [`Measure`].
//!
//! Search: for a fixed RHS attribute `A`, explore LHS subsets of
//! `attrs \ {A}` level by level. A node is *closed* (not extended) when
//!
//! * its FD holds exactly (every superset then holds too — classic TANE
//!   key pruning also falls out: a unique LHS implies an exact FD), or
//! * it was emitted as an AFD (supersets are non-minimal), or
//! * the level limit is reached.
//!
//! ## Performance architecture
//!
//! **Stripped nodes.** A node stores only the rows of its partition's
//! non-singleton groups (CSR clusters ordered by first row, like
//! `Pli`), plus the usually-empty list of NULL-dropped rows — not a
//! dense `O(rows)` code vector. Work and memory per node shrink
//! monotonically up the lattice: once a group shrinks to one row it
//! leaves the representation for good. Scoring goes through
//! [`ContingencyTable::from_stripped_with`], which folds the implicit
//! singleton groups in arithmetically; every measure whose
//! [`Measure::bit_exact_on_implicit_singletons`] holds (all fast
//! measures and the RFI family) scores **bit-identically** to the
//! full-codes reference retained in [`crate::naive_lattice`]. Candidates
//! over NULL-bearing attributes — and measures that need materialised
//! singleton rows, like SFI — fall back to reconstructing dense codes in
//! a per-worker scratch buffer and evaluating through the classic
//! [`ContingencyTable::from_codes_with`] kernel, which is bit-identical
//! by construction.
//!
//! **Fused generation + evaluation.** Child *descriptors* (`AttrSet` +
//! parent index) are generated sequentially as cheap set ops — so
//! pruning and ordering stay deterministic — but partition refinement
//! ([`afd_relation::refine_stripped_into`]) **and** scoring run together
//! in one `par_map_with` pass with the parent partitions shared
//! read-only. The old lattice cloned and refined every child's `O(rows)`
//! code vector on the sequential critical path between level
//! evaluations; here nothing `O(rows)` happens outside the workers.
//!
//! **Node storage.** Children refine into per-worker buffers; only a
//! child that stays open (and is not on the last level) copies its
//! clusters into vectors it owns. A level's parents are dropped when the
//! level ends, so the most node storage alive at once in a search is one
//! level's parents plus its open children — the "peak lattice bytes"
//! ([`LatticeStats::peak_node_bytes`]) that `record_lattice` benchmarks
//! (bar: ≥ 4× below the full-codes reference on the 65 536-row fixture).
//!
//! **Exactness pruning.** Emitted *and* exactly-satisfied LHS sets go
//! into one [`SubsetIndex`]; candidate generation skips any superset
//! before its partition is materialised. Previously only emitted sets
//! were indexed, so a superset of an exact set reached through a
//! different prefix parent was still built and scored (always to a
//! silent `Exact`) — pure wasted work, now avoided without changing
//! output.
//!
//! The search remains *level-synchronous parallel*: all candidates of a
//! level have the same LHS size, so a same-level emission can never
//! subsume another same-level candidate, and evaluating a level across
//! workers is exactly equivalent to the sequential left-to-right sweep —
//! [`discover_for_rhs_threaded`] returns identical output for every
//! thread count, and [`discover_all_threaded`] shares one set of
//! per-attribute encodings and stripped bases across every RHS instead
//! of re-encoding `O(m²)` times.

use afd_core::Measure;
use afd_parallel::{max_threads, par_map_with};
use afd_relation::{
    refine_stripped_into, strip_codes_into, AttrId, AttrSet, ContingencyTable, Fd, GroupEncoding,
    Relation, Scratch, NULL_CODE,
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
}

impl std::fmt::Display for LatticeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatticeError::Epsilon(e) => write!(f, "epsilon must be in [0, 1), got {e}"),
            LatticeError::MaxLhs => write!(f, "max_lhs must be at least 1"),
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// LHS size of this level (1-based).
    pub level: usize,
    /// Candidates whose partitions were built and scored.
    pub candidates: usize,
    /// Descriptors skipped by the subset index before materialisation.
    pub pruned: usize,
    /// Candidates emitted as AFDs.
    pub emitted: usize,
    /// Candidates that held exactly (silently closed).
    pub exact: usize,
    /// Candidates kept open for the next level.
    pub open: usize,
    /// Bytes of partition storage held by the open nodes.
    pub node_bytes: u64,
    /// Rows stored across the open nodes (stripped size for the
    /// stripped lattice, `rows × nodes` for the full-codes reference).
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

/// Aggregated statistics of a lattice run ([`try_discover_all_stats`]);
/// per-RHS runs are summed level-wise and their byte peaks maximised
/// (see [`LatticeStats::peak_node_bytes`]). Nothing here depends on the
/// thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatticeStats {
    /// Per-level accounting, summed across RHS searches.
    pub levels: Vec<LevelStats>,
    /// Most node partition bytes one RHS search holds at once: the
    /// largest sum, over its levels, of the level's parents plus its
    /// open children (level-1 nodes borrow the shared bases and count
    /// 0). The full-codes reference counts its dense node vectors at the
    /// same point: parents plus every generated child. For
    /// `discover_all` this is the maximum over the RHS searches — the
    /// worst single search, however many run at once.
    pub peak_node_bytes: u64,
    /// Bytes of the shared per-attribute encodings + stripped bases
    /// (allocated once per run, not per node; 0 for the reference path,
    /// which re-encodes per RHS instead).
    pub base_bytes: u64,
}

impl LatticeStats {
    /// Folds another run's stats into this one (levels summed, peak
    /// maximised) — how `discover_all` combines its per-RHS searches.
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
/// per run and shared read-only by every RHS worker: the dense
/// first-encounter encoding (the refinement operand), the stripped CSR
/// of its partition (the level-1 node), and its NULL rows.
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

/// The shared Y side of one RHS search: dense first-encounter codes (the
/// attribute encoding itself), full column totals over the surviving
/// rows, and the survivor count — valid for every candidate whose X side
/// is NULL-free.
struct RhsData {
    col_totals: Vec<u64>,
    n_surviving: u64,
    has_nulls: bool,
}

impl RhsData {
    fn build(base: &AttrBase) -> Self {
        let mut col_totals = vec![0u64; base.enc.n_groups as usize];
        for &c in &base.enc.codes {
            if c != NULL_CODE {
                col_totals[c as usize] += 1;
            }
        }
        let n_surviving = col_totals.iter().sum();
        RhsData {
            col_totals,
            n_surviving,
            has_nulls: !base.dropped.is_empty(),
        }
    }
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

/// An open stripped node: CSR clusters plus the sorted NULL-dropped rows
/// of its attribute set (usually empty).
struct Node {
    attrs: AttrSet,
    store: NodeStore,
    dropped: Vec<u32>,
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

/// A level-`N+1` candidate before materialisation: its attribute set and
/// where to refine from.
struct ChildDesc {
    attrs: AttrSet,
    parent: usize,
    attr: AttrId,
}

/// What evaluating one candidate produced.
enum Verdict {
    /// FD holds exactly: close silently (supersets hold too) and index
    /// the set so supersets are pruned before materialisation.
    Exact,
    /// Scored at or above ε: emit, close the branch.
    Emit(f64),
    /// Below ε: keep searching upward.
    Open,
}

/// Per-worker state: kernel scratch, refinement output buffers, and a
/// dense code buffer for the NULL/full-table fallback reconstruction.
/// Children that close (the common case) live and die entirely in these
/// buffers — only open nodes copy into storage of their own.
#[derive(Default)]
struct EvalCtx {
    scratch: Scratch,
    rows_buf: Vec<u32>,
    starts_buf: Vec<u32>,
    codes_buf: Vec<u32>,
}

/// Recycles [`EvalCtx`]s across `par_map_with` calls (levels and RHS
/// searches), so worker scratch grows to its high-water mark once per
/// run instead of once per level.
#[derive(Default)]
struct CtxStash(std::sync::Mutex<Vec<EvalCtx>>);

impl CtxStash {
    fn checkout(&self) -> CtxGuard<'_> {
        let ctx = self.0.lock().expect("stash lock").pop().unwrap_or_default();
        CtxGuard { ctx, stash: self }
    }
}

/// Returns its context to the stash when the worker finishes.
struct CtxGuard<'a> {
    ctx: EvalCtx,
    stash: &'a CtxStash,
}

impl Drop for CtxGuard<'_> {
    fn drop(&mut self) {
        self.stash
            .0
            .lock()
            .expect("stash lock")
            .push(std::mem::take(&mut self.ctx));
    }
}

/// Marker for rows that are neither clustered nor dropped during
/// fallback reconstruction — i.e. implicit singletons.
const SINGLETON_MARK: u32 = u32::MAX - 1;

/// Scores a table into a verdict.
fn verdict_of(t: &ContingencyTable, measure: &dyn Measure, epsilon: f64) -> Verdict {
    if t.is_exact_fd() {
        return Verdict::Exact;
    }
    let score = measure.score_contingency(t);
    if score >= epsilon {
        Verdict::Emit(score)
    } else {
        Verdict::Open
    }
}

/// Evaluates a stripped partition against the RHS.
///
/// Fast path (NULL-free candidate, NULL-free RHS, implicit-exact
/// measure): build the implicit-singleton table straight from the
/// clusters — `O(stripped)` work. Otherwise: reconstruct dense codes in
/// the worker's buffer and evaluate through the full-codes kernel —
/// `O(rows)` work, bit-identical to the reference by construction.
#[allow(clippy::too_many_arguments)]
fn evaluate_stripped(
    scratch: &mut Scratch,
    codes_buf: &mut Vec<u32>,
    rows: &[u32],
    starts: &[u32],
    dropped: &[u32],
    n_rows: usize,
    y: &AttrBase,
    rhs_data: &RhsData,
    measure: &dyn Measure,
    epsilon: f64,
) -> Verdict {
    let fast =
        !rhs_data.has_nulls && dropped.is_empty() && measure.bit_exact_on_implicit_singletons();
    if fast {
        let implicit = (n_rows - rows.len()) as u64;
        let t = ContingencyTable::from_stripped_with(
            scratch,
            rows,
            starts,
            &y.enc.codes,
            &rhs_data.col_totals,
            rhs_data.n_surviving,
            implicit,
        );
        verdict_of(&t, measure, epsilon)
    } else {
        // Reconstruct dense per-row codes: clusters keep their index,
        // dropped rows are NULL, everything else is its own group. The
        // full-codes kernel remaps to first-encounter order, so the ids
        // only need to be distinct.
        let buf = codes_buf;
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
        let t = ContingencyTable::from_codes_with(scratch, buf, &y.enc.codes);
        verdict_of(&t, measure, epsilon)
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
// The per-RHS search

#[allow(clippy::too_many_arguments)]
fn search_rhs(
    n_rows: usize,
    arity: usize,
    rhs: AttrId,
    bases: &[AttrBase],
    measure: &dyn Measure,
    cfg: LatticeConfig,
    threads: usize,
    stash: &CtxStash,
) -> (Vec<Discovered>, LatticeStats) {
    let rhs_data = RhsData::build(&bases[rhs.index()]);
    let y = &bases[rhs.index()];
    let all_attrs: Vec<AttrId> = (0..arity)
        .map(|i| AttrId(i as u32))
        .filter(|&a| a != rhs)
        .collect();

    let mut out: Vec<Discovered> = Vec::new();
    let mut closed = SubsetIndex::new(arity);
    let mut stats = LatticeStats::default();

    // Level 1: evaluate every single attribute straight off the shared
    // stripped bases; open nodes keep borrowing the base (zero copies,
    // zero per-node storage — they are only ever read as refinement
    // parents).
    let lvl1: Vec<Verdict> = par_map_with(
        &all_attrs,
        threads,
        || stash.checkout(),
        |guard, _, &a| {
            let base = &bases[a.index()];
            evaluate_stripped(
                &mut guard.ctx.scratch,
                &mut guard.ctx.codes_buf,
                &base.rows,
                &base.starts,
                &base.dropped,
                n_rows,
                y,
                &rhs_data,
                measure,
                cfg.epsilon,
            )
        },
    );
    let mut frontier: Vec<Node> = Vec::new();
    let mut lvl = LevelStats {
        level: 1,
        candidates: all_attrs.len(),
        ..LevelStats::default()
    };
    for (v, &a) in lvl1.into_iter().zip(&all_attrs) {
        match v {
            Verdict::Exact => {
                lvl.exact += 1;
                closed.insert(&AttrSet::single(a));
            }
            Verdict::Emit(score) => {
                lvl.emitted += 1;
                let attrs = AttrSet::single(a);
                closed.insert(&attrs);
                out.push(Discovered {
                    fd: Fd::new(attrs, AttrSet::single(rhs)).expect("rhs excluded"),
                    score,
                });
            }
            Verdict::Open => frontier.push(Node {
                attrs: AttrSet::single(a),
                store: NodeStore::Shared(a.index()),
                dropped: Vec::new(),
            }),
        }
    }
    lvl.open = frontier.len();
    lvl.node_bytes = frontier.iter().map(Node::bytes).sum();
    lvl.stored_rows = frontier.iter().map(|n| n.stored_rows(bases)).sum();
    stats.levels.push(lvl);

    for level in 2..=cfg.max_lhs {
        if frontier.is_empty() {
            break;
        }
        // Nodes of the final level can never become refinement parents;
        // they are scored in the worker's buffers and never copied out.
        let last_level = level == cfg.max_lhs;
        let mut lvl = LevelStats {
            level,
            ..LevelStats::default()
        };
        // Sequential generation: cheap descriptor set ops only — the
        // O(rows) clone+refine the old lattice did here now runs inside
        // the parallel evaluation pass below.
        let mut descs: Vec<ChildDesc> = Vec::new();
        for (p, node) in frontier.iter().enumerate() {
            let max_attr = *node.attrs.ids().last().expect("non-empty LHS");
            for &a in &all_attrs {
                if a <= max_attr {
                    continue;
                }
                let attrs = node.attrs.union(&AttrSet::single(a));
                if closed.any_subset_of(&attrs) {
                    lvl.pruned += 1;
                    continue;
                }
                descs.push(ChildDesc {
                    attrs,
                    parent: p,
                    attr: a,
                });
            }
        }
        lvl.candidates = descs.len();
        if descs.is_empty() {
            stats.levels.push(lvl);
            break;
        }
        // Fused refine + score, parents shared read-only.
        let results: Vec<(Verdict, Option<Node>)> = par_map_with(
            &descs,
            threads,
            || stash.checkout(),
            |guard, _, d| {
                let parent = &frontier[d.parent];
                let (p_rows, p_starts) = parent.csr(bases);
                let b = &bases[d.attr.index()];
                // Refine into the worker's own buffers: children that
                // close (the common case) are never copied out.
                let EvalCtx {
                    scratch,
                    rows_buf,
                    starts_buf,
                    codes_buf,
                } = &mut guard.ctx;
                refine_stripped_into(
                    scratch,
                    p_rows,
                    p_starts,
                    &b.enc.codes,
                    b.enc.n_groups,
                    rows_buf,
                    starts_buf,
                );
                let dropped = merge_dropped(parent.dropped_rows(bases), &b.dropped);
                let v = evaluate_stripped(
                    scratch,
                    codes_buf,
                    rows_buf,
                    starts_buf,
                    &dropped,
                    n_rows,
                    y,
                    &rhs_data,
                    measure,
                    cfg.epsilon,
                );
                if matches!(v, Verdict::Open) && !last_level {
                    let node = Node {
                        attrs: d.attrs.clone(),
                        store: NodeStore::Owned {
                            rows: rows_buf.to_vec(),
                            starts: starts_buf.to_vec(),
                        },
                        dropped,
                    };
                    (v, Some(node))
                } else {
                    (v, None)
                }
            },
        );
        let mut next: Vec<Node> = Vec::new();
        for ((v, node), d) in results.into_iter().zip(&descs) {
            match v {
                Verdict::Exact => {
                    lvl.exact += 1;
                    closed.insert(&d.attrs);
                }
                Verdict::Emit(score) => {
                    lvl.emitted += 1;
                    closed.insert(&d.attrs);
                    out.push(Discovered {
                        fd: Fd::new(d.attrs.clone(), AttrSet::single(rhs)).expect("rhs excluded"),
                        score,
                    });
                }
                Verdict::Open => {
                    lvl.open += 1;
                    if let Some(node) = node {
                        next.push(node);
                    }
                }
            }
        }
        lvl.node_bytes = next.iter().map(Node::bytes).sum();
        lvl.stored_rows = next.iter().map(|n| n.stored_rows(bases)).sum();
        // Parents and open children are alive together here; the
        // parents served every child of this level and are dropped.
        stats.note_bytes(frontier.iter().map(Node::bytes).sum::<u64>() + lvl.node_bytes);
        frontier = next;
        stats.levels.push(lvl);
    }
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.fd.cmp(&b.fd)));
    (out, stats)
}

// ------------------------------------------------------------------
// Public entry points

/// Discovers minimal non-linear AFDs `X -> rhs` with `|X| ≤ max_lhs`,
/// fanning candidate evaluation out over [`max_threads`] workers.
///
/// # Panics
/// Panics if `epsilon ∉ [0, 1)` or `max_lhs == 0` (programmer errors);
/// use [`try_discover_for_rhs_stats`] for a `Result`.
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
/// search statistics — the entry `AfdEngine` calls (mirroring
/// `afd_parallel::try_max_threads`).
///
/// # Errors
/// [`LatticeError`] when the configuration is invalid.
pub fn try_discover_for_rhs_stats(
    rel: &Relation,
    rhs: AttrId,
    measure: &dyn Measure,
    cfg: LatticeConfig,
    threads: usize,
) -> Result<(Vec<Discovered>, LatticeStats), LatticeError> {
    cfg.validate()?;
    let bases = build_bases(rel, threads);
    let stash = CtxStash::default();
    let (out, mut stats) = search_rhs(
        rel.n_rows(),
        rel.arity(),
        rhs,
        &bases,
        measure,
        cfg,
        threads,
        &stash,
    );
    stats.base_bytes = bases.iter().map(AttrBase::bytes).sum();
    Ok((out, stats))
}

/// Discovers minimal non-linear AFDs for every RHS attribute, one RHS
/// per worker ([`max_threads`]), each running the sequential per-RHS
/// search over **shared** per-attribute encodings and stripped bases
/// (encoded once, not once per RHS). Output is identical to the fully
/// sequential path.
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

/// Non-panicking [`discover_all_threaded`] with aggregated search
/// statistics (levels summed across RHS searches, byte peaks maximised).
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
    let bases = build_bases(rel, threads);
    let stash = CtxStash::default();
    let rhss: Vec<AttrId> = rel.schema().attrs().collect();
    // Parallelism is across RHS attributes; each per-RHS search runs
    // sequentially (threads = 1) to avoid nested fan-out. The shared
    // worker-context stash recycles scratch across RHS searches too.
    let per_rhs = afd_parallel::par_map(&rhss, threads, |_, &rhs| {
        search_rhs(
            rel.n_rows(),
            rel.arity(),
            rhs,
            &bases,
            measure,
            cfg,
            1,
            &stash,
        )
    });
    let mut out: Vec<Discovered> = Vec::new();
    let mut stats = LatticeStats::default();
    for (found, s) in per_rhs {
        out.extend(found);
        stats.absorb(&s);
    }
    stats.base_bytes = bases.iter().map(AttrBase::bytes).sum();
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.fd.cmp(&b.fd)));
    Ok((out, stats))
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
                for name in ["g3'", "mu+", "g1", "FI", "rho"] {
                    let measure = measure_by_name(name).unwrap();
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
        // Sprinkle NULLs across three columns.
        for (row, col) in [(3usize, 0u32), (17, 1), (40, 2), (41, 0), (100, 3)] {
            rel.set_value(row, AttrId(col), Value::Null);
        }
        let cfg = LatticeConfig {
            max_lhs: 3,
            epsilon: 0.6,
        };
        for name in ["g3'", "mu+"] {
            let measure = measure_by_name(name).unwrap();
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
