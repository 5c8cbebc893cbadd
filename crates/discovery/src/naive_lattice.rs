//! The retained full-codes lattice — the reference implementation the
//! stripped lattice ([`crate::lattice`]) is proptest-pinned against,
//! mirroring how `afd_relation::naive` retains the hash-based kernels.
//!
//! Every open node stores a dense `Vec<u32>` of per-row group codes
//! (`O(rows)` per node); each child clones its parent's vector and
//! refines it sequentially through the pair-code kernel between the
//! parallel level evaluations. This is exactly the pre-stripped search:
//! correct, deterministic, and the baseline `record_lattice` measures
//! the stripped/fused rewrite against.

use afd_core::Measure;
use afd_parallel::{max_threads, par_map_with};
use afd_relation::{combine_codes_with, AttrId, AttrSet, ContingencyTable, Fd, Relation, Scratch};

use crate::lattice::{LatticeConfig, LatticeStats, LevelStats, SubsetIndex};
use crate::threshold::Discovered;

/// An open lattice node: an LHS attribute set with its dense per-row
/// partition codes (NULL_CODE for dropped rows).
struct Node {
    attrs: AttrSet,
    codes: Vec<u32>,
    n_groups: u32,
}

/// What evaluating one candidate produced.
enum Verdict {
    /// FD holds exactly: prune silently (supersets hold too).
    Exact,
    /// Scored at or above ε: emit, close the branch.
    Emit(f64),
    /// Below ε: keep searching upward.
    Open,
}

/// Evaluates one candidate node against the RHS codes.
fn evaluate(
    scratch: &mut Scratch,
    node: &Node,
    rhs_codes: &[u32],
    measure: &dyn Measure,
    epsilon: f64,
) -> Verdict {
    let t = ContingencyTable::from_codes_with(scratch, &node.codes, rhs_codes);
    if t.is_exact_fd() {
        return Verdict::Exact;
    }
    let score = measure.score_contingency(&t);
    if score >= epsilon {
        Verdict::Emit(score)
    } else {
        Verdict::Open
    }
}

/// Reference `discover_for_rhs` (full-codes nodes, sequential per-child
/// clone + refine).
///
/// # Panics
/// Panics if `epsilon ∉ [0, 1)` or `max_lhs == 0` (programmer errors).
pub fn discover_for_rhs(
    rel: &Relation,
    rhs: AttrId,
    measure: &dyn Measure,
    cfg: LatticeConfig,
) -> Vec<Discovered> {
    discover_for_rhs_threaded(rel, rhs, measure, cfg, max_threads())
}

/// As [`discover_for_rhs`] with an explicit worker count. Output is
/// identical for every `threads` value.
pub fn discover_for_rhs_threaded(
    rel: &Relation,
    rhs: AttrId,
    measure: &dyn Measure,
    cfg: LatticeConfig,
    threads: usize,
) -> Vec<Discovered> {
    discover_for_rhs_stats(rel, rhs, measure, cfg, threads).0
}

/// As [`discover_for_rhs_threaded`], also returning per-level search
/// statistics (node counts and full-codes storage bytes) so the bench
/// harness can compare the reference memory profile against the stripped
/// lattice.
pub fn discover_for_rhs_stats(
    rel: &Relation,
    rhs: AttrId,
    measure: &dyn Measure,
    cfg: LatticeConfig,
    threads: usize,
) -> (Vec<Discovered>, LatticeStats) {
    assert!((0.0..1.0).contains(&cfg.epsilon), "ε must be in [0, 1)");
    assert!(cfg.max_lhs >= 1, "max_lhs must be at least 1");
    let rhs_codes = rel.group_encode(&AttrSet::single(rhs)).codes;
    let all_attrs: Vec<AttrId> = rel.schema().attrs().filter(|&a| a != rhs).collect();
    // Per-attribute encodings, the refinement operands. Deliberately
    // re-encoded per RHS: this is the pre-shared-encoding baseline.
    let attr_encodings: Vec<(Vec<u32>, u32)> = all_attrs
        .iter()
        .map(|&a| {
            let e = rel.group_encode(&AttrSet::single(a));
            (e.codes, e.n_groups)
        })
        .collect();

    let node_bytes = |n: usize| (n * rel.n_rows() * std::mem::size_of::<u32>()) as u64;
    let mut stats = LatticeStats::default();
    let mut out: Vec<Discovered> = Vec::new();
    let mut emitted = SubsetIndex::new(rel.arity());
    // Level 1 candidates.
    let mut candidates: Vec<Node> = all_attrs
        .iter()
        .zip(&attr_encodings)
        .map(|(&a, (codes, n_groups))| Node {
            attrs: AttrSet::single(a),
            codes: codes.clone(),
            n_groups: *n_groups,
        })
        .collect();

    // Prunes happen while *generating* a level's descriptors; charge
    // them to the level being generated (as the stripped lattice does).
    let mut pruned_next = 0usize;
    for level in 1..=cfg.max_lhs {
        if candidates.is_empty() {
            break;
        }
        let mut lvl = LevelStats {
            level,
            candidates: candidates.len(),
            pruned: std::mem::take(&mut pruned_next),
            ..LevelStats::default()
        };
        stats.note_bytes(node_bytes(candidates.len()));
        // Evaluate the whole level in parallel, one Scratch per worker.
        let nodes = std::mem::take(&mut candidates);
        let verdicts: Vec<Verdict> =
            par_map_with(&nodes, threads, Scratch::new, |scratch, _, node| {
                evaluate(scratch, node, &rhs_codes, measure, cfg.epsilon)
            });
        let mut frontier: Vec<Node> = Vec::new();
        for (node, v) in nodes.into_iter().zip(verdicts) {
            match v {
                Verdict::Exact => lvl.exact += 1,
                Verdict::Emit(score) => {
                    lvl.emitted += 1;
                    emitted.insert(&node.attrs);
                    out.push(Discovered {
                        fd: Fd::new(node.attrs, AttrSet::single(rhs)).expect("rhs excluded"),
                        score,
                    });
                }
                Verdict::Open => frontier.push(node),
            }
        }
        lvl.open = frontier.len();
        lvl.node_bytes = node_bytes(frontier.len());
        lvl.stored_rows = frontier.iter().map(|n| n.codes.len() as u64).sum();
        if level == cfg.max_lhs {
            stats.levels.push(lvl);
            break;
        }
        // Generate the next level sequentially: canonical prefix
        // extension (only attributes above the node's maximum), skipping
        // children subsumed by an emitted LHS via the subset index.
        for node in &frontier {
            let max_attr = *node.attrs.ids().last().expect("non-empty LHS");
            for (i, &a) in all_attrs.iter().enumerate() {
                if a <= max_attr {
                    continue;
                }
                let attrs = node.attrs.union(&AttrSet::single(a));
                if emitted.any_subset_of(&attrs) {
                    pruned_next += 1;
                    continue;
                }
                let (b_codes, b_groups) = &attr_encodings[i];
                let mut codes = node.codes.clone();
                let n_groups = afd_relation::with_scratch(|scratch| {
                    combine_codes_with(
                        scratch,
                        &mut codes,
                        node.n_groups,
                        b_codes,
                        *b_groups,
                        false,
                    )
                });
                candidates.push(Node {
                    attrs,
                    codes,
                    n_groups,
                });
            }
        }
        // Frontier and freshly generated children are live together at
        // the end of generation — the reference peak.
        stats.note_bytes(node_bytes(frontier.len() + candidates.len()));
        stats.levels.push(lvl);
    }
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.fd.cmp(&b.fd)));
    (out, stats)
}

/// Reference `discover_all` (one RHS per worker, each sequential).
pub fn discover_all(rel: &Relation, measure: &dyn Measure, cfg: LatticeConfig) -> Vec<Discovered> {
    discover_all_threaded(rel, measure, cfg, max_threads())
}

/// As [`discover_all`] with an explicit worker count.
pub fn discover_all_threaded(
    rel: &Relation,
    measure: &dyn Measure,
    cfg: LatticeConfig,
    threads: usize,
) -> Vec<Discovered> {
    discover_all_stats(rel, measure, cfg, threads).0
}

/// As [`discover_all_threaded`] with aggregated search statistics.
pub fn discover_all_stats(
    rel: &Relation,
    measure: &dyn Measure,
    cfg: LatticeConfig,
    threads: usize,
) -> (Vec<Discovered>, LatticeStats) {
    let rhss: Vec<AttrId> = rel.schema().attrs().collect();
    let per_rhs = afd_parallel::par_map(&rhss, threads, |_, &rhs| {
        discover_for_rhs_stats(rel, rhs, measure, cfg, 1)
    });
    let mut out: Vec<Discovered> = Vec::new();
    let mut stats = LatticeStats::default();
    for (found, s) in per_rhs {
        out.extend(found);
        stats.absorb(&s);
    }
    out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.fd.cmp(&b.fd)));
    (out, stats)
}
