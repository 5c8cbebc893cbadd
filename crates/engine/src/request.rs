//! Typed request/response pairs — the engine's entire public surface.
//!
//! Every way of asking the paper's question — "how strong is `X -> Y`?" —
//! is one of four request families:
//!
//! * [`ScoreRequest`]: one FD under one measure, on the current snapshot;
//! * [`MatrixRequest`]: a candidate set under a measure set, sharing
//!   encodings through the cache-backed batch path;
//! * [`SubscribeRequest`] / [`DeltaRequest`]: streaming — track
//!   candidates, apply row deltas, read delta-maintained scores;
//! * [`DiscoverRequest`]: lattice discovery, linear (`max_lhs = 1`) or
//!   non-linear.

use afd_discovery::{Discovered, LatticeStats};
use afd_relation::Fd;
use afd_stream::{RowDelta, ScoreDiff, StreamScores};

/// Score one FD under one measure (by paper name: `"mu+"`, `"g3'"`, …).
#[derive(Debug, Clone)]
pub struct ScoreRequest {
    /// The dependency to score.
    pub fd: Fd,
    /// The measure's paper name (case-insensitive).
    pub measure: String,
}

impl ScoreRequest {
    /// Builds a score request.
    pub fn new(fd: Fd, measure: impl Into<String>) -> Self {
        ScoreRequest {
            fd,
            measure: measure.into(),
        }
    }
}

/// Answer to a [`ScoreRequest`].
#[derive(Debug, Clone)]
pub struct ScoreResponse {
    /// The scored dependency.
    pub fd: Fd,
    /// The measure's canonical name.
    pub measure: &'static str,
    /// The score in `[0, 1]` (paper conventions applied).
    pub score: f64,
}

/// Which candidates a [`MatrixRequest`] covers.
#[derive(Debug, Clone, Default)]
pub enum CandidateSet {
    /// All violated linear candidates — the discovery search space and
    /// the default.
    #[default]
    Violated,
    /// All linear candidates with a non-NULL co-occurrence (satisfied
    /// ones included).
    AllLinear,
    /// An explicit candidate list.
    Fds(Vec<Fd>),
}

/// Score a candidate set under a measure set, sharing each distinct
/// attribute set's encoding through the engine's cache-backed batch path.
#[derive(Debug, Clone, Default)]
pub struct MatrixRequest {
    /// Measure names; empty means *all 14 measures* in registry order.
    pub measures: Vec<String>,
    /// The candidates to score.
    pub candidates: CandidateSet,
}

/// Answer to a [`MatrixRequest`].
#[derive(Debug, Clone)]
pub struct MatrixResponse {
    /// Canonical measure names, aligned with `scores`' outer axis.
    pub measures: Vec<&'static str>,
    /// The resolved candidates, aligned with `scores`' inner axis.
    pub candidates: Vec<Fd>,
    /// `scores[measure][candidate]` in `[0, 1]`.
    pub scores: Vec<Vec<f64>>,
}

impl MatrixResponse {
    /// The score of `candidate` under the measure named `measure`.
    pub fn score(&self, measure: &str, candidate: usize) -> Option<f64> {
        let m = self
            .measures
            .iter()
            .position(|n| n.eq_ignore_ascii_case(measure))?;
        self.scores[m].get(candidate).copied()
    }
}

/// Track a candidate FD in the engine's (sharded) streaming session.
#[derive(Debug, Clone)]
pub struct SubscribeRequest {
    /// The dependency to delta-maintain.
    pub fd: Fd,
}

impl SubscribeRequest {
    /// Builds a subscribe request.
    pub fn new(fd: Fd) -> Self {
        SubscribeRequest { fd }
    }
}

/// Answer to a [`SubscribeRequest`].
#[derive(Debug, Clone, Copy)]
pub struct SubscribeResponse {
    /// The candidate's index (stable across deltas; re-subscribing an
    /// already-tracked FD returns the existing index).
    pub candidate: usize,
    /// The candidate's scores on the current rows.
    pub scores: StreamScores,
}

/// Apply one batch of row changes to the engine's streaming session.
#[derive(Debug, Clone)]
pub struct DeltaRequest {
    /// Inserts + tombstone deletes, validated atomically.
    pub delta: RowDelta,
}

impl DeltaRequest {
    /// Builds a delta request.
    pub fn new(delta: RowDelta) -> Self {
        DeltaRequest { delta }
    }
}

/// Answer to a [`DeltaRequest`].
#[derive(Debug, Clone)]
pub struct DeltaResponse {
    /// Per-candidate score movement, in subscription order.
    pub diffs: Vec<ScoreDiff>,
    /// Live rows after the delta.
    pub n_live: usize,
}

/// Run AFD discovery: the level-wise lattice search up to `max_lhs`,
/// whose first level is linear discovery (`max_lhs == 1`).
#[derive(Debug, Clone)]
pub struct DiscoverRequest {
    /// The measure's paper name.
    pub measure: String,
    /// Minimum score; discovery returns FDs with score in `[epsilon, 1)`.
    pub epsilon: f64,
    /// Maximum LHS size (1 = linear only).
    pub max_lhs: usize,
}

impl Default for DiscoverRequest {
    fn default() -> Self {
        // ε is shared with `LatticeConfig::default()` (pinned by a
        // regression test); `max_lhs` deliberately differs — the engine
        // defaults to the cheap *linear* discovery, the lattice's first
        // level, while `LatticeConfig` is the non-linear preset (depth 3).
        DiscoverRequest {
            measure: "mu+".into(),
            epsilon: afd_discovery::DEFAULT_EPSILON,
            max_lhs: 1,
        }
    }
}

/// Persist the engine's streaming state as one wire snapshot
/// ([`afd_stream::SessionSnapshot`] framed and checksummed by
/// `afd-wire`): the live rows in global order, the sharding
/// configuration, and every subscription.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotRequest {}

/// Answer to a [`SnapshotRequest`].
#[derive(Debug, Clone)]
pub struct SnapshotResponse {
    /// The framed snapshot blob — write it to disk, ship it, feed it to
    /// [`RestoreRequest`].
    pub bytes: Vec<u8>,
    /// Live rows captured.
    pub n_live: usize,
    /// Subscriptions captured.
    pub candidates: usize,
}

/// Rebuild an engine from a wire snapshot
/// ([`crate::AfdEngine::restore`]). The restored engine resumes exactly:
/// same rows in the same global order (ids renumbered densely, as after
/// a compaction), same shard topology, same subscriptions — and every
/// candidate's scores are **bit-identical** to the engine that was
/// saved.
#[derive(Debug, Clone)]
pub struct RestoreRequest {
    /// A blob produced by [`SnapshotRequest`] / `afd save`.
    pub bytes: Vec<u8>,
}

impl RestoreRequest {
    /// Builds a restore request.
    pub fn new(bytes: Vec<u8>) -> Self {
        RestoreRequest { bytes }
    }
}

/// Answer to a [`DiscoverRequest`].
#[derive(Debug, Clone)]
pub struct DiscoverResponse {
    /// Discovered AFDs, sorted by descending score.
    pub found: Vec<Discovered>,
    /// Per-level node/byte accounting of the lattice search (`None` for
    /// linear discovery, `max_lhs == 1`): candidates evaluated, subset-index
    /// prunes, open-node storage bytes, and the peak node bytes — the
    /// numbers `record_lattice` tracks.
    pub lattice: Option<LatticeStats>,
}
