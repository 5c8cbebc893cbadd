//! # afd-engine
//!
//! **The one front door.** The paper frames AFD measurement as a single
//! question — *how strong is `X -> Y`?* — and this crate makes the
//! workspace answer it through a single typed API: an [`AfdEngine`]
//! accepting request/response pairs and returning `Result<_, AfdError>`
//! for everything, where the pieces used to be four unrelated surfaces
//! (`Measure::score`, the cache-backed `score_matrix`, `StreamSession`,
//! and the discovery entry points) with their own panics and conventions.
//!
//! | Request | Backed by |
//! |---|---|
//! | [`ScoreRequest`] | `afd-core` measures on the current snapshot |
//! | [`MatrixRequest`] | encoding-cache batch path, threaded fan-out |
//! | [`SubscribeRequest`] / [`DeltaRequest`] | sharded incremental sessions (`afd-stream`) |
//! | [`DiscoverRequest`] | parallel lattice, linear at `max_lhs = 1` (`afd-discovery`) |
//!
//! Behind the streaming requests sits the distributed-sharding design
//! from the ROADMAP: a `DeltaRouter` hash-partitions row deltas by shard
//! key, N `StreamSession` shards absorb their slices in parallel, and
//! score reads merge the per-shard `IncTable`s **bit-exactly** — the
//! engine returns the same `f64` bits whether it runs 1 shard or 7.
//!
//! ```
//! use afd_engine::{AfdEngine, DeltaRequest, ScoreRequest, SubscribeRequest};
//! use afd_relation::{AttrId, Fd, Relation, Value};
//! use afd_stream::RowDelta;
//!
//! let rel = Relation::from_pairs([(94110, 1), (94110, 1), (10001, 2)]);
//! let mut engine = AfdEngine::from_relation(rel);
//! let fd = Fd::linear(AttrId(0), AttrId(1));
//!
//! // Batch: one-off score.
//! assert_eq!(engine.score(&ScoreRequest::new(fd.clone(), "g3")).unwrap().score, 1.0);
//!
//! // Streaming: subscribe, then feed deltas.
//! let sub = engine.subscribe(&SubscribeRequest::new(fd)).unwrap();
//! let resp = engine.delta(&DeltaRequest::new(RowDelta::insert_only([
//!     vec![Value::Int(94110), Value::Int(9)], // a typo arrives
//! ]))).unwrap();
//! assert!(resp.diffs[sub.candidate].after.g3 < 1.0);
//! ```

mod engine;
mod error;
mod ranking;
mod request;
mod streaming;

pub use engine::{AfdEngine, EngineConfig, StreamBackend};
pub use error::AfdError;
pub use request::{
    CandidateSet, DeltaRequest, DeltaResponse, DiscoverRequest, DiscoverResponse, MatrixRequest,
    MatrixResponse, RestoreRequest, ScoreRequest, ScoreResponse, SnapshotRequest, SnapshotResponse,
    SubscribeRequest, SubscribeResponse,
};
pub use streaming::{stream_run, StreamRun, StreamStep};

// The vocabulary the requests speak, re-exported so engine callers need
// no further crates.
pub use afd_discovery::Discovered;
pub use afd_relation::{linear_candidates, violated_candidates, CsvKind};
pub use afd_stream::{
    ChurnPlanner, CompactionReport, RecoveryConfig, RecoveryReport, RowDelta, ScoreDiff,
    SessionSnapshot, ShardRecoveryStats, ShutdownReport, StreamScores, TransportError,
    TransportErrorKind, WorkerCommand,
};
