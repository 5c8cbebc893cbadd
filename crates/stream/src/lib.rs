//! # afd-stream
//!
//! Incremental AFD engine: delta-maintained PLIs, contingency tables and
//! measure scores for streaming relations.
//!
//! The batch pipeline (`afd-relation` kernels + `afd-core` measures)
//! answers "how strong is `X -> Y` on this snapshot?" in time linear in
//! the relation. Under continuously-changing traffic that is the wrong
//! cost model: a delta of `k` rows should cost `O(k)`, not `O(N)`. This
//! crate provides exactly that:
//!
//! * [`IncrementalRelation`] — an append-only row log with tombstone
//!   deletes; dictionary codes are stable for the life of the log, which
//!   is what makes per-row group membership patchable.
//! * [`StreamSession`] — subscribe candidate FDs, then
//!   [`StreamSession::apply`] a [`RowDelta`] and get back a
//!   [`ScoreDiff`] per candidate. Each tracked candidate delta-maintains
//!   its dense side encodings (the incremental PLI membership), an
//!   [`IncTable`] of joint counts, and the eleven efficiently computable
//!   measure scores ([`StreamScores`]). Only touched groups are
//!   re-aggregated; the Shannon entropy terms are patched group-by-group
//!   through count-value histograms rather than recomputed.
//! * [`StreamSession::compact`] — periodically rebuilds everything
//!   through the batch kernels and **asserts equivalence** (exact for
//!   PLIs and contingency tables, bit-exact for scores), so drift would
//!   surface as [`StreamError::Diverged`] instead of silently serving
//!   stale or wrong scores.
//! * [`ShardedSession`] — the same API over N hash-partitioned shards: a
//!   [`DeltaRouter`] splits each delta by shard-key value (the key must
//!   be contained in every tracked LHS, so X-groups stay shard-local),
//!   every shard is sent its slice before any answer is awaited (no
//!   threads: remote workers apply concurrently), and the coordinator
//!   folds the Y columns each shard's apply touched into per-candidate
//!   merged Y margins, so an apply costs it O(delta). Score reads sum
//!   the shards' X-side aggregates with those margins — bit-identical
//!   to an unsharded session over the same history, and to the full
//!   re-merge of [`IncTable::merged_scores`].
//!
//! Score reads are the batch scores, bit for bit: each read scores the
//! exact sums of its aggregates through `afd_core::fast_scores`, so a
//! session that ingested a million deltas and `afd-core` on the final
//! snapshot return bit-identical `f64`s — the crate's proptests pin it.
//!
//! ## Architecture & performance: the wire and the process topology
//!
//! [`ShardedSession`] is generic over a [`ShardBackend`] — *where* a
//! shard lives is a plug point:
//!
//! * [`InProcShard`] (default): a [`StreamSession`] in the coordinator's
//!   address space, zero transport cost.
//! * [`ProcessShard`]: an `afd shard-worker` **child process** (spawned
//!   via [`WorkerCommand`]) speaking the `afd-wire` protocol over its
//!   stdin/stdout. Every frame is length-prefixed, versioned and
//!   FNV-checksummed. A subscribe or a compaction comes back as the
//!   worker's full per-candidate state ([`wire::ShardState`]: the
//!   [`IncTable`] merge inputs plus value-level Y side keys); each
//!   applied delta slice comes back as a [`wire::ShardPatch`] — the
//!   scalar aggregates, the X groups and Y columns the slice touched,
//!   the count histograms and the keys of newly assigned Y side ids —
//!   which the coordinator writes into its copy of that state in
//!   O(patch) before folding the patched Y columns into its merged
//!   margins, exactly as for in-process shards. All maintained
//!   aggregates are integers, so the codec round-trip is exact, the copy
//!   stays equal to the worker's state, and the merged reads are
//!   **bit-identical** across backends — pinned by process-spawning
//!   proptests for N ∈ {1, 2, 4} (`crates/cli` integration tests).
//!
//! ## Fault model: supervised recovery, deadlines, fault injection
//!
//! Failure is typed, never silent — and for process workers it is
//! **recovered**, not just reported. The coordinator keeps, per shard, a
//! checkpoint (the shard's live rows plus the liveness of its row-id
//! slots, refreshed every [`RecoveryConfig::checkpoint_every`] applies)
//! and the routed [`RowDelta`] slices since it. When a request fails
//! with a structured [`TransportError`] (spawn / write / read / timeout
//! / decode, plus the shard index and the worker's last stderr lines),
//! the supervisor respawns the worker, re-inserts one row per
//! checkpointed slot (an all-NULL row, deleted again at once, for a dead
//! one) so the worker gets back the coordinator's own row ids, replays
//! the slices verbatim and retries the in-flight request. The recovered
//! worker holds the same live rows under the same ids as one that never
//! failed, so merged score reads stay bit-identical. Every request
//! carries a deadline ([`RecoveryConfig::request_timeout_ms`], enforced
//! by a per-worker reader thread), so a *hung* worker becomes a timeout
//! feeding the same path; [`ShardedSession::recovery_report`] counts
//! respawns and replayed deltas. Only after
//! [`RecoveryConfig::retry_budget`] failed attempts (with exponential
//! backoff) — or for backends that cannot respawn — does the session
//! *poison* ([`StreamError::Poisoned`]): score reads keep serving the
//! last consistent state, every further mutation is refused.
//! [`ShardedSession::shutdown`] ends a session gracefully and reports
//! stragglers.
//!
//! The fault paths are themselves deterministic and testable: a seeded
//! [`FaultPlan`] picks a shard, a protocol step and a fault kind
//! ([`WorkerFault`]: kill / truncate a frame / emit garbage / stall past
//! the deadline), interpreted either by the in-process [`ChaosShard`]
//! test backend or by real workers via the [`AFD_WORKER_FAULTS_ENV`]
//! environment hook — proptests pin that any single fault at any step
//! recovers bit-identically to a fault-free run.
//!
//! Whole sessions persist as framed [`SessionSnapshot`]s (live rows in
//! global order, columnar; shard topology; subscriptions) — restoring is
//! equivalent to resuming right after a compaction, with bit-identical
//! scores.
//!
//! Coordinator snapshots are **code-level**: [`ShardedSession::snapshot`]
//! unifies the shard dictionaries once (O(Σ distinct values)) and copies
//! one remapped `u32` code per cell — O(rows) code copies like
//! `Relation::filter_rows`, no per-row `Value` round-trips.
//! `cargo run --release -p afd-bench --example record_wire` records the
//! codec throughput and the process-backend apply overhead in
//! `BENCH_wire.json`.
//!
//! ```
//! use afd_relation::{AttrId, Fd, Schema, Value};
//! use afd_stream::{RowDelta, StreamSession};
//!
//! let mut session = StreamSession::new(Schema::new(["zip", "city"]).unwrap());
//! let zip_city = session.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
//! let rows = [(94110, 1), (94110, 1), (10001, 2)];
//! session.apply(&RowDelta::insert_only(rows.iter().map(|&(z, c)| {
//!     vec![Value::Int(z), Value::Int(c)]
//! }))).unwrap();
//! assert_eq!(session.scores(zip_city).g3, 1.0); // exact so far
//! let diffs = session.apply(&RowDelta::insert_only([
//!     vec![Value::Int(94110), Value::Int(9)], // a typo arrives
//! ])).unwrap();
//! assert!(diffs[zip_city].after.g3 < 1.0);
//! ```

pub mod backend;
pub mod delta;
pub mod fault;
pub mod recovery;
pub mod session;
pub mod shard;
pub mod table;
pub mod wire;
pub mod worker;

pub use backend::{
    AnyShard, InProcShard, ProcessShard, RemoteShard, ShardBackend, TcpShard, WorkerCommand,
    DEFAULT_REQUEST_TIMEOUT,
};
pub use delta::{ChurnPlanner, RowDelta, RowId, StreamError, TransportError, TransportErrorKind};
pub use fault::{ChaosShard, FaultPlan, WorkerFault, WorkerFaultKind, AFD_WORKER_FAULTS_ENV};
pub use recovery::{RecoveryConfig, RecoveryReport, ShardRecoveryStats, ShutdownReport};
pub use session::{
    plis_equal, tables_equal, CompactionReport, IncrementalRelation, ScoreDiff, StreamSession,
};
pub use shard::{DeltaRouter, ShardedSession};
pub use table::{IncTable, StreamScores, TablePatch};
pub use wire::{SessionSnapshot, SnapshotStats};
pub use worker::{run_worker, run_worker_listener, run_worker_with_fault};
