//! # afd
//!
//! A production-quality Rust implementation of
//! **"Measuring Approximate Functional Dependencies: A Comparative
//! Study"** (Parciak et al., ICDE 2024): the 14 AFD measures, the
//! substrates they need, discovery algorithms built on them, and the full
//! experiment suite regenerating every table and figure of the paper.
//!
//! The paper frames AFD measurement as one question — *how strong is
//! `X -> Y`?* — and this workspace answers it through **one front door**:
//! the [`AfdEngine`], a single typed entry point whose request/response
//! pairs cover every way of asking, all returning `Result<_, AfdError>`:
//!
//! | Request | Answers | Backed by |
//! |---|---|---|
//! | [`ScoreRequest`] | one FD under one measure | `afd-core` measures on the snapshot |
//! | [`MatrixRequest`] | a candidate set × a measure set | encoding-cache batch path, threaded |
//! | [`SubscribeRequest`] / [`DeltaRequest`] | scores kept fresh under churn | sharded incremental sessions (`afd-stream`) |
//! | [`DiscoverRequest`] | which FDs hold approximately | threshold / parallel lattice (`afd-discovery`) |
//!
//! The workspace crates behind the door, re-exported as modules:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`engine`] | `afd-engine` | the [`AfdEngine`] front door: requests, responses, [`AfdError`] |
//! | [`relation`] | `afd-relation` | bag relations, contingency tables, PLIs, CSV, NULLs, candidates |
//! | [`entropy`] | `afd-entropy` | Shannon/logical entropy, permutation-null expectations |
//! | [`measures`] | `afd-core` | the 14 measures behind the [`Measure`] trait |
//! | [`synth`] | `afd-synth` | Beta-distributed generators, error channels, ERR/UNIQ/SKEW |
//! | [`rwd`] | `afd-rwd` | the simulated real-world benchmark (RWD / RWDe) |
//! | [`eval`] | `afd-eval` | PR/AUC, rank-at-max-recall, separation, budgeted runs |
//! | [`discovery`] | `afd-discovery` | threshold + lattice (non-linear) AFD discovery |
//! | [`stream`] | `afd-stream` | incremental engine: delta-maintained state, sharded sessions, process workers |
//! | [`wire`] | `afd-wire` | versioned, checksummed binary codec for cross-process state |
//! | [`net`] | `afd-net` | socket transports: TCP shard workers, framed clients, reconnect policy |
//! | [`serve`] | `afd-serve` | multi-tenant serving: session registry, tick scheduler, eviction to disk, socket front door |
//!
//! ## Quickstart
//!
//! ```
//! use afd::{AfdEngine, DeltaRequest, ScoreRequest, SubscribeRequest};
//! use afd::{AttrId, Fd, Relation, RowDelta, Value};
//!
//! // zip -> city, with one typo in row 5.
//! let rel = Relation::from_pairs([
//!     (94110, 1), (94110, 1), (94110, 1),
//!     (10001, 2), (10001, 2), (10001, 9),
//! ]);
//! let mut engine = AfdEngine::from_relation(rel);
//! let fd = Fd::linear(AttrId(0), AttrId(1));
//!
//! // Batch: not an exact FD, but a strong AFD under the paper's
//! // recommended measure µ⁺.
//! let resp = engine.score(&ScoreRequest::new(fd.clone(), "mu+")).unwrap();
//! assert!(resp.score > 0.5 && resp.score < 1.0);
//!
//! // Streaming: subscribe the candidate, feed deltas, scores stay fresh
//! // in O(delta) — bit-identical to recomputing from scratch.
//! let sub = engine.subscribe(&SubscribeRequest::new(fd)).unwrap();
//! let diff = engine.delta(&DeltaRequest::new(RowDelta::insert_only([
//!     vec![Value::Int(94110), Value::Int(7)], // another typo arrives
//! ]))).unwrap();
//! assert!(diff.diffs[sub.candidate].after.mu_plus < resp.score);
//! ```
//!
//! The paper's practical recommendation is [`MuPlus`] (`µ⁺`): as robust
//! as the best-ranking measure (`RFI′⁺`) but orders of magnitude faster.
//!
//! ## Architecture & performance
//!
//! Every measure consumes one of two grouping substrates — the
//! contingency table (`X` vs `Y` joint frequencies) or the PLI (stripped
//! partition) — and the paper shows their construction dominates every
//! experiment. Both therefore run on the **columnar kernel substrate**
//! in [`relation::kernels`]:
//!
//! * All hot loops use dense `u32` remap tables and counter vectors
//!   with *generation stamps* (O(1) bulk clear), reused across calls via
//!   a [`relation::Scratch`] — no `HashMap`s, no per-row key clones,
//!   allocation-free in steady state. Single-threaded callers get a
//!   thread-local scratch transparently; parallel callers hand each
//!   worker its own via the `*_with` kernel variants.
//! * Multi-attribute grouping folds columns through the **pair-code
//!   kernel** ([`relation::combine_codes_with`]): each `(group, code)`
//!   pair packs into one integer key remapped to dense ids — the same
//!   primitive refines lattice nodes during non-linear discovery.
//! * [`ContingencyTable`] and the PLI store their cells/clusters in
//!   flat CSR vectors (one allocation each), built by counting sort
//!   plus stamped tallies.
//! * Non-linear discovery ([`DiscoverRequest`] with `max_lhs > 1`) runs
//!   the **stripped lattice** (`afd-discovery`): nodes store only the
//!   rows of non-singleton partition groups (CSR clusters, TANE-style),
//!   so per-node work and memory shrink monotonically up the lattice
//!   instead of staying `O(rows)`. Candidates of the measures whose
//!   formula reads only table aggregates (ρ, g2, g3, g3′, g1, g1′, pdep,
//!   τ, µ⁺) are scored from a tally of the stripped clusters that counts
//!   every RHS of an LHS set in one pass
//!   ([`relation::YMatrix::tally_with`]: small groups compared lane-wise
//!   over a row-major matrix of the RHS codes), NULLs included, with no
//!   contingency table built; the other measures score
//!   implicit-singleton tables
//!   ([`ContingencyTable::from_stripped_with`]). One lattice serves
//!   every RHS: an LHS set is refined once per call and scored against
//!   every RHS it is still a candidate for, TANE-style, instead of once
//!   per RHS. Only children open for
//!   some RHS copy their clusters out of the worker's refine buffers
//!   (the peak of one level's parents plus open children is surfaced on
//!   the response's [`discovery::LatticeStats`]), per-attribute
//!   encodings are computed once per call, and per RHS, supersets of
//!   exact *and* emitted LHS sets are pruned through a bitmask subset
//!   index before their partitions are materialised. The search stays
//!   **level-synchronous parallel** (scoped threads, see
//!   `afd-parallel`): each level is one worker pass over its parent
//!   nodes that generates, refines *and* scores their children, and the
//!   verdicts are folded in parent order — output is byte-identical for
//!   every thread count (`AFD_THREADS` overrides the worker count; an
//!   invalid override is an [`AfdError::Config`], not a panic), and
//!   bit-identical to the retained full-codes reference in
//!   `afd_discovery::naive_lattice` (proptest-pinned; `cargo run
//!   --release -p afd-bench --example record_lattice` records ~21×
//!   end-to-end and ~12× lower peak node bytes on the 65 536-row fixture
//!   in `BENCH_lattice.json`).
//! * [`MatrixRequest`]s share work one level higher too: each **distinct
//!   attribute set is group-encoded once** into a
//!   [`relation::EncodingCache`] (warmed in parallel) and every
//!   candidate's contingency table is assembled from the cached side
//!   codes, instead of re-encoding both sides per candidate.
//!   [`Relation::project`] and `filter_rows` are code-level as well:
//!   `O(rows)` code copies, no `Value` round-trips.
//!
//! ### Streaming: sharded incremental sessions (`afd-stream`)
//!
//! The batch pipeline answers "how strong is `X -> Y` *on this
//! snapshot*"; the streaming requests keep the answer fresh while the
//! relation changes. Data flow behind [`SubscribeRequest`] /
//! [`DeltaRequest`]:
//!
//! 1. [`RowDelta`]s (row inserts + tombstone deletes) enter the engine's
//!    session. A `DeltaRouter` **hash-partitions** every row by shard
//!    key (a subset of each tracked candidate's LHS — so each LHS group
//!    lives wholly inside one shard) and sends every one of N
//!    `StreamSession` shards its slice before awaiting any answer.
//! 2. Per subscribed candidate and shard, the session delta-maintains
//!    the dense side encodings (`row -> group id`, the incremental PLI
//!    membership), the joint counts of an [`stream::IncTable`] (cells,
//!    margins, `Σ max`, `Σ n²`), and **count-value histograms** from
//!    which the eleven fast measures ([`StreamScores`]) are read back.
//! 3. Score reads merge the per-shard tables: the X-side counts and
//!    histograms are summed, and the column totals come from merged Y
//!    margins the coordinator keeps through a global Y-id space,
//!    re-summing only the columns each apply touched. Every float sum a
//!    measure reads is kept exactly (an integer count of 2⁻⁵² units,
//!    rounded once when read), and every path scores through
//!    `afd_core::fast_scores`, so the merge is order-independent and
//!    **bit-identical** to a single unsharded session, to the full
//!    re-merge `IncTable::merged_scores`, and to the batch measures on
//!    the same rows (pinned by proptests for N ∈ {1, 2, 3, 7}; a
//!    shuffled relation also scores the same bits in batch).
//! 4. An apply costs `O(|delta|)`, not `O(N rows)`: `BENCH_stream.json`
//!    records ~16× vs full recompute at a 1/256 delta on 65 536 rows,
//!    and `BENCH_shard.json` (from `cargo run --release -p afd-bench
//!    --example record_shard`) records the per-shard work dropping
//!    towards 1/N of the single-session cost (the host is single-core,
//!    so work-per-shard is the honest metric, not wall-clock).
//! 5. Periodic compaction verifies **per shard** against the batch
//!    kernels (exact PLI/table equality, bit-exact scores) before
//!    dropping tombstones — divergence surfaces as an error instead of
//!    silently serving wrong scores.
//!
//! ### Wire format & out-of-process shard workers (`afd-wire`)
//!
//! The shards behind the streaming requests are **pluggable**
//! ([`stream::ShardBackend`]): in-process sessions (default, zero
//! transport cost) or `afd shard-worker` **child processes** —
//! [`EngineConfig`]`::backend` picks
//! ([`engine::StreamBackend::Process`]). The process topology rides
//! [`wire`], a hand-rolled binary codec (no serde, no network stack —
//! the build is offline):
//!
//! * **Framing**: every message travels as `AFDW` magic + version +
//!   kind byte + `u32` length + payload + FNV-1a checksum over header
//!   and payload; any bit flip anywhere is caught before decoding, and
//!   corrupt input always surfaces as a typed
//!   [`wire::DecodeError`] — never a panic (fuzz-pinned).
//! * **Exactness**: everything is fixed-width little-endian, floats
//!   travel as IEEE-754 bit patterns, and every aggregate the shards
//!   ship (`IncTable` counts, margins, histograms) is an integer — so a
//!   process-backed session's merged score reads are **bit-identical**
//!   to the in-process backend and the batch kernels (proptest-pinned
//!   for N ∈ {1, 2, 4} worker processes). A worker ships its full
//!   state only on subscribe and compaction; after each applied delta
//!   it ships a patch of the groups, columns and histograms the delta
//!   changed, which the coordinator writes into its copy of the shard's
//!   state.
//! * **Fault model**: the shard fabric is **self-healing**. Every
//!   coordinator→worker request carries a deadline, and a worker that
//!   dies, corrupts a frame or stalls past it surfaces as a structured
//!   [`stream::TransportError`] (step, shard, worker stderr tail) —
//!   which the supervisor *recovers from*: respawn the worker, restore
//!   its per-shard checkpoint, replay the delta log since it, retry the
//!   in-flight request (all canonical wire forms, so the healed shard is
//!   bit-identical by construction; [`stream::RecoveryConfig`] sets the
//!   checkpoint cadence and retry budget, `BENCH_recovery.json` records
//!   the latency-vs-K trade-off). Only an exhausted retry budget poisons
//!   the session — reads keep serving the last consistent state,
//!   mutation is refused. Seeded fault injection ([`stream::FaultPlan`]
//!   over kill / truncate / garbage / stall, interpreted by the
//!   [`stream::ChaosShard`] test backend or real workers via the
//!   `AFD_WORKER_FAULTS` env hook) proptest-pins that any single fault
//!   at any protocol step recovers bit-identically to a fault-free run.
//! * **Persistence**: whole sessions save/load as framed snapshots
//!   ([`SnapshotRequest`] / [`RestoreRequest`] on the engine,
//!   `afd save` / `afd load` in the CLI) — live rows in global order
//!   (columnar), shard topology, subscriptions; restore resumes with
//!   bit-identical scores. `ShardedSession::snapshot` itself is
//!   code-level (shared dictionaries, O(rows) `u32` copies — the old
//!   per-row `Value` round-trips are gone).
//!   `cargo run --release -p afd-bench --example record_wire` records
//!   codec throughput (~GiB/s encode on the 65 536-row fixture) and the
//!   process-backend apply overhead in `BENCH_wire.json`.
//!
//! ### Sockets: TCP shard workers & the serve front door (`afd-net`)
//!
//! The same checksummed frames cross machines, not just pipes. [`net`]
//! is a small transport crate (depends only on [`wire`], so the
//! streaming and serving layers both build on it without cycles)
//! exposing one [`net::Transport`] abstraction with two
//! implementations: [`net::StdioTransport`] — the existing child
//! process's stdin/stdout — and [`net::TcpTransport`] — a dialed TCP
//! connection. `afd shard-worker --listen ADDR` serves the worker
//! protocol over a socket (thread per connection, one session each),
//! [`engine::StreamBackend::Tcp`] points a session's shards at such
//! listeners, and the supervisor's heal path carries over unchanged:
//! a severed connection is a typed transport error, `reconnect`
//! redials with exponential backoff ([`net::ReconnectPolicy`] — the
//! TCP analogue of respawning a child), and checkpoint-restore +
//! replay make the healed shard bit-identical by construction
//! (integration tests pin TCP topologies bit-identical to in-process
//! and stdio ones for N ∈ {1, 2, 4}, through kills and stalls). Bad
//! addresses are an [`AfdError::Config`] at the engine boundary, not a
//! late dial failure.
//!
//! The serving layer gets a socket front door on the same frames:
//! [`serve::ServeFront`] wraps an [`AfdServe`] in an accept loop
//! (`afd serve --listen ADDR`), speaking a typed request/response
//! protocol (register / enqueue / tick / subscribe / scores / release /
//! stats) where **every refusal is an answer, never a disconnect** —
//! auth failures, stale handles, and backpressure all travel as the
//! same [`serve::ServeError`] values the library returns, and a
//! connection-count cap answers a typed `Backpressure` frame before
//! closing. Registration is gated by an optional shared token plus a
//! tenant label ([`serve::FrontConfig`]; TLS is a recorded follow-up —
//! the token authenticates, the network is assumed trusted), and a
//! dropped connection deterministically releases — or, with
//! [`serve::DisconnectPolicy::Park`], evicts-to-disk — the handles it
//! registered, so crashed clients cannot leak sessions.
//! [`serve::ServeClient`] (and `afd connect ADDR` in the CLI) drives
//! it end-to-end with a deadline on every request; `cargo run
//! --release -p afd-bench --example record_net` records the loopback
//! transport tax, serve round-trip latency, and connection-churn
//! accept rate in `BENCH_net.json`.
//!
//! ### Serving layer: million-session multi-tenancy (`afd-serve`)
//!
//! Everything above runs *one* engine; [`AfdServe`] runs a registry of
//! them as a long-lived multi-tenant server. Data flow: a caller
//! registers a session (a whole [`AfdEngine`], or just its framed
//! snapshot bytes via `register_snapshot` — no engine is built until
//! first touch), gets back a [`serve::SessionHandle`], and from then on
//! enqueues [`RowDelta`]s against the handle; a budget-bounded `tick`
//! drains the pending queues and applies them. Four pieces make that
//! hold up at six-figure session counts:
//!
//! * **Generational-slab registry**: handles are slot index +
//!   generation, so slots recycle without handle confusion — a handle
//!   to a released session fails as the typed
//!   [`serve::ServeError::StaleHandle`], never aliases a new tenant.
//! * **Budget-based tick scheduler**: [`serve::TickBudget`] bounds both
//!   total deltas per tick and the per-session burst, and the ready
//!   ring round-robins so one noisy tenant cannot starve the rest; an
//!   invalid delta is dropped and counted on the [`serve::TickReport`],
//!   never aborts the tick for other tenants.
//! * **Admission control & backpressure**: per-session and global
//!   pending caps plus a registry cap, all enforced *before* any state
//!   changes as the typed [`serve::ServeError::Backpressure`] /
//!   `AtCapacity` — callers shed load instead of OOMing the server.
//! * **Cold-session eviction**: beyond `resident_cap` engines, the LRU
//!   session is saved to a spill file (the same framed
//!   [`SessionSnapshot`] as `afd save`) and its engine torn down; the
//!   next touch restores it transparently — into either
//!   [`engine::StreamBackend`], so spilled sessions can wake up onto
//!   process-backed shards. Restore is score-invisible: proptests pin
//!   evict → restore → continue-applying **bit-identical**
//!   (`f64::to_bits`) to a never-evicted twin, for both backends.
//!
//! `afd serve` drives a scripted multi-tenant workload from the CLI,
//! and `cargo run --release -p afd-bench --example record_serve`
//! records the scaling story in `BENCH_serve.json`: 120 000 registered
//! sessions under a 1 024-resident cap hold serving RSS at ~39 MiB
//! (registration costs a spill file, not an engine), p50 apply ~7 µs
//! with the p99 carrying the cold-restore tail.
//!
//! The server is **crash-safe** by default: every registry transition
//! (register / evict / restore / release) is appended to a checksummed
//! write-ahead journal (`registry.afdj` in the spill directory, afd-wire
//! frames, compacted into checkpoints as it outgrows the live set), and
//! every spill file is written atomically (tmp → write → fsync →
//! rename) *before* its journal record — so a crash at any instant
//! leaves either the old state or the new state, never a torn hybrid.
//! [`serve::AfdServe::recover`] cold-starts a server from the directory
//! alone: it replays the journal, validates every spill file against
//! it, and moves anything corrupt or unaccounted-for into
//! `quarantine/` — reported file-by-file on the typed
//! [`serve::RecoverReport`], never silently deleted. Crash-injection
//! proptests tear, garble, or drop every journal and spill write in a
//! seeded workload and assert recovery always succeeds, an acknowledged
//! eviction always survives bit-identically, and the recovered server
//! keeps serving (both backends; `afd serve --recover` drives the round
//! trip from the CLI). Durability knobs live on
//! [`serve::DurabilityConfig`] (`ephemeral()` restores the old
//! RAM-only contract); `record_durability` records recovery wall-clock
//! versus registry size and the journal's ≤ 10% eviction overhead in
//! `BENCH_durability.json`.
//!
//! The original hash-based inner loops are retained in
//! [`relation::naive`]; property tests pin `optimized ≡ naive`, and
//! `cargo run --release -p afd-bench --example record_substrate`
//! regenerates `BENCH_substrate.json` with optimized-vs-naive timings
//! (≥ 3–6× on the 8 192-row bench fixture for contingency construction
//! and PLI refinement). `cargo bench -p afd-bench` runs the wider
//! criterion-style suites, including 65 536-row fixtures and end-to-end
//! discovery.

pub use afd_core as measures;
pub use afd_discovery as discovery;
pub use afd_engine as engine;
pub use afd_entropy as entropy;
pub use afd_eval as eval;
pub use afd_net as net;
pub use afd_relation as relation;
pub use afd_rwd as rwd;
pub use afd_serve as serve;
pub use afd_stream as stream;
pub use afd_synth as synth;
pub use afd_wire as wire;

// The most common names, flattened for convenience.
pub use afd_core::{
    all_measures, fast_measures, measure_by_name, Fi, G1Prime, G3Prime, Measure, MeasureClass,
    MuPlus, Pdep, RfiPlus, RfiPrimePlus, Rho, Sfi, Tau, G1, G1S, G2, G3,
};
pub use afd_engine::{
    AfdEngine, AfdError, CandidateSet, DeltaRequest, DeltaResponse, DiscoverRequest,
    DiscoverResponse, EngineConfig, MatrixRequest, MatrixResponse, RestoreRequest, ScoreRequest,
    ScoreResponse, SnapshotRequest, SnapshotResponse, SubscribeRequest, SubscribeResponse,
};
pub use afd_eval::{auc_pr, rank_at_max_recall, Labeled};
pub use afd_relation::{
    linear_candidates, read_csv, violated_candidates, write_csv, AttrId, AttrSet, ContingencyTable,
    Fd, Relation, Schema, Value,
};
pub use afd_rwd::RwdBenchmark;
pub use afd_serve::{
    AfdServe, DurabilityConfig, RecoverReport, ServeConfig, ServeError, SessionHandle,
};
pub use afd_stream::{
    RowDelta, ScoreDiff, SessionSnapshot, ShardedSession, StreamScores, StreamSession,
};
pub use afd_synth::{Axis, Beta, ErrorType, SynthBenchmark};
