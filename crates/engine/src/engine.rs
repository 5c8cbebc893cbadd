//! [`AfdEngine`]: one stateful front door over the batch, discovery and
//! streaming back ends.

use std::io::BufRead;

use afd_core::{all_measures, measure_by_name, Measure};
use afd_discovery::{try_discover_all_stats, LatticeConfig};
use afd_relation::{
    linear_candidates, read_csv_typed, violated_candidates, AttrSet, CsvKind, Fd, Relation, Schema,
};
use afd_stream::{
    AnyShard, CompactionReport, InProcShard, ProcessShard, RecoveryConfig, RecoveryReport,
    SessionSnapshot, ShardedSession, ShutdownReport, StreamScores, TcpShard, WorkerCommand,
};

use crate::error::AfdError;
use crate::ranking::score_matrix;
use crate::request::{
    CandidateSet, DeltaRequest, DeltaResponse, DiscoverRequest, DiscoverResponse, MatrixRequest,
    MatrixResponse, RestoreRequest, ScoreRequest, ScoreResponse, SnapshotRequest, SnapshotResponse,
    SubscribeRequest, SubscribeResponse,
};

/// Where the engine's streaming shards live.
#[derive(Debug, Clone, Default)]
pub enum StreamBackend {
    /// Shards are [`afd_stream::StreamSession`]s in this process (the
    /// default — zero transport overhead).
    #[default]
    InProcess,
    /// Each shard is an `afd shard-worker` child process driven over
    /// the checksummed `afd-wire` stdin/stdout protocol — crash-isolated
    /// workers, bit-identical score reads.
    Process(WorkerCommand),
    /// Each shard is an `afd shard-worker --listen` session dialed over
    /// TCP, one address per shard (so `shards` must equal the address
    /// count). Addresses must parse as `IP:PORT` literals with distinct,
    /// non-zero ports — validated by [`AfdEngine::with_config`] with
    /// typed [`AfdError::Config`] errors, matching the `shards: 0`
    /// precedent.
    Tcp(Vec<String>),
}

/// Engine-wide knobs, all optional.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for batch scoring and discovery.
    /// `None` resolves `AFD_THREADS` / available parallelism at request
    /// time (a bad override surfaces as [`AfdError::Config`], never a
    /// panic).
    pub threads: Option<usize>,
    /// Streaming shard count, at least 1 (a single unsharded session).
    /// `0` is rejected by [`AfdEngine::with_config`] with
    /// [`AfdError::Config`] — never silently promoted.
    pub shards: usize,
    /// Hash-partitioning key for sharded streaming. Every subscribed
    /// FD's LHS must contain it. `None` defaults to the first subscribed
    /// candidate's LHS.
    pub shard_key: Option<AttrSet>,
    /// Auto-compact (with per-shard batch-kernel verification) every this
    /// many applied deltas.
    pub compact_every: Option<u64>,
    /// Shard topology: in-process sessions or `afd shard-worker` child
    /// processes.
    pub backend: StreamBackend,
    /// Supervised-recovery policy for the streaming session: checkpoint
    /// cadence, retry budget, backoff and the per-request deadline.
    /// Validated by [`AfdEngine::with_config`] — a zero checkpoint
    /// interval, retry budget or deadline is a typed
    /// [`AfdError::Config`], never silently clamped.
    pub recovery: RecoveryConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: None,
            shards: 1,
            shard_key: None,
            compact_every: None,
            backend: StreamBackend::InProcess,
            recovery: RecoveryConfig::default(),
        }
    }
}

/// Validates a [`StreamBackend::Tcp`] topology the way `shards: 0` is
/// validated: every malformed input is a typed [`AfdError::Config`] at
/// configuration time, never a dial-time surprise. One address per
/// shard; `IP:PORT` literals only; no zero ports (nothing can be dialed
/// on the ephemeral wildcard); no duplicates (each shard owns its own
/// worker session lifecycle — two shards behind one address would share
/// a crash domain the supervisor cannot see).
fn validate_tcp_backend(addrs: &[String], shards: usize) -> Result<(), AfdError> {
    if addrs.is_empty() {
        return Err(AfdError::Config(
            "tcp backend needs at least one worker address".into(),
        ));
    }
    if addrs.len() != shards {
        return Err(AfdError::Config(format!(
            "tcp backend has {} address(es) for {shards} shard(s): one worker address per shard",
            addrs.len()
        )));
    }
    let mut seen = Vec::with_capacity(addrs.len());
    for addr in addrs {
        let parsed = afd_net::parse_connect_addr(addr)
            .map_err(|e| AfdError::Config(format!("tcp backend: {e}")))?;
        if seen.contains(&parsed) {
            return Err(AfdError::Config(format!(
                "tcp backend: duplicate worker address {parsed}"
            )));
        }
        seen.push(parsed);
    }
    Ok(())
}

/// The single typed entry point to everything this workspace can say
/// about approximate functional dependencies.
///
/// An engine owns one evolving relation. Batch requests
/// ([`AfdEngine::score`], [`AfdEngine::matrix`], [`AfdEngine::discover`])
/// run on the current snapshot; streaming requests
/// ([`AfdEngine::subscribe`], [`AfdEngine::delta`]) evolve the rows and
/// keep subscribed candidates' scores fresh in O(delta) through a
/// [`ShardedSession`] (N hash-partitioned `StreamSession` shards whose
/// merged score reads are bit-identical to an unsharded session — and to
/// the batch kernels). Every request returns `Result<_, AfdError>`.
///
/// ```
/// use afd_engine::{AfdEngine, ScoreRequest};
/// use afd_relation::{AttrId, Fd, Relation};
///
/// let rel = Relation::from_pairs([(1, 10), (1, 10), (2, 20), (2, 99)]);
/// let mut engine = AfdEngine::from_relation(rel);
/// let resp = engine
///     .score(&ScoreRequest::new(Fd::linear(AttrId(0), AttrId(1)), "mu+"))
///     .unwrap();
/// assert!(resp.score > 0.0 && resp.score < 1.0);
/// ```
#[derive(Debug)]
pub struct AfdEngine {
    /// The current snapshot; authoritative until streaming starts, then a
    /// lazily refreshed materialisation of the session's live rows.
    base: Relation,
    base_fresh: bool,
    session: Option<ShardedSession<AnyShard>>,
    cfg: EngineConfig,
}

impl AfdEngine {
    /// An engine over an empty relation with this schema.
    pub fn new(schema: Schema) -> Self {
        Self::from_relation(Relation::empty(schema))
    }

    /// An engine whose rows start as `rel`.
    pub fn from_relation(rel: Relation) -> Self {
        AfdEngine {
            base: rel,
            base_fresh: true,
            session: None,
            cfg: EngineConfig::default(),
        }
    }

    /// An engine ingesting CSV (header + rows, inferred column types).
    ///
    /// # Errors
    /// [`AfdError::Relation`] on malformed CSV or I/O failure.
    pub fn from_csv(reader: impl BufRead) -> Result<Self, AfdError> {
        Ok(Self::from_relation(read_csv_typed(reader, None)?))
    }

    /// As [`AfdEngine::from_csv`] with declared column types — a cell
    /// that fails its declared type comes back as a typed
    /// [`AfdError::Relation`] with line and column context (this path
    /// used to abort the process via `expect`).
    ///
    /// # Errors
    /// As [`AfdEngine::from_csv`], plus per-cell type failures.
    pub fn from_csv_typed(reader: impl BufRead, kinds: &[CsvKind]) -> Result<Self, AfdError> {
        Ok(Self::from_relation(read_csv_typed(reader, Some(kinds))?))
    }

    /// Applies a configuration. Must happen before the first streaming
    /// request (the session is built from it).
    ///
    /// # Errors
    /// [`AfdError::Config`] for zero threads, an out-of-schema shard key,
    /// or reconfiguration after streaming started.
    pub fn with_config(mut self, cfg: EngineConfig) -> Result<Self, AfdError> {
        if self.session.is_some() {
            return Err(AfdError::Config(
                "engine already streaming; configure before the first subscribe/delta".into(),
            ));
        }
        if cfg.threads == Some(0) {
            return Err(AfdError::Config(
                "threads must be at least 1 (or None for auto)".into(),
            ));
        }
        if cfg.shards == 0 {
            return Err(AfdError::Config(
                "shards must be at least 1 (0 workers cannot hold any rows)".into(),
            ));
        }
        if let Some(key) = &cfg.shard_key {
            if let Some(&a) = key.ids().iter().find(|a| a.index() >= self.base.arity()) {
                return Err(AfdError::Config(format!(
                    "shard key attribute {a} outside the schema"
                )));
            }
        }
        if let StreamBackend::Tcp(addrs) = &cfg.backend {
            validate_tcp_backend(addrs, cfg.shards)?;
        }
        cfg.recovery
            .validate()
            .map_err(|e| AfdError::Config(e.to_string()))?;
        self.cfg = cfg;
        Ok(self)
    }

    /// The schema of the engine's relation.
    pub fn schema(&self) -> &Schema {
        self.base.schema()
    }

    /// Live rows (the streaming session's count once streaming started).
    pub fn n_live(&self) -> usize {
        match &self.session {
            Some(s) => s.n_live(),
            None => self.base.n_rows(),
        }
    }

    /// Streaming shard count (validated ≥ 1 by
    /// [`AfdEngine::with_config`]).
    pub fn n_shards(&self) -> usize {
        self.cfg.shards
    }

    /// Live rows per streaming shard — how even the hash partitioning
    /// came out (a single entry before streaming starts).
    pub fn shard_sizes(&self) -> Vec<usize> {
        match &self.session {
            Some(s) => s.shard_sizes(),
            None => vec![self.base.n_rows()],
        }
    }

    /// The worker-thread count every request uses.
    ///
    /// # Errors
    /// [`AfdError::Config`] when `AFD_THREADS` is set but invalid.
    pub fn threads(&self) -> Result<usize, AfdError> {
        match self.cfg.threads {
            Some(n) => Ok(n),
            None => afd_parallel::try_max_threads().map_err(AfdError::Config),
        }
    }

    /// The current snapshot: the engine's rows as one compact relation,
    /// refreshed from the streaming session when deltas have been applied
    /// since the last batch request (a code-level merge of the shard
    /// columns — O(rows) code copies, no per-row `Value` round-trips).
    ///
    /// # Errors
    /// [`AfdError::Stream`] when a process-backed shard's snapshot
    /// transport fails.
    pub fn snapshot(&mut self) -> Result<&Relation, AfdError> {
        if !self.base_fresh {
            if let Some(session) = &mut self.session {
                self.base = session.snapshot()?;
            }
            self.base_fresh = true;
        }
        Ok(&self.base)
    }

    fn check_fd(&self, fd: &Fd) -> Result<(), AfdError> {
        let arity = self.base.arity();
        for &a in fd.lhs().ids().iter().chain(fd.rhs().ids()) {
            if a.index() >= arity {
                return Err(AfdError::UnknownAttr(a.0));
            }
        }
        Ok(())
    }

    fn measure(&self, name: &str) -> Result<Box<dyn Measure>, AfdError> {
        measure_by_name(name).ok_or_else(|| AfdError::UnknownMeasure(name.to_string()))
    }

    /// Scores one FD under one measure on the current snapshot.
    ///
    /// # Errors
    /// [`AfdError::UnknownMeasure`] / [`AfdError::UnknownAttr`].
    pub fn score(&mut self, req: &ScoreRequest) -> Result<ScoreResponse, AfdError> {
        let measure = self.measure(&req.measure)?;
        self.check_fd(&req.fd)?;
        let score = measure.score(self.snapshot()?, &req.fd);
        Ok(ScoreResponse {
            fd: req.fd.clone(),
            measure: measure.name(),
            score,
        })
    }

    /// Scores a candidate set under a measure set on the current
    /// snapshot, sharing encodings through the cache-backed batch path
    /// and fanning candidates across worker threads.
    ///
    /// # Errors
    /// [`AfdError::UnknownMeasure`] / [`AfdError::UnknownAttr`] /
    /// [`AfdError::Config`] (bad `AFD_THREADS`).
    pub fn matrix(&mut self, req: &MatrixRequest) -> Result<MatrixResponse, AfdError> {
        let measures: Vec<Box<dyn Measure>> = if req.measures.is_empty() {
            all_measures()
        } else {
            req.measures
                .iter()
                .map(|name| self.measure(name))
                .collect::<Result<_, _>>()?
        };
        if let CandidateSet::Fds(fds) = &req.candidates {
            for fd in fds {
                self.check_fd(fd)?;
            }
        }
        let threads = self.threads()?;
        let rel = self.snapshot()?;
        let candidates = match &req.candidates {
            CandidateSet::Violated => violated_candidates(rel),
            CandidateSet::AllLinear => linear_candidates(rel),
            CandidateSet::Fds(fds) => fds.clone(),
        };
        let scores = score_matrix(rel, &measures, &candidates, threads);
        Ok(MatrixResponse {
            measures: measures.iter().map(|m| m.name()).collect(),
            candidates,
            scores,
        })
    }

    /// Runs discovery on the current snapshot: the stripped
    /// level-synchronous parallel lattice search, whose first level is
    /// linear discovery (per-level node/byte statistics come back on
    /// [`DiscoverResponse::lattice`] when `max_lhs > 1`).
    ///
    /// # Errors
    /// [`AfdError::UnknownMeasure`] / [`AfdError::Config`] (epsilon
    /// outside `[0, 1)`, zero `max_lhs` — via the discovery crate's
    /// non-panicking `try_` entry — or bad `AFD_THREADS`).
    pub fn discover(&mut self, req: &DiscoverRequest) -> Result<DiscoverResponse, AfdError> {
        let measure = self.measure(&req.measure)?;
        // A bad configuration is a `Config` error whatever the engine's
        // state, so it is checked before the threads and the snapshot.
        let cfg = LatticeConfig {
            max_lhs: req.max_lhs,
            epsilon: req.epsilon,
        };
        cfg.validate()
            .map_err(|e| AfdError::Config(e.to_string()))?;
        let threads = self.threads()?;
        let rel = self.snapshot()?;
        let (found, stats) = try_discover_all_stats(rel, measure.as_ref(), cfg, threads)
            .map_err(|e| AfdError::Config(e.to_string()))?;
        Ok(DiscoverResponse {
            found,
            lattice: (req.max_lhs > 1).then_some(stats),
        })
    }

    fn ensure_session(&mut self, default_key: Option<&AttrSet>) -> Result<(), AfdError> {
        if self.session.is_some() {
            return Ok(());
        }
        let shards = self.n_shards();
        let key = match (&self.cfg.shard_key, default_key) {
            (Some(key), _) => key.clone(),
            (None, _) if shards == 1 => AttrSet::empty(),
            (None, Some(lhs)) => lhs.clone(),
            (None, None) => {
                return Err(AfdError::Config(
                    "sharded streaming needs a shard key: set EngineConfig::shard_key or \
                     subscribe a candidate first"
                        .into(),
                ))
            }
        };
        let schema = self.base.schema().clone();
        let backends: Vec<AnyShard> = match &self.cfg.backend {
            StreamBackend::InProcess => (0..shards)
                .map(|_| AnyShard::InProc(InProcShard::new(schema.clone())))
                .collect(),
            StreamBackend::Process(worker) => (0..shards)
                .map(|_| ProcessShard::spawn(worker, &schema).map(AnyShard::Process))
                .collect::<Result<_, _>>()?,
            StreamBackend::Tcp(addrs) => addrs
                .iter()
                .map(|addr| TcpShard::connect(addr, &schema).map(AnyShard::Tcp))
                .collect::<Result<_, _>>()?,
        };
        let mut session = ShardedSession::with_backends(schema, key, backends)?
            .with_recovery(self.cfg.recovery.clone())?
            .seeded(&self.base)?;
        if let Some(every) = self.cfg.compact_every {
            session = session.with_compaction_every(every);
        }
        self.session = Some(session);
        Ok(())
    }

    /// Persists the engine's streaming state as one framed, checksummed
    /// wire snapshot: the live rows in global order, the shard topology
    /// and every subscription. Feeding the bytes to
    /// [`AfdEngine::restore`] resumes the session exactly — bit-identical
    /// scores, same shard routing key, ids renumbered densely (as after a
    /// compaction).
    ///
    /// # Errors
    /// [`AfdError::Stream`] when a process-backed shard's snapshot
    /// transport fails.
    pub fn save(&mut self, _req: &SnapshotRequest) -> Result<SnapshotResponse, AfdError> {
        let subscriptions: Vec<Fd> = match &self.session {
            Some(s) => (0..s.n_candidates()).map(|c| s.fd(c).clone()).collect(),
            None => Vec::new(),
        };
        let (shard_key, n_shards) = match &self.session {
            Some(s) => (s.router().shard_key().clone(), s.n_shards() as u32),
            None => (
                self.cfg.shard_key.clone().unwrap_or_else(AttrSet::empty),
                self.n_shards() as u32,
            ),
        };
        let compact_every = self.cfg.compact_every;
        let rows = self.snapshot()?.clone();
        let n_live = rows.n_rows();
        let candidates = subscriptions.len();
        let snap = SessionSnapshot {
            rows,
            shard_key,
            n_shards,
            subscriptions,
            compact_every,
        };
        Ok(SnapshotResponse {
            bytes: snap.to_bytes()?,
            n_live,
            candidates,
        })
    }

    /// Rebuilds an engine from a wire snapshot produced by
    /// [`AfdEngine::save`] (or `afd save`), re-subscribing every saved
    /// candidate. Scores after restore are **bit-identical** to the
    /// saved engine's (score reads are bitwise-deterministic functions
    /// of the live rows). Shards run on `backend` — restoring an
    /// in-process session into process workers (or back) is exact.
    ///
    /// # Errors
    /// [`AfdError::Wire`] on corrupt/truncated/mismatched snapshot
    /// bytes; [`AfdError::Config`] / [`AfdError::Stream`] when the
    /// snapshot's topology cannot be rebuilt.
    pub fn restore_with_backend(
        req: &RestoreRequest,
        backend: StreamBackend,
    ) -> Result<AfdEngine, AfdError> {
        let snap = SessionSnapshot::from_bytes(&req.bytes)?;
        let mut engine = AfdEngine::from_relation(snap.rows).with_config(EngineConfig {
            shards: snap.n_shards as usize,
            shard_key: if snap.shard_key.is_empty() {
                None
            } else {
                Some(snap.shard_key)
            },
            compact_every: snap.compact_every,
            backend,
            ..EngineConfig::default()
        })?;
        for fd in snap.subscriptions {
            engine.subscribe(&SubscribeRequest::new(fd))?;
        }
        Ok(engine)
    }

    /// As [`AfdEngine::restore_with_backend`] with in-process shards.
    ///
    /// # Errors
    /// As [`AfdEngine::restore_with_backend`].
    pub fn restore(req: &RestoreRequest) -> Result<AfdEngine, AfdError> {
        Self::restore_with_backend(req, StreamBackend::InProcess)
    }

    /// Subscribes a candidate FD for streaming score maintenance,
    /// creating the (sharded) session on first use. With sharding and no
    /// configured shard key, the first subscription's LHS becomes the
    /// key.
    ///
    /// # Errors
    /// [`AfdError::UnknownAttr`]; [`AfdError::Stream`] when the FD's LHS
    /// does not contain the shard key.
    pub fn subscribe(&mut self, req: &SubscribeRequest) -> Result<SubscribeResponse, AfdError> {
        self.check_fd(&req.fd)?;
        self.ensure_session(Some(req.fd.lhs()))?;
        let session = self.session.as_mut().expect("ensured above");
        let candidate = session.subscribe(req.fd.clone())?;
        Ok(SubscribeResponse {
            candidate,
            scores: session.scores(candidate),
        })
    }

    /// Applies one row delta, fanning it across the session shards, and
    /// reports every subscribed candidate's score movement.
    ///
    /// # Errors
    /// [`AfdError::Stream`] on invalid deltas (atomic: the engine is
    /// unchanged) or compaction divergence; [`AfdError::Config`] when
    /// sharding is configured without a shard key and nothing was
    /// subscribed yet.
    pub fn delta(&mut self, req: &DeltaRequest) -> Result<DeltaResponse, AfdError> {
        self.ensure_session(None)?;
        let session = self.session.as_mut().expect("ensured above");
        let diffs = session.apply(&req.delta)?;
        self.base_fresh = false;
        Ok(DeltaResponse {
            diffs,
            n_live: session.n_live(),
        })
    }

    /// Number of subscribed streaming candidates (0 before streaming
    /// starts).
    pub fn n_candidates(&self) -> usize {
        self.session
            .as_ref()
            .map_or(0, ShardedSession::n_candidates)
    }

    /// The current delta-maintained scores of a subscribed candidate.
    ///
    /// # Errors
    /// [`AfdError::NoSuchCandidate`].
    pub fn scores(&self, candidate: usize) -> Result<StreamScores, AfdError> {
        match &self.session {
            Some(s) if candidate < s.n_candidates() => Ok(s.scores(candidate)),
            _ => Err(AfdError::NoSuchCandidate(candidate)),
        }
    }

    /// The FD of a subscribed candidate.
    ///
    /// # Errors
    /// [`AfdError::NoSuchCandidate`].
    pub fn candidate_fd(&self, candidate: usize) -> Result<&Fd, AfdError> {
        match &self.session {
            Some(s) if candidate < s.n_candidates() => Ok(s.fd(candidate)),
            _ => Err(AfdError::NoSuchCandidate(candidate)),
        }
    }

    /// Compacts the streaming session: every shard verifies its
    /// incremental PLIs, tables and scores against a batch rebuild of its
    /// slice of the snapshot, then tombstones are dropped. A no-op
    /// (trivial report) before streaming starts.
    ///
    /// # Errors
    /// [`AfdError::Stream`] ([`afd_stream::StreamError::Diverged`]) when
    /// a shard's incremental state disagrees with the batch kernels.
    pub fn compact(&mut self) -> Result<CompactionReport, AfdError> {
        match &mut self.session {
            Some(session) => {
                // Compaction preserves the live rows and their global
                // order, so a cached snapshot stays valid.
                Ok(session.compact()?)
            }
            None => Ok(CompactionReport {
                rows_dropped: 0,
                candidates_checked: 0,
                n_live: self.base.n_rows(),
            }),
        }
    }

    /// What supervision did on behalf of the streaming session: worker
    /// respawns and replayed deltas per shard. All-zero (or empty before
    /// streaming starts) when no fault was ever observed.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.session
            .as_ref()
            .map(ShardedSession::recovery_report)
            .unwrap_or_default()
    }

    /// Ends the engine gracefully: every shard worker is asked to exit
    /// and the report names the stragglers that did not acknowledge
    /// within the request deadline (their processes are still killed on
    /// drop). A trivial clean report when streaming never started.
    pub fn shutdown(mut self) -> ShutdownReport {
        match self.session.take() {
            Some(session) => session.shutdown(),
            None => ShutdownReport::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::CandidateSet;
    use afd_relation::{AttrId, RelationError, Value};
    use afd_stream::{RowDelta, StreamError};

    fn noisy() -> Relation {
        Relation::from_pairs((0..64).map(|i| (i % 8, if i == 5 { 99 } else { (i % 8) * 3 })))
    }

    fn tcp_cfg(addrs: &[&str], shards: usize) -> EngineConfig {
        EngineConfig {
            shards,
            backend: StreamBackend::Tcp(addrs.iter().map(|s| s.to_string()).collect()),
            ..EngineConfig::default()
        }
    }

    #[test]
    fn tcp_backend_addresses_are_validated_at_config_time() {
        // Well-formed: one distinct non-zero-port literal per shard.
        assert!(AfdEngine::from_relation(noisy())
            .with_config(tcp_cfg(&["127.0.0.1:4100", "127.0.0.1:4101"], 2))
            .is_ok());
        // Every malformed topology is a typed Config error naming the
        // problem, matching the `shards: 0` precedent.
        let cases: &[(EngineConfig, &str)] = &[
            (tcp_cfg(&[], 1), "at least one"),
            (tcp_cfg(&["127.0.0.1:4100"], 2), "per shard"),
            (tcp_cfg(&["not-an-address"], 1), "bad socket address"),
            (tcp_cfg(&["127.0.0.1"], 1), "bad socket address"),
            (tcp_cfg(&["127.0.0.1:0"], 1), "port 0"),
            (
                tcp_cfg(&["127.0.0.1:4100", "127.0.0.1:4100"], 2),
                "duplicate",
            ),
        ];
        for (cfg, needle) in cases {
            match AfdEngine::from_relation(noisy()).with_config(cfg.clone()) {
                Err(AfdError::Config(msg)) => {
                    assert!(msg.contains(needle), "{msg:?} should contain {needle:?}")
                }
                Err(other) => panic!("expected Config error for {cfg:?}, got {other:?}"),
                Ok(_) => panic!("expected Config error for {cfg:?}, got Ok"),
            }
        }
    }

    #[test]
    fn score_request_matches_measure_trait() {
        let rel = noisy();
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let want = afd_core::MuPlus.score(&rel, &fd);
        let mut engine = AfdEngine::from_relation(rel);
        let resp = engine.score(&ScoreRequest::new(fd, "MU+")).unwrap();
        assert_eq!(resp.score, want);
        assert_eq!(resp.measure, "mu+");
    }

    #[test]
    fn unknown_measure_and_attr_are_typed_errors() {
        let mut engine = AfdEngine::from_relation(noisy());
        assert!(matches!(
            engine.score(&ScoreRequest::new(Fd::linear(AttrId(0), AttrId(1)), "nope")),
            Err(AfdError::UnknownMeasure(_))
        ));
        assert!(matches!(
            engine.score(&ScoreRequest::new(Fd::linear(AttrId(0), AttrId(9)), "mu+")),
            Err(AfdError::UnknownAttr(9))
        ));
    }

    #[test]
    fn matrix_covers_all_measures_and_violated_candidates() {
        let mut engine = AfdEngine::from_relation(noisy());
        let resp = engine.matrix(&MatrixRequest::default()).unwrap();
        assert_eq!(resp.measures.len(), 14);
        assert_eq!(resp.candidates.len(), 1); // only X->Y is violated (Y determines X here)
        assert_eq!(resp.scores.len(), 14);
        let mu = resp.score("mu+", 0).unwrap();
        assert!((0.0..=1.0).contains(&mu));
        assert!(resp.score("mu+", 99).is_none());
        assert!(resp.score("bogus", 0).is_none());
    }

    #[test]
    fn matrix_with_explicit_measures_and_candidates() {
        let mut engine = AfdEngine::from_relation(noisy());
        let fd = Fd::linear(AttrId(1), AttrId(0));
        let resp = engine
            .matrix(&MatrixRequest {
                measures: vec!["g3".into(), "tau".into()],
                candidates: CandidateSet::Fds(vec![fd.clone()]),
            })
            .unwrap();
        assert_eq!(resp.measures, vec!["g3", "tau"]);
        assert_eq!(resp.candidates, vec![fd]);
        assert_eq!(resp.scores.len(), 2);
        assert_eq!(resp.scores[0].len(), 1);
    }

    #[test]
    fn discover_linear_and_lattice() {
        let mut engine = AfdEngine::from_relation(noisy());
        let linear = engine
            .discover(&DiscoverRequest {
                measure: "mu+".into(),
                epsilon: 0.5,
                max_lhs: 1,
            })
            .unwrap();
        assert!(!linear.found.is_empty());
        assert!(linear.found.iter().all(|d| d.score >= 0.5));
        let lattice = engine
            .discover(&DiscoverRequest {
                measure: "g3'".into(),
                epsilon: 0.5,
                max_lhs: 2,
            })
            .unwrap();
        assert!(lattice.found.len() >= linear.found.len().min(1));
        // Lattice runs surface per-level search statistics; the linear
        // path has none.
        assert!(linear.lattice.is_none());
        let stats = lattice.lattice.expect("lattice stats");
        // Two attributes: the per-RHS frontier empties after level 1.
        assert!(!stats.levels.is_empty() && stats.levels.len() <= 2);
        assert_eq!(
            stats.levels.iter().map(|l| l.emitted).sum::<usize>(),
            lattice.found.len()
        );
        // Bad epsilon / max_lhs are errors, not panics — surfaced from
        // the discovery crate's non-panicking `try_` entry.
        assert!(matches!(
            engine.discover(&DiscoverRequest {
                measure: "mu+".into(),
                epsilon: 1.5,
                max_lhs: 1,
            }),
            Err(AfdError::Config(_))
        ));
        assert!(matches!(
            engine.discover(&DiscoverRequest {
                measure: "mu+".into(),
                epsilon: 1.5,
                max_lhs: 3,
            }),
            Err(AfdError::Config(_))
        ));
        assert!(matches!(
            engine.discover(&DiscoverRequest {
                measure: "mu+".into(),
                epsilon: 0.5,
                max_lhs: 0,
            }),
            Err(AfdError::Config(_))
        ));
    }

    #[test]
    fn discovery_defaults_cannot_silently_drift() {
        // The two discovery front doors share their default ε through
        // `afd_discovery::DEFAULT_EPSILON`; `max_lhs` intentionally
        // differs (engine default = linear discovery, lattice
        // preset = non-linear depth 3) — if either side changes, this
        // test forces the divergence to be a conscious decision.
        let req = DiscoverRequest::default();
        let cfg = LatticeConfig::default();
        assert_eq!(req.epsilon, cfg.epsilon);
        assert_eq!(req.epsilon, afd_discovery::DEFAULT_EPSILON);
        assert_eq!(req.max_lhs, 1, "engine defaults to linear discovery");
        assert_eq!(cfg.max_lhs, 3, "lattice preset defaults to depth 3");
    }

    #[test]
    fn streaming_round_trip_matches_batch() {
        let mut engine = AfdEngine::from_relation(noisy());
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let sub = engine
            .subscribe(&SubscribeRequest::new(fd.clone()))
            .unwrap();
        let resp = engine
            .delta(&DeltaRequest::new(RowDelta::insert_only([vec![
                Value::Int(0),
                Value::Int(77),
            ]])))
            .unwrap();
        assert_eq!(resp.n_live, 65);
        assert!(resp.diffs[0].changed(1e-12));
        // Batch request after the delta sees the streamed rows.
        let score = engine
            .score(&ScoreRequest::new(fd.clone(), "g3"))
            .unwrap()
            .score;
        let stream_g3 = engine.scores(sub.candidate).unwrap().g3;
        assert_eq!(score.to_bits(), stream_g3.to_bits());
        // Verified compaction passes.
        let report = engine.compact().unwrap();
        assert_eq!(report.candidates_checked, 1);
        assert_eq!(report.n_live, 65);
    }

    #[test]
    fn sharded_streaming_via_config() {
        let base = noisy();
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let mut sharded = AfdEngine::from_relation(base.clone())
            .with_config(EngineConfig {
                shards: 3,
                threads: Some(2),
                ..EngineConfig::default()
            })
            .unwrap();
        let mut single = AfdEngine::from_relation(base);
        let cs = sharded
            .subscribe(&SubscribeRequest::new(fd.clone()))
            .unwrap();
        let c1 = single
            .subscribe(&SubscribeRequest::new(fd.clone()))
            .unwrap();
        let delta = RowDelta {
            inserts: vec![vec![Value::Int(3), Value::Int(1)]],
            deletes: vec![5, 17],
        };
        sharded.delta(&DeltaRequest::new(delta.clone())).unwrap();
        single.delta(&DeltaRequest::new(delta)).unwrap();
        let (a, b) = (
            sharded.scores(cs.candidate).unwrap(),
            single.scores(c1.candidate).unwrap(),
        );
        assert!(a.bits_eq(&b));
        // LHS without the shard key is rejected through the unified error.
        assert!(matches!(
            sharded.subscribe(&SubscribeRequest::new(Fd::linear(AttrId(1), AttrId(0)))),
            Err(AfdError::Stream(StreamError::ShardConfig(_)))
        ));
    }

    #[test]
    fn csv_ingest_errors_are_typed() {
        let err = AfdEngine::from_csv("a,b\n1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, AfdError::Relation(RelationError::Csv { .. })));
        let kinds = [CsvKind::Int, CsvKind::Int];
        let err = AfdEngine::from_csv_typed("a,b\n1,x\n".as_bytes(), &kinds).unwrap_err();
        match err {
            AfdError::Relation(RelationError::Csv { line, msg }) => {
                assert_eq!(line, 2);
                assert!(msg.contains("column `b`"), "{msg}");
            }
            other => panic!("expected Csv error, got {other:?}"),
        }
        let ok = AfdEngine::from_csv("a,b\n1,10\n1,10\n2,20\n".as_bytes()).unwrap();
        assert_eq!(ok.n_live(), 3);
    }

    #[test]
    fn config_validation() {
        assert!(matches!(
            AfdEngine::from_relation(noisy()).with_config(EngineConfig {
                threads: Some(0),
                ..EngineConfig::default()
            }),
            Err(AfdError::Config(_))
        ));
        assert!(matches!(
            AfdEngine::from_relation(noisy()).with_config(EngineConfig {
                shard_key: Some(AttrSet::single(AttrId(9))),
                ..EngineConfig::default()
            }),
            Err(AfdError::Config(_))
        ));
        // Sharding without a key and without a subscription: deltas are
        // rejected with guidance instead of misrouted.
        let mut engine = AfdEngine::from_relation(noisy())
            .with_config(EngineConfig {
                shards: 2,
                ..EngineConfig::default()
            })
            .unwrap();
        assert!(matches!(
            engine.delta(&DeltaRequest::new(RowDelta::delete_only([0]))),
            Err(AfdError::Config(_))
        ));
    }

    #[test]
    fn zero_shards_is_a_config_error_not_a_silent_fallback() {
        // `shards: 0` used to be quietly promoted to 1; now it is a
        // typed configuration error.
        assert!(matches!(
            AfdEngine::from_relation(noisy()).with_config(EngineConfig {
                shards: 0,
                ..EngineConfig::default()
            }),
            Err(AfdError::Config(_))
        ));
        // The default remains a single unsharded session.
        assert_eq!(EngineConfig::default().shards, 1);
        assert_eq!(AfdEngine::from_relation(noisy()).n_shards(), 1);
    }

    #[test]
    fn zero_recovery_knobs_are_config_errors() {
        // Like `shards: 0`: a zero checkpoint interval or retry budget
        // would silently disable recovery semantics, so the boundary
        // rejects them loudly.
        let zero_ckpt = EngineConfig {
            recovery: afd_stream::RecoveryConfig {
                checkpoint_every: 0,
                ..Default::default()
            },
            ..EngineConfig::default()
        };
        assert!(matches!(
            AfdEngine::from_relation(noisy()).with_config(zero_ckpt),
            Err(AfdError::Config(msg)) if msg.contains("checkpoint")
        ));
        let zero_budget = EngineConfig {
            recovery: afd_stream::RecoveryConfig {
                retry_budget: 0,
                ..Default::default()
            },
            ..EngineConfig::default()
        };
        assert!(matches!(
            AfdEngine::from_relation(noisy()).with_config(zero_budget),
            Err(AfdError::Config(msg)) if msg.contains("retry budget")
        ));
        let zero_deadline = EngineConfig {
            recovery: afd_stream::RecoveryConfig {
                request_timeout_ms: 0,
                ..Default::default()
            },
            ..EngineConfig::default()
        };
        assert!(matches!(
            AfdEngine::from_relation(noisy()).with_config(zero_deadline),
            Err(AfdError::Config(msg)) if msg.contains("timeout")
        ));
    }

    #[test]
    fn recovery_report_and_shutdown_without_faults() {
        let mut engine = AfdEngine::from_relation(noisy())
            .with_config(EngineConfig {
                shards: 2,
                shard_key: Some(AttrSet::single(AttrId(0))),
                ..EngineConfig::default()
            })
            .unwrap();
        // Before streaming: empty report, trivially clean shutdown.
        assert_eq!(engine.recovery_report().total_respawns(), 0);
        engine
            .subscribe(&SubscribeRequest::new(Fd::linear(AttrId(0), AttrId(1))))
            .unwrap();
        engine
            .delta(&DeltaRequest::new(RowDelta::insert_only([vec![
                Value::Int(1),
                Value::Int(2),
            ]])))
            .unwrap();
        let report = engine.recovery_report();
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.total_respawns(), 0);
        assert_eq!(report.total_deltas_replayed(), 0);
        assert!(engine.shutdown().clean());
    }

    #[test]
    fn save_restore_round_trip_is_bit_exact() {
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let mut engine = AfdEngine::from_relation(noisy())
            .with_config(EngineConfig {
                shards: 2,
                shard_key: Some(AttrSet::single(AttrId(0))),
                ..EngineConfig::default()
            })
            .unwrap();
        let sub = engine
            .subscribe(&SubscribeRequest::new(fd.clone()))
            .unwrap();
        engine
            .delta(&DeltaRequest::new(RowDelta {
                inserts: vec![vec![Value::Int(3), Value::Int(1)]],
                deletes: vec![5, 17],
            }))
            .unwrap();
        let saved_scores = engine.scores(sub.candidate).unwrap();
        let snap = engine.save(&SnapshotRequest::default()).unwrap();
        assert_eq!(snap.n_live, 63);
        assert_eq!(snap.candidates, 1);

        let restored = AfdEngine::restore(&RestoreRequest::new(snap.bytes.clone())).unwrap();
        assert_eq!(restored.n_live(), 63);
        assert_eq!(restored.n_shards(), 2);
        assert_eq!(restored.candidate_fd(0).unwrap(), &fd);
        assert!(restored.scores(0).unwrap().bits_eq(&saved_scores));

        // The restored session keeps evolving identically to the
        // original: same delta, bit-identical scores.
        let delta = RowDelta {
            inserts: vec![vec![Value::Int(0), Value::Int(9)]],
            deletes: vec![0],
        };
        engine.delta(&DeltaRequest::new(delta.clone())).unwrap();
        // The original's ids pre-date the save; re-save/restore aligns
        // them (restore renumbers densely like a compaction), so compare
        // against a second restore of the evolved engine.
        let evolved = engine.save(&SnapshotRequest::default()).unwrap();
        let evolved = AfdEngine::restore(&RestoreRequest::new(evolved.bytes)).unwrap();
        let mut replay = AfdEngine::restore(&RestoreRequest::new(snap.bytes)).unwrap();
        replay.delta(&DeltaRequest::new(delta)).unwrap();
        assert!(replay
            .scores(0)
            .unwrap()
            .bits_eq(&evolved.scores(0).unwrap()));

        // Corrupt snapshots surface as typed wire errors.
        let mut corrupt = engine.save(&SnapshotRequest::default()).unwrap().bytes;
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x08;
        assert!(matches!(
            AfdEngine::restore(&RestoreRequest::new(corrupt)),
            Err(AfdError::Wire(_))
        ));
    }

    #[test]
    fn save_before_streaming_captures_the_base_relation() {
        let mut engine = AfdEngine::from_relation(noisy());
        let snap = engine.save(&SnapshotRequest::default()).unwrap();
        assert_eq!(snap.n_live, 64);
        assert_eq!(snap.candidates, 0);
        let mut restored = AfdEngine::restore(&RestoreRequest::new(snap.bytes)).unwrap();
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let a = engine
            .score(&ScoreRequest::new(fd.clone(), "mu+"))
            .unwrap()
            .score;
        let b = restored.score(&ScoreRequest::new(fd, "mu+")).unwrap().score;
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn scores_without_session_is_typed_error() {
        let engine = AfdEngine::from_relation(noisy());
        assert!(matches!(
            engine.scores(0),
            Err(AfdError::NoSuchCandidate(0))
        ));
    }
}
