//! Sharded streaming: hash-partitioned [`StreamSession`] shards behind a
//! single-session facade.
//!
//! The ROADMAP scale-out item: the histogram score reads of [`IncTable`]
//! are order-independent, so per-shard tables can be merged by summing
//! counts and histograms. The partitioning invariant that makes the merge
//! *correct* is that every X-group of every tracked candidate lives
//! wholly inside one shard — guaranteed by routing each row on the hash
//! of its **shard key** values, where the shard key is a subset of every
//! subscribed FD's LHS (equal X values ⇒ equal key values ⇒ same shard).
//! The Y margins are the one aggregate that spans shards; the coordinator
//! owns a per-candidate global Y-id space and keeps the merged column
//! totals, their count histogram and `Σ b²` current through it, re-summing
//! only the columns each apply touched (the mergeable-summary pattern:
//! every margin is an integer, so the fold is exact).
//!
//! * [`DeltaRouter`] — splits a global [`RowDelta`] into per-shard deltas,
//!   owning the global-row-id ⇄ (shard, local-row-id) placement map.
//! * [`ShardedSession`] — the [`StreamSession`] API over N shards:
//!   `apply` sends every shard its slice before awaiting any answer, then
//!   folds the touched Y columns into the merged margins, so its own cost
//!   grows with the delta, not with the shards' state. Score reads sum
//!   the per-shard X-side aggregates with the folded Y margins
//!   **bit-exactly** — a `ShardedSession` and a single `StreamSession`
//!   over the same deltas return bit-identical `f64`s (pinned by
//!   proptests for N ∈ {1, 2, 3, 7}, and in debug builds against
//!   [`IncTable::merged_scores`] at every read).
//!
//! Compaction verification runs per shard against that shard's slice of
//! the snapshot, exactly as the ROADMAP prescribed.

use std::collections::HashMap;
use std::time::Duration;

use afd_relation::{AttrId, AttrSet, Column, Dictionary, Fd, Relation, Schema, Value, NULL_CODE};

use crate::backend::{InProcShard, ProcessShard, ShardBackend, WorkerCommand};
use crate::delta::{RowDelta, RowId, StreamError};
use crate::recovery::{RecoveryConfig, RecoveryReport, ShardRecoveryStats, ShutdownReport};
use crate::session::{CompactionReport, ScoreDiff};
use crate::table::{FoldedYMargins, IncTable, StreamScores};

/// Stable 64-bit FNV-1a over a row's shard-key values. Deterministic
/// across processes (unlike `DefaultHasher` guarantees), so a persisted
/// shard layout can be re-derived.
fn key_hash(values: impl Iterator<Item = Value>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    };
    for v in values {
        match v {
            Value::Null => eat(0),
            Value::Int(i) => {
                eat(1);
                i.to_le_bytes().into_iter().for_each(&mut eat);
            }
            Value::Float(f) => {
                eat(2);
                f.get()
                    .to_bits()
                    .to_le_bytes()
                    .into_iter()
                    .for_each(&mut eat);
            }
            Value::Str(s) => {
                eat(3);
                s.bytes().for_each(&mut eat);
                eat(0xff);
            }
        }
    }
    h
}

/// Hash-partitions row deltas across `n_shards` by shard-key value and
/// owns the global ⇄ per-shard row-id translation.
///
/// Global row ids follow [`StreamSession`] semantics exactly: assigned
/// densely in arrival order, tombstoned by delete, renumbered by
/// [`DeltaRouter::compact`].
#[derive(Debug, Clone)]
pub struct DeltaRouter {
    key: AttrSet,
    arity: usize,
    n_shards: usize,
    /// Global slot -> (shard, shard-local slot).
    placement: Vec<(u32, RowId)>,
    /// Global slot liveness (mirrors the shards' tombstones).
    live: Vec<bool>,
    n_live: usize,
    /// Next local slot per shard.
    shard_slots: Vec<RowId>,
}

impl DeltaRouter {
    /// A router over `n_shards` shards keyed by `key` (attribute ids must
    /// lie inside a schema of `arity` attributes).
    ///
    /// # Errors
    /// [`StreamError::ShardConfig`] for zero shards or an out-of-schema
    /// key attribute.
    pub fn new(key: AttrSet, arity: usize, n_shards: usize) -> Result<Self, StreamError> {
        if n_shards == 0 {
            return Err(StreamError::ShardConfig(
                "shard count must be at least 1".into(),
            ));
        }
        if let Some(&a) = key.ids().iter().find(|a| a.index() >= arity) {
            return Err(StreamError::ShardConfig(format!(
                "shard key attribute {a} outside the {arity}-attribute schema"
            )));
        }
        Ok(DeltaRouter {
            key,
            arity,
            n_shards,
            placement: Vec::new(),
            live: Vec::new(),
            n_live: 0,
            shard_slots: vec![0; n_shards],
        })
    }

    /// The routing key.
    pub fn shard_key(&self) -> &AttrSet {
        &self.key
    }

    /// Number of shards routed across.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Global slots assigned so far (tombstones included).
    pub fn n_slots(&self) -> usize {
        self.placement.len()
    }

    /// Live global rows.
    pub fn n_live(&self) -> usize {
        self.n_live
    }

    /// The (shard, local slot) placement of live global row `id`.
    pub fn placement_of(&self, id: RowId) -> Option<(u32, RowId)> {
        (self.live.get(id as usize) == Some(&true)).then(|| self.placement[id as usize])
    }

    /// Liveness of every shard's local slots: per shard, by local slot.
    /// A shard's slots are numbered in global arrival order, so each
    /// list is the global liveness restricted to that shard.
    pub(crate) fn slot_liveness(&self) -> Vec<Vec<bool>> {
        let mut out: Vec<Vec<bool>> = self
            .shard_slots
            .iter()
            .map(|&n| Vec::with_capacity(n as usize))
            .collect();
        for (&(shard, _), &live) in self.placement.iter().zip(&self.live) {
            out[shard as usize].push(live);
        }
        out
    }

    /// The shard a row with these values routes to.
    pub fn shard_of_row(&self, row: &[Value]) -> usize {
        if self.n_shards == 1 {
            return 0;
        }
        let h = key_hash(self.key.ids().iter().map(|a| row[a.index()].clone()));
        (h % self.n_shards as u64) as usize
    }

    /// Splits one global delta into per-shard deltas, assigning global
    /// ids to the inserts and translating delete ids to shard-local ones.
    /// Validation happens up front — on `Err` the router is unchanged
    /// (the same atomicity contract as [`StreamSession::apply`]).
    ///
    /// # Errors
    /// [`StreamError::Arity`] / [`StreamError::UnknownRow`] /
    /// [`StreamError::AlreadyDeleted`], exactly as the unsharded session
    /// would report them.
    pub fn route(&mut self, delta: &RowDelta) -> Result<Vec<RowDelta>, StreamError> {
        let mut seen: std::collections::HashSet<RowId> =
            std::collections::HashSet::with_capacity(delta.deletes.len());
        for &id in &delta.deletes {
            if (id as usize) >= self.placement.len() {
                return Err(StreamError::UnknownRow(id));
            }
            if !self.live[id as usize] || !seen.insert(id) {
                return Err(StreamError::AlreadyDeleted(id));
            }
        }
        for row in &delta.inserts {
            if row.len() != self.arity {
                return Err(StreamError::Arity {
                    expected: self.arity,
                    got: row.len(),
                });
            }
        }
        let mut locals = vec![RowDelta::new(); self.n_shards];
        for &id in &delta.deletes {
            let (shard, local) = self.placement[id as usize];
            self.live[id as usize] = false;
            self.n_live -= 1;
            locals[shard as usize].deletes.push(local);
        }
        for row in &delta.inserts {
            let shard = self.shard_of_row(row);
            let local = self.shard_slots[shard];
            self.shard_slots[shard] += 1;
            self.placement.push((shard as u32, local));
            self.live.push(true);
            self.n_live += 1;
            locals[shard].inserts.push(row.clone());
        }
        Ok(locals)
    }

    /// Renumbers after the shards compacted: tombstoned slots vanish and
    /// both global and shard-local ids become dense again (in arrival
    /// order, matching [`StreamSession::compact`]'s renumbering).
    pub fn compact(&mut self) {
        let mut next_local = vec![0 as RowId; self.n_shards];
        let mut placement = Vec::with_capacity(self.n_live);
        for (slot, &(shard, _)) in self.placement.iter().enumerate() {
            if self.live[slot] {
                placement.push((shard, next_local[shard as usize]));
                next_local[shard as usize] += 1;
            }
        }
        self.placement = placement;
        self.live = vec![true; self.n_live];
        self.shard_slots = next_local;
    }
}

/// Per-shard supervision state: what it takes to bring a crashed worker
/// back at the router's own local row ids.
#[derive(Debug, Clone)]
struct ShardSupervisor {
    /// The shard's live rows at the last checkpoint, in local slot order.
    ckpt: Relation,
    /// The router's liveness of the shard's local slots at the last
    /// checkpoint (one entry per slot, tombstones included).
    ckpt_live: Vec<bool>,
    /// The routed slices applied since the checkpoint, in order (empty
    /// slices skipped) — the replay tail.
    log: Vec<RowDelta>,
    stats: ShardRecoveryStats,
}

/// Marks a global Y id a shard holds no side id for.
const ABSENT: u32 = u32::MAX;

/// Per-candidate coordinator state: the global Y-id space shared by all
/// shards and the merged Y margins kept through it (column totals are
/// the one aggregate that spans shards). Both are kept only with more
/// than one shard.
#[derive(Debug, Clone)]
struct ShardedCandidate {
    fd: Fd,
    /// Y value tuple -> global Y id.
    y_global: HashMap<Vec<Value>, u32>,
    /// Per shard: local Y side id -> global Y id.
    y_remap: Vec<Vec<u32>>,
    /// Per shard: global Y id -> local Y side id ([`ABSENT`] where the
    /// shard never assigned one).
    y_local: Vec<Vec<u32>>,
    /// Global column totals, their count histogram and `Σ b²`.
    margins: FoldedYMargins,
    last: StreamScores,
}

/// N hash-partitioned shards behind the single-session API: same
/// `subscribe`/`apply`/`scores` surface, same row-id semantics,
/// bit-identical score reads — generic over **where the shards live**
/// ([`ShardBackend`]).
///
/// * `ShardedSession<InProcShard>` (the default) keeps every shard as a
///   [`crate::StreamSession`] in this process — the original topology.
/// * `ShardedSession<ProcessShard>` (via [`ShardedSession::spawn`])
///   drives one `afd shard-worker` child process per shard over the
///   checksummed `afd-wire` stdin/stdout protocol: the coordinator
///   routes encoded delta slices out, writes each worker's answer (a
///   patch of the [`IncTable`] groups, columns and histograms the slice
///   changed) into its copy of that shard's state, and folds the patched
///   Y columns into its merged margins — **bit-identical** to the
///   in-process path (every maintained aggregate is an integer; the
///   codec is exact).
///
/// `apply` routes the delta ([`DeltaRouter`]), sends every shard its
/// slice ([`ShardBackend::send_apply`]) before receiving any answer
/// ([`ShardBackend::recv_apply`]), with no threads: remote workers apply
/// concurrently, in-process shards one after another. It then re-sums
/// each Y column a shard's apply touched
/// ([`ShardBackend::touched_y_ids`]) over the shards and moves it in the
/// candidate's folded margins, and reads the scores from those margins
/// plus the shards' summed X-side aggregates. The coordinator's cost is
/// thus O(delta), not O(K_Y); the margins are rebuilt whole only where
/// the Y-id space is (subscribe, compaction, recovery). Each shard's
/// apply touches only its own O(delta-slice) state, so the *work per
/// shard* shrinks roughly 1/N — the quantity `record_shard` benchmarks
/// (`record_wire` and `record_net` additionally record the
/// process-backend and TCP transport overhead).
#[derive(Debug, Clone)]
pub struct ShardedSession<B: ShardBackend = InProcShard> {
    schema: Schema,
    shards: Vec<B>,
    router: DeltaRouter,
    candidates: Vec<ShardedCandidate>,
    deltas_applied: u64,
    compact_every: Option<u64>,
    /// Recovery knobs (checkpoint cadence, retry budget, deadlines).
    recovery: RecoveryConfig,
    /// One supervisor per shard when every backend
    /// [`ShardBackend::supports_recovery`] — `None` means transport
    /// failures poison immediately (the pre-recovery behaviour, still
    /// the fate of non-respawnable backends).
    supervisors: Option<Vec<ShardSupervisor>>,
    /// Why the session refuses further mutation, when it does: a shard
    /// failed and could not be recovered (retry budget exhausted, or a
    /// non-recoverable backend).
    ///
    /// Score reads keep serving the last consistent (pre-failure) state;
    /// `apply`/`compact` return [`StreamError::Poisoned`] instead of
    /// corrupting rows.
    poisoned: Option<String>,
}

impl ShardedSession<InProcShard> {
    /// An empty in-process sharded session over `schema`, routing on
    /// `shard_key`.
    ///
    /// With `n_shards == 1` the key is irrelevant (everything lands in
    /// shard 0) and any FD may subscribe; with more shards every
    /// subscribed FD's LHS must contain the key.
    ///
    /// # Errors
    /// [`StreamError::ShardConfig`] for zero shards or an out-of-schema
    /// key attribute.
    pub fn new(schema: Schema, shard_key: AttrSet, n_shards: usize) -> Result<Self, StreamError> {
        let shards = (0..n_shards)
            .map(|_| InProcShard::new(schema.clone()))
            .collect();
        Self::with_backends(schema, shard_key, shards)
    }

    /// An in-process sharded session whose rows start as `rel` (all
    /// live), routed to their shards in row order.
    ///
    /// # Errors
    /// As [`ShardedSession::new`].
    pub fn from_relation(
        rel: Relation,
        shard_key: AttrSet,
        n_shards: usize,
    ) -> Result<Self, StreamError> {
        Self::new(rel.schema().clone(), shard_key, n_shards)?.seeded(&rel)
    }
}

impl ShardedSession<ProcessShard> {
    /// An empty **process-backed** sharded session: spawns one
    /// `afd shard-worker` child per shard via `worker` and initialises
    /// each over the wire.
    ///
    /// # Errors
    /// [`StreamError::ShardConfig`] for zero workers or an out-of-schema
    /// key attribute; [`StreamError::Transport`] when a worker cannot be
    /// spawned or fails its Init handshake.
    pub fn spawn(
        schema: Schema,
        shard_key: AttrSet,
        n_shards: usize,
        worker: &WorkerCommand,
    ) -> Result<Self, StreamError> {
        if n_shards == 0 {
            return Err(StreamError::ShardConfig(
                "worker count must be at least 1".into(),
            ));
        }
        let shards = (0..n_shards)
            .map(|_| ProcessShard::spawn(worker, &schema))
            .collect::<Result<Vec<_>, _>>()?;
        Self::with_backends(schema, shard_key, shards)
    }

    /// As [`ShardedSession::spawn`], seeding the workers with `rel`'s
    /// rows (routed, in row order).
    ///
    /// # Errors
    /// As [`ShardedSession::spawn`].
    pub fn spawn_from_relation(
        rel: Relation,
        shard_key: AttrSet,
        n_shards: usize,
        worker: &WorkerCommand,
    ) -> Result<Self, StreamError> {
        Self::spawn(rel.schema().clone(), shard_key, n_shards, worker)?.seeded(&rel)
    }
}

impl<B: ShardBackend> ShardedSession<B> {
    /// A sharded session over caller-built backends (one per shard).
    /// This is the plug point: `AfdEngine` hands in
    /// [`crate::AnyShard`]s picked by configuration.
    ///
    /// # Errors
    /// [`StreamError::ShardConfig`] for zero backends or an
    /// out-of-schema key attribute.
    pub fn with_backends(
        schema: Schema,
        shard_key: AttrSet,
        mut shards: Vec<B>,
    ) -> Result<Self, StreamError> {
        let router = DeltaRouter::new(shard_key, schema.arity(), shards.len())?;
        let recovery = RecoveryConfig::default();
        let deadline = Duration::from_millis(recovery.request_timeout_ms);
        for (i, shard) in shards.iter_mut().enumerate() {
            shard.configure(i as u32, deadline);
        }
        let supervisors = shards.iter().all(ShardBackend::supports_recovery).then(|| {
            let empty = ShardSupervisor {
                ckpt: Relation::empty(schema.clone()),
                ckpt_live: Vec::new(),
                log: Vec::new(),
                stats: ShardRecoveryStats::default(),
            };
            vec![empty; shards.len()]
        });
        Ok(ShardedSession {
            schema,
            shards,
            router,
            candidates: Vec::new(),
            deltas_applied: 0,
            compact_every: None,
            recovery,
            supervisors,
            poisoned: None,
        })
    }

    /// Routes and applies `rel`'s rows as the starting population
    /// (counters reset, so the seed does not count as an applied delta).
    ///
    /// # Errors
    /// [`StreamError::Transport`] when a worker backend fails the seed
    /// apply; [`StreamError::Arity`] when `rel` disagrees with the
    /// session schema.
    pub fn seeded(mut self, rel: &Relation) -> Result<Self, StreamError> {
        let seed = RowDelta::insert_only((0..rel.n_rows()).map(|r| rel.row(r)));
        self.apply(&seed)?;
        self.deltas_applied = 0;
        // Fold the seed into the checkpoints so recovery never replays it
        // as a log entry.
        if self.supervisors.is_some() {
            self.refresh_checkpoints(false)?;
        }
        Ok(self)
    }

    /// Replaces the recovery configuration (checkpoint cadence, retry
    /// budget, backoff, request deadline) and pushes the new deadline to
    /// every shard backend.
    ///
    /// # Errors
    /// [`StreamError::ShardConfig`] when `cfg` fails
    /// [`RecoveryConfig::validate`].
    pub fn with_recovery(mut self, cfg: RecoveryConfig) -> Result<Self, StreamError> {
        cfg.validate()?;
        let deadline = Duration::from_millis(cfg.request_timeout_ms);
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.configure(i as u32, deadline);
        }
        self.recovery = cfg;
        Ok(self)
    }

    /// Whether transport failures are recovered (respawn + checkpoint +
    /// replay) rather than poisoning immediately — true iff every
    /// backend [`ShardBackend::supports_recovery`].
    pub fn recovery_enabled(&self) -> bool {
        self.supervisors.is_some()
    }

    /// Per-shard recovery counters (all zero for non-recoverable
    /// backends, or when nothing ever failed).
    pub fn recovery_report(&self) -> RecoveryReport {
        RecoveryReport {
            shards: match &self.supervisors {
                Some(sups) => sups.iter().map(|s| s.stats).collect(),
                None => vec![ShardRecoveryStats::default(); self.shards.len()],
            },
        }
    }

    /// Gracefully shuts every shard down (workers get a Shutdown request
    /// and a bounded exit wait), reporting the shards that would not die
    /// cleanly. Stragglers are still force-killed when the session drops.
    pub fn shutdown(mut self) -> ShutdownReport {
        let mut stragglers = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if shard.shutdown().is_err() {
                stragglers.push(i as u32);
            }
        }
        ShutdownReport {
            shards: self.shards.len(),
            stragglers,
        }
    }

    /// Enables automatic (per-shard verified) compaction after every
    /// `every` applied deltas.
    #[must_use]
    pub fn with_compaction_every(mut self, every: u64) -> Self {
        self.compact_every = Some(every.max(1));
        self
    }

    /// The schema every shard serves.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The routing layer (shard key, placements, live counts).
    pub fn router(&self) -> &DeltaRouter {
        &self.router
    }

    /// Live rows across all shards.
    ///
    /// Diagnostic counter: on a **poisoned** session this reflects the
    /// router's view, which may include a partially-fanned-out delta —
    /// only [`ShardedSession::scores`] is guaranteed to serve the last
    /// consistent state there ([`ShardedSession::snapshot`] refuses with
    /// a typed error).
    pub fn n_live(&self) -> usize {
        self.router.n_live()
    }

    /// Live rows per shard — how even the hash partitioning came out.
    /// Diagnostic, with the same poisoned-session caveat as
    /// [`ShardedSession::n_live`].
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(ShardBackend::n_live).collect()
    }

    /// Number of tracked candidates.
    pub fn n_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// The FD of candidate `cid`.
    pub fn fd(&self, cid: usize) -> &Fd {
        &self.candidates[cid].fd
    }

    /// Direct access to one shard's backend — the fault-injection hook
    /// (tests kill a [`ProcessShard`] here to exercise the transport
    /// error paths).
    pub fn backend_mut(&mut self, shard: usize) -> &mut B {
        &mut self.shards[shard]
    }

    fn check_poisoned(&self) -> Result<(), StreamError> {
        match &self.poisoned {
            Some(why) => Err(StreamError::Poisoned(why.clone())),
            None => Ok(()),
        }
    }

    /// Subscribes a candidate FD on every shard and returns its candidate
    /// index (re-subscribing returns the existing index).
    ///
    /// # Errors
    /// [`StreamError::UnknownAttr`] for out-of-schema attributes;
    /// [`StreamError::ShardConfig`] when `n_shards > 1` and the FD's LHS
    /// does not contain the shard key (its X-groups would straddle
    /// shards); [`StreamError::Transport`] when a worker backend fails.
    pub fn subscribe(&mut self, fd: Fd) -> Result<usize, StreamError> {
        if let Some(i) = self.candidates.iter().position(|c| c.fd == fd) {
            return Ok(i);
        }
        self.check_poisoned()?;
        // Coordinator-side validation, uniform across backends.
        for &a in fd.lhs().ids().iter().chain(fd.rhs().ids()) {
            if a.index() >= self.schema.arity() {
                return Err(StreamError::UnknownAttr(a.0));
            }
        }
        if self.shards.len() > 1 && !self.router.shard_key().is_subset(fd.lhs()) {
            return Err(StreamError::ShardConfig(format!(
                "candidate LHS {:?} does not contain the shard key {:?}",
                fd.lhs().ids(),
                self.router.shard_key().ids()
            )));
        }
        for i in 0..self.shards.len() {
            // Validation passed above, so a failure is a backend (i.e.
            // transport) failure and earlier shards may already have
            // subscribed. Recovery re-subscribes the existing candidates,
            // then the retry subscribes the new FD — lockstep restored.
            let first = self.shards[i].subscribe(&fd);
            let cid = self.recover_or_poison(i, "subscribe fan-out", true, first, |me| {
                me.shards[i].subscribe(&fd)
            })?;
            debug_assert_eq!(cid, self.candidates.len(), "lockstep subscribes");
        }
        self.candidates.push(ShardedCandidate {
            fd,
            y_global: HashMap::new(),
            y_remap: Vec::new(),
            y_local: Vec::new(),
            margins: FoldedYMargins::default(),
            last: StreamScores::exact(),
        });
        let cid = self.candidates.len() - 1;
        // The shards may already hold rows: start the fold from them.
        self.rebuild_candidate(cid);
        self.candidates[cid].last = self.folded_scores(cid);
        Ok(cid)
    }

    /// The merged score read: a single shard's table is read directly
    /// (merging one part is a score-level identity); N > 1 sums the
    /// shards' X-side aggregates with the candidate's folded Y margins
    /// (O(histograms) — neither the group/cell maps nor the column
    /// totals are visited). Debug builds check it bit for bit against
    /// the full re-merge of [`IncTable::merged_scores`].
    fn folded_scores(&self, cid: usize) -> StreamScores {
        if self.shards.len() == 1 {
            return self.shards[0].table(cid).scores();
        }
        let cand = &self.candidates[cid];
        let folded = cand
            .margins
            .scores(self.shards.iter().map(|shard| shard.table(cid)));
        debug_assert!(
            folded.bits_eq(&IncTable::merged_scores(
                self.shards
                    .iter()
                    .zip(&cand.y_remap)
                    .map(|(shard, remap)| (shard.table(cid), remap.as_slice()))
            )),
            "folded Y margins of candidate {cid} diverged from the full merge"
        );
        folded
    }

    /// Extends candidate `cid`'s per-shard Y maps (both directions) with
    /// any side ids the shards assigned since the last sync. Global ids
    /// are handed out in (shard, local-id) scan order — deterministic,
    /// and irrelevant to scores (histogram reductions never see Y
    /// identity).
    fn sync_candidate(&mut self, cid: usize) {
        let cand = &mut self.candidates[cid];
        for (s, shard) in self.shards.iter().enumerate() {
            let known = cand.y_remap[s].len();
            for id in known..shard.n_y_side_ids(cid) {
                let key = shard.y_side_values(cid, id as u32);
                let next = cand.y_global.len() as u32;
                let g = *cand.y_global.entry(key).or_insert(next);
                cand.y_remap[s].push(g);
                let local = &mut cand.y_local[s];
                if local.len() <= g as usize {
                    local.resize(g as usize + 1, ABSENT);
                }
                local[g as usize] = id as u32;
            }
        }
    }

    /// Re-sums global Y column `g` of candidate `cid` over the shards and
    /// moves it in the candidate's margins.
    fn refold_column(&mut self, cid: usize, g: u32) {
        let cand = &mut self.candidates[cid];
        let total = self
            .shards
            .iter()
            .zip(&cand.y_local)
            .map(|(shard, local)| match local.get(g as usize) {
                Some(&id) if id != ABSENT => shard.table(cid).col_total(id),
                _ => 0,
            })
            .sum();
        cand.margins.set(g, total);
    }

    /// Brings candidate `cid`'s folded Y margins up to date after an
    /// apply: maps the shards' new Y side ids, then re-sums every column
    /// a shard's last apply touched. Re-summing is idempotent, so a
    /// column touched twice, or already rebuilt by a recovery inside the
    /// apply, is simply set to the same total again. N = 1 keeps no
    /// margins.
    fn fold_touched(&mut self, cid: usize) {
        if self.shards.len() == 1 {
            return;
        }
        self.sync_candidate(cid);
        let cand = &self.candidates[cid];
        let mut touched: Vec<u32> = self
            .shards
            .iter()
            .zip(&cand.y_remap)
            .flat_map(|(shard, remap)| shard.touched_y_ids(cid).iter().map(|&y| remap[y as usize]))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        for g in touched {
            self.refold_column(cid, g);
        }
    }

    /// Rebuilds candidate `cid`'s global Y-id space and folded margins
    /// from the shards' current state. Needed at subscribe and wherever
    /// a shard's side-id numbering may have changed wholesale
    /// (post-recovery, post-compaction); correct at any time because
    /// scores never observe Y identity. N = 1 keeps no margins.
    fn rebuild_candidate(&mut self, cid: usize) {
        let n_shards = self.shards.len();
        if n_shards == 1 {
            return;
        }
        let cand = &mut self.candidates[cid];
        cand.y_global.clear();
        cand.y_remap = vec![Vec::new(); n_shards];
        cand.y_local = vec![Vec::new(); n_shards];
        cand.margins = FoldedYMargins::default();
        self.sync_candidate(cid);
        for g in 0..self.candidates[cid].y_global.len() as u32 {
            self.refold_column(cid, g);
        }
    }

    /// The current merged scores of candidate `cid` — bit-identical to a
    /// single [`crate::StreamSession`] over the same delta history.
    pub fn scores(&self, cid: usize) -> StreamScores {
        self.candidates[cid].last
    }

    /// Applies one global delta: routes it, sends every shard its slice
    /// before awaiting any answer, folds the touched Y columns and
    /// reports one merged [`ScoreDiff`] per candidate.
    ///
    /// Validation happens in the router before anything mutates, so a
    /// validation `Err` leaves the session unchanged (same contract and
    /// same error values as the unsharded session). A **backend**
    /// failure mid-fan-out (a killed worker, a corrupt frame, a request
    /// past its deadline) enters recovery on recoverable backends: the
    /// dead shard is respawned and brought back at the router's own
    /// local row ids from its checkpoint, the slices logged since are
    /// replayed and the in-flight slice is retried. Only a shard that
    /// stays down past [`RecoveryConfig::retry_budget`] (or a
    /// non-recoverable backend) poisons the session, after which score
    /// reads keep serving the pre-delta state and every further mutation
    /// is refused with [`StreamError::Poisoned`]. Every sent slice's
    /// answer is received before any failure is handled, so no answer is
    /// left on a live channel to be read as the next request's.
    ///
    /// # Errors
    /// [`StreamError::Arity`] / [`StreamError::UnknownRow`] /
    /// [`StreamError::AlreadyDeleted`] on invalid deltas,
    /// [`StreamError::Transport`] on unrecovered backend failure, and
    /// [`StreamError::Diverged`] if due auto-compaction finds a
    /// shard diverging from its batch rebuild.
    pub fn apply(&mut self, delta: &RowDelta) -> Result<Vec<ScoreDiff>, StreamError> {
        self.check_poisoned()?;
        let locals = self.router.route(delta)?;
        // Every slice goes out before any answer is awaited, so remote
        // workers apply concurrently; each answer's deadline runs from
        // its own send.
        let sent: Vec<Result<(), StreamError>> = self
            .shards
            .iter_mut()
            .zip(&locals)
            .map(|(shard, local)| shard.send_apply(local))
            .collect();
        let results: Vec<Result<(), StreamError>> = self
            .shards
            .iter_mut()
            .zip(sent)
            .map(|(shard, sent)| sent.and_then(|()| shard.recv_apply()))
            .collect();
        for ((s, result), local) in results.into_iter().enumerate().zip(locals) {
            // On a poisoning failure the router has already placed the
            // delta and some shards may have absorbed their slice, but
            // the candidate scores still reflect the pre-delta state, so
            // reads stay consistent; mutation is refused from here on.
            self.recover_or_poison(s, "delta fan-out", true, result, |me| {
                me.shards[s].apply(&local)
            })?;
            if let Some(sups) = &mut self.supervisors {
                if !local.is_empty() {
                    sups[s].log.push(local);
                }
            }
        }
        let diffs = (0..self.candidates.len())
            .map(|cid| {
                self.fold_touched(cid);
                let after = self.folded_scores(cid);
                let diff = ScoreDiff {
                    candidate: cid,
                    before: self.candidates[cid].last,
                    after,
                };
                self.candidates[cid].last = after;
                diff
            })
            .collect();
        self.deltas_applied += 1;
        if self.supervisors.is_some()
            && self
                .deltas_applied
                .is_multiple_of(self.recovery.checkpoint_every)
        {
            self.refresh_checkpoints(false)?;
        }
        if let Some(every) = self.compact_every {
            if self.deltas_applied.is_multiple_of(every) {
                self.compact()?;
            }
        }
        Ok(diffs)
    }

    /// Takes a fresh checkpoint of every shard (its live rows plus the
    /// router's liveness of its slots) and truncates the replay logs:
    /// the every-K-applies step that bounds how much a recovery replays,
    /// and the step after a compaction renumbered every slot. Only
    /// called on supervised sessions.
    ///
    /// Until its new checkpoint is in place, a failed shard is restored
    /// from the old one. After a compaction that is the pre-compaction
    /// state, so the retry recompacts it first; worker compaction
    /// renumbers live rows in arrival order, which reproduces the
    /// incarnation that died.
    fn refresh_checkpoints(&mut self, compacted: bool) -> Result<(), StreamError> {
        let what = if compacted {
            "post-compaction checkpoint"
        } else {
            "checkpoint refresh"
        };
        let mut liveness = self.router.slot_liveness();
        for (s, ckpt_live) in liveness.iter_mut().enumerate() {
            let first = self.shards[s].snapshot();
            let ckpt = self.recover_or_poison(s, what, true, first, |me| {
                if compacted {
                    me.shards[s].compact()?;
                }
                me.shards[s].snapshot()
            })?;
            let sup = &mut self.supervisors.as_mut().expect("supervised")[s];
            sup.ckpt = ckpt;
            sup.ckpt_live = std::mem::take(ckpt_live);
            sup.log.clear();
        }
        Ok(())
    }

    /// Settles one request to shard `s` whose first attempt returned
    /// `first`.
    ///
    /// On a supervised session a transport failure enters recovery:
    /// back off, [`restore`](Self::restore) the shard, and re-run the
    /// request through `retry`, for at most
    /// [`RecoveryConfig::retry_budget`] attempts. A recovered request
    /// rebuilds the global Y space (a restored worker's side-id
    /// numbering can differ; scores never observe Y identity). A failure
    /// recovery could not heal always poisons the session as "`what`
    /// failed"; any other failure poisons only when `poison` is set.
    /// Either way the caller gets the last error.
    fn recover_or_poison<T>(
        &mut self,
        s: usize,
        what: &str,
        poison: bool,
        first: Result<T, StreamError>,
        mut retry: impl FnMut(&mut Self) -> Result<T, StreamError>,
    ) -> Result<T, StreamError> {
        let mut err = match first {
            Ok(out) => return Ok(out),
            Err(e @ StreamError::Transport(_)) if self.supervisors.is_some() => e,
            Err(e) => {
                if poison {
                    self.poisoned = Some(format!("{what} failed on shard {s}: {e}"));
                }
                return Err(e);
            }
        };
        for attempt in 0..self.recovery.retry_budget {
            let backoff = self.recovery.backoff_ms.saturating_mul(1 << attempt.min(6));
            if backoff > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
            }
            if let Err(e) = self.restore(s) {
                err = e;
                continue;
            }
            match retry(self) {
                Ok(out) => {
                    self.rebuild_y_space();
                    return Ok(out);
                }
                Err(e @ StreamError::Transport(_)) => err = e,
                Err(e) => {
                    err = e;
                    break;
                }
            }
        }
        self.poisoned = Some(format!(
            "{what} failed on shard {s} after recovery attempts: {err}"
        ));
        Err(err)
    }

    /// Respawns shard `s` and brings it back at the router's own local
    /// row ids: re-subscribe the candidates, insert one row per local
    /// slot the shard had at its checkpoint (the checkpoint row for a
    /// live slot, an all-NULL row for a dead one), delete the dead
    /// slots, then replay the logged slices verbatim. A NULL cell is
    /// never interned and a side key holding one is never encoded, so
    /// the all-NULL rows never reach a side index or an [`IncTable`].
    /// Only the counters change, so a failed attempt leaves the
    /// supervisor ready for the next one.
    ///
    /// The slot insert carries one row per slot since the shard's last
    /// compaction, tombstones included, in one frame: on a churned,
    /// never-compacted session it grows with the delete history, as the
    /// worker's own row log does, not with `checkpoint_every`.
    fn restore(&mut self, s: usize) -> Result<(), StreamError> {
        self.shards[s].respawn()?;
        let sups = self.supervisors.as_mut().expect("supervised");
        sups[s].stats.respawns += 1;
        let (shard, sup) = (&mut self.shards[s], &sups[s]);
        for cand in &self.candidates {
            shard.subscribe(&cand.fd)?;
        }
        let mut slots = RowDelta::new();
        let mut dead = RowDelta::new();
        let mut ckpt_rows = 0..sup.ckpt.n_rows();
        for (id, &live) in (0..).zip(&sup.ckpt_live) {
            if live {
                let r = ckpt_rows.next().expect("one checkpoint row per live slot");
                slots.inserts.push(sup.ckpt.row(r));
            } else {
                slots.inserts.push(vec![Value::Null; self.schema.arity()]);
                dead.deletes.push(id);
            }
        }
        for delta in [&slots, &dead].into_iter().chain(&sup.log) {
            if !delta.is_empty() {
                shard.apply(delta)?;
            }
        }
        let replayed = sup.log.len() as u64;
        sups[s].stats.deltas_replayed += replayed;
        Ok(())
    }

    /// Rebuilds the global Y-id space and folded margins of every
    /// candidate ([`Self::rebuild_candidate`]).
    fn rebuild_y_space(&mut self) {
        for cid in 0..self.candidates.len() {
            self.rebuild_candidate(cid);
        }
    }

    /// Materialises the live rows in global row order as one compact
    /// [`Relation`] — row-equivalent to the snapshot of an unsharded
    /// session over the same history.
    ///
    /// This is a **code-level merge** (the ROADMAP-flagged fix): each
    /// shard ships its snapshot columns once, per-column dictionaries
    /// are unified by interning each shard's *distinct* values
    /// (O(Σ dictionary sizes) `Value` handling in total), and every row
    /// is then one remapped `u32` code copy per column — O(rows) code
    /// copies like [`Relation::filter_rows`], not O(rows · arity)
    /// `Value` round-trips. Dictionary code numbering may differ from an
    /// unsharded session's (grouping kernels remap densely and never
    /// observe it); rows and their order are identical.
    ///
    /// # Errors
    /// [`StreamError::Transport`] when a worker's snapshot request
    /// fails — or when the session is poisoned (the router's placements
    /// are ahead of the shard contents, so a merged snapshot would be
    /// inconsistent with the served scores).
    pub fn snapshot(&mut self) -> Result<Relation, StreamError> {
        self.check_poisoned()?;
        let mut locals = Vec::with_capacity(self.shards.len());
        for s in 0..self.shards.len() {
            // Reading changes nothing, so only a failed recovery poisons:
            // a half-restored worker no longer matches the router's
            // placements.
            let first = self.shards[s].snapshot();
            let rel = self.recover_or_poison(s, "snapshot fan-out", false, first, |me| {
                me.shards[s].snapshot()
            })?;
            locals.push(rel);
        }
        let arity = self.schema.arity();
        let mut codes: Vec<Vec<u32>> = (0..arity)
            .map(|_| Vec::with_capacity(self.router.n_live()))
            .collect();
        let mut dicts: Vec<Dictionary> = (0..arity).map(|_| Dictionary::new()).collect();
        // Per shard, per column: local dictionary code -> merged code.
        let mut remaps: Vec<Vec<Vec<u32>>> = Vec::with_capacity(locals.len());
        for snap in &locals {
            let mut per_col = Vec::with_capacity(arity);
            for (c, dict) in dicts.iter_mut().enumerate() {
                let col = snap.column(AttrId(c as u32));
                per_col.push(
                    col.dict()
                        .iter()
                        .map(|(_, v)| dict.intern(v.clone()))
                        .collect::<Vec<u32>>(),
                );
            }
            remaps.push(per_col);
        }
        // Live rows of a shard appear in its snapshot in arrival order,
        // which is also their relative global order — so a per-shard
        // cursor walks each snapshot exactly once.
        let mut cursors = vec![0usize; self.shards.len()];
        for slot in 0..self.router.n_slots() {
            if let Some((shard, _)) = self.router.placement_of(slot as RowId) {
                let s = shard as usize;
                let r = cursors[s];
                cursors[s] += 1;
                for (c, out) in codes.iter_mut().enumerate() {
                    let code = locals[s].column(AttrId(c as u32)).codes()[r];
                    out.push(if code == NULL_CODE {
                        NULL_CODE
                    } else {
                        remaps[s][c][code as usize]
                    });
                }
            }
        }
        let columns = codes
            .into_iter()
            .zip(dicts)
            .map(|(codes, dict)| Column::from_parts(codes, dict))
            .collect();
        Relation::from_columns(self.schema.clone(), columns)
            .map_err(|e| StreamError::Relation(e.to_string()))
    }

    /// Compacts every shard — each shard verifies its incremental PLIs,
    /// contingency tables and scores against a batch rebuild of **its
    /// slice of the snapshot** — then renumbers the global ids, rebuilds
    /// the Y-id coordination state and, on a supervised session, takes
    /// fresh checkpoints at the renumbered ids.
    ///
    /// # Errors
    /// [`StreamError::Diverged`] if any shard's incremental state
    /// disagrees with its batch rebuild (that shard is left unswapped for
    /// post-mortem), [`StreamError::Transport`] on unrecovered worker
    /// failure. A worker that dies anywhere in the compaction flow is
    /// restored to its pre-compaction state (its checkpoint plus the
    /// logged slices, at the router's pre-compaction ids), recompacted
    /// if needed, and the interrupted step retried; only an exhausted
    /// retry budget **poisons** the session (score reads keep working;
    /// every further `apply`/`compact` is refused).
    pub fn compact(&mut self) -> Result<CompactionReport, StreamError> {
        self.check_poisoned()?;
        let before: Vec<StreamScores> = (0..self.candidates.len())
            .map(|cid| self.candidates[cid].last)
            .collect();
        let mut rows_dropped = 0;
        let mut n_live = 0;
        for i in 0..self.shards.len() {
            let first = self.shards[i].compact();
            // Shards 0..i already renumbered their local ids but the
            // router still holds the old placements, and a transport
            // failure is unrecoverable regardless of position (the worker
            // may or may not have compacted): either poisons.
            let poison = i > 0 || matches!(first, Err(StreamError::Transport(_)));
            let report = self.recover_or_poison(i, "compaction fan-out", poison, first, |me| {
                me.shards[i].compact()
            })?;
            rows_dropped += report.rows_dropped;
            n_live += report.n_live;
        }
        self.router.compact();
        // Shard compaction reset the side-id dictionaries: rebuild the
        // global Y space from scratch.
        self.rebuild_y_space();
        for (cid, before) in before.iter().enumerate() {
            debug_assert!(
                self.folded_scores(cid).bits_eq(before),
                "compaction must not move merged scores"
            );
        }
        // The logged slices name pre-compaction ids: checkpoint every
        // shard at the renumbered ones.
        if self.supervisors.is_some() {
            self.refresh_checkpoints(true)?;
        }
        Ok(CompactionReport {
            rows_dropped,
            candidates_checked: self.candidates.len(),
            n_live,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::TransportError;
    use crate::session::StreamSession;

    fn schema3() -> Schema {
        Schema::new(["A", "B", "C"]).unwrap()
    }

    fn row(a: i64, b: i64, c: i64) -> Vec<Value> {
        vec![Value::Int(a), Value::Int(b), Value::Int(c)]
    }

    fn fixture_rows() -> Vec<Vec<Value>> {
        (0..40)
            .map(|i| row(i % 7, (i % 7) * 2 + i64::from(i == 13), i % 3))
            .collect()
    }

    fn sharded(n: usize) -> ShardedSession {
        ShardedSession::new(schema3(), AttrSet::single(AttrId(0)), n).unwrap()
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(matches!(
            ShardedSession::new(schema3(), AttrSet::single(AttrId(0)), 0),
            Err(StreamError::ShardConfig(_))
        ));
    }

    #[test]
    fn out_of_schema_shard_key_rejected() {
        assert!(matches!(
            ShardedSession::new(schema3(), AttrSet::single(AttrId(9)), 2),
            Err(StreamError::ShardConfig(_))
        ));
    }

    #[test]
    fn lhs_must_contain_shard_key_when_sharded() {
        let mut s = sharded(3);
        assert!(matches!(
            s.subscribe(Fd::linear(AttrId(1), AttrId(2))),
            Err(StreamError::ShardConfig(_))
        ));
        // Single-shard sessions accept any candidate.
        let mut s1 = sharded(1);
        assert!(s1.subscribe(Fd::linear(AttrId(1), AttrId(2))).is_ok());
    }

    #[test]
    fn sharded_matches_single_session_bit_exactly() {
        for n in [1, 2, 3] {
            let mut sharded = sharded(n);
            let mut single = StreamSession::new(schema3());
            let cid_s = sharded.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
            let cid_1 = single.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
            sharded
                .apply(&RowDelta::insert_only(fixture_rows()))
                .unwrap();
            single
                .apply(&RowDelta::insert_only(fixture_rows()))
                .unwrap();
            assert!(
                sharded.scores(cid_s).bits_eq(&single.scores(cid_1)),
                "n={n}"
            );
            // Deletes by the same global ids move both identically.
            let d = RowDelta::delete_only([13, 0, 7]);
            let diff_s = sharded.apply(&d).unwrap();
            let diff_1 = single.apply(&d).unwrap();
            assert!(diff_s[0].after.bits_eq(&diff_1[0].after), "n={n}");
            assert_eq!(sharded.n_live(), single.relation().n_live());
        }
    }

    #[test]
    fn routing_is_total_and_size_preserving() {
        let mut s = sharded(4);
        s.apply(&RowDelta::insert_only(fixture_rows())).unwrap();
        assert_eq!(s.shard_sizes().iter().sum::<usize>(), 40);
        assert_eq!(s.n_live(), 40);
        // 7 distinct keys over 4 shards: no shard can hold all rows.
        assert!(s.shard_sizes().iter().all(|&sz| sz < 40));
    }

    #[test]
    fn invalid_deltas_leave_sharded_session_untouched() {
        let mut s = sharded(2);
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        s.apply(&RowDelta::insert_only(fixture_rows())).unwrap();
        let before = s.scores(cid);
        assert_eq!(
            s.apply(&RowDelta::delete_only([999])),
            Err(StreamError::UnknownRow(999))
        );
        assert_eq!(
            s.apply(&RowDelta::delete_only([3, 3])),
            Err(StreamError::AlreadyDeleted(3))
        );
        let bad = RowDelta {
            inserts: vec![vec![Value::Int(1)]],
            deletes: vec![1],
        };
        assert!(matches!(s.apply(&bad), Err(StreamError::Arity { .. })));
        assert_eq!(s.n_live(), 40);
        assert!(s.scores(cid).bits_eq(&before));
    }

    #[test]
    fn snapshot_preserves_global_row_order() {
        let mut s = sharded(3);
        s.apply(&RowDelta::insert_only(fixture_rows())).unwrap();
        s.apply(&RowDelta::delete_only([5, 20])).unwrap();
        let snap = s.snapshot().expect("in-process snapshot");
        let want: Vec<Vec<Value>> = fixture_rows()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != 5 && *i != 20)
            .map(|(_, r)| r)
            .collect();
        assert_eq!(snap.n_rows(), want.len());
        for (i, row) in want.iter().enumerate() {
            assert_eq!(&snap.row(i), row);
        }
    }

    #[test]
    fn compaction_verifies_per_shard_and_keeps_scores() {
        let mut s = sharded(3);
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        s.apply(&RowDelta::insert_only(fixture_rows())).unwrap();
        s.apply(&RowDelta::delete_only([2, 3, 13])).unwrap();
        let before = s.scores(cid);
        let report = s.compact().unwrap();
        assert_eq!(report.rows_dropped, 3);
        assert_eq!(report.n_live, 37);
        assert_eq!(report.candidates_checked, 1);
        assert!(s.scores(cid).bits_eq(&before));
        // Global ids renumbered densely: 0..37 deletable again.
        s.apply(&RowDelta::delete_only([36])).unwrap();
        assert_eq!(s.n_live(), 36);
        assert_eq!(
            s.apply(&RowDelta::delete_only([37])),
            Err(StreamError::UnknownRow(37))
        );
    }

    #[test]
    fn auto_compaction_runs_on_schedule() {
        let mut s = ShardedSession::new(schema3(), AttrSet::single(AttrId(0)), 2)
            .unwrap()
            .with_compaction_every(2);
        s.subscribe(Fd::linear(AttrId(0), AttrId(2))).unwrap();
        s.apply(&RowDelta::insert_only(fixture_rows())).unwrap();
        s.apply(&RowDelta::delete_only([0, 1])).unwrap(); // 2nd delta -> compacts
        assert_eq!(s.router().n_slots(), 38);
        assert_eq!(s.n_live(), 38);
    }

    #[test]
    fn from_relation_routes_existing_rows() {
        let rel = Relation::from_rows(schema3(), fixture_rows()).unwrap();
        let mut s = ShardedSession::from_relation(rel, AttrSet::single(AttrId(0)), 3).unwrap();
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let mut single = StreamSession::new(schema3());
        let c1 = single.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        single
            .apply(&RowDelta::insert_only(fixture_rows()))
            .unwrap();
        assert!(s.scores(cid).bits_eq(&single.scores(c1)));
        assert_eq!(s.n_live(), 40);
    }

    /// An in-process shard that can be told to fail its next request —
    /// the unit-level stand-in for a killed `afd shard-worker` (the real
    /// process-kill test lives in the CLI crate's integration tests).
    struct FlakyShard {
        inner: InProcShard,
        fail_next: bool,
    }

    impl FlakyShard {
        fn trip(&mut self) -> Result<(), StreamError> {
            if self.fail_next {
                return Err(StreamError::Transport(TransportError::read(
                    "worker killed (simulated)",
                )));
            }
            Ok(())
        }
    }

    impl ShardBackend for FlakyShard {
        fn subscribe(&mut self, fd: &Fd) -> Result<usize, StreamError> {
            self.trip()?;
            self.inner.subscribe(fd)
        }
        fn apply(&mut self, delta: &RowDelta) -> Result<(), StreamError> {
            self.trip()?;
            self.inner.apply(delta)
        }
        fn table(&self, cid: usize) -> &IncTable {
            self.inner.table(cid)
        }
        fn touched_y_ids(&self, cid: usize) -> &[u32] {
            self.inner.touched_y_ids(cid)
        }
        fn n_live(&self) -> usize {
            self.inner.n_live()
        }
        fn n_y_side_ids(&self, cid: usize) -> usize {
            self.inner.n_y_side_ids(cid)
        }
        fn y_side_values(&self, cid: usize, id: u32) -> Vec<Value> {
            self.inner.y_side_values(cid, id)
        }
        fn snapshot(&mut self) -> Result<Relation, StreamError> {
            self.trip()?;
            self.inner.snapshot()
        }
        fn compact(&mut self) -> Result<CompactionReport, StreamError> {
            self.trip()?;
            self.inner.compact()
        }
    }

    #[test]
    fn backend_failure_mid_delta_poisons_but_reads_stay_consistent() {
        // FlakyShard does not support respawn, so a transport failure
        // skips recovery and poisons immediately — the fate of any
        // non-recoverable backend.
        let backends: Vec<FlakyShard> = (0..2)
            .map(|_| FlakyShard {
                inner: InProcShard::new(schema3()),
                fail_next: false,
            })
            .collect();
        let mut s =
            ShardedSession::with_backends(schema3(), AttrSet::single(AttrId(0)), backends).unwrap();
        assert!(!s.recovery_enabled());
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        s.apply(&RowDelta::insert_only(fixture_rows())).unwrap();
        let before = s.scores(cid);
        // Kill shard 1 mid-delta: a typed transport error comes back and
        // score reads keep serving the pre-delta state.
        s.backend_mut(1).fail_next = true;
        let err = s.apply(&RowDelta::insert_only([row(1, 2, 0)])).unwrap_err();
        assert!(matches!(err, StreamError::Transport(_)), "{err}");
        assert!(s.scores(cid).bits_eq(&before));
        // The session is poisoned: further mutation is refused with a
        // typed error (even though the backend would now succeed), reads
        // still work.
        s.backend_mut(1).fail_next = false;
        assert!(matches!(
            s.apply(&RowDelta::insert_only([row(1, 2, 0)])),
            Err(StreamError::Poisoned(_))
        ));
        assert!(matches!(s.compact(), Err(StreamError::Poisoned(_))));
        assert!(s.scores(cid).bits_eq(&before));
        // Snapshots are refused too: the router's placements ran ahead
        // of the shard contents, so one could panic or contradict the
        // served scores.
        assert!(matches!(s.snapshot(), Err(StreamError::Poisoned(_))));
        // All-zero recovery report for a non-recoverable topology.
        assert_eq!(s.recovery_report().total_respawns(), 0);
    }

    #[test]
    fn code_level_snapshot_matches_value_level_merge() {
        // The code-level snapshot must be row-identical to the old
        // per-row Value materialisation (kept inline here as the
        // reference).
        let mut s = sharded(3);
        s.apply(&RowDelta::insert_only(fixture_rows())).unwrap();
        s.apply(&RowDelta::delete_only([1, 8, 21])).unwrap();
        s.apply(&RowDelta::insert_only([
            vec![Value::Null, Value::Int(1), Value::str("z")],
            row(3, 3, 3),
        ]))
        .unwrap();
        // Reference: walk placements and push value-level rows.
        let mut reference = Relation::empty(schema3());
        let mut shard_rows: Vec<Vec<Vec<Value>>> = (0..s.n_shards())
            .map(|i| {
                let snap = s.backend_mut(i).snapshot().unwrap();
                (0..snap.n_rows()).map(|r| snap.row(r)).collect()
            })
            .collect();
        let mut cursors = vec![0usize; shard_rows.len()];
        for slot in 0..s.router().n_slots() {
            if let Some((shard, _)) = s.router().placement_of(slot as RowId) {
                let sidx = shard as usize;
                let r = cursors[sidx];
                cursors[sidx] += 1;
                reference
                    .push_row(std::mem::take(&mut shard_rows[sidx][r]))
                    .unwrap();
            }
        }
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.n_rows(), reference.n_rows());
        for r in 0..snap.n_rows() {
            assert_eq!(snap.row(r), reference.row(r));
        }
    }

    #[test]
    fn multi_attribute_lhs_with_threads() {
        let fd = Fd::new(
            AttrSet::new([AttrId(0), AttrId(2)]),
            AttrSet::single(AttrId(1)),
        )
        .unwrap();
        let mut s = sharded(3);
        let cid = s.subscribe(fd.clone()).unwrap();
        let mut single = StreamSession::new(schema3());
        let c1 = single.subscribe(fd).unwrap();
        s.apply(&RowDelta::insert_only(fixture_rows())).unwrap();
        single
            .apply(&RowDelta::insert_only(fixture_rows()))
            .unwrap();
        assert!(s.scores(cid).bits_eq(&single.scores(c1)));
    }

    use crate::fault::{ChaosShard, WorkerFault, WorkerFaultKind};

    fn fast_recovery(checkpoint_every: u64) -> RecoveryConfig {
        RecoveryConfig {
            checkpoint_every,
            retry_budget: 3,
            backoff_ms: 0,
            request_timeout_ms: 1_000,
        }
    }

    fn chaos_session(
        faults: Vec<Option<WorkerFault>>,
        checkpoint_every: u64,
    ) -> ShardedSession<ChaosShard> {
        let backends = faults
            .into_iter()
            .map(|f| ChaosShard::new(schema3(), f))
            .collect();
        ShardedSession::with_backends(schema3(), AttrSet::single(AttrId(0)), backends)
            .unwrap()
            .with_recovery(fast_recovery(checkpoint_every))
            .unwrap()
    }

    #[test]
    fn injected_kill_mid_apply_recovers_bit_identically() {
        let fault = WorkerFault {
            site: 5,
            kind: WorkerFaultKind::Kill,
        };
        let mut s = chaos_session(vec![None, Some(fault)], 2);
        assert!(s.recovery_enabled());
        let mut single = StreamSession::new(schema3());
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let c1 = single.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let rows = fixture_rows();
        for chunk in rows.chunks(4) {
            let d = RowDelta::insert_only(chunk.to_vec());
            s.apply(&d).unwrap();
            single.apply(&d).unwrap();
        }
        let d = RowDelta::delete_only([3, 13, 20]);
        s.apply(&d).unwrap();
        single.apply(&d).unwrap();
        assert!(s.scores(cid).bits_eq(&single.scores(c1)));
        let report = s.recovery_report();
        assert!(report.total_respawns() >= 1, "{report:?}");
        // Rows (and their global order) survive recovery too.
        let snap = s.snapshot().unwrap();
        let want = single.relation().snapshot();
        assert_eq!(snap.n_rows(), want.n_rows());
        for r in 0..want.n_rows() {
            assert_eq!(snap.row(r), want.row(r));
        }
    }

    #[test]
    fn recovery_replays_deletes_and_serves_later_deletes() {
        // Checkpoint every 3 applies; the fault lands after deletes have
        // entered the replay log, and more deletes follow recovery — the
        // restored worker must answer to the router's ids on both sides
        // of the failure.
        let fault = WorkerFault {
            site: 9,
            kind: WorkerFaultKind::Kill,
        };
        let mut s = chaos_session(vec![Some(fault), None], 3);
        let mut single = StreamSession::new(schema3());
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let c1 = single.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let rows = fixture_rows();
        let script: Vec<RowDelta> = vec![
            RowDelta::insert_only(rows[..10].to_vec()),
            RowDelta::delete_only([0, 4]),
            RowDelta::insert_only(rows[10..20].to_vec()),
            RowDelta::delete_only([12, 7, 19]),
            RowDelta::insert_only(rows[20..30].to_vec()),
            RowDelta::delete_only([2, 25]),
            RowDelta::insert_only(rows[30..].to_vec()),
            RowDelta::delete_only([30, 1, 33]),
        ];
        for d in &script {
            s.apply(d).unwrap();
            single.apply(d).unwrap();
        }
        assert!(s.scores(cid).bits_eq(&single.scores(c1)));
        assert!(s.recovery_report().total_respawns() >= 1);
        let snap = s.snapshot().unwrap();
        let want = single.relation().snapshot();
        assert_eq!(snap.n_rows(), want.n_rows());
        for r in 0..want.n_rows() {
            assert_eq!(snap.row(r), want.row(r));
        }
        // Compaction still verifies cleanly post-recovery.
        s.compact().unwrap();
        single.compact().unwrap();
        assert!(s.scores(cid).bits_eq(&single.scores(c1)));
    }

    #[test]
    fn two_recoveries_from_one_checkpoint_replay_the_whole_log() {
        // One shard, so router ids are the worker's ids. The checkpoint
        // after the third delta holds dead slots (0 and 4); two kills
        // follow before the next checkpoint, and the second recovery
        // restores the same checkpoint and replays every slice since.
        let kill = WorkerFault {
            site: 1,
            kind: WorkerFaultKind::Kill,
        };
        let mut s = chaos_session(vec![None], 3);
        let mut single = StreamSession::new(schema3());
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let c1 = single.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let rows = fixture_rows();
        let script: Vec<RowDelta> = vec![
            RowDelta::insert_only(rows[..10].to_vec()),
            RowDelta::delete_only([0, 4]),
            RowDelta::insert_only(rows[10..20].to_vec()),
            RowDelta::delete_only([12, 7]),
            RowDelta::insert_only(rows[20..30].to_vec()),
            RowDelta::delete_only([2, 25, 19]),
            RowDelta::insert_only(rows[30..].to_vec()),
            RowDelta::delete_only([30, 1, 33]),
        ];
        for (step, d) in script.iter().enumerate() {
            if step == 4 || step == 5 {
                s.backend_mut(0).arm(kill);
            }
            s.apply(d).unwrap();
            single.apply(d).unwrap();
            assert!(s.scores(cid).bits_eq(&single.scores(c1)), "step {step}");
        }
        let report = s.recovery_report();
        assert_eq!(report.total_respawns(), 2, "{report:?}");
        // First recovery replays step 3; the second replays steps 3 and 4.
        assert_eq!(report.total_deltas_replayed(), 3, "{report:?}");
        let snap = s.snapshot().unwrap();
        let want = single.relation().snapshot();
        assert_eq!(snap.n_rows(), want.n_rows());
        for r in 0..want.n_rows() {
            assert_eq!(snap.row(r), want.row(r));
        }
        let report = s.compact().unwrap();
        assert_eq!(report.rows_dropped, 10);
        single.compact().unwrap();
        assert!(s.scores(cid).bits_eq(&single.scores(c1)));
    }

    #[test]
    fn injected_fault_mid_subscribe_recovers() {
        let fault = WorkerFault {
            site: 1,
            kind: WorkerFaultKind::Kill,
        };
        let mut s = chaos_session(vec![None, Some(fault)], 4);
        let mut single = StreamSession::new(schema3());
        // The very first fan-out request to shard 1 dies; recovery
        // restores lockstep and the subscribe lands.
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let c1 = single.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        assert!(s.recovery_report().total_respawns() >= 1);
        let d = RowDelta::insert_only(fixture_rows());
        s.apply(&d).unwrap();
        single.apply(&d).unwrap();
        assert!(s.scores(cid).bits_eq(&single.scores(c1)));
    }

    #[test]
    fn injected_fault_mid_compaction_recovers() {
        let mut s = chaos_session(vec![None, None], 8);
        let mut single = StreamSession::new(schema3());
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let c1 = single.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let d = RowDelta::insert_only(fixture_rows());
        s.apply(&d).unwrap();
        single.apply(&d).unwrap();
        let d = RowDelta::delete_only([5, 11, 31]);
        s.apply(&d).unwrap();
        single.apply(&d).unwrap();
        // The next request shard 0 sees is its compact — kill it there.
        s.backend_mut(0).arm(WorkerFault {
            site: 1,
            kind: WorkerFaultKind::Kill,
        });
        let report = s.compact().unwrap();
        single.compact().unwrap();
        assert_eq!(report.rows_dropped, 3);
        assert!(s.recovery_report().total_respawns() >= 1);
        assert!(s.scores(cid).bits_eq(&single.scores(c1)));
        // Post-compaction ids are dense again and the session keeps
        // accepting deltas.
        let d = RowDelta::delete_only([36]);
        s.apply(&d).unwrap();
        single.apply(&d).unwrap();
        assert!(s.scores(cid).bits_eq(&single.scores(c1)));
    }

    #[test]
    fn stall_fault_maps_to_timeout_and_recovers() {
        let fault = WorkerFault {
            site: 3,
            kind: WorkerFaultKind::Stall { millis: 50 },
        };
        let mut s = chaos_session(vec![Some(fault)], 4);
        let mut single = StreamSession::new(schema3());
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let c1 = single.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        for chunk in fixture_rows().chunks(10) {
            let d = RowDelta::insert_only(chunk.to_vec());
            s.apply(&d).unwrap();
            single.apply(&d).unwrap();
        }
        assert!(s.scores(cid).bits_eq(&single.scores(c1)));
        assert!(s.recovery_report().total_respawns() >= 1);
    }

    #[test]
    fn sticky_fault_exhausts_retry_budget_and_poisons() {
        let fault = WorkerFault {
            site: 2,
            kind: WorkerFaultKind::Kill,
        };
        let backends = vec![ChaosShard::new(schema3(), Some(fault)).sticky()];
        let mut s = ShardedSession::with_backends(schema3(), AttrSet::single(AttrId(0)), backends)
            .unwrap()
            .with_recovery(RecoveryConfig {
                checkpoint_every: 8,
                retry_budget: 2,
                backoff_ms: 0,
                request_timeout_ms: 1_000,
            })
            .unwrap();
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let before = s.scores(cid);
        let err = s.apply(&RowDelta::insert_only(fixture_rows())).unwrap_err();
        assert!(matches!(err, StreamError::Transport(_)), "{err}");
        // Every attempt respawned and refaulted: the whole budget burned.
        assert_eq!(s.recovery_report().total_respawns(), 2);
        assert!(matches!(
            s.apply(&RowDelta::insert_only([row(1, 2, 0)])),
            Err(StreamError::Poisoned(_))
        ));
        assert!(s.scores(cid).bits_eq(&before));
    }

    #[test]
    fn tight_checkpoints_bound_replay() {
        // checkpoint_every == 1: the log is truncated after every apply,
        // so recovery replays nothing (the in-flight slice is retried,
        // not replayed).
        let fault = WorkerFault {
            site: 20,
            kind: WorkerFaultKind::Kill,
        };
        let mut s = chaos_session(vec![Some(fault)], 1);
        let mut single = StreamSession::new(schema3());
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let c1 = single.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        for chunk in fixture_rows().chunks(4) {
            let d = RowDelta::insert_only(chunk.to_vec());
            s.apply(&d).unwrap();
            single.apply(&d).unwrap();
        }
        let report = s.recovery_report();
        assert!(report.total_respawns() >= 1);
        assert_eq!(report.total_deltas_replayed(), 0, "{report:?}");
        assert!(s.scores(cid).bits_eq(&single.scores(c1)));
    }

    #[test]
    fn invalid_recovery_config_rejected() {
        let err = chaos_try(RecoveryConfig {
            checkpoint_every: 0,
            ..RecoveryConfig::default()
        });
        assert!(matches!(err, Err(StreamError::ShardConfig(_))));
        let err = chaos_try(RecoveryConfig {
            retry_budget: 0,
            ..RecoveryConfig::default()
        });
        assert!(matches!(err, Err(StreamError::ShardConfig(_))));
    }

    fn chaos_try(cfg: RecoveryConfig) -> Result<ShardedSession<ChaosShard>, StreamError> {
        ShardedSession::with_backends(
            schema3(),
            AttrSet::single(AttrId(0)),
            vec![ChaosShard::new(schema3(), None)],
        )?
        .with_recovery(cfg)
    }
}
