//! The multi-tenant session server: budgeted tick scheduler, admission
//! control, cold-session eviction and crash-safe persistence over the
//! slab registry.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use afd_engine::{
    AfdEngine, AfdError, DeltaRequest, RestoreRequest, SnapshotRequest, StreamBackend,
    SubscribeRequest,
};
use afd_relation::Fd;
use afd_stream::{RowDelta, SessionSnapshot, StreamScores};
use afd_wire::{CheckpointEntry, ManifestCheckpoint, ManifestOp, SlotStatus};

use crate::error::{BackpressureScope, ServeError};
use crate::journal::{replay, DurabilityConfig, Journal, ReplayState, JOURNAL_FILE};
use crate::persist::{is_disk_full, CrashPlan, Persister};
use crate::registry::{SessionHandle, Slab};

/// Per-tick work bounds. A tick stops at whichever limit it hits first,
/// so one call to [`AfdServe::tick`] can never run away regardless of
/// how much is queued.
#[derive(Debug, Clone, Copy)]
pub struct TickBudget {
    /// Most deltas applied per tick, across all sessions.
    pub max_deltas: usize,
    /// Most deltas applied per session per scheduler visit — the
    /// fairness knob. A session with more pending goes back to the end
    /// of the ready ring, so a hot tenant advances the ring, not blocks
    /// it.
    pub session_burst: usize,
    /// Optional wall-clock budget in microseconds, checked between
    /// session visits (restore cost counts against it).
    pub max_micros: Option<u64>,
}

impl Default for TickBudget {
    fn default() -> Self {
        TickBudget {
            max_deltas: 256,
            session_burst: 32,
            max_micros: None,
        }
    }
}

/// Server-wide knobs. Built with [`ServeConfig::new`] (the spill
/// directory is the one mandatory choice), then adjusted field-wise.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most sessions resident (engine in memory) at once; the LRU rest
    /// live as framed snapshots in `spill_dir`. At least 1.
    pub resident_cap: usize,
    /// Most pending deltas per session before [`ServeError::Backpressure`].
    pub session_queue_cap: usize,
    /// Most pending deltas server-wide before [`ServeError::Backpressure`].
    pub global_queue_cap: usize,
    /// Most live sessions before registration answers
    /// [`ServeError::AtCapacity`].
    pub max_sessions: usize,
    /// Where evicted sessions spill (`sess_<slot>_<generation>.snap`,
    /// the `afd save` frame format) and where the registry journal
    /// (`registry.afdj`) lives. Created on [`AfdServe::new`].
    pub spill_dir: PathBuf,
    /// Backend restored sessions run their shards on.
    pub backend: StreamBackend,
    /// Per-tick work bounds.
    pub budget: TickBudget,
    /// How aggressively registry transitions are made durable. Default
    /// is fully durable (journal on, fsync every append); use
    /// [`DurabilityConfig::ephemeral`] for throwaway servers.
    pub durability: DurabilityConfig,
    /// Deterministic crash injection for tests: when set, the seeded
    /// plan kills/tears/garbles one persistence operation and every
    /// subsequent disk touch fails with the hidden injected-crash
    /// error. Production configs leave this `None`.
    pub crash_plan: Option<CrashPlan>,
}

impl ServeConfig {
    /// A config with serving defaults: 64 resident sessions, 64 pending
    /// deltas per session, 4096 server-wide, 1M session registry, fully
    /// durable registry journal.
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            resident_cap: 64,
            session_queue_cap: 64,
            global_queue_cap: 4096,
            max_sessions: 1 << 20,
            spill_dir: spill_dir.into(),
            backend: StreamBackend::InProcess,
            budget: TickBudget::default(),
            durability: DurabilityConfig::default(),
            crash_plan: None,
        }
    }
}

/// What one [`AfdServe::tick`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Deltas applied across all sessions this tick.
    pub deltas_applied: usize,
    /// Deltas that failed engine validation and were dropped (one
    /// tenant's bad delta never aborts the tick for the rest).
    pub deltas_failed: usize,
    /// Scheduler visits (a session drained twice counts twice).
    pub sessions_visited: usize,
    /// Cold sessions restored from spill this tick.
    pub restores: usize,
    /// Sessions evicted to spill this tick.
    pub evictions: usize,
    /// Restore attempts that failed this tick (corrupt spill or
    /// transient I/O). A corrupt session's queue is dropped and counted
    /// in [`TickReport::deltas_failed`]; transient failures keep their
    /// queues and retry next tick. Either way the tick kept serving the
    /// other tenants.
    pub restore_failed: usize,
    /// `true` when an eviction hit a full disk (`ENOSPC`) this tick:
    /// the victim stayed resident (over cap, state preserved) instead
    /// of being dropped. Free disk or release sessions to drain.
    pub spill_backpressure: bool,
    /// `true` when the tick stopped on a budget limit with work still
    /// queued — call [`AfdServe::tick`] again to continue.
    pub budget_exhausted: bool,
    /// Deltas still pending server-wide after the tick.
    pub remaining: usize,
}

/// A point-in-time census of the server — what the `afd serve` driver
/// prints and `record_serve` records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Live (addressable) sessions.
    pub sessions: usize,
    /// Sessions with a resident engine — always `<= resident_cap`
    /// (except transiently under disk-full backpressure).
    pub resident: usize,
    /// Deltas pending server-wide.
    pub pending: usize,
    /// Bytes of evicted sessions currently on disk.
    pub spill_bytes: u64,
    /// Ticks run.
    pub ticks: u64,
    /// Deltas applied over the server's lifetime.
    pub deltas_applied: u64,
    /// Deltas dropped by engine validation.
    pub deltas_failed: u64,
    /// Evictions over the server's lifetime.
    pub evictions: u64,
    /// Restores over the server's lifetime.
    pub restores: u64,
    /// Enqueues rejected at the per-session cap.
    pub rejected_session: u64,
    /// Enqueues rejected at the global cap.
    pub rejected_global: u64,
    /// Spill-file deletions (release / restore cleanup) that failed and
    /// left a stale file behind — surfaced, never silently ignored.
    /// Stale files are quarantined by the next recovery.
    pub spill_remove_failed: u64,
    /// Restore attempts that failed over the server's lifetime.
    pub restore_failed: u64,
    /// Registry-journal records appended over the server's lifetime.
    pub journal_appends: u64,
    /// Journal compactions (checkpoint rewrites) over the lifetime.
    pub journal_compactions: u64,
    /// Front-door connections admitted (0 unless a socket front door is
    /// serving — the library API never touches these three).
    pub connections_accepted: u64,
    /// Front-door connections refused at the connection cap.
    pub connections_rejected: u64,
    /// Admitted connections that ended while still holding registered
    /// handles, forcing the disconnect policy to release or park them.
    pub connections_dropped: u64,
}

/// Why a file was moved to `spill_dir/quarantine/` during recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The spill file failed frame/snapshot validation (torn write or
    /// bit rot).
    CorruptFrame,
    /// The spill file is well-formed but its size disagrees with what
    /// the journal recorded for that slot + generation.
    LengthMismatch,
    /// A `sess_*.snap` file no journal record accounts for (e.g. its
    /// registration record never became durable).
    Orphaned,
    /// A `*.tmp` staging file from an atomic write that never renamed.
    TempFile,
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            QuarantineReason::CorruptFrame => "corrupt frame",
            QuarantineReason::LengthMismatch => "length mismatch",
            QuarantineReason::Orphaned => "orphaned",
            QuarantineReason::TempFile => "temp file",
        })
    }
}

/// One file recovery moved aside instead of deleting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Where the file now lives (inside `spill_dir/quarantine/`).
    pub file: PathBuf,
    /// Why it could not be adopted.
    pub reason: QuarantineReason,
}

/// What [`AfdServe::recover`] found and rebuilt. Every session the
/// journal knew about is accounted for — recovered or counted lost —
/// and every unusable file is enumerated, never silently deleted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverReport {
    /// Sessions rebuilt into the registry (all starting cold).
    pub sessions_recovered: usize,
    /// Sessions the journal recorded but whose state was not durable at
    /// the crash (resident with no spill file, or a corrupt one). Their
    /// slots' generations are bumped so old handles answer
    /// [`ServeError::StaleHandle`], never alias a future tenant.
    pub sessions_lost: usize,
    /// Well-formed journal records replayed.
    pub journal_records: usize,
    /// Unreadable journal tail bytes discarded (a torn final append).
    pub journal_truncated_bytes: u64,
    /// Files moved to `spill_dir/quarantine/`, with reasons.
    pub quarantined: Vec<Quarantined>,
    /// Spill bytes adopted for recovered sessions.
    pub spill_bytes: u64,
}

impl std::fmt::Display for RecoverReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered {} sessions ({} lost, {} quarantined) from {} journal records \
             ({} truncated bytes), {} spill bytes adopted",
            self.sessions_recovered,
            self.sessions_lost,
            self.quarantined.len(),
            self.journal_records,
            self.journal_truncated_bytes,
            self.spill_bytes,
        )
    }
}

enum TenantState {
    /// Engine in memory; the tenant's stamp is a key in the LRU map.
    Resident(Box<AfdEngine>),
    /// Engine spilled to `sess_<slot>_<generation>.snap`.
    Evicted,
}

struct Tenant {
    state: TenantState,
    pending: VecDeque<RowDelta>,
    /// In the ready ring (has pending work the scheduler will visit).
    in_ready: bool,
    /// Last-touch logical stamp; the LRU key while resident.
    stamp: u64,
    /// Framed snapshot size on disk while evicted.
    spill_len: u64,
}

impl Tenant {
    fn cold(spill_len: u64) -> Self {
        Tenant {
            state: TenantState::Evicted,
            pending: VecDeque::new(),
            in_ready: false,
            stamp: 0,
            spill_len,
        }
    }
}

/// A long-lived multi-tenant session server in front of [`AfdEngine`].
///
/// Five pieces, matching the ROADMAP's serving-layer item:
///
/// * a **generational-slab registry** — sessions are named by stable
///   [`SessionHandle`]s over reused slots; stale handles are typed
///   errors, never aliased sessions;
/// * a **budget-based tick scheduler** — [`AfdServe::enqueue`] queues
///   deltas per session, [`AfdServe::tick`] drains a bounded
///   [`TickBudget`] across ready sessions round-robin;
/// * **admission control + backpressure** — per-session and global
///   queue caps answer [`ServeError::Backpressure`] *before* touching
///   any state, and the registry itself caps at
///   [`ServeConfig::max_sessions`];
/// * **cold-session eviction** — beyond [`ServeConfig::resident_cap`],
///   least-recently-touched sessions spill to disk as framed
///   [`SessionSnapshot`]s and restore transparently on next touch, so
///   resident memory stays bounded while every registered session
///   remains addressable. Restored scores are bit-identical (restore is
///   the `afd save`/`load` path);
/// * **crash safety** — every registry transition is journaled
///   (persist-first, then mutate), every spill write is atomic
///   (tmp → fsync → rename), and [`AfdServe::recover`] rebuilds the
///   registry from `spill_dir` after a crash, quarantining anything it
///   cannot trust. See the crate docs for the exact durability
///   contract.
///
/// Scheduling, eviction and accounting are all `O(log resident)` or
/// better per operation — nothing scans the registry.
pub struct AfdServe {
    cfg: ServeConfig,
    slab: Slab<Tenant>,
    /// Sessions with pending deltas, in scheduler order.
    ready: VecDeque<u32>,
    /// Resident sessions by last-touch stamp (oldest first) — the
    /// eviction order.
    lru: BTreeMap<u64, u32>,
    persister: Persister,
    journal: Option<Journal>,
    clock: u64,
    global_pending: usize,
    spill_bytes: u64,
    /// Lifetime counters; [`AfdServe::stats`] overlays the point-in-time
    /// fields on top.
    stats: ServeStats,
}

impl AfdServe {
    /// Builds a server and creates its spill directory. With durable
    /// (default) durability this also creates the registry journal —
    /// and refuses a directory that already holds one, because an
    /// existing journal is durable state only [`AfdServe::recover`] may
    /// adopt.
    ///
    /// # Errors
    /// [`ServeError::Config`] on any zero cap or budget, or on a
    /// pre-existing journal; [`ServeError::Io`] when the spill
    /// directory cannot be created.
    pub fn new(cfg: ServeConfig) -> Result<Self, ServeError> {
        Self::validate(&cfg)?;
        fs::create_dir_all(&cfg.spill_dir)?;
        let journal = if cfg.durability.journal {
            Some(Journal::create(&cfg.spill_dir, cfg.durability)?)
        } else {
            None
        };
        Ok(Self::empty(cfg, journal))
    }

    fn validate(cfg: &ServeConfig) -> Result<(), ServeError> {
        for (name, v) in [
            ("resident_cap", cfg.resident_cap),
            ("session_queue_cap", cfg.session_queue_cap),
            ("global_queue_cap", cfg.global_queue_cap),
            ("max_sessions", cfg.max_sessions),
            ("budget.max_deltas", cfg.budget.max_deltas),
            ("budget.session_burst", cfg.budget.session_burst),
        ] {
            if v == 0 {
                return Err(ServeError::Config(format!("{name} must be at least 1")));
            }
        }
        cfg.durability.validate()
    }

    fn empty(cfg: ServeConfig, journal: Option<Journal>) -> Self {
        let persister = Persister::new(cfg.crash_plan);
        AfdServe {
            cfg,
            slab: Slab::new(),
            ready: VecDeque::new(),
            lru: BTreeMap::new(),
            persister,
            journal,
            clock: 0,
            global_pending: 0,
            spill_bytes: 0,
            stats: ServeStats::default(),
        }
    }

    /// Rebuilds a server from a crashed (or cleanly stopped) durable
    /// `spill_dir`: replays the registry journal, validates every spill
    /// file against it, adopts what is trustworthy and quarantines the
    /// rest into `spill_dir/quarantine/`.
    ///
    /// * Journal-**spilled** sessions whose file validates (frame
    ///   checksum + recorded length) are recovered, starting cold.
    /// * Journal-**resident** sessions died with their state in RAM;
    ///   they are recovered only if a still-valid spill file for their
    ///   exact slot + generation survives (an eviction that hit disk
    ///   but whose journal record didn't), otherwise counted lost.
    /// * Lost slots get their generation bumped, so pre-crash handles
    ///   go stale instead of aliasing.
    /// * Corrupt, mis-sized, orphaned and `*.tmp` files are *moved*,
    ///   never deleted, and enumerated in the [`RecoverReport`].
    ///
    /// On success the journal is rewritten as one compacted checkpoint
    /// of the rebuilt registry. A directory with no journal at all
    /// recovers to an empty server (fresh start).
    ///
    /// # Errors
    /// [`ServeError::Config`] when `cfg.durability.journal` is off (an
    /// ephemeral server has nothing to recover); [`ServeError::Io`] on
    /// unreadable directory state. Corruption is never an error here —
    /// it is a counted, quarantined outcome.
    pub fn recover(cfg: ServeConfig) -> Result<(Self, RecoverReport), ServeError> {
        Self::validate(&cfg)?;
        if !cfg.durability.journal {
            return Err(ServeError::Config(
                "recover needs a durable config (DurabilityConfig::journal = true)".into(),
            ));
        }
        fs::create_dir_all(&cfg.spill_dir)?;
        let mut report = RecoverReport::default();

        let Some(load) = Journal::load(&cfg.spill_dir)? else {
            // Nothing durable yet: a fresh start, not an error.
            let journal = Journal::create(&cfg.spill_dir, cfg.durability)?;
            return Ok((Self::empty(cfg, Some(journal)), report));
        };
        report.journal_records = load.records;
        report.journal_truncated_bytes = load.truncated_bytes;
        let (slots, next_seq) = replay(&load.events);

        // Inventory the directory: spill files by (slot, generation),
        // strays straight to quarantine.
        let mut files: BTreeMap<(u32, u32), (PathBuf, u64)> = BTreeMap::new();
        for entry in fs::read_dir(&cfg.spill_dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == JOURNAL_FILE {
                continue;
            }
            if name.ends_with(".tmp") {
                quarantine(
                    &cfg.spill_dir,
                    &path,
                    QuarantineReason::TempFile,
                    &mut report,
                )?;
                continue;
            }
            // Unparseable names are not ours (user files share the dir
            // at their peril, but we never touch what we can't name).
            if let Some(key) = parse_spill_name(&name) {
                let len = entry.metadata()?.len();
                files.insert(key, (path, len));
            }
        }

        // Adopt or lose each journaled slot.
        let max_slot = slots.keys().next_back().map_or(0, |s| s + 1);
        let mut entries: Vec<(u32, Option<Tenant>)> = (0..max_slot).map(|_| (0, None)).collect();
        for (slot, rs) in &slots {
            let slot = *slot;
            match rs.state {
                ReplayState::Free => entries[slot as usize] = (rs.generation, None),
                ReplayState::Spilled { len } => match files.remove(&(slot, rs.generation)) {
                    Some((path, flen)) => {
                        let reason = if flen != len {
                            Some(QuarantineReason::LengthMismatch)
                        } else if !spill_file_valid(&path) {
                            Some(QuarantineReason::CorruptFrame)
                        } else {
                            None
                        };
                        match reason {
                            None => {
                                report.sessions_recovered += 1;
                                report.spill_bytes += len;
                                entries[slot as usize] = (rs.generation, Some(Tenant::cold(len)));
                            }
                            Some(reason) => {
                                quarantine(&cfg.spill_dir, &path, reason, &mut report)?;
                                report.sessions_lost += 1;
                                entries[slot as usize] = (rs.generation.wrapping_add(1), None);
                            }
                        }
                    }
                    None => {
                        report.sessions_lost += 1;
                        entries[slot as usize] = (rs.generation.wrapping_add(1), None);
                    }
                },
                ReplayState::Resident => {
                    // Died with state in RAM. A valid spill file for
                    // this exact slot + generation is a fully-synced
                    // eviction whose journal record didn't land — adopt
                    // it rather than declare loss.
                    match files.remove(&(slot, rs.generation)) {
                        Some((path, flen)) if spill_file_valid(&path) => {
                            report.sessions_recovered += 1;
                            report.spill_bytes += flen;
                            entries[slot as usize] = (rs.generation, Some(Tenant::cold(flen)));
                        }
                        Some((path, _)) => {
                            quarantine(
                                &cfg.spill_dir,
                                &path,
                                QuarantineReason::CorruptFrame,
                                &mut report,
                            )?;
                            report.sessions_lost += 1;
                            entries[slot as usize] = (rs.generation.wrapping_add(1), None);
                        }
                        None => {
                            report.sessions_lost += 1;
                            entries[slot as usize] = (rs.generation.wrapping_add(1), None);
                        }
                    }
                }
            }
        }

        // Whatever spill files remain match no journaled slot.
        for (_, (path, _)) in files {
            quarantine(
                &cfg.spill_dir,
                &path,
                QuarantineReason::Orphaned,
                &mut report,
            )?;
        }

        let slab = Slab::restore_slots(entries);
        let spill_bytes = report.spill_bytes;
        let mut server = Self::empty(cfg, None);
        server.slab = slab;
        server.spill_bytes = spill_bytes;

        // Seal what we rebuilt: one compacted checkpoint, atomically.
        let mut cp = server.manifest_checkpoint();
        cp.next_seq = next_seq;
        let journal = Journal::rewrite(
            &server.cfg.spill_dir,
            &cp,
            server.cfg.durability,
            &mut server.persister,
        )?;
        server.journal = Some(journal);
        Ok((server, report))
    }

    /// The configuration the server runs under.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Handles of every live session, in slot order.
    #[must_use]
    pub fn sessions(&self) -> Vec<SessionHandle> {
        self.slab.handles().collect()
    }

    /// Flushes the whole server to durable state: evicts every resident
    /// session (each spill is atomic + journaled), fsyncs the journal
    /// and compacts it to one checkpoint. After this returns, a crash —
    /// or a clean shutdown — loses nothing: [`AfdServe::recover`]
    /// rebuilds every session. Returns how many sessions were evicted.
    ///
    /// Queued (un-ticked) deltas are volatile by contract and are not
    /// flushed; tick before checkpointing if they matter.
    ///
    /// # Errors
    /// Spill/journal errors; typed [`BackpressureScope::Disk`]
    /// backpressure on a full disk (state intact, retryable).
    pub fn checkpoint(&mut self) -> Result<usize, ServeError> {
        let evictions0 = self.stats.evictions;
        self.evict_down_to(0)?;
        if let Some(j) = self.journal.as_mut() {
            j.sync_now(&mut self.persister)?;
        }
        self.compact_now()?;
        Ok((self.stats.evictions - evictions0) as usize)
    }

    /// Registers a live engine as a session. The engine starts resident;
    /// if residency is at cap, the least-recently-touched session spills
    /// *first* (persist before mutate — a spill failure leaves the
    /// registry unchanged).
    ///
    /// # Errors
    /// [`ServeError::AtCapacity`] at the registry cap; eviction spill
    /// errors as [`ServeError::Engine`] / [`ServeError::Io`] /
    /// disk-full [`ServeError::Backpressure`].
    pub fn register(&mut self, engine: AfdEngine) -> Result<SessionHandle, ServeError> {
        self.admit()?;
        if self.lru.len() >= self.cfg.resident_cap {
            self.evict_down_to(self.cfg.resident_cap - 1)?;
        }
        let h = self.slab.peek_next();
        self.journal_append(ManifestOp::Register, h.index(), h.generation(), 0)?;
        let issued = self.slab.insert(Tenant {
            state: TenantState::Resident(Box::new(engine)),
            pending: VecDeque::new(),
            in_ready: false,
            stamp: 0,
            spill_len: 0,
        });
        debug_assert_eq!(issued, h);
        self.touch(h.index());
        self.lru_insert(h.index());
        self.maybe_compact()?;
        Ok(h)
    }

    /// Registers a session directly from a framed snapshot blob (the
    /// `afd save` format) **without building an engine**: the bytes are
    /// validated, persisted atomically, journaled, and only then does
    /// the registry change — a failure at any step leaves no trace. The
    /// session starts evicted. This is the cheap path to a very large
    /// registry — registering 100k sessions costs 100k small file
    /// writes, not 100k engine builds.
    ///
    /// # Errors
    /// [`ServeError::AtCapacity`] at the registry cap;
    /// [`ServeError::Engine`] when the blob is not a valid snapshot
    /// frame; [`ServeError::Io`] / disk-full
    /// [`ServeError::Backpressure`] when persistence fails.
    pub fn register_snapshot(&mut self, bytes: &[u8]) -> Result<SessionHandle, ServeError> {
        self.admit()?;
        SessionSnapshot::from_bytes(bytes)?;
        let h = self.slab.peek_next();
        let path = self.spill_path(h);
        self.persister
            .write_atomic(&path, bytes)
            .map_err(|e| self.as_disk_backpressure(e))?;
        if let Err(e) = self.journal_append(
            ManifestOp::RegisterSnapshot,
            h.index(),
            h.generation(),
            bytes.len() as u64,
        ) {
            // Unwind the file so the failed admission leaves no trace
            // (unless the simulated process just died — then recovery
            // will quarantine it as orphaned, which is the point).
            if !matches!(e, ServeError::InjectedCrash(_)) && fs::remove_file(&path).is_err() {
                self.stats.spill_remove_failed += 1;
            }
            return Err(e);
        }
        let issued = self.slab.insert(Tenant::cold(bytes.len() as u64));
        debug_assert_eq!(issued, h);
        self.touch(h.index());
        self.spill_bytes += bytes.len() as u64;
        self.maybe_compact()?;
        Ok(h)
    }

    /// Queues a delta for the session; [`AfdServe::tick`] applies it.
    /// Returns the session's pending count after the enqueue.
    ///
    /// Caps are checked **before** anything changes: a
    /// [`ServeError::Backpressure`] rejection leaves the session's
    /// queue, engine and residency exactly as they were. Queued deltas
    /// are volatile — they are applied state only after a tick, and
    /// durable state only after the session next spills.
    ///
    /// # Errors
    /// [`ServeError::StaleHandle`], [`ServeError::Backpressure`].
    pub fn enqueue(&mut self, h: SessionHandle, delta: RowDelta) -> Result<usize, ServeError> {
        let session_cap = self.cfg.session_queue_cap;
        let global_cap = self.cfg.global_queue_cap;
        let global_pending = self.global_pending;
        let tenant = self.slab.get_mut(h)?;
        if tenant.pending.len() >= session_cap {
            let pending = tenant.pending.len();
            self.stats.rejected_session += 1;
            return Err(ServeError::Backpressure {
                scope: BackpressureScope::Session,
                cap: session_cap,
                pending,
            });
        }
        if global_pending >= global_cap {
            self.stats.rejected_global += 1;
            return Err(ServeError::Backpressure {
                scope: BackpressureScope::Global,
                cap: global_cap,
                pending: global_pending,
            });
        }
        tenant.pending.push_back(delta);
        let pending = tenant.pending.len();
        if !tenant.in_ready {
            tenant.in_ready = true;
            self.ready.push_back(h.index());
        }
        self.global_pending += 1;
        Ok(pending)
    }

    /// Runs one scheduler tick: visits ready sessions round-robin,
    /// restores any that are cold, applies up to
    /// [`TickBudget::session_burst`] of each one's pending deltas, and
    /// stops at [`TickBudget::max_deltas`] / [`TickBudget::max_micros`].
    /// Residency is re-bounded to the cap before the tick returns.
    ///
    /// Per-tenant failures never abort the tick: a delta that fails
    /// engine validation is dropped and counted; a session whose spill
    /// file is corrupt has its queue dropped and counted
    /// ([`TickReport::restore_failed`]) while its handle keeps
    /// answering [`ServeError::CorruptSpill`]; a transient restore
    /// failure parks the session for retry next tick; a full disk
    /// degrades eviction to [`TickReport::spill_backpressure`]. The
    /// tick itself errors only on server-level faults.
    ///
    /// # Errors
    /// [`ServeError::Io`] / [`ServeError::Engine`] on server-level
    /// spill failure.
    pub fn tick(&mut self) -> Result<TickReport, ServeError> {
        let started = Instant::now();
        let budget = self.cfg.budget;
        let mut report = TickReport::default();
        let (restores0, evictions0) = (self.stats.restores, self.stats.evictions);
        let mut retry_next_tick: Vec<u32> = Vec::new();
        self.stats.ticks += 1;
        while report.deltas_applied < budget.max_deltas {
            if let Some(max_micros) = budget.max_micros {
                if started.elapsed().as_micros() >= u128::from(max_micros) {
                    report.budget_exhausted = true;
                    break;
                }
            }
            let Some(slot) = self.ready.pop_front() else {
                break;
            };
            // The slot may have been released since it was queued.
            if self.slab.at_mut(slot).is_none() {
                continue;
            }
            self.touch(slot);
            if let Err(e) = self.make_resident(slot) {
                self.stats.restore_failed += 1;
                report.restore_failed += 1;
                match e {
                    ServeError::CorruptSpill { .. } => {
                        // This tenant is poisoned until released; its
                        // queue can never apply. Drop it — counted —
                        // and keep serving everyone else.
                        let tenant = self.slab.at_mut(slot).expect("checked above");
                        let dropped = tenant.pending.len();
                        tenant.pending.clear();
                        tenant.in_ready = false;
                        self.global_pending -= dropped;
                        self.stats.deltas_failed += dropped as u64;
                        report.deltas_failed += dropped;
                        continue;
                    }
                    e @ ServeError::InjectedCrash(_) => return Err(e),
                    _ => {
                        // Transient (I/O, disk pressure): keep the
                        // queue, park the session until next tick.
                        retry_next_tick.push(slot);
                        continue;
                    }
                }
            }
            let burst = budget
                .session_burst
                .min(budget.max_deltas - report.deltas_applied);
            let tenant = self.slab.at_mut(slot).expect("checked above");
            let TenantState::Resident(engine) = &mut tenant.state else {
                unreachable!("made resident above");
            };
            let mut drained = 0usize;
            let mut applied = 0usize;
            let mut failed = 0usize;
            while drained < burst {
                let Some(delta) = tenant.pending.pop_front() else {
                    break;
                };
                drained += 1;
                match engine.delta(&DeltaRequest::new(delta)) {
                    Ok(_) => applied += 1,
                    Err(_) => failed += 1,
                }
            }
            if tenant.pending.is_empty() {
                tenant.in_ready = false;
            } else {
                self.ready.push_back(slot);
            }
            self.global_pending -= drained;
            self.stats.deltas_applied += applied as u64;
            self.stats.deltas_failed += failed as u64;
            report.deltas_applied += applied;
            report.deltas_failed += failed;
            report.sessions_visited += 1;
            match self.evict_to_cap() {
                Ok(()) => {}
                Err(ServeError::Backpressure {
                    scope: BackpressureScope::Disk,
                    ..
                }) => report.spill_backpressure = true,
                Err(e) => return Err(e),
            }
        }
        // Parked sessions stay in the ring (still in_ready) so the next
        // tick retries their restore.
        self.ready.extend(retry_next_tick);
        if report.deltas_applied >= budget.max_deltas && self.global_pending > 0 {
            report.budget_exhausted = true;
        }
        report.restores = (self.stats.restores - restores0) as usize;
        report.evictions = (self.stats.evictions - evictions0) as usize;
        report.remaining = self.global_pending;
        self.maybe_compact()?;
        Ok(report)
    }

    /// Subscribes the session to a candidate FD, restoring it first if
    /// cold. Returns the candidate index (stable for this session).
    ///
    /// # Errors
    /// [`ServeError::StaleHandle`], restore errors (a corrupt spill
    /// file is a typed [`ServeError::CorruptSpill`]), and engine
    /// validation as [`ServeError::Engine`].
    pub fn subscribe(&mut self, h: SessionHandle, fd: Fd) -> Result<usize, ServeError> {
        let slot = self.slab.slot_of(h)?;
        self.touch(slot);
        self.make_resident(slot)?;
        let tenant = self.slab.at_mut(slot).expect("validated");
        let TenantState::Resident(engine) = &mut tenant.state else {
            unreachable!("made resident above");
        };
        let resp = engine.subscribe(&SubscribeRequest::new(fd))?;
        self.evict_to_cap()?;
        Ok(resp.candidate)
    }

    /// The session's current scores for a subscribed candidate,
    /// restoring the session first if cold. Reads reflect *applied*
    /// deltas — queued ones are pending until a tick drains them.
    ///
    /// # Errors
    /// [`ServeError::StaleHandle`], restore errors (a corrupt spill
    /// file is a typed [`ServeError::CorruptSpill`]),
    /// [`ServeError::Engine`] for an unknown candidate.
    pub fn scores(
        &mut self,
        h: SessionHandle,
        candidate: usize,
    ) -> Result<StreamScores, ServeError> {
        let slot = self.slab.slot_of(h)?;
        self.touch(slot);
        self.make_resident(slot)?;
        let tenant = self.slab.at_mut(slot).expect("validated");
        let TenantState::Resident(engine) = &mut tenant.state else {
            unreachable!("made resident above");
        };
        let scores = engine.scores(candidate)?;
        self.evict_to_cap()?;
        Ok(scores)
    }

    /// Evicts the session to spill now (a no-op if already cold). The
    /// handle stays valid — next touch restores it.
    ///
    /// # Errors
    /// [`ServeError::StaleHandle`], spill errors (disk-full as typed
    /// [`ServeError::Backpressure`]; the session stays resident).
    pub fn evict(&mut self, h: SessionHandle) -> Result<(), ServeError> {
        let slot = self.slab.slot_of(h)?;
        let tenant = self.slab.at_mut(slot).expect("validated");
        if matches!(tenant.state, TenantState::Resident(_)) {
            self.lru.remove(&tenant.stamp);
            self.evict_slot(slot)?;
            self.maybe_compact()?;
        }
        Ok(())
    }

    /// Releases the session: the release is journaled, then its queue
    /// is discarded, its spill file (if any) deleted, and the handle —
    /// every copy of it — goes stale.
    ///
    /// # Errors
    /// [`ServeError::StaleHandle`]; journal append failure (the session
    /// is untouched).
    pub fn release(&mut self, h: SessionHandle) -> Result<(), ServeError> {
        let slot = self.slab.slot_of(h)?;
        self.journal_append(ManifestOp::Release, slot, h.generation(), 0)?;
        let path = self.spill_path(self.slab.handle_at(slot));
        let tenant = self.slab.remove(h).expect("validated");
        self.global_pending -= tenant.pending.len();
        match tenant.state {
            TenantState::Resident(engine) => {
                self.lru.remove(&tenant.stamp);
                // Graceful teardown; a straggler shard is the engine's
                // concern, not the registry's.
                let _ = engine.shutdown();
            }
            TenantState::Evicted => {
                self.spill_bytes -= tenant.spill_len;
                self.remove_spill(&path)?;
            }
        }
        if tenant.in_ready {
            self.ready.retain(|&s| s != slot);
        }
        self.maybe_compact()?;
        Ok(())
    }

    /// Whether the session currently has a resident engine.
    ///
    /// # Errors
    /// [`ServeError::StaleHandle`].
    pub fn is_resident(&self, h: SessionHandle) -> Result<bool, ServeError> {
        Ok(matches!(self.slab.get(h)?.state, TenantState::Resident(_)))
    }

    /// Deltas queued for the session.
    ///
    /// # Errors
    /// [`ServeError::StaleHandle`].
    pub fn pending(&self, h: SessionHandle) -> Result<usize, ServeError> {
        Ok(self.slab.get(h)?.pending.len())
    }

    /// Point-in-time census (sessions, residency, queues, lifetime
    /// counters).
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        // The library object never sees connections (they stay 0); the
        // socket front door overlays them before answering a census.
        ServeStats {
            sessions: self.slab.len(),
            resident: self.lru.len(),
            pending: self.global_pending,
            spill_bytes: self.spill_bytes,
            ..self.stats
        }
    }

    /// Test hook: simulate a full spill device (`ENOSPC` on every
    /// write) without filling a real disk.
    #[doc(hidden)]
    pub fn debug_set_disk_full(&mut self, full: bool) {
        self.persister.set_disk_full(full);
    }

    fn admit(&self) -> Result<(), ServeError> {
        if self.slab.len() >= self.cfg.max_sessions {
            return Err(ServeError::AtCapacity {
                cap: self.cfg.max_sessions,
            });
        }
        Ok(())
    }

    fn spill_path(&self, h: SessionHandle) -> PathBuf {
        self.cfg
            .spill_dir
            .join(format!("sess_{}_{}.snap", h.index(), h.generation()))
    }

    /// Append one transition to the journal (a no-op when ephemeral).
    fn journal_append(
        &mut self,
        op: ManifestOp,
        slot: u32,
        generation: u32,
        spill_len: u64,
    ) -> Result<(), ServeError> {
        if let Some(j) = self.journal.as_mut() {
            j.append(&mut self.persister, op, slot, generation, spill_len)?;
            self.stats.journal_appends += 1;
        }
        Ok(())
    }

    /// Compact the journal if it has outgrown the live set.
    fn maybe_compact(&mut self) -> Result<(), ServeError> {
        let due = self
            .journal
            .as_ref()
            .is_some_and(|j| j.should_compact(self.slab.len()));
        if due {
            self.compact_now()?;
        }
        Ok(())
    }

    fn compact_now(&mut self) -> Result<(), ServeError> {
        if self.journal.is_none() {
            return Ok(());
        }
        let cp = self.manifest_checkpoint();
        let j = Journal::rewrite(
            &self.cfg.spill_dir,
            &cp,
            self.cfg.durability,
            &mut self.persister,
        )?;
        self.journal = Some(j);
        self.stats.journal_compactions += 1;
        Ok(())
    }

    /// The registry's full current state as a checkpoint.
    fn manifest_checkpoint(&self) -> ManifestCheckpoint {
        let entries = self
            .slab
            .slots_snapshot()
            .map(|(slot, generation, tenant)| {
                let (status, spill_len) = match tenant {
                    None => (SlotStatus::Free, 0),
                    Some(t) => match t.state {
                        TenantState::Resident(_) => (SlotStatus::Resident, 0),
                        TenantState::Evicted => (SlotStatus::Spilled, t.spill_len),
                    },
                };
                CheckpointEntry {
                    slot,
                    generation,
                    status,
                    spill_len,
                }
            })
            .collect();
        ManifestCheckpoint {
            next_seq: self.journal.as_ref().map_or(0, |j| j.next_seq()),
            entries,
        }
    }

    /// Delete a spill file, counting (not hiding) real failures. An
    /// injected crash still propagates — a dead process deletes
    /// nothing.
    fn remove_spill(&mut self, path: &Path) -> Result<(), ServeError> {
        match self.persister.remove(path) {
            Ok(()) => Ok(()),
            Err(e @ ServeError::InjectedCrash(_)) => Err(e),
            Err(ServeError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(_) => {
                self.stats.spill_remove_failed += 1;
                Ok(())
            }
        }
    }

    fn as_disk_backpressure(&self, e: ServeError) -> ServeError {
        if is_disk_full(&e) {
            ServeError::Backpressure {
                scope: BackpressureScope::Disk,
                cap: self.cfg.resident_cap,
                pending: self.lru.len(),
            }
        } else {
            e
        }
    }

    /// Bumps the logical clock onto the slot's tenant, keeping the LRU
    /// key in sync when resident.
    fn touch(&mut self, slot: u32) {
        self.clock += 1;
        let clock = self.clock;
        let tenant = self.slab.at_mut(slot).expect("touch on a live slot");
        let resident = matches!(tenant.state, TenantState::Resident(_));
        let old = tenant.stamp;
        tenant.stamp = clock;
        if resident {
            self.lru.remove(&old);
            self.lru.insert(clock, slot);
        }
    }

    fn lru_insert(&mut self, slot: u32) {
        let stamp = self.slab.at_mut(slot).expect("live slot").stamp;
        self.lru.insert(stamp, slot);
    }

    /// Restores a cold session from its spill file: read → validate →
    /// journal the restore → only then mutate state and delete the
    /// file. A crash mid-restore leaves the spill file (and journal)
    /// describing a state recovery can still adopt. The caller must
    /// have touched the slot first, so the freshly restored session is
    /// the *newest* resident and the next `evict_to_cap` never
    /// immediately re-evicts it (resident_cap >= 1).
    fn make_resident(&mut self, slot: u32) -> Result<(), ServeError> {
        let h = self.slab.handle_at(slot);
        let tenant = self.slab.at_mut(slot).expect("live slot");
        if matches!(tenant.state, TenantState::Resident(_)) {
            return Ok(());
        }
        let path = self.spill_path(h);
        let bytes = fs::read(&path)?;
        let engine =
            AfdEngine::restore_with_backend(&RestoreRequest::new(bytes), self.cfg.backend.clone())
                .map_err(|e| match e {
                    e @ AfdError::Wire(_) => ServeError::CorruptSpill {
                        path: path.clone(),
                        slot,
                        generation: h.generation(),
                        source: Box::new(e),
                    },
                    e => ServeError::Engine(e),
                })?;
        self.journal_append(ManifestOp::Restore, slot, h.generation(), 0)?;
        let tenant = self.slab.at_mut(slot).expect("live slot");
        tenant.state = TenantState::Resident(Box::new(engine));
        self.spill_bytes -= tenant.spill_len;
        tenant.spill_len = 0;
        self.remove_spill(&path)?;
        self.stats.restores += 1;
        self.lru_insert(slot);
        Ok(())
    }

    /// Spills least-recently-touched residents until the cap holds.
    fn evict_to_cap(&mut self) -> Result<(), ServeError> {
        self.evict_down_to(self.cfg.resident_cap)
    }

    fn evict_down_to(&mut self, target: usize) -> Result<(), ServeError> {
        while self.lru.len() > target {
            let (_, slot) = self.lru.pop_first().expect("len > target >= 0");
            self.evict_slot(slot)?;
        }
        Ok(())
    }

    /// Spills one resident session (already removed from the LRU map):
    /// snapshot → atomic file write → journal the eviction → only then
    /// flip the registry state. Any failure puts the engine back
    /// resident — eviction never trades state for an error. A full disk
    /// comes back as typed [`BackpressureScope::Disk`] backpressure.
    fn evict_slot(&mut self, slot: u32) -> Result<(), ServeError> {
        let h = self.slab.handle_at(slot);
        let path = self.spill_path(h);
        let tenant = self.slab.at_mut(slot).expect("live slot");
        let state = std::mem::replace(&mut tenant.state, TenantState::Evicted);
        let TenantState::Resident(mut engine) = state else {
            unreachable!("evict_slot on a cold slot");
        };
        let snap = match engine.save(&SnapshotRequest::default()) {
            Ok(snap) => snap,
            Err(e) => {
                // Failed to capture: the session stays resident (and
                // back in the LRU) rather than losing state.
                let tenant = self.slab.at_mut(slot).expect("live slot");
                tenant.state = TenantState::Resident(engine);
                self.lru_insert(slot);
                return Err(ServeError::Engine(e));
            }
        };
        if let Err(e) = self.persister.write_atomic(&path, &snap.bytes) {
            let tenant = self.slab.at_mut(slot).expect("live slot");
            tenant.state = TenantState::Resident(engine);
            self.lru_insert(slot);
            return Err(self.as_disk_backpressure(e));
        }
        if let Err(e) = self.journal_append(
            ManifestOp::Evict,
            slot,
            h.generation(),
            snap.bytes.len() as u64,
        ) {
            // The file is durable but unacknowledged; recovery can
            // still adopt it. The live registry keeps the engine.
            let tenant = self.slab.at_mut(slot).expect("live slot");
            tenant.state = TenantState::Resident(engine);
            self.lru_insert(slot);
            return Err(e);
        }
        let len = snap.bytes.len() as u64;
        let tenant = self.slab.at_mut(slot).expect("live slot");
        tenant.spill_len = len;
        self.spill_bytes += len;
        self.stats.evictions += 1;
        let _ = (*engine).shutdown();
        Ok(())
    }
}

impl Drop for AfdServe {
    fn drop(&mut self) {
        // Ephemeral servers treat spill files as working state and
        // sweep them. Durable servers leave everything: spill files +
        // journal ARE the state `AfdServe::recover` rebuilds from.
        if self.cfg.durability.journal {
            return;
        }
        let paths: Vec<PathBuf> = self.slab.handles().map(|h| self.spill_path(h)).collect();
        for path in paths {
            let _ = fs::remove_file(path);
        }
    }
}

/// `sess_<slot>_<generation>.snap` → `(slot, generation)`.
fn parse_spill_name(name: &str) -> Option<(u32, u32)> {
    let rest = name.strip_prefix("sess_")?.strip_suffix(".snap")?;
    let (slot, generation) = rest.split_once('_')?;
    Some((slot.parse().ok()?, generation.parse().ok()?))
}

/// Full validation of a spill file: the frame parses, checksums, and
/// decodes as a session snapshot.
fn spill_file_valid(path: &Path) -> bool {
    match fs::read(path) {
        Ok(bytes) => SessionSnapshot::from_bytes(&bytes).is_ok(),
        Err(_) => false,
    }
}

/// Move `path` into `spill_dir/quarantine/`, recording why. Never
/// deletes; a name collision gets a numeric suffix.
fn quarantine(
    spill_dir: &Path,
    path: &Path,
    reason: QuarantineReason,
    report: &mut RecoverReport,
) -> Result<(), ServeError> {
    let qdir = spill_dir.join("quarantine");
    fs::create_dir_all(&qdir)?;
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".into());
    let mut dest = qdir.join(&name);
    let mut n = 1u32;
    while dest.exists() {
        dest = qdir.join(format!("{name}.{n}"));
        n += 1;
    }
    fs::rename(path, &dest)?;
    report.quarantined.push(Quarantined { file: dest, reason });
    Ok(())
}
