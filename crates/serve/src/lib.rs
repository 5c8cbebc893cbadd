//! # afd-serve
//!
//! A long-lived, multi-tenant session server above [`afd_engine::AfdEngine`]
//! — the serving layer the ROADMAP asked for: many live relations per
//! process, each with delta-maintained subscriptions, targeting a
//! million *registered* sessions with **bounded resident memory**.
//!
//! Everything below this crate already speaks streaming — O(delta)
//! score maintenance, sharded/self-healing backends, exact framed
//! snapshots. What was missing is the layer that multiplexes *many*
//! such sessions through one process without letting any of them claim
//! unbounded memory or scheduler time:
//!
//! * [`AfdServe::register`] / [`AfdServe::register_snapshot`] — admit a
//!   session (a live engine, or just its snapshot bytes — the cheap
//!   path to a huge registry). Sessions are named by generational
//!   [`SessionHandle`]s: slot index + generation, so a released
//!   handle is a typed [`ServeError::StaleHandle`] forever, never an
//!   aliased session.
//! * [`AfdServe::enqueue`] — queue a [`afd_stream::RowDelta`] for a
//!   session, subject to per-session and global caps; at a cap the
//!   answer is a typed [`ServeError::Backpressure`] *before any state
//!   changes*, never unbounded buffering.
//! * [`AfdServe::tick`] — drain a bounded [`TickBudget`] of deltas
//!   across ready sessions **round-robin**, at most
//!   [`TickBudget::session_burst`] per session per visit, so a hot
//!   tenant advances the ring instead of blocking it.
//! * Cold-session eviction — beyond [`ServeConfig::resident_cap`], the
//!   least-recently-touched sessions spill to disk via the existing
//!   framed [`afd_stream::SessionSnapshot`] save/load path and restore
//!   transparently on next touch (enqueue-drain, scores, subscribe).
//!   Restore is bit-exact: a restored session's score reads equal the
//!   evicted one's down to `f64::to_bits`.
//!
//! Scheduling and eviction bookkeeping are `O(log resident)` per
//! operation (a `BTreeMap` keyed by logical touch stamps and a ready
//! ring) — nothing scans the registry, which is what lets the registry
//! grow to 10⁶ while ticks stay flat. The `record_serve` bench example
//! records the resulting curves (resident count vs RSS, p99 apply
//! latency, evict/restore round-trip) in `BENCH_serve.json`.
//!
//! ## Durability & fault model
//!
//! A serve-process crash is a restart, not a data-loss event. The
//! contract, enforced by the crash-injection proptests
//! (`tests/crash_proptests.rs`):
//!
//! * **What the journal records.** Every registry transition —
//!   register, register-from-snapshot, evict, restore, release — is
//!   appended to `spill_dir/registry.afdj` as a checksummed afd-wire
//!   frame carrying slot + generation + spill length, *before* the
//!   in-memory registry changes (persist-first). The journal is fsynced
//!   every [`DurabilityConfig::fsync_every`] appends (default 1) and
//!   compacted to a single checkpoint when it outgrows the live set.
//! * **What survives a crash.** A session whose latest journaled state
//!   is *spilled* survives byte-exactly: spill writes are atomic
//!   (tmp → `write_all` → `sync_all` → rename → dir fsync), so the file
//!   either has the old snapshot or the new one, never a torn frame. A
//!   session that died *resident* had its engine state in RAM: it is
//!   recovered only if a still-valid spill of the same slot+generation
//!   survives on disk (a fully-synced eviction whose journal record
//!   didn't land), otherwise it is a **counted** loss. Queued deltas
//!   ([`AfdServe::enqueue`]) are volatile by contract until a tick
//!   applies them and a spill persists them. [`AfdServe::checkpoint`]
//!   forces the whole server durable (evict-all + fsync + compact).
//! * **Recovery.** [`AfdServe::recover`] replays the journal (stopping
//!   at a torn tail, reported as truncated bytes), validates every
//!   spill frame it adopts, rebuilds the registry — recovered sessions
//!   start cold, lost slots get their generation bumped so stale
//!   handles stay typed-stale — and rewrites the journal as one
//!   compacted checkpoint. It returns a [`RecoverReport`]; it never
//!   panics on corruption and never silently deletes.
//! * **Quarantine semantics.** Anything on disk recovery cannot trust —
//!   corrupt frames, size-vs-journal mismatches, orphaned spills no
//!   record accounts for, `*.tmp` strays — is *moved* to
//!   `spill_dir/quarantine/` and enumerated with a typed
//!   [`QuarantineReason`], preserving the evidence.
//! * **Degraded modes.** A full spill disk (`ENOSPC`) surfaces as typed
//!   [`ServeError::Backpressure`] with [`BackpressureScope::Disk`] and
//!   the victim stays resident — overload is an answer, not state loss.
//!   A corrupt spill hit at restore time is a typed
//!   [`ServeError::CorruptSpill`] (path + slot + generation) that
//!   poisons only that tenant; everyone else keeps ticking.
//! * **Determinism.** The crash-injection [`CrashPlan`] (the serving
//!   sibling of `afd_stream`'s `FaultPlan`) derives a kill/torn/garble
//!   fault site from one seed; the proptests crash a server anywhere in
//!   its persistence paths, recover, continue applying, and pin the
//!   result bit-identical (`f64::to_bits`) to a never-crashed twin —
//!   for both stream backends.
//!
//! The `record_durability` bench example records recovery wall-clock vs
//! registry size, journal overhead on the evict hot path, and the
//! fsync-interval sweep in `BENCH_durability.json`.

mod error;
mod front;
mod journal;
mod persist;
mod registry;
mod serve;

pub use error::{BackpressureScope, ServeError};
pub use front::{
    DisconnectPolicy, FrontConfig, ServeClient, ServeFront, ServeRequest, ServeResponse,
};
pub use journal::DurabilityConfig;
pub use persist::{CrashKind, CrashPlan};
pub use registry::SessionHandle;
pub use serve::{
    AfdServe, QuarantineReason, Quarantined, RecoverReport, ServeConfig, ServeStats, TickBudget,
    TickReport,
};

#[cfg(test)]
mod tests {
    use super::*;
    use afd_engine::{AfdEngine, DeltaRequest, EngineConfig, SnapshotRequest, SubscribeRequest};
    use afd_relation::{AttrId, Fd, Relation, Value};
    use afd_stream::RowDelta;
    use std::path::PathBuf;

    /// A scratch spill dir, unique per test, removed on drop.
    struct SpillDir(PathBuf);

    impl SpillDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("afd-serve-test-{tag}-{}", std::process::id()));
            SpillDir(dir)
        }
    }

    impl Drop for SpillDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn small_engine(seed: u64) -> AfdEngine {
        let rel = Relation::from_pairs([(seed, 10), (seed, 10), (seed + 1, 20), (seed + 1, 99)]);
        let mut engine = AfdEngine::from_relation(rel);
        engine
            .subscribe(&SubscribeRequest::new(Fd::linear(AttrId(0), AttrId(1))))
            .unwrap();
        engine
    }

    fn insert(x: i64, y: i64) -> RowDelta {
        RowDelta {
            inserts: vec![vec![Value::Int(x), Value::Int(y)]],
            deletes: vec![],
        }
    }

    #[test]
    fn zero_caps_are_config_errors() {
        let dir = SpillDir::new("cfg");
        let mut cfg = ServeConfig::new(&dir.0);
        cfg.resident_cap = 0;
        assert!(matches!(AfdServe::new(cfg), Err(ServeError::Config(_))));
        let mut cfg = ServeConfig::new(&dir.0);
        cfg.budget.session_burst = 0;
        assert!(matches!(AfdServe::new(cfg), Err(ServeError::Config(_))));
    }

    #[test]
    fn stale_handles_stay_stale_across_slot_reuse() {
        let dir = SpillDir::new("stale");
        let mut serve = AfdServe::new(ServeConfig::new(&dir.0)).unwrap();
        let a = serve.register(small_engine(0)).unwrap();
        serve.release(a).unwrap();
        assert!(matches!(serve.scores(a, 0), Err(ServeError::StaleHandle(h)) if h == a));
        assert!(matches!(
            serve.enqueue(a, insert(1, 1)),
            Err(ServeError::StaleHandle(_))
        ));
        assert!(matches!(serve.release(a), Err(ServeError::StaleHandle(_))));
        // The slot is reused under a new generation; the old handle
        // still cannot reach the new session.
        let b = serve.register(small_engine(5)).unwrap();
        assert_eq!(b.index(), a.index());
        assert_ne!(b.generation(), a.generation());
        assert!(matches!(
            serve.scores(a, 0),
            Err(ServeError::StaleHandle(_))
        ));
        assert!(serve.scores(b, 0).is_ok());
    }

    #[test]
    fn registry_admission_is_capped() {
        let dir = SpillDir::new("admit");
        let mut cfg = ServeConfig::new(&dir.0);
        cfg.max_sessions = 2;
        let mut serve = AfdServe::new(cfg).unwrap();
        let a = serve.register(small_engine(0)).unwrap();
        let _b = serve.register(small_engine(1)).unwrap();
        assert!(matches!(
            serve.register(small_engine(2)),
            Err(ServeError::AtCapacity { cap: 2 })
        ));
        // Releasing frees a seat.
        serve.release(a).unwrap();
        assert!(serve.register(small_engine(3)).is_ok());
    }

    #[test]
    fn backpressure_is_typed_and_mutates_nothing() {
        let dir = SpillDir::new("bp");
        let mut cfg = ServeConfig::new(&dir.0);
        cfg.session_queue_cap = 2;
        cfg.global_queue_cap = 3;
        let mut serve = AfdServe::new(cfg).unwrap();
        let a = serve.register(small_engine(0)).unwrap();
        let b = serve.register(small_engine(10)).unwrap();
        let scores_before = serve.scores(a, 0).unwrap();

        assert_eq!(serve.enqueue(a, insert(1, 1)).unwrap(), 1);
        assert_eq!(serve.enqueue(a, insert(2, 2)).unwrap(), 2);
        // Per-session cap hit: typed rejection, queue unchanged.
        assert!(matches!(
            serve.enqueue(a, insert(3, 3)),
            Err(ServeError::Backpressure {
                scope: BackpressureScope::Session,
                cap: 2,
                pending: 2,
            })
        ));
        assert_eq!(serve.pending(a).unwrap(), 2);
        // Global cap hit on the other session.
        assert_eq!(serve.enqueue(b, insert(1, 1)).unwrap(), 1);
        assert!(matches!(
            serve.enqueue(b, insert(2, 2)),
            Err(ServeError::Backpressure {
                scope: BackpressureScope::Global,
                cap: 3,
                pending: 3,
            })
        ));
        assert_eq!(serve.pending(b).unwrap(), 1);
        // Engine-boundary check: the rejected enqueues never touched the
        // engine — its scores are bitwise what they were.
        assert!(serve.scores(a, 0).unwrap().bits_eq(&scores_before));
        let stats = serve.stats();
        assert_eq!(stats.rejected_session, 1);
        assert_eq!(stats.rejected_global, 1);
        assert_eq!(stats.pending, 3);
        // Draining reopens admission.
        serve.tick().unwrap();
        assert_eq!(serve.stats().pending, 0);
        assert!(serve.enqueue(a, insert(3, 3)).is_ok());
    }

    #[test]
    fn tick_budget_bounds_work_and_round_robins_fairly() {
        let dir = SpillDir::new("tick");
        let mut cfg = ServeConfig::new(&dir.0);
        cfg.budget = TickBudget {
            max_deltas: 4,
            session_burst: 2,
        };
        let mut serve = AfdServe::new(cfg).unwrap();
        let a = serve.register(small_engine(0)).unwrap();
        let b = serve.register(small_engine(10)).unwrap();
        for i in 0..5 {
            serve.enqueue(a, insert(i, i)).unwrap();
        }
        for i in 0..3 {
            serve.enqueue(b, insert(i, i)).unwrap();
        }
        // Tick 1: burst 2 from a, burst 2 from b — budget exhausted with
        // work left; the hot session did not starve the other.
        let r = serve.tick().unwrap();
        assert_eq!(r.deltas_applied, 4);
        assert_eq!(r.sessions_visited, 2);
        assert!(r.budget_exhausted);
        assert_eq!(r.remaining, 4);
        assert_eq!(serve.pending(a).unwrap(), 3);
        assert_eq!(serve.pending(b).unwrap(), 1);
        // Tick 2 continues round-robin; tick 3 finishes the backlog.
        let r = serve.tick().unwrap();
        assert_eq!(r.deltas_applied, 4);
        let r = serve.tick().unwrap();
        assert_eq!(r.deltas_applied, 0);
        assert!(!r.budget_exhausted);
        assert_eq!(serve.stats().pending, 0);
        assert_eq!(serve.stats().deltas_applied, 8);
    }

    #[test]
    fn invalid_deltas_drop_without_aborting_the_tick() {
        let dir = SpillDir::new("bad");
        let mut serve = AfdServe::new(ServeConfig::new(&dir.0)).unwrap();
        let a = serve.register(small_engine(0)).unwrap();
        // Wrong arity: fails engine validation at apply time.
        serve
            .enqueue(
                a,
                RowDelta {
                    inserts: vec![vec![Value::Int(1)]],
                    deletes: vec![],
                },
            )
            .unwrap();
        serve.enqueue(a, insert(4, 4)).unwrap();
        let r = serve.tick().unwrap();
        assert_eq!(r.deltas_failed, 1);
        assert_eq!(r.deltas_applied, 1);
        assert_eq!(serve.stats().pending, 0);
    }

    #[test]
    fn eviction_bounds_residency_and_restores_bit_identically() {
        let dir = SpillDir::new("evict");
        let mut cfg = ServeConfig::new(&dir.0);
        cfg.resident_cap = 2;
        let mut serve = AfdServe::new(cfg).unwrap();
        // A never-served control evolves in lockstep with session 0.
        let mut control = small_engine(0);
        let handles: Vec<_> = (0..5)
            .map(|i| serve.register(small_engine(i)).unwrap())
            .collect();
        assert!(serve.stats().resident <= 2);
        assert_eq!(serve.stats().sessions, 5);
        assert!(serve.stats().evictions >= 3);
        assert!(serve.stats().spill_bytes > 0);
        // Session 0 is cold by now; enqueue + tick restores it
        // transparently and applies.
        assert!(!serve.is_resident(handles[0]).unwrap());
        serve.enqueue(handles[0], insert(7, 7)).unwrap();
        let r = serve.tick().unwrap();
        assert!(r.restores >= 1);
        control.delta(&DeltaRequest::new(insert(7, 7))).unwrap();
        // Bit-identical to the never-evicted control.
        assert!(serve
            .scores(handles[0], 0)
            .unwrap()
            .bits_eq(&control.scores(0).unwrap()));
        // Touch every session: all stay addressable, residency stays
        // bounded the whole way.
        for &h in &handles {
            assert!(serve.scores(h, 0).is_ok());
            assert!(serve.stats().resident <= 2);
        }
        // Restores deleted their spill files; the census agrees.
        let on_disk: u64 = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert_eq!(on_disk, serve.stats().spill_bytes);
    }

    #[test]
    fn explicit_evict_and_snapshot_registration() {
        let dir = SpillDir::new("snapreg");
        let mut serve = AfdServe::new(ServeConfig::new(&dir.0)).unwrap();
        // Register from bytes: no engine is built until first touch.
        let mut template = small_engine(3);
        let bytes = template.save(&SnapshotRequest::default()).unwrap().bytes;
        let h = serve.register_snapshot(&bytes).unwrap();
        assert!(!serve.is_resident(h).unwrap());
        assert_eq!(serve.stats().spill_bytes, bytes.len() as u64);
        // First touch restores; scores match the engine the bytes came
        // from.
        let scores = serve.scores(h, 0).unwrap();
        assert!(serve.is_resident(h).unwrap());
        assert!(scores.bits_eq(&template.scores(0).unwrap()));
        // Explicit evict is an idempotent round-trip.
        serve.evict(h).unwrap();
        serve.evict(h).unwrap();
        assert!(!serve.is_resident(h).unwrap());
        assert!(serve.scores(h, 0).unwrap().bits_eq(&scores));
        // Garbage bytes are a typed engine error, not a registration.
        let sessions = serve.stats().sessions;
        assert!(matches!(
            serve.register_snapshot(&bytes[..bytes.len() / 2]),
            Err(ServeError::Engine(_))
        ));
        assert_eq!(serve.stats().sessions, sessions);
    }

    #[test]
    fn recover_round_trips_a_checkpointed_server() {
        let dir = SpillDir::new("recover");
        let mut cfg = ServeConfig::new(&dir.0);
        cfg.resident_cap = 2;
        let mut serve = AfdServe::new(cfg.clone()).unwrap();
        let mut control = small_engine(0);
        let a = serve.register(small_engine(0)).unwrap();
        let mut template = small_engine(7);
        let bytes = template.save(&SnapshotRequest::default()).unwrap().bytes;
        let b = serve.register_snapshot(&bytes).unwrap();
        let released = serve.register(small_engine(1)).unwrap();
        serve.release(released).unwrap();
        serve.enqueue(a, insert(5, 5)).unwrap();
        serve.tick().unwrap();
        control.delta(&DeltaRequest::new(insert(5, 5))).unwrap();
        let evicted = serve.checkpoint().unwrap();
        assert!(evicted >= 1, "a was resident before the checkpoint");
        assert!(serve.stats().journal_appends > 0);
        drop(serve); // durable: leaves spill files + journal intact

        let (mut serve, report) = AfdServe::recover(cfg).unwrap();
        assert_eq!(report.sessions_recovered, 2, "{report}");
        assert_eq!(report.sessions_lost, 0);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.journal_truncated_bytes, 0);
        assert_eq!(serve.sessions().len(), 2);
        // Every recovered session starts cold and the old handles still
        // address it; released ones are still typed-stale.
        assert!(!serve.is_resident(a).unwrap());
        assert!(serve
            .scores(a, 0)
            .unwrap()
            .bits_eq(&control.scores(0).unwrap()));
        assert!(serve
            .scores(b, 0)
            .unwrap()
            .bits_eq(&template.scores(0).unwrap()));
        assert!(matches!(
            serve.scores(released, 0),
            Err(ServeError::StaleHandle(_))
        ));
        // Slot reuse after recovery keeps the stale handle stale.
        let fresh = serve.register(small_engine(9)).unwrap();
        assert_eq!(fresh.index(), released.index());
        assert!(matches!(
            serve.scores(released, 0),
            Err(ServeError::StaleHandle(_))
        ));
    }

    #[test]
    fn recover_quarantines_corrupt_orphaned_and_tmp_files() {
        let dir = SpillDir::new("quarantine");
        let cfg = ServeConfig::new(&dir.0);
        let mut serve = AfdServe::new(cfg.clone()).unwrap();
        let mut template = small_engine(2);
        let bytes = template.save(&SnapshotRequest::default()).unwrap().bytes;
        let keep = serve.register_snapshot(&bytes).unwrap();
        let corrupt = serve.register_snapshot(&bytes).unwrap();
        drop(serve);
        // Flip one payload byte of the second session's spill file.
        let victim = dir.0.join(format!(
            "sess_{}_{}.snap",
            corrupt.index(),
            corrupt.generation()
        ));
        let mut raw = std::fs::read(&victim).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xff;
        std::fs::write(&victim, &raw).unwrap();
        // Plant an orphan and a stray tmp file.
        std::fs::write(dir.0.join("sess_99_0.snap"), b"not a frame").unwrap();
        std::fs::write(dir.0.join("sess_0_0.snap.tmp"), b"half-written").unwrap();

        let (mut serve, report) = AfdServe::recover(cfg).unwrap();
        assert_eq!(report.sessions_recovered, 1, "{report}");
        assert_eq!(report.sessions_lost, 1);
        let mut reasons: Vec<_> = report.quarantined.iter().map(|q| q.reason).collect();
        reasons.sort_by_key(|r| format!("{r}"));
        assert_eq!(
            reasons,
            vec![
                QuarantineReason::CorruptFrame,
                QuarantineReason::Orphaned,
                QuarantineReason::TempFile,
            ]
        );
        // Quarantined files were moved, not deleted.
        for q in &report.quarantined {
            assert!(q.file.exists(), "{:?}", q.file);
            assert!(q.file.starts_with(dir.0.join("quarantine")));
        }
        assert!(!victim.exists());
        // The intact session still serves; the corrupt one's handle is
        // stale (its slot was lost, generation bumped).
        assert!(serve
            .scores(keep, 0)
            .unwrap()
            .bits_eq(&template.scores(0).unwrap()));
        assert!(matches!(
            serve.scores(corrupt, 0),
            Err(ServeError::StaleHandle(_))
        ));
    }

    #[test]
    fn corrupt_spill_is_typed_and_does_not_poison_other_tenants() {
        let dir = SpillDir::new("corrupt");
        // Ephemeral: corruption handling must not depend on the journal.
        let mut cfg = ServeConfig::new(&dir.0);
        cfg.durability = DurabilityConfig::ephemeral();
        let mut serve = AfdServe::new(cfg).unwrap();
        let mut template = small_engine(4);
        let bytes = template.save(&SnapshotRequest::default()).unwrap().bytes;
        let poisoned = serve.register_snapshot(&bytes).unwrap();
        let healthy = serve.register_snapshot(&bytes).unwrap();
        // Truncate the poisoned session's spill file mid-frame.
        let path = dir.0.join(format!(
            "sess_{}_{}.snap",
            poisoned.index(),
            poisoned.generation()
        ));
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        // Direct touch: typed CorruptSpill carrying path + slot + gen.
        match serve.scores(poisoned, 0) {
            Err(ServeError::CorruptSpill {
                path: p,
                slot,
                generation,
                ..
            }) => {
                assert_eq!(p, path);
                assert_eq!(slot, poisoned.index());
                assert_eq!(generation, poisoned.generation());
            }
            other => panic!("expected CorruptSpill, got {other:?}"),
        }
        // Queued work: the poisoned tenant's queue drops (counted); the
        // healthy tenant still applies in the same tick.
        serve.enqueue(poisoned, insert(1, 1)).unwrap();
        serve.enqueue(poisoned, insert(2, 2)).unwrap();
        serve.enqueue(healthy, insert(3, 3)).unwrap();
        let r = serve.tick().unwrap();
        assert_eq!(r.restore_failed, 1);
        assert_eq!(r.deltas_failed, 2, "poisoned queue dropped, counted");
        assert_eq!(r.deltas_applied, 1, "healthy tenant unaffected");
        assert_eq!(serve.stats().pending, 0);
        assert_eq!(serve.stats().restore_failed, 1);
        template.delta(&DeltaRequest::new(insert(3, 3))).unwrap();
        assert!(serve
            .scores(healthy, 0)
            .unwrap()
            .bits_eq(&template.scores(0).unwrap()));
    }

    #[test]
    fn disk_full_eviction_degrades_to_typed_backpressure() {
        let dir = SpillDir::new("enospc");
        let mut cfg = ServeConfig::new(&dir.0);
        cfg.resident_cap = 1;
        let mut serve = AfdServe::new(cfg).unwrap();
        let a = serve.register(small_engine(0)).unwrap();
        let before = serve.scores(a, 0).unwrap();
        serve.debug_set_disk_full(true);
        // Registering a second engine needs to evict `a` — which now
        // cannot spill. Typed Disk backpressure, nothing mutated.
        match serve.register(small_engine(1)) {
            Err(ServeError::Backpressure {
                scope: BackpressureScope::Disk,
                ..
            }) => {}
            other => panic!("expected disk backpressure, got {other:?}"),
        }
        assert_eq!(serve.stats().sessions, 1);
        assert!(serve.is_resident(a).unwrap(), "victim kept its state");
        // Ticks under a full disk keep serving (degraded, flagged).
        serve.enqueue(a, insert(8, 8)).unwrap();
        let r = serve.tick().unwrap();
        assert_eq!(r.deltas_applied, 1);
        // The drive comes back; everything proceeds, state intact.
        serve.debug_set_disk_full(false);
        let b = serve.register(small_engine(1)).unwrap();
        assert!(serve.scores(b, 0).is_ok());
        let mut control = small_engine(0);
        assert!(before.bits_eq(&control.scores(0).unwrap()));
        control.delta(&DeltaRequest::new(insert(8, 8))).unwrap();
        assert!(serve
            .scores(a, 0)
            .unwrap()
            .bits_eq(&control.scores(0).unwrap()));
    }

    #[test]
    fn durable_server_refuses_a_dirty_dir_and_recover_requires_journal() {
        let dir = SpillDir::new("dirty");
        let cfg = ServeConfig::new(&dir.0);
        let serve = AfdServe::new(cfg.clone()).unwrap();
        drop(serve);
        // The journal survives the drop; a fresh durable server must
        // not silently adopt or clobber it.
        let Err(err) = AfdServe::new(cfg.clone()) else {
            panic!("a dirty durable dir must be refused");
        };
        assert!(matches!(err, ServeError::Config(_)), "{err}");
        assert!(err.to_string().contains("recover"));
        // recover() on an ephemeral config is a config error.
        let mut eph = cfg.clone();
        eph.durability = DurabilityConfig::ephemeral();
        assert!(matches!(AfdServe::recover(eph), Err(ServeError::Config(_))));
        // recover() adopts the empty journal fine.
        let (serve, report) = AfdServe::recover(cfg).unwrap();
        assert_eq!(report, RecoverReport::default());
        assert_eq!(serve.sessions().len(), 0);
    }

    #[test]
    fn sharded_sessions_serve_and_evict_too() {
        let dir = SpillDir::new("shard");
        let mut cfg = ServeConfig::new(&dir.0);
        cfg.resident_cap = 1;
        let mut serve = AfdServe::new(cfg).unwrap();
        let rel = Relation::from_pairs([(1, 10), (2, 20), (3, 30), (1, 10)]);
        let mut engine = AfdEngine::from_relation(rel)
            .with_config(EngineConfig {
                shards: 2,
                shard_key: Some(afd_relation::AttrSet::single(AttrId(0))),
                ..EngineConfig::default()
            })
            .unwrap();
        engine
            .subscribe(&SubscribeRequest::new(Fd::linear(AttrId(0), AttrId(1))))
            .unwrap();
        let sharded = serve.register(engine).unwrap();
        let plain = serve.register(small_engine(0)).unwrap();
        // Registering `plain` evicted the sharded session (cap 1);
        // restoring it preserves its shard topology and scores.
        assert!(!serve.is_resident(sharded).unwrap());
        serve.enqueue(sharded, insert(2, 20)).unwrap();
        serve.enqueue(plain, insert(9, 9)).unwrap();
        serve.tick().unwrap();
        assert!(serve.scores(sharded, 0).is_ok());
        assert_eq!(serve.stats().resident, 1);
        assert_eq!(serve.stats().pending, 0);
    }
}
