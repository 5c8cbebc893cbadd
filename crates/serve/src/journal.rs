//! The durable registry journal: an append-only manifest of session
//! transitions, compacted into checkpoints.
//!
//! The journal is one file, `registry.afdj`, inside the server's
//! `spill_dir`. Its content is a sequence of standard afd-wire frames:
//! at most one leading [`ManifestCheckpoint`] (the compacted state of
//! every slot at some instant) followed by [`ManifestRecord`]s, one per
//! registry transition since. Each frame carries its own FNV-1a
//! checksum, so the only undetectable failure mode is a cleanly
//! truncated tail — which [`Journal::load`] reports as
//! `truncated_bytes` rather than replaying garbage.
//!
//! Durability policy is the server's [`DurabilityConfig`]:
//!
//! * `fsync_every = n` — fsync the journal after every `n`th append
//!   (1 = every transition is durable the moment its call returns;
//!   larger values trade a bounded window of re-loseable transitions
//!   for throughput, measured in `BENCH_durability.json`);
//! * `compact_factor` / `compact_min` — when the record count since the
//!   last checkpoint exceeds `max(compact_min, live_slots ×
//!   compact_factor)`, the owner rewrites the journal as a single fresh
//!   checkpoint (atomically: tmp → rename), so the journal's size tracks
//!   the live set, not the server's lifetime.
//!
//! All disk traffic goes through the crate's [`Persister`], so crash
//! injection covers journal appends, fsyncs and compaction renames
//! exactly like spill writes.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::path::{Path, PathBuf};

use afd_wire::{
    encode_framed, read_frame, Decode, ManifestCheckpoint, ManifestOp, ManifestRecord,
    KIND_MANIFEST_CHECKPOINT, KIND_MANIFEST_RECORD,
};

use crate::error::ServeError;
use crate::persist::Persister;

/// File name of the registry journal inside `spill_dir`.
pub(crate) const JOURNAL_FILE: &str = "registry.afdj";

/// How aggressively the server makes registry state durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Keep a registry journal at all. `false` restores the pre-journal
    /// behaviour: RAM-only registry, spill files swept on drop, nothing
    /// recoverable — for throwaway servers and tests that reuse a
    /// directory across instances.
    pub journal: bool,
    /// Fsync the journal after every `n`th append (≥ 1). With 1 every
    /// acknowledged transition survives a crash; with `n` the last
    /// `n − 1` transitions may be re-lost (spill files themselves are
    /// always fully synced before their journal record is written).
    pub fsync_every: u64,
    /// Compact when records-since-checkpoint exceed `live_slots ×
    /// compact_factor` (≥ 1).
    pub compact_factor: u64,
    /// …but never compact before this many records have accumulated
    /// (keeps small registries from checkpointing constantly).
    pub compact_min: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            journal: true,
            fsync_every: 1,
            compact_factor: 4,
            compact_min: 1024,
        }
    }
}

impl DurabilityConfig {
    /// No journal, no recovery; spill files are swept when the server
    /// drops. The pre-durability contract.
    pub fn ephemeral() -> Self {
        DurabilityConfig {
            journal: false,
            ..DurabilityConfig::default()
        }
    }

    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if self.journal && self.fsync_every == 0 {
            return Err(ServeError::Config("fsync_every must be >= 1".into()));
        }
        if self.journal && self.compact_factor == 0 {
            return Err(ServeError::Config("compact_factor must be >= 1".into()));
        }
        Ok(())
    }
}

/// One parsed journal frame, in file order.
#[derive(Debug)]
pub(crate) enum JournalEvent {
    Checkpoint(ManifestCheckpoint),
    Record(ManifestRecord),
}

/// Everything [`Journal::load`] learned from an existing journal file.
#[derive(Debug, Default)]
pub(crate) struct JournalLoad {
    pub events: Vec<JournalEvent>,
    /// Bytes of unreadable tail (torn final append) that were ignored.
    pub truncated_bytes: u64,
    /// Total well-formed record frames (checkpoints not counted).
    pub records: usize,
}

/// A slot's state as reconstructed by [`replay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplayState {
    Free,
    Resident,
    Spilled { len: u64 },
}

/// One slot after replay: the generation the slot is currently on (for
/// free slots: the generation the *next* tenant will get).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplaySlot {
    pub generation: u32,
    pub state: ReplayState,
}

/// Fold journal events into per-slot end states.
pub(crate) fn replay(events: &[JournalEvent]) -> (BTreeMap<u32, ReplaySlot>, u64) {
    let mut slots: BTreeMap<u32, ReplaySlot> = BTreeMap::new();
    let mut next_seq = 0u64;
    for event in events {
        match event {
            JournalEvent::Checkpoint(cp) => {
                slots.clear();
                next_seq = cp.next_seq;
                for e in &cp.entries {
                    let state = match e.status {
                        afd_wire::SlotStatus::Free => ReplayState::Free,
                        afd_wire::SlotStatus::Resident => ReplayState::Resident,
                        afd_wire::SlotStatus::Spilled => ReplayState::Spilled { len: e.spill_len },
                    };
                    slots.insert(
                        e.slot,
                        ReplaySlot {
                            generation: e.generation,
                            state,
                        },
                    );
                }
            }
            JournalEvent::Record(rec) => {
                next_seq = rec.seq + 1;
                let slot = ReplaySlot {
                    generation: rec.generation,
                    state: match rec.op {
                        ManifestOp::Register | ManifestOp::Restore => ReplayState::Resident,
                        ManifestOp::RegisterSnapshot | ManifestOp::Evict => {
                            ReplayState::Spilled { len: rec.spill_len }
                        }
                        ManifestOp::Release => ReplayState::Free,
                    },
                };
                let slot = if rec.op == ManifestOp::Release {
                    // A released slot's next tenant gets the bumped
                    // generation, exactly like `Slab::remove`.
                    ReplaySlot {
                        generation: rec.generation.wrapping_add(1),
                        state: ReplayState::Free,
                    }
                } else {
                    slot
                };
                slots.insert(rec.slot, slot);
            }
        }
    }
    (slots, next_seq)
}

/// The open, append-only journal of a live server.
#[derive(Debug)]
pub(crate) struct Journal {
    #[cfg_attr(not(test), allow(dead_code))]
    path: PathBuf,
    file: File,
    next_seq: u64,
    records_since_checkpoint: u64,
    appends_since_sync: u64,
    cfg: DurabilityConfig,
}

impl Journal {
    pub(crate) fn path_in(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE)
    }

    /// Create a brand-new journal in `dir`. Refuses (with
    /// [`ServeError::Config`]) if one already exists: an existing
    /// journal means durable state that `AfdServe::recover` — not a
    /// fresh server — must adopt.
    pub(crate) fn create(dir: &Path, cfg: DurabilityConfig) -> Result<Self, ServeError> {
        let path = Self::path_in(dir);
        match std::fs::OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
        {
            Ok(file) => Ok(Journal {
                path,
                file,
                next_seq: 0,
                records_since_checkpoint: 0,
                appends_since_sync: 0,
                cfg,
            }),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                Err(ServeError::Config(format!(
                    "{} already holds a registry journal; use AfdServe::recover \
                     (or DurabilityConfig::ephemeral for a throwaway server)",
                    dir.display()
                )))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Rewrite the journal as `checkpoint` alone (atomic tmp → rename),
    /// then reopen for appending. Used by compaction and by recovery to
    /// seal what it rebuilt.
    pub(crate) fn rewrite(
        dir: &Path,
        checkpoint: &ManifestCheckpoint,
        cfg: DurabilityConfig,
        persister: &mut Persister,
    ) -> Result<Self, ServeError> {
        let path = Self::path_in(dir);
        let bytes = encode_framed(KIND_MANIFEST_CHECKPOINT, checkpoint)
            .map_err(|e| ServeError::Engine(afd_engine::AfdError::Wire(e)))?;
        persister.write_atomic(&path, &bytes)?;
        let file = persister.open_append(&path)?;
        Ok(Journal {
            path,
            file,
            next_seq: checkpoint.next_seq,
            records_since_checkpoint: 0,
            appends_since_sync: 0,
            cfg,
        })
    }

    /// Append one transition record; fsync per the configured cadence.
    /// On success returns the sequence number the record was written
    /// under.
    pub(crate) fn append(
        &mut self,
        persister: &mut Persister,
        op: ManifestOp,
        slot: u32,
        generation: u32,
        spill_len: u64,
    ) -> Result<u64, ServeError> {
        let rec = ManifestRecord {
            seq: self.next_seq,
            op,
            slot,
            generation,
            spill_len,
        };
        let bytes = encode_framed(KIND_MANIFEST_RECORD, &rec)
            .map_err(|e| ServeError::Engine(afd_engine::AfdError::Wire(e)))?;
        persister.write_all(&mut self.file, &bytes)?;
        self.next_seq += 1;
        self.records_since_checkpoint += 1;
        self.appends_since_sync += 1;
        if self.appends_since_sync >= self.cfg.fsync_every {
            persister.sync(&self.file)?;
            self.appends_since_sync = 0;
        }
        Ok(rec.seq)
    }

    /// Force-fsync any appends still in the page cache.
    pub(crate) fn sync_now(&mut self, persister: &mut Persister) -> Result<(), ServeError> {
        if self.appends_since_sync > 0 {
            persister.sync(&self.file)?;
            self.appends_since_sync = 0;
        }
        Ok(())
    }

    /// Should the owner compact, given `live` occupied slots?
    pub(crate) fn should_compact(&self, live: usize) -> bool {
        let threshold = (live as u64)
            .saturating_mul(self.cfg.compact_factor)
            .max(self.cfg.compact_min);
        self.records_since_checkpoint > threshold
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    #[cfg(test)]
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Parse an existing journal file. `Ok(None)` when `dir` has no
    /// journal at all. Parsing stops at the first unreadable frame —
    /// a torn tail is expected after a crash and is *reported*, never
    /// replayed and never fatal.
    pub(crate) fn load(dir: &Path) -> Result<Option<JournalLoad>, ServeError> {
        let path = Self::path_in(dir);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut load = JournalLoad::default();
        let mut off = 0usize;
        while off < bytes.len() {
            match read_frame(&bytes[off..]) {
                Ok((KIND_MANIFEST_CHECKPOINT, payload, consumed)) => {
                    match ManifestCheckpoint::decode_exact(payload) {
                        Ok(cp) => load.events.push(JournalEvent::Checkpoint(cp)),
                        Err(_) => break,
                    }
                    off += consumed;
                }
                Ok((KIND_MANIFEST_RECORD, payload, consumed)) => {
                    match ManifestRecord::decode_exact(payload) {
                        Ok(rec) => {
                            load.records += 1;
                            load.events.push(JournalEvent::Record(rec));
                        }
                        Err(_) => break,
                    }
                    off += consumed;
                }
                // Unknown kind or torn/corrupt frame: stop here.
                Ok(_) | Err(_) => break,
            }
        }
        load.truncated_bytes = (bytes.len() - off) as u64;
        Ok(Some(load))
    }
}

/// Convenience used by tests.
#[cfg(test)]
pub(crate) fn checkpoint_bytes(cp: &ManifestCheckpoint) -> usize {
    encode_framed(KIND_MANIFEST_CHECKPOINT, cp)
        .expect("a checkpoint fits one frame")
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_wire::{CheckpointEntry, SlotStatus};

    fn tdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("afd-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_load_replay_roundtrip() {
        let dir = tdir("rt");
        let mut p = Persister::new(None);
        let cfg = DurabilityConfig::default();
        let mut j = Journal::create(&dir, cfg).unwrap();
        j.append(&mut p, ManifestOp::Register, 0, 0, 0).unwrap();
        j.append(&mut p, ManifestOp::Evict, 0, 0, 512).unwrap();
        j.append(&mut p, ManifestOp::Register, 1, 0, 0).unwrap();
        j.append(&mut p, ManifestOp::Release, 1, 0, 0).unwrap();
        j.append(&mut p, ManifestOp::Restore, 0, 0, 0).unwrap();

        let load = Journal::load(&dir).unwrap().unwrap();
        assert_eq!(load.records, 5);
        assert_eq!(load.truncated_bytes, 0);
        let (slots, next_seq) = replay(&load.events);
        assert_eq!(next_seq, 5);
        assert_eq!(slots[&0].state, ReplayState::Resident);
        assert_eq!(slots[&0].generation, 0);
        assert_eq!(slots[&1].state, ReplayState::Free);
        assert_eq!(slots[&1].generation, 1, "release bumps the generation");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_server_refuses_existing_journal() {
        let dir = tdir("refuse");
        let cfg = DurabilityConfig::default();
        let _j = Journal::create(&dir, cfg).unwrap();
        let err = Journal::create(&dir, cfg).unwrap_err();
        assert!(matches!(err, ServeError::Config(_)), "{err}");
        assert!(err.to_string().contains("recover"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tdir("torn");
        let mut p = Persister::new(None);
        let cfg = DurabilityConfig::default();
        let mut j = Journal::create(&dir, cfg).unwrap();
        j.append(&mut p, ManifestOp::Register, 0, 0, 0).unwrap();
        j.append(&mut p, ManifestOp::Register, 1, 0, 0).unwrap();
        drop(j);

        // Tear the last frame in half.
        let path = Journal::path_in(&dir);
        let bytes = fs::read(&path).unwrap();
        let torn = bytes.len() - 10;
        fs::write(&path, &bytes[..torn]).unwrap();

        let load = Journal::load(&dir).unwrap().unwrap();
        assert_eq!(load.records, 1, "only the intact record replays");
        assert!(load.truncated_bytes > 0);
        let (slots, _) = replay(&load.events);
        assert!(slots.contains_key(&0));
        assert!(!slots.contains_key(&1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rewrite_compacts_and_replays() {
        let dir = tdir("cp");
        let mut p = Persister::new(None);
        let cfg = DurabilityConfig {
            compact_min: 2,
            compact_factor: 1,
            ..DurabilityConfig::default()
        };
        let mut j = Journal::create(&dir, cfg).unwrap();
        for i in 0..6u32 {
            j.append(&mut p, ManifestOp::Register, i, 0, 0).unwrap();
        }
        assert!(j.should_compact(1));
        assert!(!j.should_compact(100));
        let before = fs::metadata(j.path()).unwrap().len();

        let cp = ManifestCheckpoint {
            next_seq: j.next_seq(),
            entries: vec![CheckpointEntry {
                slot: 3,
                generation: 7,
                status: SlotStatus::Spilled,
                spill_len: 99,
            }],
        };
        let j = Journal::rewrite(&dir, &cp, cfg, &mut p).unwrap();
        let after = fs::metadata(j.path()).unwrap().len();
        assert!(after < before, "{after} !< {before}");
        assert_eq!(after as usize, checkpoint_bytes(&cp));

        let load = Journal::load(&dir).unwrap().unwrap();
        let (slots, next_seq) = replay(&load.events);
        assert_eq!(next_seq, 6);
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[&3].state, ReplayState::Spilled { len: 99 });
        assert_eq!(slots[&3].generation, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durability_config_validates() {
        assert!(DurabilityConfig::default().validate().is_ok());
        assert!(DurabilityConfig::ephemeral().validate().is_ok());
        let bad = DurabilityConfig {
            fsync_every: 0,
            ..DurabilityConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = DurabilityConfig {
            compact_factor: 0,
            ..DurabilityConfig::default()
        };
        assert!(bad.validate().is_err());
        // Ephemeral servers never touch the journal knobs.
        let eph = DurabilityConfig {
            fsync_every: 0,
            ..DurabilityConfig::ephemeral()
        };
        assert!(eph.validate().is_ok());
    }
}
