//! The registry-manifest vocabulary: the records a serving layer's
//! durable journal is made of.
//!
//! A serving registry (one slot + generation per session, see
//! `afd-serve`) persists its transitions as an append-only sequence of
//! [`ManifestRecord`] frames, periodically compacted into a single
//! [`ManifestCheckpoint`] frame that snapshots every slot's state. This
//! module owns only the *codec* — what the bytes mean is the journal
//! owner's contract:
//!
//! * every record/checkpoint travels as a standard [`crate::frame`]
//!   (magic, version, kind, FNV-1a checksum), so a torn or bit-flipped
//!   journal tail is detected, not replayed;
//! * records carry the slot **and generation** they speak about, so a
//!   replayer never attributes a transition to the wrong incarnation of
//!   a reused slot;
//! * [`ManifestRecord::seq`] is a monotone sequence number — a replayer
//!   can assert continuity and a checkpoint records where the sequence
//!   resumes ([`ManifestCheckpoint::next_seq`]).
//!
//! Frame kinds 1–3 are owned by the shard-worker protocol
//! (`afd_stream::wire`); the manifest claims 4 and 5.

use crate::codec::{Decode, Encode, Reader};
use crate::error::DecodeError;

/// Frame kind of a single appended [`ManifestRecord`].
pub const KIND_MANIFEST_RECORD: u8 = 4;
/// Frame kind of a compacted [`ManifestCheckpoint`].
pub const KIND_MANIFEST_CHECKPOINT: u8 = 5;

/// A registry transition worth surviving a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifestOp {
    /// A live engine was registered; the session starts resident
    /// (nothing on disk yet — a crash before its first eviction loses
    /// it, and the journal is what makes that loss *counted*).
    Register,
    /// A session was registered from validated snapshot bytes; a spill
    /// file of `spill_len` bytes was atomically persisted first.
    RegisterSnapshot,
    /// A resident session was spilled: its snapshot file (of
    /// `spill_len` bytes) is durable on disk.
    Evict,
    /// A spilled session was restored to memory; its spill file is
    /// stale from this record on (the restorer deletes it).
    Restore,
    /// The session was released; its slot's generation is bumped and
    /// any spill file is garbage.
    Release,
}

const OP_REGISTER: u8 = 0;
const OP_REGISTER_SNAPSHOT: u8 = 1;
const OP_EVICT: u8 = 2;
const OP_RESTORE: u8 = 3;
const OP_RELEASE: u8 = 4;

impl Encode for ManifestOp {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ManifestOp::Register => OP_REGISTER,
            ManifestOp::RegisterSnapshot => OP_REGISTER_SNAPSHOT,
            ManifestOp::Evict => OP_EVICT,
            ManifestOp::Restore => OP_RESTORE,
            ManifestOp::Release => OP_RELEASE,
        });
    }
}
impl Decode for ManifestOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            OP_REGISTER => Ok(ManifestOp::Register),
            OP_REGISTER_SNAPSHOT => Ok(ManifestOp::RegisterSnapshot),
            OP_EVICT => Ok(ManifestOp::Evict),
            OP_RESTORE => Ok(ManifestOp::Restore),
            OP_RELEASE => Ok(ManifestOp::Release),
            tag => Err(DecodeError::BadTag {
                what: "ManifestOp",
                tag,
            }),
        }
    }
}

/// One appended journal record: which slot/generation transitioned, how,
/// and how many spill bytes the transition left durable on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestRecord {
    /// Monotone sequence number (continuity check for replayers).
    pub seq: u64,
    /// The transition.
    pub op: ManifestOp,
    /// The slot the transition is about.
    pub slot: u32,
    /// The slot generation the transition is about — a replayer must
    /// never apply it to a different incarnation.
    pub generation: u32,
    /// Bytes of the spill file this transition left on disk (0 when the
    /// transition leaves nothing durable: register, restore, release).
    pub spill_len: u64,
}

impl Encode for ManifestRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.seq.encode(out);
        self.op.encode(out);
        self.slot.encode(out);
        self.generation.encode(out);
        self.spill_len.encode(out);
    }
}
impl Decode for ManifestRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ManifestRecord {
            seq: u64::decode(r)?,
            op: ManifestOp::decode(r)?,
            slot: u32::decode(r)?,
            generation: u32::decode(r)?,
            spill_len: u64::decode(r)?,
        })
    }
}

/// A slot's state inside a [`ManifestCheckpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotStatus {
    /// Unoccupied; the generation is what the *next* tenant will be
    /// issued under (kept so handles released before a crash stay stale
    /// after recovery).
    Free,
    /// Occupied, engine in memory — nothing durable on disk.
    Resident,
    /// Occupied, spilled: a snapshot file of `spill_len` bytes is the
    /// session's durable state.
    Spilled,
}

const STATUS_FREE: u8 = 0;
const STATUS_RESIDENT: u8 = 1;
const STATUS_SPILLED: u8 = 2;

impl Encode for SlotStatus {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            SlotStatus::Free => STATUS_FREE,
            SlotStatus::Resident => STATUS_RESIDENT,
            SlotStatus::Spilled => STATUS_SPILLED,
        });
    }
}
impl Decode for SlotStatus {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            STATUS_FREE => Ok(SlotStatus::Free),
            STATUS_RESIDENT => Ok(SlotStatus::Resident),
            STATUS_SPILLED => Ok(SlotStatus::Spilled),
            tag => Err(DecodeError::BadTag {
                what: "SlotStatus",
                tag,
            }),
        }
    }
}

/// One slot in a checkpoint — every slot the registry has ever
/// allocated appears, including free ones (their generations must
/// survive compaction so stale handles stay stale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// The slot index.
    pub slot: u32,
    /// The slot's current generation.
    pub generation: u32,
    /// The slot's state at checkpoint time.
    pub status: SlotStatus,
    /// Spill bytes on disk when [`SlotStatus::Spilled`], else 0.
    pub spill_len: u64,
}

impl Encode for CheckpointEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.slot.encode(out);
        self.generation.encode(out);
        self.status.encode(out);
        self.spill_len.encode(out);
    }
}
impl Decode for CheckpointEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(CheckpointEntry {
            slot: u32::decode(r)?,
            generation: u32::decode(r)?,
            status: SlotStatus::decode(r)?,
            spill_len: u64::decode(r)?,
        })
    }
}

/// A compacted journal head: the full registry state at one instant,
/// replacing every record before it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ManifestCheckpoint {
    /// Where the record sequence resumes after this checkpoint.
    pub next_seq: u64,
    /// Every allocated slot's state (dense in slot order by
    /// convention, but replayers key by [`CheckpointEntry::slot`]).
    pub entries: Vec<CheckpointEntry>,
}

impl Encode for ManifestCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        self.next_seq.encode(out);
        self.entries.encode(out);
    }
}
impl Decode for ManifestCheckpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ManifestCheckpoint {
            next_seq: u64::decode(r)?,
            entries: Vec::<CheckpointEntry>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_framed, encode_framed};

    fn record(seq: u64, op: ManifestOp) -> ManifestRecord {
        ManifestRecord {
            seq,
            op,
            slot: 7,
            generation: 3,
            spill_len: 4096,
        }
    }

    #[test]
    fn record_and_checkpoint_roundtrip_framed() {
        for op in [
            ManifestOp::Register,
            ManifestOp::RegisterSnapshot,
            ManifestOp::Evict,
            ManifestOp::Restore,
            ManifestOp::Release,
        ] {
            let rec = record(42, op);
            let frame = encode_framed(KIND_MANIFEST_RECORD, &rec).unwrap();
            assert_eq!(
                decode_framed::<ManifestRecord>(KIND_MANIFEST_RECORD, &frame).unwrap(),
                rec
            );
        }
        let cp = ManifestCheckpoint {
            next_seq: 99,
            entries: vec![
                CheckpointEntry {
                    slot: 0,
                    generation: 2,
                    status: SlotStatus::Spilled,
                    spill_len: 123,
                },
                CheckpointEntry {
                    slot: 1,
                    generation: 5,
                    status: SlotStatus::Free,
                    spill_len: 0,
                },
                CheckpointEntry {
                    slot: 2,
                    generation: 0,
                    status: SlotStatus::Resident,
                    spill_len: 0,
                },
            ],
        };
        let frame = encode_framed(KIND_MANIFEST_CHECKPOINT, &cp).unwrap();
        assert_eq!(
            decode_framed::<ManifestCheckpoint>(KIND_MANIFEST_CHECKPOINT, &frame).unwrap(),
            cp
        );
    }

    #[test]
    fn bad_tags_are_typed() {
        assert!(matches!(
            ManifestOp::decode_exact(&[9]),
            Err(DecodeError::BadTag {
                what: "ManifestOp",
                tag: 9
            })
        ));
        assert!(matches!(
            SlotStatus::decode_exact(&[7]),
            Err(DecodeError::BadTag {
                what: "SlotStatus",
                tag: 7
            })
        ));
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let bytes = record(3, ManifestOp::Restore).encode_to_vec();
        for cut in 0..bytes.len() {
            assert!(
                ManifestRecord::decode_exact(&bytes[..cut]).is_err(),
                "{cut}"
            );
        }
    }
}
