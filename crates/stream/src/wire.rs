//! Wire forms of the streaming types and the coordinator⇄worker
//! protocol.
//!
//! Everything here rides the `afd-wire` codec (fixed-width little-endian,
//! `u32` length prefixes, one-byte enum tags) inside `afd-wire` frames
//! (`AFDW` magic, version, kind byte, FNV-1a checksum). Three frame kinds
//! exist:
//!
//! * [`KIND_REQUEST`] — a [`WorkerRequest`] from the coordinator to a
//!   shard worker (over the worker's stdin);
//! * [`KIND_RESPONSE`] — a [`WorkerResponse`] back (over its stdout);
//! * [`KIND_SNAPSHOT`] — a persisted [`SessionSnapshot`] (the `afd save`
//!   / `afd load` file format).
//!
//! The protocol is strict request/response: the coordinator writes one
//! request frame and reads exactly one response frame, so worker stdout
//! never interleaves. `Subscribed` and `Compacted` carry the worker's
//! full per-candidate state ([`ShardState`]: the [`IncTable`] merge
//! inputs plus the value-level Y side keys); `Applied` carries only what
//! the apply changed ([`ShardPatch`]), which the coordinator writes into
//! its copy of that state before folding the patched Y columns into its
//! merged margins, bit-identical to in-process shards.

use afd_relation::{AttrSet, Fd, Relation, Schema, Value};
use afd_wire::{decode_framed, encode_framed, Decode, DecodeError, Encode, Reader, FRAME_OVERHEAD};

use crate::delta::{RowDelta, RowId, StreamError, TransportError, TransportErrorKind};
use crate::session::{CompactionReport, ScoreDiff};
use crate::table::{IncTable, StreamScores, TablePatch};

/// Frame kind of coordinator → worker [`WorkerRequest`]s.
pub const KIND_REQUEST: u8 = 1;
/// Frame kind of worker → coordinator [`WorkerResponse`]s.
pub const KIND_RESPONSE: u8 = 2;
/// Frame kind of persisted [`SessionSnapshot`]s.
pub const KIND_SNAPSHOT: u8 = 3;

impl Encode for StreamScores {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self.values() {
            v.encode(out);
        }
    }
}

impl Decode for StreamScores {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(StreamScores {
            rho: f64::decode(r)?,
            g2: f64::decode(r)?,
            g3: f64::decode(r)?,
            g3_prime: f64::decode(r)?,
            g1s: f64::decode(r)?,
            fi: f64::decode(r)?,
            g1: f64::decode(r)?,
            g1_prime: f64::decode(r)?,
            pdep: f64::decode(r)?,
            tau: f64::decode(r)?,
            mu_plus: f64::decode(r)?,
        })
    }
}

impl Encode for ScoreDiff {
    fn encode(&self, out: &mut Vec<u8>) {
        self.candidate.encode(out);
        self.before.encode(out);
        self.after.encode(out);
    }
}

impl Decode for ScoreDiff {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ScoreDiff {
            candidate: usize::decode(r)?,
            before: StreamScores::decode(r)?,
            after: StreamScores::decode(r)?,
        })
    }
}

impl Encode for RowDelta {
    fn encode(&self, out: &mut Vec<u8>) {
        self.inserts.encode(out);
        self.deletes.encode(out);
    }

    fn encoded_len(&self) -> usize {
        self.inserts.encoded_len() + self.deletes.encoded_len()
    }
}

impl Decode for RowDelta {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RowDelta {
            inserts: Vec::<Vec<Value>>::decode(r)?,
            deletes: Vec::<RowId>::decode(r)?,
        })
    }
}

impl Encode for CompactionReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rows_dropped.encode(out);
        self.candidates_checked.encode(out);
        self.n_live.encode(out);
    }
}

impl Decode for CompactionReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(CompactionReport {
            rows_dropped: usize::decode(r)?,
            candidates_checked: usize::decode(r)?,
            n_live: usize::decode(r)?,
        })
    }
}

const ERR_ARITY: u8 = 0;
const ERR_UNKNOWN_ROW: u8 = 1;
const ERR_ALREADY_DELETED: u8 = 2;
const ERR_UNKNOWN_ATTR: u8 = 3;
const ERR_SHARD_CONFIG: u8 = 4;
const ERR_DIVERGED: u8 = 5;
const ERR_RELATION: u8 = 6;
const ERR_TRANSPORT: u8 = 7;
const ERR_POISONED: u8 = 8;

// Transport kind tags inside an ERR_TRANSPORT payload.
const TK_SPAWN: u8 = 0;
const TK_WRITE: u8 = 1;
const TK_READ: u8 = 2;
const TK_TIMEOUT: u8 = 3;
const TK_DECODE: u8 = 4;

impl Encode for TransportErrorKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TransportErrorKind::Spawn(msg) => {
                out.push(TK_SPAWN);
                msg.encode(out);
            }
            TransportErrorKind::Write(msg) => {
                out.push(TK_WRITE);
                msg.encode(out);
            }
            TransportErrorKind::Read(msg) => {
                out.push(TK_READ);
                msg.encode(out);
            }
            TransportErrorKind::Timeout { millis } => {
                out.push(TK_TIMEOUT);
                millis.encode(out);
            }
            TransportErrorKind::Decode(msg) => {
                out.push(TK_DECODE);
                msg.encode(out);
            }
        }
    }
}

impl Decode for TransportErrorKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            TK_SPAWN => Ok(TransportErrorKind::Spawn(String::decode(r)?)),
            TK_WRITE => Ok(TransportErrorKind::Write(String::decode(r)?)),
            TK_READ => Ok(TransportErrorKind::Read(String::decode(r)?)),
            TK_TIMEOUT => Ok(TransportErrorKind::Timeout {
                millis: u64::decode(r)?,
            }),
            TK_DECODE => Ok(TransportErrorKind::Decode(String::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "TransportErrorKind",
                tag,
            }),
        }
    }
}

impl Encode for TransportError {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shard.encode(out);
        self.kind.encode(out);
        self.stderr.encode(out);
    }
}

impl Decode for TransportError {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TransportError {
            shard: Option::<u32>::decode(r)?,
            kind: TransportErrorKind::decode(r)?,
            stderr: Vec::<String>::decode(r)?,
        })
    }
}

/// [`StreamError`]s travel typed, so a worker-side failure surfaces at
/// the coordinator as the same variant an in-process shard would raise.
impl Encode for StreamError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            StreamError::Arity { expected, got } => {
                out.push(ERR_ARITY);
                expected.encode(out);
                got.encode(out);
            }
            StreamError::UnknownRow(id) => {
                out.push(ERR_UNKNOWN_ROW);
                id.encode(out);
            }
            StreamError::AlreadyDeleted(id) => {
                out.push(ERR_ALREADY_DELETED);
                id.encode(out);
            }
            StreamError::UnknownAttr(a) => {
                out.push(ERR_UNKNOWN_ATTR);
                a.encode(out);
            }
            StreamError::ShardConfig(msg) => {
                out.push(ERR_SHARD_CONFIG);
                msg.encode(out);
            }
            StreamError::Diverged(msg) => {
                out.push(ERR_DIVERGED);
                msg.encode(out);
            }
            StreamError::Relation(msg) => {
                out.push(ERR_RELATION);
                msg.encode(out);
            }
            StreamError::Transport(e) => {
                out.push(ERR_TRANSPORT);
                e.encode(out);
            }
            StreamError::Poisoned(why) => {
                out.push(ERR_POISONED);
                why.encode(out);
            }
        }
    }
}

impl Decode for StreamError {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            ERR_ARITY => Ok(StreamError::Arity {
                expected: usize::decode(r)?,
                got: usize::decode(r)?,
            }),
            ERR_UNKNOWN_ROW => Ok(StreamError::UnknownRow(RowId::decode(r)?)),
            ERR_ALREADY_DELETED => Ok(StreamError::AlreadyDeleted(RowId::decode(r)?)),
            ERR_UNKNOWN_ATTR => Ok(StreamError::UnknownAttr(u32::decode(r)?)),
            ERR_SHARD_CONFIG => Ok(StreamError::ShardConfig(String::decode(r)?)),
            ERR_DIVERGED => Ok(StreamError::Diverged(String::decode(r)?)),
            ERR_RELATION => Ok(StreamError::Relation(String::decode(r)?)),
            ERR_TRANSPORT => Ok(StreamError::Transport(<TransportError as Decode>::decode(
                r,
            )?)),
            ERR_POISONED => Ok(StreamError::Poisoned(String::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "StreamError",
                tag,
            }),
        }
    }
}

/// One candidate's coordinator-visible shard state: its [`IncTable`]
/// (the merge input) and the value-level Y side keys (`side id ->
/// RHS-value tuple`, how the coordinator identifies the same Y value
/// across shards whose dictionary codes differ).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateState {
    /// The shard's delta-maintained joint-count table.
    pub table: IncTable,
    /// Y side keys in side-id order (dense, `0..n`).
    pub y_keys: Vec<Vec<Value>>,
}

impl Encode for CandidateState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.table.encode(out);
        self.y_keys.encode(out);
    }
}

impl Decode for CandidateState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(CandidateState {
            table: IncTable::decode(r)?,
            y_keys: Vec::<Vec<Value>>::decode(r)?,
        })
    }
}

/// A worker's full coordinator-visible state after a mutating request:
/// live row count plus every candidate's [`CandidateState`] in
/// subscription order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Live rows in this shard.
    pub n_live: u64,
    /// Per-candidate tables and Y keys, subscription order.
    pub candidates: Vec<CandidateState>,
}

impl ShardState {
    /// Writes a worker's [`ShardPatch`] into this copy of its state,
    /// in O(patch). The copy must equal the worker's state from just
    /// before the apply the patch describes; the patch must carry one
    /// entry per candidate and name no Y id past the keys it leaves
    /// (`RemoteShard` checks both before calling this).
    pub fn apply_patch(&mut self, patch: ShardPatch) {
        self.n_live = patch.n_live;
        for (cand, p) in self.candidates.iter_mut().zip(patch.candidates) {
            cand.table.apply_patch(p.table);
            cand.y_keys.extend(p.new_y_keys);
        }
    }
}

impl Encode for ShardState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.n_live.encode(out);
        self.candidates.encode(out);
    }
}

impl Decode for ShardState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ShardState {
            n_live: u64::decode(r)?,
            candidates: Vec::<CandidateState>::decode(r)?,
        })
    }
}

/// One candidate's change over one apply: its [`TablePatch`] and the
/// value-level keys of the Y side ids the apply assigned (appended, in
/// id order, to the coordinator's copy of [`CandidateState::y_keys`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePatch {
    /// The touched groups and columns, scalars and histograms.
    pub table: TablePatch,
    /// Keys of the newly assigned Y side ids, in id order.
    pub new_y_keys: Vec<Vec<Value>>,
}

impl Encode for CandidatePatch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.table.encode(out);
        self.new_y_keys.encode(out);
    }
}

impl Decode for CandidatePatch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(CandidatePatch {
            table: TablePatch::decode(r)?,
            new_y_keys: Vec::<Vec<Value>>::decode(r)?,
        })
    }
}

/// What a worker answers to an `Apply`: the shard's live row count plus
/// one [`CandidatePatch`] per candidate, subscription order. Applied to
/// the [`ShardState`] the coordinator held before the apply, it yields
/// exactly the worker's state after it, at a cost that grows with the
/// delta rather than with the shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPatch {
    /// Live rows in this shard after the apply.
    pub n_live: u64,
    /// Per-candidate patches, subscription order.
    pub candidates: Vec<CandidatePatch>,
}

impl Encode for ShardPatch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.n_live.encode(out);
        self.candidates.encode(out);
    }
}

impl Decode for ShardPatch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ShardPatch {
            n_live: u64::decode(r)?,
            candidates: Vec::<CandidatePatch>::decode(r)?,
        })
    }
}

/// A coordinator → worker message. The worker owns one
/// [`crate::StreamSession`]; requests drive it exactly like in-process
/// shard calls would.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerRequest {
    /// Create the worker's session over this schema. Must be the first
    /// request.
    Init(Schema),
    /// Subscribe a candidate FD.
    Subscribe(Fd),
    /// Apply one (router-validated) delta slice.
    Apply(RowDelta),
    /// Materialise the live rows (local arrival order) as a relation.
    Snapshot,
    /// Compact with batch-kernel verification.
    Compact,
    /// Exit cleanly.
    Shutdown,
}

const REQ_INIT: u8 = 0;
const REQ_SUBSCRIBE: u8 = 1;
const REQ_APPLY: u8 = 2;
const REQ_SNAPSHOT: u8 = 3;
const REQ_COMPACT: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;

impl WorkerRequest {
    /// The borrowed view of this request — the single place request tags
    /// are emitted, so the owned and borrowed encodings cannot diverge.
    pub fn as_ref(&self) -> WorkerRequestRef<'_> {
        match self {
            WorkerRequest::Init(schema) => WorkerRequestRef::Init(schema),
            WorkerRequest::Subscribe(fd) => WorkerRequestRef::Subscribe(fd),
            WorkerRequest::Apply(delta) => WorkerRequestRef::Apply(delta),
            WorkerRequest::Snapshot => WorkerRequestRef::Snapshot,
            WorkerRequest::Compact => WorkerRequestRef::Compact,
            WorkerRequest::Shutdown => WorkerRequestRef::Shutdown,
        }
    }
}

impl Encode for WorkerRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_ref().encode(out);
    }
}

/// Borrowed view of a [`WorkerRequest`] — what the coordinator encodes,
/// so building a request never clones the delta or schema. Encodes
/// byte-identically to the owned form.
#[derive(Debug, Clone, Copy)]
pub enum WorkerRequestRef<'a> {
    /// See [`WorkerRequest::Init`].
    Init(&'a Schema),
    /// See [`WorkerRequest::Subscribe`].
    Subscribe(&'a Fd),
    /// See [`WorkerRequest::Apply`].
    Apply(&'a RowDelta),
    /// See [`WorkerRequest::Snapshot`].
    Snapshot,
    /// See [`WorkerRequest::Compact`].
    Compact,
    /// See [`WorkerRequest::Shutdown`].
    Shutdown,
}

impl Encode for WorkerRequestRef<'_> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WorkerRequestRef::Init(schema) => {
                out.push(REQ_INIT);
                schema.encode(out);
            }
            WorkerRequestRef::Subscribe(fd) => {
                out.push(REQ_SUBSCRIBE);
                fd.encode(out);
            }
            WorkerRequestRef::Apply(delta) => {
                out.push(REQ_APPLY);
                delta.encode(out);
            }
            WorkerRequestRef::Snapshot => out.push(REQ_SNAPSHOT),
            WorkerRequestRef::Compact => out.push(REQ_COMPACT),
            WorkerRequestRef::Shutdown => out.push(REQ_SHUTDOWN),
        }
    }
}

impl Decode for WorkerRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            REQ_INIT => Ok(WorkerRequest::Init(Schema::decode(r)?)),
            REQ_SUBSCRIBE => Ok(WorkerRequest::Subscribe(Fd::decode(r)?)),
            REQ_APPLY => Ok(WorkerRequest::Apply(RowDelta::decode(r)?)),
            REQ_SNAPSHOT => Ok(WorkerRequest::Snapshot),
            REQ_COMPACT => Ok(WorkerRequest::Compact),
            REQ_SHUTDOWN => Ok(WorkerRequest::Shutdown),
            tag => Err(DecodeError::BadTag {
                what: "WorkerRequest",
                tag,
            }),
        }
    }
}

/// A worker → coordinator reply. Exactly one per request.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerResponse {
    /// `Init` / `Shutdown` acknowledged.
    Ok,
    /// `Subscribe` done: the candidate's index plus refreshed state.
    Subscribed {
        /// Candidate index (subscription order, same on every shard).
        cid: u32,
        /// Full state after the subscribe.
        state: ShardState,
    },
    /// `Apply` done: what the apply changed, for the coordinator to
    /// patch its copy of the shard's state with before it merges.
    Applied(ShardPatch),
    /// `Snapshot` result: live rows in local arrival order.
    Snapshot(Relation),
    /// `Compact` done (verification passed): report + refreshed state
    /// (side ids were reset by compaction).
    Compacted {
        /// The shard's compaction report.
        report: CompactionReport,
        /// Full state after compaction.
        state: ShardState,
    },
    /// The request failed with this (typed) [`StreamError`].
    Err(StreamError),
}

const RESP_OK: u8 = 0;
const RESP_SUBSCRIBED: u8 = 1;
// Tag 2 answered `Apply` with a full `ShardState`. It is retired, so an
// older worker's answer decodes to `DecodeError::BadTag` instead of
// being misread as a patch.
const RESP_SNAPSHOT: u8 = 3;
const RESP_COMPACTED: u8 = 4;
const RESP_ERR: u8 = 5;
const RESP_APPLIED_PATCH: u8 = 6;

impl Encode for WorkerResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WorkerResponse::Ok => out.push(RESP_OK),
            WorkerResponse::Subscribed { cid, state } => {
                out.push(RESP_SUBSCRIBED);
                cid.encode(out);
                state.encode(out);
            }
            WorkerResponse::Applied(patch) => {
                out.push(RESP_APPLIED_PATCH);
                patch.encode(out);
            }
            WorkerResponse::Snapshot(rel) => {
                out.push(RESP_SNAPSHOT);
                rel.encode(out);
            }
            WorkerResponse::Compacted { report, state } => {
                out.push(RESP_COMPACTED);
                report.encode(out);
                state.encode(out);
            }
            WorkerResponse::Err(e) => {
                out.push(RESP_ERR);
                e.encode(out);
            }
        }
    }
}

impl Decode for WorkerResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            RESP_OK => Ok(WorkerResponse::Ok),
            RESP_SUBSCRIBED => Ok(WorkerResponse::Subscribed {
                cid: u32::decode(r)?,
                state: ShardState::decode(r)?,
            }),
            RESP_APPLIED_PATCH => Ok(WorkerResponse::Applied(ShardPatch::decode(r)?)),
            RESP_SNAPSHOT => Ok(WorkerResponse::Snapshot(Relation::decode(r)?)),
            RESP_COMPACTED => Ok(WorkerResponse::Compacted {
                report: CompactionReport::decode(r)?,
                state: ShardState::decode(r)?,
            }),
            RESP_ERR => Ok(WorkerResponse::Err(StreamError::decode(r)?)),
            tag => Err(DecodeError::BadTag {
                what: "WorkerResponse",
                tag,
            }),
        }
    }
}

/// A persisted streaming session: everything needed to resume scoring
/// exactly where it stopped.
///
/// The snapshot stores the **live rows in global order** (columnar, via
/// the relation codec) plus the sharding configuration and the
/// subscription list. Restoring rebuilds the session from those rows —
/// equivalent to resuming right after a [`crate::ShardedSession::compact`]:
/// row ids renumber densely in arrival order, and every candidate's
/// score reads are **bit-identical** to the session that was saved
/// (score reads are bitwise-deterministic functions of the live rows).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The live rows in global row order (schema included).
    pub rows: Relation,
    /// The hash-partitioning key ([`AttrSet::empty`] when unsharded).
    pub shard_key: AttrSet,
    /// Shard count the session ran with.
    pub n_shards: u32,
    /// Subscribed candidates, subscription order.
    pub subscriptions: Vec<Fd>,
    /// Auto-compaction cadence, if enabled.
    pub compact_every: Option<u64>,
}

impl Encode for SessionSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rows.encode(out);
        self.shard_key.encode(out);
        self.n_shards.encode(out);
        self.subscriptions.encode(out);
        self.compact_every.encode(out);
    }

    fn encoded_len(&self) -> usize {
        SnapshotStats::payload_len(
            &self.rows,
            &self.shard_key,
            &self.subscriptions,
            self.compact_every,
        )
    }
}

impl Decode for SessionSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SessionSnapshot {
            rows: Relation::decode(r)?,
            shard_key: AttrSet::decode(r)?,
            n_shards: u32::decode(r)?,
            subscriptions: Vec::<Fd>::decode(r)?,
            compact_every: Option::<u64>::decode(r)?,
        })
    }
}

/// Size and shape of a [`SessionSnapshot`] **without encoding it**.
///
/// Eviction accounting and the serve bench need "how big would this
/// session be on disk" per measurement; paying a full columnar encode
/// (`O(rows)` byte writes) each time would dwarf the thing being
/// measured. The arithmetic here mirrors the codec exactly —
/// [`SnapshotStats::framed_len`] is pinned equal to
/// `SessionSnapshot::to_bytes().len()` by test — at
/// `O(arity + dictionary values)` cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Exact byte length of the framed blob [`SessionSnapshot::to_bytes`]
    /// would produce (header + payload + checksum).
    pub framed_len: usize,
    /// Live rows the snapshot carries.
    pub n_rows: usize,
    /// Subscribed candidates the snapshot carries.
    pub n_subscriptions: usize,
}

impl SnapshotStats {
    /// Exact payload length of a snapshot assembled from these parts.
    fn payload_len(
        rows: &Relation,
        shard_key: &AttrSet,
        subscriptions: &[Fd],
        compact_every: Option<u64>,
    ) -> usize {
        rows.encoded_len()
            + shard_key.encoded_len()
            + 4 // n_shards: u32
            + subscriptions.encoded_len()
            + compact_every.encoded_len()
    }

    /// Stats for a snapshot that *would be* assembled from these parts —
    /// lets the engine size its own state without cloning rows into a
    /// throwaway [`SessionSnapshot`] first.
    #[must_use]
    pub fn of_parts(
        rows: &Relation,
        shard_key: &AttrSet,
        subscriptions: &[Fd],
        compact_every: Option<u64>,
    ) -> Self {
        SnapshotStats {
            framed_len: FRAME_OVERHEAD
                + Self::payload_len(rows, shard_key, subscriptions, compact_every),
            n_rows: rows.n_rows(),
            n_subscriptions: subscriptions.len(),
        }
    }
}

impl SessionSnapshot {
    /// Size and shape of this snapshot without re-encoding it — see
    /// [`SnapshotStats`].
    #[must_use]
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats::of_parts(
            &self.rows,
            &self.shard_key,
            &self.subscriptions,
            self.compact_every,
        )
    }

    /// The snapshot as one framed, checksummed byte blob (the `afd save`
    /// file format).
    ///
    /// # Errors
    /// [`DecodeError::BadLength`] when the encoded snapshot exceeds the
    /// frame payload cap (`afd_wire::MAX_PAYLOAD`) — refused at write
    /// time rather than producing a blob no reader accepts.
    pub fn to_bytes(&self) -> Result<Vec<u8>, DecodeError> {
        encode_framed(KIND_SNAPSHOT, self)
    }

    /// Parses a framed snapshot blob.
    ///
    /// # Errors
    /// [`DecodeError`] on anything that is not a well-formed,
    /// checksum-clean snapshot frame of the supported version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        decode_framed(KIND_SNAPSHOT, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_relation::AttrId;

    fn scores() -> StreamScores {
        let mut t = IncTable::new();
        for (x, y) in [(0, 0), (0, 1), (1, 0), (1, 0), (2, 2)] {
            t.insert(x, y);
        }
        t.scores()
    }

    #[test]
    fn stream_scores_roundtrip_bit_exactly() {
        let s = scores();
        let back = StreamScores::decode_exact(&s.encode_to_vec()).unwrap();
        assert!(back.bits_eq(&s));
    }

    #[test]
    fn score_diff_and_delta_roundtrip() {
        let diff = ScoreDiff {
            candidate: 3,
            before: StreamScores::exact(),
            after: scores(),
        };
        let back = ScoreDiff::decode_exact(&diff.encode_to_vec()).unwrap();
        assert_eq!(back.candidate, 3);
        assert!(back.before.bits_eq(&diff.before));
        assert!(back.after.bits_eq(&diff.after));

        let delta = RowDelta {
            inserts: vec![
                vec![Value::Int(1), Value::Null],
                vec![Value::str("x"), Value::float(2.5)],
            ],
            deletes: vec![3, 0, 7],
        };
        let back = RowDelta::decode_exact(&delta.encode_to_vec()).unwrap();
        assert_eq!(back.inserts, delta.inserts);
        assert_eq!(back.deletes, delta.deletes);
    }

    #[test]
    fn worker_protocol_roundtrips() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let reqs = [
            WorkerRequest::Init(schema.clone()),
            WorkerRequest::Subscribe(Fd::linear(AttrId(0), AttrId(1))),
            WorkerRequest::Apply(RowDelta::delete_only([1, 2])),
            WorkerRequest::Snapshot,
            WorkerRequest::Compact,
            WorkerRequest::Shutdown,
        ];
        for req in &reqs {
            let back = WorkerRequest::decode_exact(&req.encode_to_vec()).unwrap();
            assert_eq!(&back, req);
        }
        // The borrowed request view encodes byte-identically to the
        // owned form.
        let delta = RowDelta::delete_only([1, 2]);
        let fd = Fd::linear(AttrId(0), AttrId(1));
        for (r, o) in [
            (WorkerRequestRef::Init(&schema), reqs[0].clone()),
            (WorkerRequestRef::Subscribe(&fd), reqs[1].clone()),
            (WorkerRequestRef::Apply(&delta), reqs[2].clone()),
            (WorkerRequestRef::Snapshot, reqs[3].clone()),
            (WorkerRequestRef::Compact, reqs[4].clone()),
            (WorkerRequestRef::Shutdown, reqs[5].clone()),
        ] {
            assert_eq!(r.encode_to_vec(), o.encode_to_vec());
        }
        // Typed errors survive the wire.
        for e in [
            StreamError::Arity {
                expected: 2,
                got: 3,
            },
            StreamError::UnknownRow(7),
            StreamError::AlreadyDeleted(1),
            StreamError::UnknownAttr(4),
            StreamError::ShardConfig("key".into()),
            StreamError::Diverged("pli".into()),
            StreamError::Relation("csv".into()),
            StreamError::Transport(TransportError::read("pipe")),
            StreamError::Transport(
                TransportError::timeout(250)
                    .with_shard(3)
                    .with_stderr(vec!["panicked".into(), "at worker.rs".into()]),
            ),
            StreamError::Transport(TransportError::spawn("no such file").with_shard(0)),
            StreamError::Transport(TransportError::write("broken pipe")),
            StreamError::Transport(TransportError::decode("bad magic")),
            StreamError::Poisoned("retry budget exhausted".into()),
        ] {
            assert_eq!(StreamError::decode_exact(&e.encode_to_vec()).unwrap(), e);
        }
        let mut table = IncTable::new();
        table.insert(0, 0);
        let patch = ShardPatch {
            n_live: 1,
            candidates: vec![CandidatePatch {
                table: table.patch(&[0, 1], &[0]),
                new_y_keys: vec![vec![Value::Int(9)]],
            }],
        };
        let state = ShardState {
            n_live: 1,
            candidates: vec![CandidateState {
                table,
                y_keys: vec![vec![Value::Int(9)]],
            }],
        };
        let resps = [
            WorkerResponse::Ok,
            WorkerResponse::Subscribed {
                cid: 0,
                state: state.clone(),
            },
            WorkerResponse::Applied(patch),
            WorkerResponse::Snapshot(Relation::from_pairs([(1, 2)])),
            WorkerResponse::Compacted {
                report: CompactionReport {
                    rows_dropped: 2,
                    candidates_checked: 1,
                    n_live: 5,
                },
                state,
            },
            WorkerResponse::Err(StreamError::Diverged("boom".into())),
        ];
        for resp in &resps {
            let back = WorkerResponse::decode_exact(&resp.encode_to_vec()).unwrap();
            match (&back, resp) {
                (WorkerResponse::Snapshot(a), WorkerResponse::Snapshot(b)) => {
                    assert_eq!(a.n_rows(), b.n_rows());
                }
                (
                    WorkerResponse::Compacted { report: a, .. },
                    WorkerResponse::Compacted { report: b, .. },
                ) => {
                    assert_eq!(a.rows_dropped, b.rows_dropped);
                    assert_eq!(a.n_live, b.n_live);
                }
                _ => assert_eq!(&back, resp),
            }
        }
    }

    #[test]
    fn retired_full_state_apply_tag_is_a_bad_tag() {
        // An older worker answered `Apply` with tag 2 and a full state.
        let state = ShardState {
            n_live: 0,
            candidates: Vec::new(),
        };
        let mut payload = vec![2u8];
        state.encode(&mut payload);
        let mut frame = Vec::new();
        afd_wire::write_frame(KIND_RESPONSE, &payload, &mut frame).unwrap();
        assert_eq!(
            decode_framed::<WorkerResponse>(KIND_RESPONSE, &frame),
            Err(DecodeError::BadTag {
                what: "WorkerResponse",
                tag: 2
            })
        );
    }

    #[test]
    fn session_snapshot_roundtrips_framed() {
        let snap = SessionSnapshot {
            rows: Relation::from_pairs([(1, 10), (2, 20), (1, 10)]),
            shard_key: AttrSet::single(AttrId(0)),
            n_shards: 4,
            subscriptions: vec![Fd::linear(AttrId(0), AttrId(1))],
            compact_every: Some(16),
        };
        let bytes = snap.to_bytes().unwrap();
        let back = SessionSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.n_shards, 4);
        assert_eq!(back.shard_key, snap.shard_key);
        assert_eq!(back.subscriptions, snap.subscriptions);
        assert_eq!(back.compact_every, Some(16));
        assert_eq!(back.rows.n_rows(), 3);
        // Corruption is caught by the frame checksum.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(SessionSnapshot::from_bytes(&corrupt).is_err());
        // Truncation too.
        assert!(SessionSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn snapshot_stats_match_the_encode_exactly() {
        let snap = SessionSnapshot {
            rows: Relation::from_pairs([(1, 10), (2, 20), (1, 10), (3, 30)]),
            shard_key: AttrSet::single(AttrId(1)),
            n_shards: 2,
            subscriptions: vec![
                Fd::linear(AttrId(0), AttrId(1)),
                Fd::linear(AttrId(1), AttrId(0)),
            ],
            compact_every: None,
        };
        let stats = snap.stats();
        assert_eq!(stats.framed_len, snap.to_bytes().unwrap().len());
        assert_eq!(stats.n_rows, 4);
        assert_eq!(stats.n_subscriptions, 2);
        assert_eq!(snap.encoded_len(), snap.encode_to_vec().len());
        // The parts-based form agrees with the assembled snapshot's.
        let by_parts = SnapshotStats::of_parts(
            &snap.rows,
            &snap.shard_key,
            &snap.subscriptions,
            snap.compact_every,
        );
        assert_eq!(by_parts, stats);

        let delta = RowDelta {
            inserts: vec![
                vec![Value::Int(1), Value::str("a")],
                vec![Value::Null, Value::float(0.5)],
            ],
            deletes: vec![3, 7],
        };
        assert_eq!(delta.encoded_len(), delta.encode_to_vec().len());
    }
}
