//! Row deltas, a deterministic churn generator, and the stream engine's
//! error type.

use std::collections::HashSet;

use afd_relation::{Relation, RelationError, Value};

/// Global id of an inserted row: its position in the insertion log.
///
/// Row ids are assigned densely in arrival order and never reused while a
/// [`crate::StreamSession`] is live; compaction renumbers them (dropping
/// tombstones) and reports the mapping via
/// [`crate::CompactionReport::rows_dropped`].
pub type RowId = u32;

/// A batch of changes to an incrementally maintained relation: tombstone
/// deletes of previously inserted rows plus newly arriving rows.
///
/// Deletes refer to rows that existed *before* the delta (a row cannot be
/// inserted and deleted by the same delta), and are applied first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowDelta {
    /// Rows to append, each matching the schema's arity.
    pub inserts: Vec<Vec<Value>>,
    /// Ids of live rows to tombstone.
    pub deletes: Vec<RowId>,
}

impl RowDelta {
    /// An empty delta.
    pub fn new() -> Self {
        RowDelta::default()
    }

    /// A pure-insert delta.
    pub fn insert_only(rows: impl IntoIterator<Item = Vec<Value>>) -> Self {
        RowDelta {
            inserts: rows.into_iter().collect(),
            deletes: Vec::new(),
        }
    }

    /// A pure-delete delta.
    pub fn delete_only(rows: impl IntoIterator<Item = RowId>) -> Self {
        RowDelta {
            inserts: Vec::new(),
            deletes: rows.into_iter().collect(),
        }
    }

    /// Number of individual change events in the delta.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// `true` iff the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Checks the delta against a log with one `live` flag per row id
    /// and `arity` columns, changing nothing: each delete must name a
    /// live row at most once, and each insert must have `arity` values.
    ///
    /// # Errors
    /// The first of [`StreamError::UnknownRow`] /
    /// [`StreamError::AlreadyDeleted`] (deletes, in order), then
    /// [`StreamError::Arity`] (inserts, in order).
    pub(crate) fn validate(&self, live: &[bool], arity: usize) -> Result<(), StreamError> {
        let mut seen: HashSet<RowId> = HashSet::with_capacity(self.deletes.len());
        for &id in &self.deletes {
            if (id as usize) >= live.len() {
                return Err(StreamError::UnknownRow(id));
            }
            if !live[id as usize] || !seen.insert(id) {
                return Err(StreamError::AlreadyDeleted(id));
            }
        }
        for row in &self.inserts {
            if row.len() != arity {
                return Err(StreamError::Arity {
                    expected: arity,
                    got: row.len(),
                });
            }
        }
        Ok(())
    }
}

/// Deterministic churn generator for benches and experiments.
///
/// Each planned delta holds `k/2` deletes of currently live rows plus
/// `k − k/2` re-inserts of `fixture` rows, so the live size stays
/// constant while the engine is exercised. The planner mirrors the id
/// assignment of a [`crate::StreamSession`] built over `fixture` with
/// **all rows live** (e.g. via `StreamSession::from_relation`); the
/// deltas it emits are valid against exactly that session, applied in
/// order with no compaction in between (compaction renumbers ids —
/// build a fresh planner from the compacted snapshot afterwards).
#[derive(Debug, Clone)]
pub struct ChurnPlanner<'a> {
    fixture: &'a Relation,
    live: Vec<RowId>,
    next_id: RowId,
    cursor: usize,
}

impl<'a> ChurnPlanner<'a> {
    /// A planner over `fixture` (which must be non-empty).
    ///
    /// # Panics
    /// Panics if `fixture` has no rows (nothing to churn).
    pub fn new(fixture: &'a Relation) -> Self {
        assert!(!fixture.is_empty(), "cannot churn an empty fixture");
        ChurnPlanner {
            fixture,
            live: (0..fixture.n_rows() as RowId).collect(),
            next_id: fixture.n_rows() as RowId,
            cursor: 0,
        }
    }

    /// The next delta of `k` events (`k/2` deletes, `k − k/2` inserts).
    ///
    /// # Panics
    /// Panics if the delta would delete more rows than are live.
    pub fn next_delta(&mut self, k: usize) -> RowDelta {
        assert!(
            k / 2 <= self.live.len(),
            "delta wants {} deletes but only {} rows are live",
            k / 2,
            self.live.len()
        );
        let mut delta = RowDelta::new();
        for i in 0..k / 2 {
            let pick = (self.cursor * 7 + i * 13) % self.live.len();
            delta.deletes.push(self.live.swap_remove(pick));
        }
        for _ in 0..k - k / 2 {
            let src = self.cursor % self.fixture.n_rows();
            delta.inserts.push(self.fixture.row(src));
            self.live.push(self.next_id);
            self.next_id += 1;
            self.cursor += 1;
        }
        delta
    }

    /// Plans `steps` deltas of `k` events each.
    pub fn plan(fixture: &'a Relation, steps: usize, k: usize) -> Vec<RowDelta> {
        let mut planner = ChurnPlanner::new(fixture);
        (0..steps).map(|_| planner.next_delta(k)).collect()
    }
}

/// A structured transport failure of a process-backed shard: *which*
/// shard, *which* protocol step, and the worker's last stderr lines.
///
/// This replaces the old free-form `Transport(String)`: the supervisor
/// dispatches on the kind (every kind feeds the same respawn/replay
/// recovery path), and the captured stderr tail makes a worker panic
/// diagnosable from the coordinator's error instead of being lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    /// Shard index the failure struck, when raised in a sharded context
    /// (`None` worker-side or before a shard identity is assigned).
    pub shard: Option<u32>,
    /// The protocol step that failed.
    pub kind: TransportErrorKind,
    /// The worker's last captured stderr lines (oldest first), empty
    /// when nothing was captured or the backend has no stderr.
    pub stderr: Vec<String>,
}

/// The protocol step a [`TransportError`] failed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportErrorKind {
    /// The worker process could not be spawned (or respawned).
    Spawn(String),
    /// Writing a request frame to the worker's stdin failed.
    Write(String),
    /// Reading a response failed: the pipe closed mid-frame or errored
    /// (a killed or crashed worker surfaces here).
    Read(String),
    /// The worker did not answer within the request deadline — a hung
    /// worker is indistinguishable from a dead one past this point.
    Timeout {
        /// The deadline that elapsed, in milliseconds.
        millis: u64,
    },
    /// The bytes arrived but failed frame/codec verification (corrupt
    /// frame, unexpected frame kind, undecodable response).
    Decode(String),
}

impl TransportError {
    /// A bare error of the given kind (no shard attribution, no
    /// stderr).
    pub fn of_kind(kind: TransportErrorKind) -> Self {
        TransportError {
            shard: None,
            kind,
            stderr: Vec::new(),
        }
    }

    /// A spawn-step failure.
    pub fn spawn(msg: impl Into<String>) -> Self {
        Self::of_kind(TransportErrorKind::Spawn(msg.into()))
    }

    /// A write-step failure.
    pub fn write(msg: impl Into<String>) -> Self {
        Self::of_kind(TransportErrorKind::Write(msg.into()))
    }

    /// A read-step failure.
    pub fn read(msg: impl Into<String>) -> Self {
        Self::of_kind(TransportErrorKind::Read(msg.into()))
    }

    /// A deadline expiry after `millis` milliseconds.
    pub fn timeout(millis: u64) -> Self {
        Self::of_kind(TransportErrorKind::Timeout { millis })
    }

    /// A frame/codec verification failure.
    pub fn decode(msg: impl Into<String>) -> Self {
        Self::of_kind(TransportErrorKind::Decode(msg.into()))
    }

    /// Attributes the error to a shard index.
    #[must_use]
    pub fn with_shard(mut self, shard: u32) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Attaches the worker's captured stderr tail.
    #[must_use]
    pub fn with_stderr(mut self, lines: Vec<String>) -> Self {
        self.stderr = lines;
        self
    }
}

impl std::fmt::Display for TransportErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportErrorKind::Spawn(msg) => write!(f, "spawn: {msg}"),
            TransportErrorKind::Write(msg) => write!(f, "write: {msg}"),
            TransportErrorKind::Read(msg) => write!(f, "read: {msg}"),
            TransportErrorKind::Timeout { millis } => {
                write!(f, "request deadline exceeded after {millis} ms")
            }
            TransportErrorKind::Decode(msg) => write!(f, "decode: {msg}"),
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.shard {
            Some(s) => write!(f, "shard {s}: {}", self.kind)?,
            None => write!(f, "{}", self.kind)?,
        }
        if !self.stderr.is_empty() {
            write!(f, "; worker stderr tail: {}", self.stderr.join(" | "))?;
        }
        Ok(())
    }
}

/// Errors of the incremental engine.
///
/// `apply` validates a whole delta before mutating anything, so a returned
/// error leaves the session exactly as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// An insert row's arity differs from the schema's.
    Arity {
        /// Schema arity.
        expected: usize,
        /// The offending row's arity.
        got: usize,
    },
    /// A delete names a row id that was never inserted.
    UnknownRow(RowId),
    /// A delete names a row that is already tombstoned (possibly by an
    /// earlier entry of the same delta).
    AlreadyDeleted(RowId),
    /// An FD references an attribute outside the schema.
    UnknownAttr(u32),
    /// Invalid sharding configuration: zero shards, a shard key outside
    /// the schema, or a subscription whose LHS does not contain the shard
    /// key (its X-groups would straddle shards and the merged aggregates
    /// would be wrong).
    ShardConfig(String),
    /// Compaction found a divergence between the incremental state and a
    /// batch rebuild — an engine bug surfaced loudly rather than served.
    Diverged(String),
    /// A process-backed shard's transport failed: the worker died or
    /// hung, its pipe closed mid-frame, or its bytes failed frame/codec
    /// verification. Recovery-enabled sessions respawn and replay the
    /// shard transparently; this error surfaces only once the retry
    /// budget is exhausted (or the backend cannot be respawned).
    Transport(TransportError),
    /// The session was poisoned by an earlier unrecoverable failure:
    /// score reads still serve the last consistent state, but mutation
    /// is refused until the session is rebuilt (e.g. from a snapshot).
    Poisoned(String),
    /// An underlying relation error.
    Relation(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Arity { expected, got } => {
                write!(f, "insert arity mismatch: expected {expected}, got {got}")
            }
            StreamError::UnknownRow(r) => write!(f, "delete of unknown row id {r}"),
            StreamError::AlreadyDeleted(r) => write!(f, "row id {r} is already deleted"),
            StreamError::UnknownAttr(a) => write!(f, "attribute #{a} outside the schema"),
            StreamError::ShardConfig(msg) => write!(f, "shard configuration: {msg}"),
            StreamError::Diverged(what) => {
                write!(f, "incremental state diverged from batch rebuild: {what}")
            }
            StreamError::Transport(e) => write!(f, "shard worker transport: {e}"),
            StreamError::Poisoned(why) => write!(
                f,
                "session poisoned ({why}); reads serve the last consistent \
                 state, rebuild the session to resume mutation"
            ),
            StreamError::Relation(e) => write!(f, "relation error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<RelationError> for StreamError {
    fn from(e: RelationError) -> Self {
        StreamError::Relation(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_builders() {
        let d = RowDelta::insert_only([vec![Value::Int(1)]]);
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
        let d = RowDelta::delete_only([3, 4]);
        assert_eq!(d.len(), 2);
        assert!(RowDelta::new().is_empty());
    }

    #[test]
    fn churn_plan_is_valid_and_size_preserving() {
        let fixture = Relation::from_pairs((0..32).map(|i| (i % 4, i % 3)));
        let deltas = ChurnPlanner::plan(&fixture, 5, 8);
        assert_eq!(deltas.len(), 5);
        let mut session = crate::StreamSession::from_relation(fixture);
        for delta in &deltas {
            assert_eq!(delta.deletes.len(), 4);
            assert_eq!(delta.inserts.len(), 4);
            session.apply(delta).expect("planned deltas are valid");
            assert_eq!(session.relation().n_live(), 32);
        }
    }

    #[test]
    #[should_panic(expected = "empty fixture")]
    fn churn_planner_rejects_empty_fixture() {
        let empty = Relation::from_pairs(std::iter::empty());
        ChurnPlanner::new(&empty);
    }

    #[test]
    fn errors_render() {
        let e = StreamError::Arity {
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("expected 2"));
        assert!(StreamError::UnknownRow(7).to_string().contains('7'));
        assert!(StreamError::Diverged("pli".into())
            .to_string()
            .contains("pli"));
        assert!(StreamError::ShardConfig("no key".into())
            .to_string()
            .contains("no key"));
        assert!(StreamError::Poisoned("retry budget exhausted".into())
            .to_string()
            .contains("retry budget exhausted"));
    }

    #[test]
    fn transport_errors_render_shard_kind_and_stderr() {
        let e = TransportError::timeout(250).with_shard(3);
        let s = e.to_string();
        assert!(s.contains("shard 3"), "{s}");
        assert!(s.contains("250 ms"), "{s}");

        let e = TransportError::read("pipe closed")
            .with_shard(1)
            .with_stderr(vec!["thread panicked".into()]);
        let s = StreamError::Transport(e).to_string();
        assert!(s.contains("read: pipe closed"), "{s}");
        assert!(s.contains("thread panicked"), "{s}");

        assert!(TransportError::spawn("no such file")
            .to_string()
            .contains("spawn: no such file"));
        assert!(TransportError::write("broken pipe")
            .to_string()
            .contains("write: broken pipe"));
        assert!(TransportError::decode("bad magic")
            .to_string()
            .contains("decode: bad magic"));
    }
}
