//! The streaming session: an incrementally maintained relation plus the
//! tracked FD candidates whose structures and scores it keeps fresh.
//!
//! [`IncrementalRelation`] is an append-only row log with tombstones:
//! inserts append (dictionary codes are stable for the life of the log),
//! deletes only flip a liveness bit. [`StreamSession`] layers candidate
//! tracking on top: per subscribed FD it delta-maintains the dense side
//! encodings (`row -> X-group id`, `row -> Y-group id` — the incremental
//! PLI membership), an [`IncTable`] of joint counts, and the measure
//! scores. [`StreamSession::apply`] is `O(|delta| · |tracked|)` plus the
//! (tiny) histogram score reads — it never rescans the relation.
//!
//! Periodic [`StreamSession::compact`]ion drops tombstones, rebuilds every
//! structure through the batch kernels (`group_encode`, CSR
//! [`ContingencyTable`], [`Pli`]) and *asserts equivalence* with the
//! incremental state — divergence surfaces as
//! [`StreamError::Diverged`] instead of silently serving wrong scores.

use std::collections::HashMap;

use afd_relation::{
    AttrId, ContingencyTable, Fd, GroupEncoding, Pli, Relation, Schema, Value, NULL_CODE,
};

use crate::delta::{RowDelta, RowId, StreamError};
use crate::table::{IncTable, StreamScores, TablePatch};

/// An append-only relation log with tombstone deletes.
///
/// Row ids are insertion positions; deleted rows keep their slot (and
/// their dictionary codes) until [`IncrementalRelation::snapshot`] /
/// session compaction renumbers the survivors.
#[derive(Debug, Clone)]
pub struct IncrementalRelation {
    rel: Relation,
    live: Vec<bool>,
    n_live: usize,
}

impl IncrementalRelation {
    /// An empty log over `schema`.
    pub fn new(schema: Schema) -> Self {
        IncrementalRelation {
            rel: Relation::empty(schema),
            live: Vec::new(),
            n_live: 0,
        }
    }

    /// Wraps an existing relation; all rows start live.
    pub fn from_relation(rel: Relation) -> Self {
        let n = rel.n_rows();
        IncrementalRelation {
            rel,
            live: vec![true; n],
            n_live: n,
        }
    }

    /// Appends one row, returning its id.
    ///
    /// # Errors
    /// [`StreamError::Arity`] if the row's arity differs from the schema's.
    pub fn insert_row(&mut self, row: Vec<Value>) -> Result<RowId, StreamError> {
        if row.len() != self.rel.arity() {
            return Err(StreamError::Arity {
                expected: self.rel.arity(),
                got: row.len(),
            });
        }
        let id = self.live.len() as RowId;
        self.rel.push_row(row)?;
        self.live.push(true);
        self.n_live += 1;
        Ok(id)
    }

    /// Tombstones row `id`.
    ///
    /// # Errors
    /// [`StreamError::UnknownRow`] / [`StreamError::AlreadyDeleted`].
    pub fn delete_row(&mut self, id: RowId) -> Result<(), StreamError> {
        match self.live.get_mut(id as usize) {
            None => Err(StreamError::UnknownRow(id)),
            Some(l) if !*l => Err(StreamError::AlreadyDeleted(id)),
            Some(l) => {
                *l = false;
                self.n_live -= 1;
                Ok(())
            }
        }
    }

    /// `true` iff `id` was inserted and not deleted.
    pub fn is_live(&self, id: RowId) -> bool {
        self.live.get(id as usize).copied().unwrap_or(false)
    }

    /// Live (non-tombstoned) row count.
    pub fn n_live(&self) -> usize {
        self.n_live
    }

    /// Total slots in the log, tombstones included.
    pub fn n_slots(&self) -> usize {
        self.live.len()
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.rel.schema()
    }

    /// The underlying append-only log (tombstoned rows still present).
    pub fn log(&self) -> &Relation {
        &self.rel
    }

    /// Materialises the live rows as a fresh, compact [`Relation`]
    /// (code-level row filter — no `Value` round-trips).
    pub fn snapshot(&self) -> Relation {
        self.rel.filter_rows(|r| self.live[r])
    }
}

/// One side's dense id dictionary: code tuple -> stable id, plus the
/// reverse `keys` list (id -> code tuple) that sharded coordinators use to
/// identify the same side value across shards.
#[derive(Debug, Clone, Default)]
struct SideIndex {
    index: HashMap<Vec<u32>, u32>,
    keys: Vec<Vec<u32>>,
}

impl SideIndex {
    fn encode(&mut self, rel: &Relation, attrs: &[AttrId], slot: usize, buf: &mut Vec<u32>) -> u32 {
        buf.clear();
        for &a in attrs {
            let c = rel.column(a).codes()[slot];
            if c == NULL_CODE {
                return NULL_CODE;
            }
            buf.push(c);
        }
        if let Some(&id) = self.index.get(buf.as_slice()) {
            return id;
        }
        let id = self.index.len() as u32;
        self.index.insert(buf.clone(), id);
        self.keys.push(buf.clone());
        id
    }
}

/// One tracked candidate's delta-maintained state.
#[derive(Debug, Clone)]
struct TrackedCandidate {
    fd: Fd,
    /// Dense side-id dictionaries: lhs/rhs code tuple -> stable id.
    x_index: SideIndex,
    y_index: SideIndex,
    /// Per-slot side ids ([`NULL_CODE`] marks a NULL in the side's attrs);
    /// `row_x` *is* the incremental PLI membership of the LHS partition.
    row_x: Vec<u32>,
    row_y: Vec<u32>,
    table: IncTable,
    last: StreamScores,
    /// X and Y side ids counted in or out since the current apply began
    /// (repeats allowed), and the Y side ids assigned before it — what a
    /// shard worker's patch reports. Reset by [`Self::begin_apply`] and
    /// after subscribe.
    touched_x: Vec<u32>,
    touched_y: Vec<u32>,
    y_ids_before: usize,
}

impl TrackedCandidate {
    /// Encodes slot `slot` of the log and counts it into the table when
    /// live and NULL-free. Called once per slot, in slot order.
    fn ingest_slot(&mut self, rel: &Relation, slot: usize, live: bool, buf: &mut Vec<u32>) {
        debug_assert_eq!(self.row_x.len(), slot, "slots ingested in order");
        if !live {
            // Tombstoned before this candidate existed: never encoded, so
            // dead rows cannot influence side-id assignment.
            self.row_x.push(NULL_CODE);
            self.row_y.push(NULL_CODE);
            return;
        }
        let xi = self.x_index.encode(rel, self.fd.lhs().ids(), slot, buf);
        let yj = self.y_index.encode(rel, self.fd.rhs().ids(), slot, buf);
        self.row_x.push(xi);
        self.row_y.push(yj);
        if xi != NULL_CODE && yj != NULL_CODE {
            self.table.insert(xi, yj);
            self.touched_x.push(xi);
            self.touched_y.push(yj);
        }
    }

    fn forget_slot(&mut self, slot: usize) {
        let (xi, yj) = (self.row_x[slot], self.row_y[slot]);
        if xi != NULL_CODE && yj != NULL_CODE {
            self.table.delete(xi, yj);
            self.touched_x.push(xi);
            self.touched_y.push(yj);
        }
    }

    fn begin_apply(&mut self) {
        self.touched_x.clear();
        self.touched_y.clear();
        self.y_ids_before = self.y_index.keys.len();
    }
}

/// Per-candidate score movement reported by [`StreamSession::apply`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreDiff {
    /// Index of the candidate (subscription order).
    pub candidate: usize,
    /// Scores before the delta.
    pub before: StreamScores,
    /// Scores after the delta.
    pub after: StreamScores,
}

impl ScoreDiff {
    /// Largest absolute per-measure movement.
    pub fn max_abs_delta(&self) -> f64 {
        self.before.max_abs_diff(&self.after)
    }

    /// `true` iff any measure moved by more than `eps`.
    pub fn changed(&self, eps: f64) -> bool {
        self.max_abs_delta() > eps
    }
}

/// Outcome of a successful compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Tombstoned slots reclaimed.
    pub rows_dropped: usize,
    /// Candidates whose PLI/contingency/scores were verified against the
    /// batch kernels.
    pub candidates_checked: usize,
    /// Live rows after compaction.
    pub n_live: usize,
}

/// A streaming AFD scoring session over an [`IncrementalRelation`].
#[derive(Debug, Clone)]
pub struct StreamSession {
    inc: IncrementalRelation,
    tracked: Vec<TrackedCandidate>,
    deltas_applied: u64,
    compact_every: Option<u64>,
}

impl StreamSession {
    /// An empty session over `schema`.
    pub fn new(schema: Schema) -> Self {
        Self::over(IncrementalRelation::new(schema))
    }

    /// A session whose log starts as `rel` (all rows live).
    pub fn from_relation(rel: Relation) -> Self {
        Self::over(IncrementalRelation::from_relation(rel))
    }

    fn over(inc: IncrementalRelation) -> Self {
        StreamSession {
            inc,
            tracked: Vec::new(),
            deltas_applied: 0,
            compact_every: None,
        }
    }

    /// Enables automatic compaction (with batch-kernel equivalence
    /// verification) after every `every` applied deltas.
    pub fn with_compaction_every(mut self, every: u64) -> Self {
        self.compact_every = Some(every.max(1));
        self
    }

    /// The underlying incremental relation.
    pub fn relation(&self) -> &IncrementalRelation {
        &self.inc
    }

    /// Subscribes a candidate FD, building its incremental state from the
    /// current log, and returns its candidate index. Re-subscribing an
    /// already-tracked FD returns the existing index.
    ///
    /// # Errors
    /// [`StreamError::UnknownAttr`] if the FD references an attribute
    /// outside the schema.
    pub fn subscribe(&mut self, fd: Fd) -> Result<usize, StreamError> {
        if let Some(i) = self.tracked.iter().position(|t| t.fd == fd) {
            return Ok(i);
        }
        for &a in fd.lhs().ids().iter().chain(fd.rhs().ids()) {
            if a.index() >= self.inc.rel.arity() {
                return Err(StreamError::UnknownAttr(a.0));
            }
        }
        let mut t = TrackedCandidate {
            fd,
            x_index: SideIndex::default(),
            y_index: SideIndex::default(),
            row_x: Vec::with_capacity(self.inc.n_slots()),
            row_y: Vec::with_capacity(self.inc.n_slots()),
            table: IncTable::new(),
            last: StreamScores::exact(),
            touched_x: Vec::new(),
            touched_y: Vec::new(),
            y_ids_before: 0,
        };
        let mut buf = Vec::new();
        for slot in 0..self.inc.n_slots() {
            t.ingest_slot(&self.inc.rel, slot, self.inc.live[slot], &mut buf);
        }
        t.last = t.table.scores();
        // The build is not an apply: drop its O(rows) lists outright.
        t.touched_x = Vec::new();
        t.touched_y = Vec::new();
        t.y_ids_before = t.y_index.keys.len();
        self.tracked.push(t);
        Ok(self.tracked.len() - 1)
    }

    /// Number of tracked candidates.
    pub fn n_candidates(&self) -> usize {
        self.tracked.len()
    }

    /// The FD of candidate `cid`.
    pub fn fd(&self, cid: usize) -> &Fd {
        &self.tracked[cid].fd
    }

    /// The current scores of candidate `cid`.
    pub fn scores(&self, cid: usize) -> StreamScores {
        self.tracked[cid].last
    }

    /// The delta-maintained joint-count table of candidate `cid` — the
    /// input to cross-shard score reads.
    pub fn table(&self, cid: usize) -> &IncTable {
        &self.tracked[cid].table
    }

    /// The table patch of candidate `cid`'s last apply: the state of
    /// every X group and Y column it counted rows in or out of, read
    /// through [`IncTable::patch`] (empty right after subscribe).
    ///
    /// A patch describes exactly one apply. It is only meaningful on a
    /// session without auto-compaction (shard workers never enable it),
    /// because a compaction inside the apply renumbers every side id.
    pub(crate) fn table_patch(&self, cid: usize) -> TablePatch {
        let t = &self.tracked[cid];
        t.table.patch(&t.touched_x, &t.touched_y)
    }

    /// The Y side ids whose column totals candidate `cid`'s last apply
    /// counted rows in or out of (repeats allowed; empty right after
    /// subscribe) — what a sharded coordinator folds into its merged Y
    /// margins.
    pub(crate) fn touched_y_ids(&self, cid: usize) -> &[u32] {
        &self.tracked[cid].touched_y
    }

    /// The Y side ids candidate `cid`'s last apply assigned: the range
    /// `first..n_y_side_ids(cid)` (empty right after subscribe).
    pub(crate) fn new_y_side_ids(&self, cid: usize) -> std::ops::Range<usize> {
        let t = &self.tracked[cid];
        t.y_ids_before..t.y_index.keys.len()
    }

    /// Number of Y side ids ever assigned for candidate `cid` (dense,
    /// `0..n`; ids are stable until the next compaction).
    pub fn n_y_side_ids(&self, cid: usize) -> usize {
        self.tracked[cid].y_index.keys.len()
    }

    /// The *value-level* Y key of side id `id` for candidate `cid`
    /// (RHS-attribute values, decoded through this session's
    /// dictionaries) — how a sharded coordinator recognises the same Y
    /// value across shards whose dictionary codes differ.
    ///
    /// # Panics
    /// Panics if `cid`/`id` are out of range (engine bug).
    pub fn y_side_values(&self, cid: usize, id: u32) -> Vec<Value> {
        let t = &self.tracked[cid];
        t.y_index.keys[id as usize]
            .iter()
            .zip(t.fd.rhs().ids())
            .map(|(&code, &a)| {
                self.inc
                    .rel
                    .column(a)
                    .dict()
                    .value(code)
                    .expect("side keys hold live dictionary codes")
                    .clone()
            })
            .collect()
    }

    /// Applies one delta: tombstones `delta.deletes`, appends
    /// `delta.inserts`, patches every tracked candidate's structures, and
    /// returns one [`ScoreDiff`] per candidate (subscription order).
    ///
    /// The delta is validated up front; on a validation `Err` the session
    /// is unchanged. If periodic compaction is enabled and due, it runs
    /// after the delta and its verification failures surface here as
    /// [`StreamError::Diverged`] — in that one case the delta *has* been
    /// applied (scores are current and queryable via
    /// [`StreamSession::scores`]) but the log remains uncompacted, with
    /// the divergent state intact for post-mortem.
    ///
    /// # Errors
    /// [`StreamError::Arity`] / [`StreamError::UnknownRow`] /
    /// [`StreamError::AlreadyDeleted`] on invalid deltas.
    pub fn apply(&mut self, delta: &RowDelta) -> Result<Vec<ScoreDiff>, StreamError> {
        // Validate everything before touching state.
        delta.validate(&self.inc.live, self.inc.rel.arity())?;
        for t in &mut self.tracked {
            t.begin_apply();
        }
        // Deletes first: ids refer to pre-delta rows by contract.
        for &id in &delta.deletes {
            self.inc.delete_row(id).expect("liveness validated above");
            for t in &mut self.tracked {
                t.forget_slot(id as usize);
            }
        }
        let mut buf = Vec::new();
        for row in &delta.inserts {
            let slot = self
                .inc
                .insert_row(row.clone())
                .expect("arity validated above") as usize;
            for t in &mut self.tracked {
                t.ingest_slot(&self.inc.rel, slot, true, &mut buf);
            }
        }
        let diffs = self
            .tracked
            .iter_mut()
            .enumerate()
            .map(|(i, t)| {
                let after = t.table.scores();
                let diff = ScoreDiff {
                    candidate: i,
                    before: t.last,
                    after,
                };
                t.last = after;
                diff
            })
            .collect();
        self.deltas_applied += 1;
        if let Some(every) = self.compact_every {
            if self.deltas_applied.is_multiple_of(every) {
                self.compact()?;
            }
        }
        Ok(diffs)
    }

    /// Materialises candidate `cid`'s LHS partition as a [`Pli`] in
    /// *snapshot* row numbering — byte-identical to
    /// `Pli::from_relation(&session.relation().snapshot(), fd.lhs())`.
    ///
    /// O(live rows); the maintenance itself stays O(delta) — this is the
    /// on-demand view for compaction checks and lattice hand-off.
    pub fn pli(&self, cid: usize) -> Pli {
        let enc = self.live_encoding(&self.tracked[cid].row_x);
        Pli::from_encoding(&enc, self.inc.n_live)
    }

    /// Materialises candidate `cid`'s contingency table in snapshot
    /// numbering — byte-identical to `fd.contingency(&snapshot)`.
    pub fn contingency(&self, cid: usize) -> ContingencyTable {
        let t = &self.tracked[cid];
        let mut xs = Vec::with_capacity(self.inc.n_live);
        let mut ys = Vec::with_capacity(self.inc.n_live);
        for slot in 0..self.inc.n_slots() {
            if self.inc.live[slot] {
                xs.push(t.row_x[slot]);
                ys.push(t.row_y[slot]);
            }
        }
        ContingencyTable::from_codes(&xs, &ys)
    }

    /// Dense first-encounter remap of `row_side` restricted to live rows.
    fn live_encoding(&self, row_side: &[u32]) -> GroupEncoding {
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let mut codes = Vec::with_capacity(self.inc.n_live);
        for (&raw, &live) in row_side.iter().zip(&self.inc.live) {
            if !live {
                continue;
            }
            if raw == NULL_CODE {
                codes.push(NULL_CODE);
                continue;
            }
            let next = remap.len() as u32;
            codes.push(*remap.entry(raw).or_insert(next));
        }
        GroupEncoding {
            n_groups: remap.len() as u32,
            codes,
        }
    }

    /// Compacts the log: verifies every candidate's incremental PLI,
    /// contingency table and scores against a from-scratch rebuild via the
    /// batch kernels, then swaps in the tombstone-free snapshot (row ids
    /// renumber densely; side-id dictionaries reset).
    ///
    /// # Errors
    /// [`StreamError::Diverged`] when the incremental state disagrees
    /// with the batch rebuild — state is left unswapped for post-mortem.
    pub fn compact(&mut self) -> Result<CompactionReport, StreamError> {
        let snapshot = self.inc.snapshot();
        for (i, t) in self.tracked.iter().enumerate() {
            let batch_ct = t.fd.contingency(&snapshot);
            if !tables_equal(&self.contingency(i), &batch_ct) {
                return Err(StreamError::Diverged(format!(
                    "contingency table of candidate {i}"
                )));
            }
            let batch_pli = Pli::from_relation(&snapshot, t.fd.lhs());
            if !plis_equal(&self.pli(i), &batch_pli) {
                return Err(StreamError::Diverged(format!("PLI of candidate {i}")));
            }
        }
        // Rebuild into a scratch session and verify *before* swapping, so
        // a Diverged error really does leave this session untouched.
        let mut rebuilt = Self::over(IncrementalRelation::from_relation(snapshot));
        for (i, t) in self.tracked.iter().enumerate() {
            let cid = rebuilt
                .subscribe(t.fd.clone())
                .expect("attrs validated at original subscribe");
            if !rebuilt.tracked[cid].last.bits_eq(&t.last) {
                return Err(StreamError::Diverged(format!(
                    "scores of candidate {i} after rebuild"
                )));
            }
        }
        let rows_dropped = self.inc.n_slots() - self.inc.n_live();
        self.inc = rebuilt.inc;
        self.tracked = rebuilt.tracked;
        Ok(CompactionReport {
            rows_dropped,
            candidates_checked: self.tracked.len(),
            n_live: self.inc.n_live(),
        })
    }
}

/// Structural equality of two contingency tables (same group order, same
/// margins, same cells).
pub fn tables_equal(a: &ContingencyTable, b: &ContingencyTable) -> bool {
    a.n() == b.n()
        && a.row_totals() == b.row_totals()
        && a.col_totals() == b.col_totals()
        && (0..a.n_x()).all(|i| a.row(i) == b.row(i))
}

/// Structural equality of two PLIs (same cluster order, same rows).
pub fn plis_equal(a: &Pli, b: &Pli) -> bool {
    a.n_rows() == b.n_rows()
        && a.n_clusters() == b.n_clusters()
        && a.clusters().zip(b.clusters()).all(|(x, y)| x == y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_relation::AttrSet;

    fn schema2() -> Schema {
        Schema::new(["X", "Y"]).unwrap()
    }

    fn row(x: i64, y: i64) -> Vec<Value> {
        vec![Value::Int(x), Value::Int(y)]
    }

    fn session_with(rows: &[(i64, i64)]) -> (StreamSession, usize) {
        let mut s = StreamSession::new(schema2());
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let delta = RowDelta::insert_only(rows.iter().map(|&(x, y)| row(x, y)));
        s.apply(&delta).unwrap();
        (s, cid)
    }

    #[test]
    fn insert_then_score_matches_batch_table() {
        let (s, cid) = session_with(&[(1, 10), (1, 10), (1, 11), (2, 20)]);
        let snap = s.relation().snapshot();
        let batch = s.fd(cid).contingency(&snap);
        assert!(tables_equal(&s.contingency(cid), &batch));
        assert!((s.scores(cid).g3 - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn deletes_update_scores_and_pli() {
        let (mut s, cid) = session_with(&[(1, 10), (1, 10), (1, 11), (2, 20)]);
        // Remove the violating row: FD becomes exact.
        s.apply(&RowDelta::delete_only([2])).unwrap();
        assert_eq!(s.scores(cid).g3, 1.0);
        let snap = s.relation().snapshot();
        assert_eq!(snap.n_rows(), 3);
        assert!(plis_equal(
            &s.pli(cid),
            &Pli::from_relation(&snap, &AttrSet::single(AttrId(0)))
        ));
    }

    #[test]
    fn score_diff_reports_movement() {
        let (mut s, _) = session_with(&[(1, 10), (1, 10)]);
        let diffs = s.apply(&RowDelta::insert_only([row(1, 99)])).unwrap();
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].before.g3, 1.0);
        assert!(diffs[0].after.g3 < 1.0);
        assert!(diffs[0].changed(1e-9));
        assert!(diffs[0].max_abs_delta() > 0.0);
    }

    #[test]
    fn invalid_deltas_leave_session_untouched() {
        let (mut s, cid) = session_with(&[(1, 10), (2, 20)]);
        // Tombstone row 1 (its values come back as row 2).
        s.apply(&RowDelta {
            inserts: vec![row(2, 20)],
            deletes: vec![1],
        })
        .unwrap();
        let before = s.scores(cid);
        // Unknown row.
        assert_eq!(
            s.apply(&RowDelta::delete_only([99])),
            Err(StreamError::UnknownRow(99))
        );
        // Duplicate delete in one delta.
        assert_eq!(
            s.apply(&RowDelta::delete_only([0, 0])),
            Err(StreamError::AlreadyDeleted(0))
        );
        // A row an earlier delta tombstoned, after a valid delete.
        assert_eq!(
            s.apply(&RowDelta::delete_only([0, 1])),
            Err(StreamError::AlreadyDeleted(1))
        );
        // Arity mismatch in a mixed delta: nothing (not even the valid
        // delete) may be applied.
        let bad = RowDelta {
            inserts: vec![vec![Value::Int(1)]],
            deletes: vec![0],
        };
        assert!(matches!(s.apply(&bad), Err(StreamError::Arity { .. })));
        assert!(s.relation().is_live(0));
        assert_eq!(s.relation().n_live(), 2);
        assert!(s.scores(cid).bits_eq(&before));
    }

    #[test]
    fn delete_then_reinsert_roundtrips_scores() {
        let (mut s, cid) = session_with(&[(1, 10), (1, 11), (2, 20), (2, 20)]);
        let before = s.scores(cid);
        s.apply(&RowDelta::delete_only([1])).unwrap();
        s.apply(&RowDelta::insert_only([row(1, 11)])).unwrap();
        assert!(s.scores(cid).bits_eq(&before));
    }

    #[test]
    fn null_rows_are_dropped_per_candidate() {
        let mut s = StreamSession::new(schema2());
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        s.apply(&RowDelta::insert_only([
            row(1, 10),
            vec![Value::Null, Value::Int(10)],
            vec![Value::Int(1), Value::Null],
        ]))
        .unwrap();
        let ct = s.contingency(cid);
        assert_eq!(ct.n(), 1);
        // NULL-Y row still joins the LHS partition (PLI ignores the RHS).
        let snap = s.relation().snapshot();
        assert!(plis_equal(
            &s.pli(cid),
            &Pli::from_relation(&snap, &AttrSet::single(AttrId(0)))
        ));
        assert_eq!(s.pli(cid).n_clusters(), 1); // rows 0 and 2 share X=1
    }

    #[test]
    fn subscribe_after_deletes_skips_tombstones() {
        let mut s = StreamSession::new(schema2());
        s.apply(&RowDelta::insert_only([row(1, 10), row(1, 99), row(2, 20)]))
            .unwrap();
        s.apply(&RowDelta::delete_only([1])).unwrap();
        let cid = s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        assert_eq!(s.scores(cid).g3, 1.0); // violating row already dead
                                           // Resubscribing returns the same candidate.
        assert_eq!(s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap(), cid);
    }

    #[test]
    fn subscribe_rejects_out_of_schema_attrs() {
        let mut s = StreamSession::new(schema2());
        assert_eq!(
            s.subscribe(Fd::linear(AttrId(0), AttrId(7))),
            Err(StreamError::UnknownAttr(7))
        );
    }

    #[test]
    fn compaction_drops_tombstones_and_verifies() {
        let (mut s, cid) = session_with(&[(1, 10), (1, 10), (1, 11), (2, 20), (3, 30)]);
        s.apply(&RowDelta::delete_only([0, 4])).unwrap();
        let before = s.scores(cid);
        let report = s.compact().unwrap();
        assert_eq!(report.rows_dropped, 2);
        assert_eq!(report.candidates_checked, 1);
        assert_eq!(report.n_live, 3);
        assert_eq!(s.relation().n_slots(), 3);
        assert!(s.scores(cid).bits_eq(&before));
        // The session keeps working after renumbering.
        s.apply(&RowDelta::insert_only([row(2, 21)])).unwrap();
        assert!(s.scores(cid).g3 < 1.0);
    }

    #[test]
    fn auto_compaction_runs_on_schedule() {
        let mut s = StreamSession::new(schema2()).with_compaction_every(2);
        s.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        s.apply(&RowDelta::insert_only([row(1, 10), row(2, 20)]))
            .unwrap();
        s.apply(&RowDelta::delete_only([0])).unwrap(); // 2nd delta -> compacts
        assert_eq!(s.relation().n_slots(), 1);
        assert_eq!(s.relation().n_live(), 1);
    }

    #[test]
    fn multi_attribute_sides_track_correctly() {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let mut s = StreamSession::from_relation(Relation::empty(schema));
        let fd = Fd::new(
            AttrSet::new([AttrId(0), AttrId(1)]),
            AttrSet::single(AttrId(2)),
        )
        .unwrap();
        let cid = s.subscribe(fd).unwrap();
        let rows = [[1i64, 1, 7], [1, 1, 7], [1, 2, 8], [1, 1, 9], [2, 1, 7]];
        s.apply(&RowDelta::insert_only(
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>()),
        ))
        .unwrap();
        let snap = s.relation().snapshot();
        let batch = s.fd(cid).contingency(&snap);
        assert!(tables_equal(&s.contingency(cid), &batch));
        assert!(plis_equal(
            &s.pli(cid),
            &Pli::from_relation(&snap, s.fd(cid).lhs())
        ));
    }
}
