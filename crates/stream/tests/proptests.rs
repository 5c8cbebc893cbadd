//! Property tests pinning the incremental engine to the batch kernels:
//! random insert/delete sequences must yield byte-identical PLIs,
//! contingency tables and scores to a from-scratch rebuild at every
//! step, and every one of the 11 scores must equal the `afd-core` batch
//! measure on the same rows bit for bit (`f64::to_bits`): both sides
//! score through `afd-core`'s exact, order-free sums.

use afd_core::measure_by_name;
use afd_relation::{AttrId, AttrSet, Fd, Pli, Relation, Schema, Value};
use afd_stream::{plis_equal, tables_equal, RowDelta, ShardedSession, StreamScores, StreamSession};
use proptest::prelude::*;

/// One stream event: op selector, delete-target pick, and cell values
/// (None = NULL).
type Event = (u8, u32, (Option<i64>, Option<i64>, Option<i64>));

fn events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (
            0u8..4, // 0 => delete (when possible), else insert
            0u32..4096,
            (
                prop::option::weighted(0.85, 0i64..5),
                prop::option::weighted(0.85, 0i64..4),
                prop::option::weighted(0.85, 0i64..3),
            ),
        ),
        1..60,
    )
}

/// Mirror of live row ids maintained alongside the session.
struct Mirror {
    live: Vec<u32>,
    next_id: u32,
}

impl Mirror {
    fn new() -> Self {
        Mirror {
            live: Vec::new(),
            next_id: 0,
        }
    }

    /// Turns a chunk of events into a valid delta (deletes only name rows
    /// that existed before the delta and are not double-deleted).
    fn delta_from(&mut self, chunk: &[Event], arity: usize) -> RowDelta {
        let base = self.next_id;
        let mut delta = RowDelta::new();
        for &(sel, pick, (a, b, c)) in chunk {
            let deletable: Vec<u32> = self
                .live
                .iter()
                .copied()
                .filter(|&id| id < base && !delta.deletes.contains(&id))
                .collect();
            if sel == 0 && !deletable.is_empty() {
                let id = deletable[pick as usize % deletable.len()];
                delta.deletes.push(id);
                self.live.retain(|&l| l != id);
            } else {
                let row: Vec<Value> = [a, b, c][..arity].iter().map(|&v| Value::from(v)).collect();
                delta.inserts.push(row);
                self.live.push(self.next_id);
                self.next_id += 1;
            }
        }
        delta
    }

    /// Compaction renumbers survivors densely.
    fn after_compaction(&mut self, n_live: usize) {
        self.live = (0..n_live as u32).collect();
        self.next_id = n_live as u32;
    }
}

/// Asserts every pinning property of one candidate against the batch path.
fn check_against_batch(
    session: &StreamSession,
    cid: usize,
    snap: &Relation,
) -> Result<(), TestCaseError> {
    let fd = session.fd(cid).clone();
    let batch_ct = fd.contingency(snap);
    prop_assert!(
        tables_equal(&session.contingency(cid), &batch_ct),
        "contingency diverged for {:?}",
        fd
    );
    let batch_pli = Pli::from_relation(snap, fd.lhs());
    prop_assert!(
        plis_equal(&session.pli(cid), &batch_pli),
        "PLI diverged for {:?}",
        fd
    );
    // Bit-exact scores vs a from-scratch rebuild of the engine.
    let mut fresh = StreamSession::from_relation(snap.clone());
    let fcid = fresh.subscribe(fd.clone()).expect("valid fd");
    prop_assert!(
        session.scores(cid).bits_eq(&fresh.scores(fcid)),
        "scores not bit-identical to rebuild for {:?}: {:?} vs {:?}",
        fd,
        session.scores(cid),
        fresh.scores(fcid)
    );
    // Bit-exact agreement with the batch measures.
    for name in StreamScores::NAMES {
        let measure = measure_by_name(name).expect("known measure");
        let want = measure.score_contingency(&batch_ct);
        let got = session.scores(cid).get(name).expect("known name");
        prop_assert!(
            want.to_bits() == got.to_bits(),
            "{name} differs from afd-core: stream {got} vs batch {want}"
        );
    }
    Ok(())
}

/// Every shard count's merged read of candidate `cid` is bit-identical
/// to the single session's.
fn check_sharded(
    single: &StreamSession,
    sharded: &[ShardedSession],
    cid: usize,
) -> Result<(), TestCaseError> {
    for s in sharded {
        prop_assert!(
            s.scores(cid).bits_eq(&single.scores(cid)),
            "ShardedSession({}) diverged from single session for {:?}: {:?} vs {:?}",
            s.n_shards(),
            single.fd(cid),
            s.scores(cid),
            single.scores(cid)
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn linear_candidate_tracks_batch_at_every_step(events in events()) {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let mut session = StreamSession::new(schema);
        let cid = session.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let mut mirror = Mirror::new();
        for chunk in events.chunks(3) {
            let delta = mirror.delta_from(chunk, 2);
            session.apply(&delta).unwrap();
            let snap = session.relation().snapshot();
            check_against_batch(&session, cid, &snap)?;
        }
    }

    #[test]
    fn multi_attribute_candidate_tracks_batch(events in events()) {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let mut session = StreamSession::new(schema);
        let fd = Fd::new(
            AttrSet::new([AttrId(0), AttrId(1)]),
            AttrSet::single(AttrId(2)),
        )
        .unwrap();
        let reverse = Fd::new(
            AttrSet::single(AttrId(2)),
            AttrSet::new([AttrId(0), AttrId(1)]),
        )
        .unwrap();
        let session_cids = vec![
            session.subscribe(fd).unwrap(),
            session.subscribe(reverse).unwrap(),
        ];
        let mut mirror = Mirror::new();
        for chunk in events.chunks(4) {
            let delta = mirror.delta_from(chunk, 3);
            session.apply(&delta).unwrap();
            let snap = session.relation().snapshot();
            for &cid in &session_cids {
                check_against_batch(&session, cid, &snap)?;
            }
        }
    }

    #[test]
    fn compaction_preserves_state_under_churn(events in events()) {
        let schema = Schema::new(["X", "Y"]).unwrap();
        let mut session = StreamSession::new(schema);
        let cid = session.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let mut mirror = Mirror::new();
        for (step, chunk) in events.chunks(3).enumerate() {
            let delta = mirror.delta_from(chunk, 2);
            session.apply(&delta).unwrap();
            if step % 3 == 2 {
                let before = session.scores(cid);
                // compact() itself asserts PLI/table/score equivalence
                // with the batch kernels and errors on divergence.
                let report = session.compact().unwrap();
                prop_assert_eq!(report.n_live, session.relation().n_live());
                prop_assert_eq!(session.relation().n_slots(), report.n_live);
                prop_assert!(session.scores(cid).bits_eq(&before));
                mirror.after_compaction(report.n_live);
            }
        }
        let snap = session.relation().snapshot();
        check_against_batch(&session, cid, &snap)?;
    }

    #[test]
    fn sharded_sessions_match_single_session_and_batch_bit_exactly(events in events()) {
        // The sharding pinning property: for every shard count, a
        // ShardedSession's merged score reads are bit-identical to a
        // single StreamSession over the same delta history, which in turn
        // is pinned (above and here) to the batch kernels — all 11 fast
        // measures, random insert/delete sequences, shard key = {A}. The
        // third FD subscribes after the first chunk, over populated
        // shards (how a served session is restored: rows first, then
        // subscribe), and one more delta follows the final compaction.
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let key = AttrSet::single(AttrId(0));
        let fds = [
            Fd::linear(AttrId(0), AttrId(1)),
            Fd::linear(AttrId(0), AttrId(2)),
            Fd::new(
                AttrSet::new([AttrId(0), AttrId(1)]),
                AttrSet::single(AttrId(2)),
            )
            .unwrap(),
        ];
        let mut single = StreamSession::new(schema.clone());
        let mut sharded: Vec<ShardedSession> = [1usize, 2, 3, 7]
            .iter()
            .map(|&n| ShardedSession::new(schema.clone(), key.clone(), n).unwrap())
            .collect();
        let subscribe = |fd: &Fd, single: &mut StreamSession, sharded: &mut [ShardedSession]| {
            let cid = single.subscribe(fd.clone()).unwrap();
            for s in sharded.iter_mut() {
                assert_eq!(s.subscribe(fd.clone()).unwrap(), cid, "lockstep subscribes");
            }
        };
        for fd in &fds[..2] {
            subscribe(fd, &mut single, &mut sharded);
        }
        let mut mirror = Mirror::new();
        for (step, chunk) in events.chunks(4).enumerate() {
            let delta = mirror.delta_from(chunk, 3);
            single.apply(&delta).unwrap();
            for s in &mut sharded {
                s.apply(&delta).unwrap();
            }
            if step == 0 {
                subscribe(&fds[2], &mut single, &mut sharded);
            }
            let snap = single.relation().snapshot();
            for (cid, fd) in fds.iter().enumerate().take(single.n_candidates()) {
                // Single session vs the batch measures.
                let batch_ct = fd.contingency(&snap);
                for name in StreamScores::NAMES {
                    let want = measure_by_name(name).unwrap().score_contingency(&batch_ct);
                    let got = single.scores(cid).get(name).unwrap();
                    prop_assert!(
                        want.to_bits() == got.to_bits(),
                        "{name} differs from afd-core for {:?}: {got} vs {want}",
                        fd
                    );
                }
                check_sharded(&single, &sharded, cid)?;
            }
        }
        // Per-shard compaction verification passes everywhere and keeps
        // the merged reads bit-identical.
        for s in &mut sharded {
            let before: Vec<StreamScores> =
                (0..fds.len()).map(|ci| s.scores(ci)).collect();
            s.compact().unwrap();
            for (ci, b) in before.iter().enumerate() {
                prop_assert!(s.scores(ci).bits_eq(b));
            }
        }
        // The Y spaces were rebuilt by the compaction: one more delta
        // (the single session compacted too, so ids agree) must still
        // fold bit-identically.
        let report = single.compact().unwrap();
        mirror.after_compaction(report.n_live);
        let delta = mirror.delta_from(&events[..events.len().min(4)], 3);
        single.apply(&delta).unwrap();
        for s in &mut sharded {
            s.apply(&delta).unwrap();
        }
        for cid in 0..fds.len() {
            check_sharded(&single, &sharded, cid)?;
        }
    }

    #[test]
    fn late_subscription_matches_eager_tracking(events in events()) {
        // Subscribing after arbitrary churn must agree with a session
        // that tracked the candidate from the start.
        let schema = Schema::new(["X", "Y"]).unwrap();
        let fd = Fd::linear(AttrId(1), AttrId(0));
        let mut eager = StreamSession::new(schema.clone());
        let ecid = eager.subscribe(fd.clone()).unwrap();
        let mut lazy = StreamSession::new(schema);
        let mut mirror = Mirror::new();
        for chunk in events.chunks(3) {
            let base_next = mirror.next_id;
            let base_live = mirror.live.clone();
            let delta = mirror.delta_from(chunk, 2);
            // Replay the identical delta on the lazy session.
            mirror.next_id = base_next;
            mirror.live = base_live;
            let delta2 = mirror.delta_from(chunk, 2);
            prop_assert_eq!(delta.deletes.clone(), delta2.deletes.clone());
            eager.apply(&delta).unwrap();
            lazy.apply(&delta2).unwrap();
        }
        let lcid = lazy.subscribe(fd).unwrap();
        prop_assert!(lazy.scores(lcid).bits_eq(&eager.scores(ecid)));
    }
}
