//! Property tests for the streaming types' wire forms:
//! `decode(encode(x)) == x` (bit-exact floats, canonical bytes) for
//! every type the coordinator⇄worker protocol and the session snapshot
//! move, plus corrupted/truncated-byte fuzz asserting typed
//! [`DecodeError`]s — never panics — and the patch protocol: a state
//! copy patched after every apply stays equal to the worker's state.

use afd_relation::{AttrId, AttrSet, Fd, Relation, Schema, Value};
use afd_stream::wire::{CandidateState, ShardState, WorkerResponse, KIND_RESPONSE};
use afd_stream::{
    worker, IncTable, RowDelta, RowId, ScoreDiff, SessionSnapshot, StreamScores, StreamSession,
};
use afd_wire::{decode_framed, encode_framed, Decode, DecodeError, Encode};
use proptest::prelude::*;

/// Random insert/delete trace over small (x, y) id spaces.
fn table_events() -> impl Strategy<Value = Vec<(bool, u32, u32)>> {
    prop::collection::vec((prop::bool::ANY, 0u32..6, 0u32..5), 1..80)
}

fn build_table(events: &[(bool, u32, u32)]) -> IncTable {
    let mut t = IncTable::new();
    let mut live: Vec<(u32, u32)> = Vec::new();
    for &(del, x, y) in events {
        if del && !live.is_empty() {
            let (x, y) = live.swap_remove((x as usize * 7 + y as usize) % live.len());
            t.delete(x, y);
        } else {
            t.insert(x, y);
            live.push((x, y));
        }
    }
    t
}

proptest! {
    #[test]
    fn inc_table_roundtrips_exactly_and_canonically(events in table_events()) {
        let t = build_table(&events);
        let bytes = t.encode_to_vec();
        let back = IncTable::decode_exact(&bytes).expect("table decodes");
        prop_assert_eq!(&back, &t);
        prop_assert!(back.scores().bits_eq(&t.scores()));
        // Canonical: equal tables encode to identical bytes despite
        // nondeterministic in-memory hash maps.
        prop_assert_eq!(back.encode_to_vec(), bytes);
    }

    #[test]
    fn stream_scores_and_diffs_roundtrip_bit_exactly(events in table_events()) {
        let t = build_table(&events);
        let scores = t.scores();
        let back = StreamScores::decode_exact(&scores.encode_to_vec()).expect("scores decode");
        prop_assert!(back.bits_eq(&scores));
        let diff = ScoreDiff { candidate: events.len(), before: StreamScores::exact(), after: scores };
        let back = ScoreDiff::decode_exact(&diff.encode_to_vec()).expect("diff decodes");
        prop_assert_eq!(back.candidate, diff.candidate);
        prop_assert!(back.before.bits_eq(&diff.before));
        prop_assert!(back.after.bits_eq(&diff.after));
    }

    #[test]
    fn row_deltas_roundtrip(
        inserts in prop::collection::vec(
            (prop::option::weighted(0.9, -3i64..3), prop::option::weighted(0.9, 0i64..4)),
            0..20,
        ),
        deletes in prop::collection::vec(0u32..512, 0..20),
    ) {
        let delta = RowDelta {
            inserts: inserts
                .iter()
                .map(|&(a, b)| vec![Value::from(a), Value::from(b)])
                .collect(),
            deletes: deletes.clone(),
        };
        let back = RowDelta::decode_exact(&delta.encode_to_vec()).expect("delta decodes");
        prop_assert_eq!(back, delta);
    }

    #[test]
    fn session_snapshots_roundtrip_framed(
        rows in prop::collection::vec((0i64..5, 0i64..4, 0i64..3), 0..40),
        n_shards in 1u32..5,
        compact_every in prop::option::weighted(0.5, 1u64..64),
    ) {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let rel = Relation::from_rows(
            schema,
            rows.iter().map(|&(a, b, c)| [Value::Int(a), Value::Int(b), Value::Int(c)]),
        )
        .unwrap();
        let snap = SessionSnapshot {
            rows: rel,
            shard_key: AttrSet::single(AttrId(0)),
            n_shards,
            subscriptions: vec![
                Fd::linear(AttrId(0), AttrId(1)),
                Fd::new(AttrSet::new([AttrId(0), AttrId(2)]), AttrSet::single(AttrId(1))).unwrap(),
            ],
            compact_every,
        };
        let back = SessionSnapshot::from_bytes(&snap.to_bytes().unwrap()).expect("snapshot decodes");
        prop_assert_eq!(back, snap);
    }

    #[test]
    fn corrupted_snapshot_bytes_are_typed_errors(
        rows in prop::collection::vec((0i64..5, 0i64..4), 1..20),
        byte_pick in 0usize..=usize::MAX,
        bit in 0u8..8,
        cut_frac in 0.0f64..1.0,
    ) {
        let snap = SessionSnapshot {
            rows: Relation::from_pairs(rows.iter().map(|&(a, b)| (a as u64, b as u64))),
            shard_key: AttrSet::empty(),
            n_shards: 1,
            subscriptions: vec![Fd::linear(AttrId(0), AttrId(1))],
            compact_every: None,
        };
        let bytes = snap.to_bytes().unwrap();
        // Any single bit flip: typed error (the frame checksum covers
        // header and payload).
        let mut corrupt = bytes.clone();
        let byte = byte_pick % corrupt.len();
        corrupt[byte] ^= 1 << bit;
        let err = SessionSnapshot::from_bytes(&corrupt).expect_err("corruption detected");
        let _ = err.to_string();
        // Any truncation: typed error.
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            let err = SessionSnapshot::from_bytes(&bytes[..cut]).expect_err("truncation detected");
            prop_assert!(
                matches!(
                    err,
                    DecodeError::Truncated { .. }
                        | DecodeError::BadLength { .. }
                        | DecodeError::BadMagic { .. }
                ),
                "cut {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn worker_responses_with_live_session_state_roundtrip(events in table_events()) {
        // A response carrying real session-derived state (the shape the
        // coordinator actually decodes every delta).
        let mut session = StreamSession::new(Schema::new(["X", "Y"]).unwrap());
        let cid = session.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let rows: Vec<Vec<Value>> = events
            .iter()
            .map(|&(_, x, y)| vec![Value::Int(i64::from(x)), Value::Int(i64::from(y))])
            .collect();
        session.apply(&RowDelta::insert_only(rows)).unwrap();
        let resp = WorkerResponse::Subscribed {
            cid: cid as u32,
            state: ShardState {
                n_live: session.relation().n_live() as u64,
                candidates: vec![CandidateState {
                    table: session.table(cid).clone(),
                    y_keys: (0..session.n_y_side_ids(cid))
                        .map(|id| session.y_side_values(cid, id as u32))
                        .collect(),
                }],
            },
        };
        let frame = encode_framed(KIND_RESPONSE, &resp).unwrap();
        let back: WorkerResponse =
            decode_framed(KIND_RESPONSE, &frame).expect("framed response decodes");
        prop_assert_eq!(&back, &resp);
        // The decoded table still reads bit-identical scores.
        if let WorkerResponse::Subscribed { state, .. } = back {
            prop_assert!(state.candidates[0]
                .table
                .scores()
                .bits_eq(&session.scores(cid)));
        }
    }

    #[test]
    fn shard_patches_roundtrip_and_keep_a_mirror_exact(trace in churn_trace()) {
        // The coordinator's view of a worker: full state at subscribe,
        // then one framed patch per apply.
        let mut session = StreamSession::new(Schema::new(["A", "B", "C"]).unwrap());
        session.subscribe(Fd::linear(AttrId(0), AttrId(1))).unwrap();
        let mut mirror = worker::shard_state(&session);
        let mut live: Vec<RowId> = Vec::new();
        let mut next: RowId = 0;
        for (i, (inserts, picks)) in trace.iter().enumerate() {
            if i == 1 {
                // A second candidate joins over rows already churned.
                let fd = Fd::new(AttrSet::new([AttrId(0), AttrId(2)]), AttrSet::single(AttrId(1)));
                session.subscribe(fd.unwrap()).unwrap();
                mirror = worker::shard_state(&session);
            }
            let mut deletes = Vec::new();
            for &p in picks {
                if !live.is_empty() {
                    deletes.push(live.swap_remove(p as usize % live.len()));
                }
            }
            let delta = RowDelta {
                inserts: inserts
                    .iter()
                    .map(|&(a, b, c)| vec![Value::from(a), Value::from(b), Value::from(c)])
                    .collect(),
                deletes,
            };
            live.extend(next..next + inserts.len() as RowId);
            next += inserts.len() as RowId;
            session.apply(&delta).unwrap();
            let resp = WorkerResponse::Applied(worker::shard_patch(&session));
            let frame = encode_framed(KIND_RESPONSE, &resp).unwrap();
            let back: WorkerResponse =
                decode_framed(KIND_RESPONSE, &frame).expect("framed patch decodes");
            prop_assert_eq!(&back, &resp);
            let WorkerResponse::Applied(patch) = back else {
                unreachable!("round-tripped above");
            };
            mirror.apply_patch(patch);
            prop_assert_eq!(&mirror, &worker::shard_state(&session));
        }
    }
}

/// A churn trace of deltas: rows to insert (any cell may be NULL) and
/// picks that choose live rows to delete.
type Churn = Vec<(Vec<(Option<i64>, Option<i64>, Option<i64>)>, Vec<u32>)>;

fn churn_trace() -> impl Strategy<Value = Churn> {
    let row = (
        prop::option::weighted(0.85, 0i64..5),
        prop::option::weighted(0.85, 0i64..6),
        prop::option::weighted(0.85, 0i64..3),
    );
    prop::collection::vec(
        (
            prop::collection::vec(row, 0..12),
            prop::collection::vec(0u32..1024, 0..8),
        ),
        2..16,
    )
}
