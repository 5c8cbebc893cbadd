//! Fault-injection property tests for the self-healing shard fabric:
//! for N ∈ {1, 2, 4} shards, **any single fault at any protocol step**
//! (kill / truncate / garbage / stall, site and victim shard derived
//! deterministically from a seed via [`FaultPlan`]), plus a second fault
//! on the same victim once the first is recovered, must recover
//! bit-identically to a fault-free unsharded run — same merged scores
//! (`f64::to_bits`), same live rows in the same global order.

use afd_relation::{AttrId, AttrSet, Fd, Schema, Value};
use afd_stream::{ChaosShard, FaultPlan, RecoveryConfig, RowDelta, ShardedSession, StreamSession};
use proptest::prelude::*;

/// One stream event: op selector, delete-target pick, and cell values
/// (None = NULL) — the same shape as the crate's main proptests.
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
        4..48,
    )
}

/// Mirror of live row ids maintained alongside the sessions.
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

    fn delta_from(&mut self, chunk: &[Event]) -> RowDelta {
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
                let row: Vec<Value> = [a, b, c].iter().map(|&v| Value::from(v)).collect();
                delta.inserts.push(row);
                self.live.push(self.next_id);
                self.next_id += 1;
            }
        }
        delta
    }
}

/// Builds an N-shard chaos session with `plan`'s fault armed on its
/// victim shard, tight checkpoints and no backoff (tests should not
/// sleep).
fn chaos_session(
    schema: &Schema,
    n_shards: u32,
    plan: &FaultPlan,
    checkpoint_every: u64,
) -> ShardedSession<ChaosShard> {
    let backends: Vec<ChaosShard> = (0..n_shards)
        .map(|s| ChaosShard::new(schema.clone(), (s == plan.shard).then_some(plan.fault)))
        .collect();
    ShardedSession::with_backends(schema.clone(), AttrSet::single(AttrId(0)), backends)
        .expect("valid chaos topology")
        .with_recovery(RecoveryConfig {
            checkpoint_every,
            retry_budget: 3,
            backoff_ms: 0,
            request_timeout_ms: 1_000,
        })
        .expect("valid recovery config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_single_fault_recovers_bit_identically(
        seed in 0u64..u64::MAX,
        checkpoint_every in 1u64..5,
        events in events(),
    ) {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let fds = [
            Fd::linear(AttrId(0), AttrId(1)),
            Fd::linear(AttrId(0), AttrId(2)),
        ];
        // The fault-free reference: one unsharded session.
        let mut single = StreamSession::new(schema.clone());
        let single_cids: Vec<usize> = fds
            .iter()
            .map(|fd| single.subscribe(fd.clone()).unwrap())
            .collect();
        let mut mirror = Mirror::new();
        let deltas: Vec<RowDelta> = {
            let mut out = Vec::new();
            for chunk in events.chunks(4) {
                out.push(mirror.delta_from(chunk));
            }
            out
        };
        for d in &deltas {
            single.apply(d).unwrap();
        }
        for n_shards in [1u32, 2, 4] {
            // Enough sites to land anywhere in the interaction: subscribe
            // + one apply per delta + checkpoint snapshots.
            let max_site = 2 * (deltas.len() as u64 + fds.len() as u64) + 4;
            let plan = FaultPlan::single(
                seed.wrapping_add(u64::from(n_shards)),
                n_shards,
                max_site,
                25,
            );
            // A second fault on the same victim, armed once the first has
            // been recovered. Its site counts the restored incarnation's
            // requests, restore included: a low site fires at the next
            // request, a higher one later. Either the two recoveries
            // restore the same checkpoint or one lies between them.
            let second = FaultPlan::single(seed.rotate_left(32), n_shards, 12, 25).fault;
            let mut sharded = chaos_session(&schema, n_shards, &plan, checkpoint_every);
            let sharded_cids: Vec<usize> = fds
                .iter()
                .map(|fd| sharded.subscribe(fd.clone()).unwrap())
                .collect();
            let mut armed = false;
            for d in &deltas {
                if !armed && sharded.recovery_report().total_respawns() >= 1 {
                    sharded.backend_mut(plan.shard as usize).arm(second);
                    armed = true;
                }
                sharded.apply(d).unwrap();
            }
            for (ci, &scid) in single_cids.iter().enumerate() {
                prop_assert!(
                    sharded.scores(sharded_cids[ci]).bits_eq(&single.scores(scid)),
                    "plan {plan:?} over {n_shards} shards diverged for {:?}",
                    fds[ci]
                );
            }
            // Live rows and their global order survive the fault too.
            let snap = sharded.snapshot().unwrap();
            let want = single.relation().snapshot();
            prop_assert_eq!(snap.n_rows(), want.n_rows(), "plan {:?}", plan);
            for r in 0..want.n_rows() {
                prop_assert_eq!(snap.row(r), want.row(r), "row {} under plan {:?}", r, plan);
            }
            // If the fault fired, it was recovered (not silently skipped);
            // if the interaction was too short for the site, nothing
            // respawned — either way the state above already matched.
            let report = sharded.recovery_report();
            prop_assert!(
                report.total_respawns() >= 1 || plan.fault.site > 1,
                "a site-1 fault must always fire: {plan:?} {report:?}"
            );
        }
    }

    #[test]
    fn any_single_fault_mid_compaction_recovers(
        seed in 0u64..u64::MAX,
        events in events(),
    ) {
        // Same property with periodic compaction in the script: recovery
        // restores pre-compaction state and retries the compact. The
        // delta script is generated compaction-aware (global ids
        // renumber densely every third step), identically for every
        // shard count.
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let fd = Fd::linear(AttrId(0), AttrId(1));
        let deltas: Vec<RowDelta> = {
            let mut mirror = Mirror::new();
            events
                .chunks(4)
                .enumerate()
                .map(|(step, chunk)| {
                    let d = mirror.delta_from(chunk);
                    if step % 3 == 2 {
                        let n_live = mirror.live.len() as u32;
                        mirror.live = (0..n_live).collect();
                        mirror.next_id = n_live;
                    }
                    d
                })
                .collect()
        };
        for n_shards in [1u32, 2] {
            let max_site = 3 * deltas.len() as u64 + 6;
            let plan = FaultPlan::single(
                seed.wrapping_mul(31).wrapping_add(u64::from(n_shards)),
                n_shards,
                max_site,
                25,
            );
            let mut sharded = chaos_session(&schema, n_shards, &plan, 2);
            let cid = sharded.subscribe(fd.clone()).unwrap();
            let mut single = StreamSession::new(schema.clone());
            let scid = single.subscribe(fd.clone()).unwrap();
            for (step, d) in deltas.iter().enumerate() {
                sharded.apply(d).unwrap();
                single.apply(d).unwrap();
                if step % 3 == 2 {
                    sharded.compact().unwrap();
                    single.compact().unwrap();
                }
            }
            prop_assert!(
                sharded.scores(cid).bits_eq(&single.scores(scid)),
                "plan {plan:?} over {n_shards} shards diverged post-compaction"
            );
        }
    }
}
