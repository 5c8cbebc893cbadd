//! Records supervised-recovery latency against the checkpoint interval
//! into `BENCH_recovery.json`.
//!
//! ```text
//! cargo run --release -p afd-bench --example record_recovery [--smoke] [out.json]
//! ```
//!
//! The workload: a 2-worker `ShardedSession<ProcessShard>` over the
//! standard 65 536-row bench fixture, churned with planned deltas. For
//! each checkpoint interval K in the sweep, the post-checkpoint delta
//! log is filled to K−1 entries, worker 1 is then killed outright, and
//! the next apply — which transparently respawns the worker, restores
//! its checkpoint, replays the log and retries the delta — is timed.
//! The trade-off this records: a small K bounds replay work (cheap
//! recovery) but pays a full snapshot round-trip every K applies; a
//! large K amortises checkpointing but replays up to K−1 deltas per
//! recovery. One more K = 64 case first churns the session until it
//! holds four tombstones per live row, then kills a worker right after
//! a checkpoint: a restore re-sends one row per slot since the last
//! compaction, dead slots included, so this case times the restore
//! when the delete history, not the replay, sets its cost.
//!
//! After every recovery the merged scores are asserted **bit-identical**
//! (`f64::to_bits`) to a fault-free in-process twin fed the same
//! history — the recovery path must be invisible in the reads.
//!
//! `--smoke` shrinks the fixture to 4 096 rows, one recovery per K and a
//! capped log fill so CI exercises the full kill-respawn-replay path in
//! well under a second.
//!
//! Requires `target/<profile>/afd` to exist (`cargo build --release`
//! first); the example exits with a clear error otherwise.

use afd_bench::{fixture_relation, median, Host};
use afd_relation::{AttrId, AttrSet, Fd};
use afd_stream::{ChurnPlanner, ProcessShard, RecoveryConfig, ShardedSession, WorkerCommand};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

struct KResult {
    checkpoint_every: u64,
    pre_churn: u64,
    tombstones: usize,
    fill: u64,
    apply_ns: u128,
    apply_samples: usize,
    recovery_ns: u128,
    deltas_replayed: u64,
    respawns: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_recovery.json".to_string());
    let (n, samples) = if smoke { (4096, 1) } else { (65_536, 5) };

    let fixture = fixture_relation(n, 7);
    let fd = Fd::linear(AttrId(0), AttrId(1));
    let key = AttrSet::single(AttrId(0));
    let delta_rows = (n / 256).max(4);

    let worker = WorkerCommand::sibling_binary("afd").unwrap_or_else(|| {
        eprintln!(
            "FAIL: could not find the `afd` binary next to this example; \
             run `cargo build --release` (or --profile matching this run) first"
        );
        std::process::exit(1);
    });

    // Churn deltas before the first kill in the last case: enough deletes
    // for four tombstones per live row, and a multiple of its K = 64, so
    // the first kill comes right after a checkpoint.
    let long_churn = (4 * n / (delta_rows / 2)) as u64;
    let mut results = Vec::new();
    for (checkpoint_every, pre_churn) in [(8u64, 0), (64, 0), (256, 0), (64, long_churn)] {
        // How far the post-checkpoint log is filled before the kill:
        // the worst case (K−1 deltas to replay), capped in smoke mode so
        // CI stays fast. The churned case kills right after a checkpoint,
        // so its recovery time is mostly the restore itself.
        let fill = if pre_churn > 0 {
            0
        } else if smoke {
            (checkpoint_every - 1).min(12)
        } else {
            checkpoint_every - 1
        };
        let mut proc: ShardedSession<ProcessShard> =
            ShardedSession::spawn_from_relation(fixture.clone(), key.clone(), 2, &worker)
                .expect("worker processes spawn")
                .with_recovery(RecoveryConfig {
                    checkpoint_every,
                    retry_budget: 3,
                    backoff_ms: 0,
                    request_timeout_ms: 30_000,
                })
                .expect("valid recovery config");
        let cp = proc.subscribe(fd.clone()).expect("2-attr fixture");
        let mut twin =
            ShardedSession::from_relation(fixture.clone(), key.clone(), 2).expect("twin session");
        let ct = twin.subscribe(fd.clone()).expect("2-attr fixture");
        let mut planner_a = ChurnPlanner::new(&fixture);
        let mut planner_b = ChurnPlanner::new(&fixture);

        let mut tombstones = 0;
        let mut plain_times = Vec::new();
        let mut recovery_times = Vec::new();
        let mut replayed_counts = Vec::new();
        for sample in 0..samples {
            // Fill the log: `fill` fault-free applies, after the
            // `pre_churn` history in the first sample (all of them also
            // sample the plain apply cost, checkpoint refreshes included).
            let applies = if sample == 0 { pre_churn + fill } else { fill };
            for _ in 0..applies {
                let delta = planner_a.next_delta(delta_rows);
                let same = planner_b.next_delta(delta_rows);
                let start = Instant::now();
                black_box(proc.apply(&delta).expect("valid churn delta"));
                plain_times.push(start.elapsed());
                twin.apply(&same).expect("valid churn delta");
            }
            // Kill worker 1 mid-run; the next apply recovers it.
            tombstones = proc.router().n_slots() - proc.router().n_live();
            let before = proc.recovery_report();
            proc.backend_mut(1).kill();
            let delta = planner_a.next_delta(delta_rows);
            let same = planner_b.next_delta(delta_rows);
            let start = Instant::now();
            black_box(proc.apply(&delta).expect("recovery heals the kill"));
            recovery_times.push(start.elapsed());
            twin.apply(&same).expect("valid churn delta");
            let after = proc.recovery_report();
            assert_eq!(
                after.total_respawns(),
                before.total_respawns() + 1,
                "exactly one respawn per kill"
            );
            replayed_counts.push(after.total_deltas_replayed() - before.total_deltas_replayed());
            assert!(
                proc.scores(cp).bits_eq(&twin.scores(ct)),
                "post-recovery scores diverged from the fault-free twin (K={checkpoint_every})"
            );
        }
        let report = proc.recovery_report();
        results.push(KResult {
            checkpoint_every,
            pre_churn,
            tombstones,
            fill,
            apply_samples: plain_times.len(),
            apply_ns: median(plain_times).as_nanos(),
            recovery_ns: median(recovery_times).as_nanos(),
            deltas_replayed: median(replayed_counts),
            respawns: report.total_respawns(),
        });
        assert!(proc.shutdown().clean(), "healed workers shut down cleanly");
    }

    // ------------------------------------------------------- report
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"workload\": \"worker_recovery\", \"rows\": {n}, \"shards\": 2, \
             \"checkpoint_every\": {}, \"pre_churn\": {}, \"tombstones\": {}, \
             \"log_fill\": {}, \"delta_rows\": {delta_rows}, \"apply_ns\": {}, \
             \"apply_samples\": {}, \"recovery_ns\": {}, \"samples\": {samples}, \
             \"deltas_replayed\": {}, \"respawns\": {}}}{comma}",
            r.checkpoint_every,
            r.pre_churn,
            r.tombstones,
            r.fill,
            r.apply_ns,
            r.apply_samples,
            r.recovery_ns,
            r.deltas_replayed,
            r.respawns,
        );
    }
    json.push_str("  ],\n");
    json.push_str(&Host::detect().json_fields());
    let _ = write!(
        json,
        "  \"smoke\": {smoke},\n  \"note\": \"median over samples kills (recovery_ns, deltas_replayed) and \
         apply_samples fault-free applies (apply_ns); worker_recovery = kill one of \
         2 afd shard-worker children with its post-checkpoint log filled to log_fill deltas, \
         then time the next apply, which respawns the worker, restores its checkpoint, replays \
         the log and retries the in-flight delta; pre_churn = churn deltas applied before the \
         first kill; tombstones = dead row slots across both shards at the last kill; \
         apply_ns = fault-free apply on the same session (checkpoint refreshes included); \
         post-recovery merged scores asserted bit-identical to a fault-free in-process twin\"\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write JSON");
    for r in &results {
        println!(
            "K={:<4} tombstones={:<7} fill={:<4} apply {:>10}ns  recovery {:>10}ns  \
             replayed {:>4} deltas  ({} respawns)",
            r.checkpoint_every,
            r.tombstones,
            r.fill,
            r.apply_ns,
            r.recovery_ns,
            r.deltas_replayed,
            r.respawns,
        );
    }
    println!("wrote {out_path}");
}
