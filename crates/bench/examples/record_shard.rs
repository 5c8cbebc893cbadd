//! Records per-shard apply cost vs a single unsharded session into
//! `BENCH_shard.json`.
//!
//! ```text
//! cargo run --release -p afd-bench --example record_shard [--smoke] [out.json]
//! ```
//!
//! Workload: the standard 65 536-row bench fixture with a tracked
//! `X -> Y` candidate, churned by half-insert/half-delete deltas of
//! `rows / 256` events, with the rows hash-partitioned across
//! N ∈ {1, 2, 4, 8} shards by the candidate's LHS. The host is
//! single-core, so the recorded quantity is **work per shard** (each
//! routed slice applied and timed individually), not wall-clock: the
//! number a real N-core/N-node deployment would see per worker. The
//! correctness gate runs a `ShardedSession` over the same deltas and
//! asserts its merged score reads bit-identical to the unsharded
//! session, then closes with a per-shard verified compaction.
//!
//! `--smoke` shrinks the fixture to 4 096 rows and one sample per shard
//! count so CI can exercise the full path in well under a second.

use afd_bench::{fixture_relation, median};
use afd_relation::{AttrId, AttrSet, Fd};
use afd_stream::{ChurnPlanner, DeltaRouter, ShardedSession, StreamSession};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Record {
    shards: usize,
    delta_rows: usize,
    /// Median over deltas of the mean per-shard apply time.
    mean_shard: Duration,
    /// Median over deltas of the slowest shard's apply time.
    max_shard: Duration,
    /// The single-session (N = 1) baseline.
    single: Duration,
}

impl Record {
    fn work_ratio(&self) -> f64 {
        self.mean_shard.as_secs_f64() / self.single.as_secs_f64().max(1e-12)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_shard.json".to_string());
    let (n, samples) = if smoke { (4096, 1) } else { (65_536, 9) };

    let fixture = fixture_relation(n, 7);
    let fd = Fd::linear(AttrId(0), AttrId(1));
    let key = AttrSet::single(AttrId(0));
    let k = (n / 256).max(4);

    // Per-shard work measurement: route each churn delta by hand and time
    // every shard's apply slice individually.
    let mut records: Vec<Record> = Vec::new();
    let mut single_baseline = Duration::ZERO;
    for &shards in &[1usize, 2, 4, 8] {
        let mut sessions: Vec<StreamSession> = (0..shards)
            .map(|_| StreamSession::from_relation(fixture.filter_rows(|_| false)))
            .collect();
        let mut router =
            DeltaRouter::new(key.clone(), fixture.arity(), shards).expect("valid router");
        for s in &mut sessions {
            s.subscribe(fd.clone()).expect("2-attr fixture");
        }
        // Seed the shards with the fixture rows (routed, untimed).
        let seed = afd_stream::RowDelta::insert_only((0..fixture.n_rows()).map(|r| fixture.row(r)));
        for (s, local) in sessions
            .iter_mut()
            .zip(router.route(&seed).expect("seed routes"))
        {
            s.apply(&local).expect("seed applies");
        }
        let mut planner = ChurnPlanner::new(&fixture);
        let mut means = Vec::with_capacity(samples);
        let mut maxes = Vec::with_capacity(samples);
        for _ in 0..samples {
            let delta = planner.next_delta(k);
            let locals = router.route(&delta).expect("planned deltas route");
            let mut per_shard = Vec::with_capacity(shards);
            for (s, local) in sessions.iter_mut().zip(&locals) {
                let start = Instant::now();
                black_box(s.apply(local).expect("valid routed slice"));
                per_shard.push(start.elapsed());
            }
            means.push(per_shard.iter().sum::<Duration>() / shards as u32);
            maxes.push(per_shard.iter().max().copied().unwrap_or_default());
        }
        let mean_shard = median(means);
        if shards == 1 {
            single_baseline = mean_shard;
        }
        records.push(Record {
            shards,
            delta_rows: k,
            mean_shard,
            max_shard: median(maxes),
            single: single_baseline,
        });
    }

    // Correctness gate: a ShardedSession over the same churn reads
    // bit-identically to an unsharded session, and per-shard compaction
    // verification passes.
    {
        let mut single = StreamSession::from_relation(fixture.clone());
        let c1 = single.subscribe(fd.clone()).expect("2-attr fixture");
        let mut sharded = ShardedSession::from_relation(fixture.clone(), key.clone(), 4)
            .expect("valid sharded session");
        let cs = sharded.subscribe(fd.clone()).expect("2-attr fixture");
        let mut planner = ChurnPlanner::new(&fixture);
        for _ in 0..samples.max(3) {
            let delta = planner.next_delta(k);
            single.apply(&delta).expect("valid planned delta");
            sharded.apply(&delta).expect("valid planned delta");
            assert!(
                sharded.scores(cs).bits_eq(&single.scores(c1)),
                "sharded scores diverged from single session"
            );
        }
        sharded
            .compact()
            .expect("per-shard compaction verification failed");
        single.compact().expect("single-session compaction failed");
        assert!(sharded.scores(cs).bits_eq(&single.scores(c1)));
    }

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"per_shard_apply_work\", \"rows\": {}, \"shards\": {}, \"delta_rows\": {}, \"mean_shard_ns\": {}, \"max_shard_ns\": {}, \"single_session_ns\": {}, \"work_ratio\": {:.3}}}{}",
            n,
            r.shards,
            r.delta_rows,
            r.mean_shard.as_nanos(),
            r.max_shard.as_nanos(),
            r.single.as_nanos(),
            r.work_ratio(),
            if i + 1 < records.len() { "," } else { "" }
        );
        println!(
            "shards {:>2}  mean/shard {:>12?}  max shard {:>12?}  vs single {:>6.3}x",
            r.shards,
            r.mean_shard,
            r.max_shard,
            r.work_ratio()
        );
    }
    json.push_str("  ],\n");
    let _ = write!(
        json,
        "  \"smoke\": {smoke},\n  \"note\": \"median per-delta stats; rows hash-partitioned by the candidate LHS across N StreamSession shards; mean_shard = average per-shard apply time of one routed churn delta (the work one worker does — the host is single-core, so wall-clock parallel speedup is not measurable here), single_session = N=1 baseline; merged ShardedSession score reads verified bit-identical to the unsharded session and per-shard compaction verification passed\"\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write JSON");
    println!("wrote {out_path}");

    // Acceptance bar (full fixture only): with 4 shards the mean work per
    // shard must drop below 60% of the single-session apply cost.
    if !smoke {
        for r in &records {
            if r.shards == 4 && r.work_ratio() > 0.6 {
                eprintln!(
                    "FAIL: 4-shard mean work/shard is {:.3}x of a single session (bar: <= 0.6x)",
                    r.work_ratio()
                );
                std::process::exit(1);
            }
        }
    }
}
