//! Records wire-codec throughput and process-backend apply overhead
//! into `BENCH_wire.json`.
//!
//! ```text
//! cargo run --release -p afd-bench --example record_wire [--smoke] [out.json]
//! ```
//!
//! Two workloads on the standard 65 536-row bench fixture:
//!
//! * **Codec throughput** — encode the fixture relation into the
//!   columnar wire form and decode it back (median over samples),
//!   asserting the round-trip code-identical, and the same for the full
//!   framed `SessionSnapshot` (checksum verification included).
//! * **Process-backend apply overhead** — the same churn deltas applied
//!   to a 2-shard in-process `ShardedSession` and a 2-worker
//!   `ShardedSession<ProcessShard>` (spawning the workspace's own `afd`
//!   binary from `target/<profile>/`), merged score reads asserted
//!   bit-identical after every delta. The recorded ratio is the price of
//!   crash isolation: route + encode + pipe + worker apply + patch
//!   decode and write, versus an in-memory apply.
//!
//! `--smoke` shrinks the fixture to 4 096 rows and three samples per
//! workload so CI exercises the full path (worker processes included)
//! in well under a second.
//!
//! Requires `target/<profile>/afd` to exist (`cargo build --release`
//! first); the example exits with a clear error otherwise.

use afd_bench::{fixture_relation, median, Host};
use afd_relation::{AttrId, AttrSet, Fd, Relation};
use afd_stream::{
    ChurnPlanner, ProcessShard, RowDelta, SessionSnapshot, ShardedSession, WorkerCommand,
};
use afd_wire::{Decode, Encode};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn mib_per_s(bytes: usize, d: Duration) -> f64 {
    bytes as f64 / (1 << 20) as f64 / d.as_secs_f64().max(1e-12)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_wire.json".to_string());
    let (n, samples) = if smoke { (4096, 3) } else { (65_536, 9) };

    let fixture = fixture_relation(n, 7);
    let fd = Fd::linear(AttrId(0), AttrId(1));
    let key = AttrSet::single(AttrId(0));
    let k = (n / 256).max(4);

    // ---------------------------------------------- codec throughput
    let mut encode_times = Vec::with_capacity(samples);
    let mut decode_times = Vec::with_capacity(samples);
    let mut frame_times = Vec::with_capacity(samples);
    let mut bytes_len = 0;
    let mut frame_len = 0;
    for _ in 0..samples {
        let start = Instant::now();
        let bytes = black_box(fixture.encode_to_vec());
        encode_times.push(start.elapsed());
        bytes_len = bytes.len();
        let start = Instant::now();
        let back = Relation::decode_exact(black_box(&bytes)).expect("fixture decodes");
        decode_times.push(start.elapsed());
        assert_eq!(back, fixture, "codec round-trip must be code-identical");
        // Full framed snapshot: encode + checksum + decode + verify.
        let snap = SessionSnapshot {
            rows: fixture.clone(),
            shard_key: key.clone(),
            n_shards: 2,
            subscriptions: vec![fd.clone()],
            compact_every: None,
        };
        let start = Instant::now();
        let framed = snap.to_bytes().expect("snapshot fits the frame cap");
        let back = SessionSnapshot::from_bytes(black_box(&framed)).expect("snapshot decodes");
        frame_times.push(start.elapsed());
        frame_len = framed.len();
        assert_eq!(back, snap, "framed round-trip must be exact");
    }
    let (enc, dec, frame) = (
        median(encode_times),
        median(decode_times),
        median(frame_times),
    );

    // ------------------------------- process vs in-process apply cost
    let worker = WorkerCommand::sibling_binary("afd").unwrap_or_else(|| {
        eprintln!(
            "FAIL: could not find the `afd` binary next to this example; \
             run `cargo build --release` (or --profile matching this run) first"
        );
        std::process::exit(1);
    });
    let mut inproc =
        ShardedSession::from_relation(fixture.clone(), key.clone(), 2).expect("in-process session");
    let ci = inproc.subscribe(fd.clone()).expect("2-attr fixture");
    let mut proc: ShardedSession<ProcessShard> =
        ShardedSession::spawn_from_relation(fixture.clone(), key.clone(), 2, &worker)
            .expect("worker processes spawn");
    let cp = proc.subscribe(fd.clone()).expect("2-attr fixture");
    let mut planner_a = ChurnPlanner::new(&fixture);
    let mut planner_b = ChurnPlanner::new(&fixture);
    let mut inproc_times = Vec::with_capacity(samples);
    let mut proc_times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let delta: RowDelta = planner_a.next_delta(k);
        let same = planner_b.next_delta(k);
        let start = Instant::now();
        black_box(inproc.apply(&delta).expect("valid churn delta"));
        inproc_times.push(start.elapsed());
        let start = Instant::now();
        black_box(proc.apply(&same).expect("valid churn delta"));
        proc_times.push(start.elapsed());
        assert!(
            proc.scores(cp).bits_eq(&inproc.scores(ci)),
            "process-backed scores diverged from in-process"
        );
    }
    proc.compact().expect("worker-side compaction verifies");
    inproc.compact().expect("in-process compaction verifies");
    assert!(proc.scores(cp).bits_eq(&inproc.scores(ci)));
    let (t_in, t_proc) = (median(inproc_times), median(proc_times));
    let overhead = t_proc.as_secs_f64() / t_in.as_secs_f64().max(1e-12);

    // ------------------------------------------------------- report
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    let _ = writeln!(
        json,
        "    {{\"workload\": \"relation_codec\", \"rows\": {n}, \"bytes\": {bytes_len}, \
         \"samples\": {samples}, \"encode_ns\": {}, \"decode_ns\": {}, \"encode_mib_s\": {:.1}, \
         \"decode_mib_s\": {:.1}}},",
        enc.as_nanos(),
        dec.as_nanos(),
        mib_per_s(bytes_len, enc),
        mib_per_s(bytes_len, dec),
    );
    let _ = writeln!(
        json,
        "    {{\"workload\": \"framed_snapshot_roundtrip\", \"rows\": {n}, \"bytes\": {frame_len}, \
         \"samples\": {samples}, \"roundtrip_ns\": {}, \"roundtrip_mib_s\": {:.1}}},",
        frame.as_nanos(),
        mib_per_s(frame_len, frame),
    );
    let _ = writeln!(
        json,
        "    {{\"workload\": \"process_backend_apply\", \"rows\": {n}, \"shards\": 2, \
         \"delta_rows\": {k}, \"samples\": {samples}, \"in_process_ns\": {}, \"process_ns\": {}, \
         \"overhead\": {overhead:.2}}}",
        t_in.as_nanos(),
        t_proc.as_nanos(),
    );
    json.push_str("  ],\n");
    json.push_str(&Host::detect().json_fields());
    let _ = write!(
        json,
        "  \"smoke\": {smoke},\n  \"note\": \"median over samples; relation_codec = columnar \
         encode/decode of the fixture (round-trip asserted code-identical); \
         framed_snapshot_roundtrip = SessionSnapshot to_bytes + from_bytes including FNV \
         checksum verification; process_backend_apply = one churn delta through a 2-worker \
         ShardedSession<ProcessShard> (afd shard-worker children, stdin/stdout wire frames, \
         each apply answered with a patch of the touched IncTable groups, columns and histograms \
         that the coordinator writes into its copy of the shard state) vs a 2-shard in-process \
         session, \
         merged score reads asserted bit-identical after every delta and after worker-side \
         compaction\"\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write JSON");
    println!(
        "codec     encode {enc:>10?} ({:>7.1} MiB/s)  decode {dec:>10?} ({:>7.1} MiB/s)  {bytes_len} bytes",
        mib_per_s(bytes_len, enc),
        mib_per_s(bytes_len, dec),
    );
    println!(
        "snapshot  framed round-trip {frame:>10?} ({:>7.1} MiB/s)",
        mib_per_s(frame_len, frame),
    );
    println!(
        "apply     in-process {t_in:>10?}  process {t_proc:>10?}  overhead {overhead:.2}x (bit-identical reads)"
    );
    println!("wrote {out_path}");

    // Acceptance bar (full fixture only): the codec must not be the
    // bottleneck — at least 50 MiB/s each way on the 65 536-row fixture.
    if !smoke {
        for (what, rate) in [
            ("encode", mib_per_s(bytes_len, enc)),
            ("decode", mib_per_s(bytes_len, dec)),
        ] {
            if rate < 50.0 {
                eprintln!("FAIL: wire {what} throughput {rate:.1} MiB/s is below the 50 MiB/s bar");
                std::process::exit(1);
            }
        }
    }
}
