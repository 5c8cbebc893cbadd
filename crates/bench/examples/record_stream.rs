//! Records incremental delta-apply vs full batch recompute timings into
//! `BENCH_stream.json`.
//!
//! ```text
//! cargo run --release -p afd-bench --example record_stream [--smoke] [out.json]
//! ```
//!
//! Workload: the standard 65 536-row bench fixture (Table V shape) with a
//! tracked `X -> Y` candidate, churned by deltas of `rows / ratio` events
//! (half inserts, half deletes — live size stays constant) at ratios
//! 1/64, 1/256 and 1/1024. For each ratio the median wall time of
//! `StreamSession::apply` is compared against a full batch recompute of
//! the same candidate's scores (`Fd::contingency` + the eleven fast
//! measures) on an equally sized relation. The acceptance bar is a ≥ 5×
//! speedup at the 1/256 ratio.
//!
//! `--smoke` shrinks the fixture to 4 096 rows and one sample per ratio so
//! CI can exercise the full path in well under a second.

use afd_bench::{fixture_relation, median};
use afd_core::fast_measures;
use afd_relation::{AttrId, Fd};
use afd_stream::{ChurnPlanner, StreamScores, StreamSession};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Record {
    ratio: usize,
    delta_rows: usize,
    incremental: Duration,
    batch: Duration,
}

impl Record {
    fn speedup(&self) -> f64 {
        self.batch.as_secs_f64() / self.incremental.as_secs_f64().max(1e-12)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_stream.json".to_string());
    let (n, samples) = if smoke { (4096, 1) } else { (65_536, 9) };

    let fixture = fixture_relation(n, 7);
    let fd = Fd::linear(AttrId(0), AttrId(1));
    let measures = fast_measures();

    // Full batch recompute baseline: what a snapshot-oriented system pays
    // per refresh — re-encode both sides, build the table, score the fast
    // measure family. Timed on a materialised relation of the same size.
    let batch = median(
        (0..samples.max(3))
            .map(|_| {
                let start = Instant::now();
                let t = fd.contingency(&fixture);
                for m in &measures {
                    black_box(m.score_contingency(&t));
                }
                start.elapsed()
            })
            .collect(),
    );

    let mut session = StreamSession::from_relation(fixture.clone());
    let cid = session.subscribe(fd.clone()).expect("2-attr fixture");
    let mut planner = ChurnPlanner::new(&fixture);
    let mut records = Vec::new();
    for &ratio in &[64usize, 256, 1024] {
        let k = (n / ratio).max(2);
        let timings: Vec<Duration> = (0..samples)
            .map(|_| {
                let delta = planner.next_delta(k);
                let start = Instant::now();
                black_box(session.apply(&delta).expect("valid planned delta"));
                start.elapsed()
            })
            .collect();
        records.push(Record {
            ratio,
            delta_rows: k,
            incremental: median(timings),
            batch,
        });
    }

    // Correctness gate: after all that churn, compaction verifies the
    // incremental PLI and contingency table structurally and the scores
    // bit-exactly against a from-scratch rebuild via the batch kernels,
    // and every streamed score equals the afd-core measure bit for bit.
    session
        .compact()
        .expect("incremental state diverged from batch rebuild");
    let batch_ct = fd.contingency(&session.relation().snapshot());
    for name in StreamScores::NAMES {
        let want = afd_core::measure_by_name(name)
            .expect("known measure")
            .score_contingency(&batch_ct);
        let got = session.scores(cid).get(name).expect("known name");
        assert!(
            want.to_bits() == got.to_bits(),
            "{name}: stream {got} vs batch {want}"
        );
    }

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"delta_apply_vs_full_recompute\", \"rows\": {}, \"delta_ratio\": {}, \"delta_rows\": {}, \"incremental_ns\": {}, \"batch_recompute_ns\": {}, \"speedup\": {:.2}}}{}",
            n,
            r.ratio,
            r.delta_rows,
            r.incremental.as_nanos(),
            r.batch.as_nanos(),
            r.speedup(),
            if i + 1 < records.len() { "," } else { "" }
        );
        println!(
            "delta 1/{:<5} ({:>5} rows)  incremental {:>12?}  full recompute {:>12?}  speedup {:>8.2}x",
            r.ratio,
            r.delta_rows,
            r.incremental,
            r.batch,
            r.speedup()
        );
    }
    json.push_str("  ],\n");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = write!(
        json,
        "  \"cores\": {cores},\n  \"samples\": {samples},\n  \"smoke\": {smoke},\n  \"note\": \"median ns per refresh; incremental = StreamSession::apply of a half-insert/half-delete delta (live size constant), baseline = Fd::contingency + 11 fast measures on an equal-size relation; scores verified bit-identical to rebuild and to afd-core after churn\"\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write JSON");
    println!("wrote {out_path}");

    // Enforce the acceptance bar (full fixture only; the smoke fixture is
    // too small for stable ratios — smoke runs still exercise the whole
    // path and the bit-identical correctness gate above).
    if !smoke {
        for r in &records {
            if r.ratio == 256 && r.speedup() < 5.0 {
                eprintln!(
                    "FAIL: 1/256 delta speedup {:.2}x below the 5x acceptance bar",
                    r.speedup()
                );
                std::process::exit(1);
            }
        }
    }
}
