//! Records the serving layer's scaling behaviour into `BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p afd-bench --example record_serve [--smoke] [out.json]
//! ```
//!
//! Three workloads against one `AfdServe`:
//!
//! 1. **Registry scaling** — registers a six-figure session count (120 000
//!    full, 4 096 smoke) from one template snapshot via the cheap
//!    `register_snapshot` path, sampling RSS along the way. The point the
//!    curve makes: registered sessions cost a spill file and a slab slot,
//!    not an engine — RSS tracks the **resident cap**, not the registry.
//! 2. **Serving latency** — a scripted enqueue+tick workload (75% hot
//!    set inside the resident cap, 25% cold sweep across the registry)
//!    timing each single-delta apply end to end. p99 >> p50 is the
//!    restore tail: a cold apply pays the snapshot read + engine rebuild.
//!    One audited session's deltas are mirrored into a never-evicted
//!    control engine and the scores asserted bit-identical at the end.
//! 3. **Spill round-trip** — explicit evict (save + write + engine
//!    teardown) and first-touch restore (read + rebuild + spill delete)
//!    timed separately, with the framed snapshot size they move.
//!
//! Hard assertions throughout: residency never exceeds the cap, every
//! spot-checked session stays addressable after mass registration, and
//! backpressure at the configured caps surfaces as the typed
//! `ServeError::Backpressure`.

use afd_bench::{fixture_relation, median};
use afd_engine::{AfdEngine, DeltaRequest, SnapshotRequest, SubscribeRequest};
use afd_relation::{AttrId, Fd, Value};
use afd_serve::{AfdServe, ServeConfig, ServeError};
use afd_stream::RowDelta;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Resident-set size of this process, from `/proc` (Linux only; `None`
/// elsewhere — the JSON records 0 and says so in the note).
#[cfg(target_os = "linux")]
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: u64 = line
        .trim_start_matches("VmRSS:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

#[cfg(not(target_os = "linux"))]
fn rss_bytes() -> Option<u64> {
    None
}

fn percentile(sorted: &[Duration], p: usize) -> u128 {
    let idx = (sorted.len() * p / 100).min(sorted.len() - 1);
    sorted[idx].as_nanos()
}

/// A single-insert delta, deterministic in `i`, inside the fixture's
/// domains.
fn scripted_delta(i: usize, rows: usize) -> RowDelta {
    let x = ((i * 31) % (rows / 8).max(4)) as i64;
    RowDelta {
        inserts: vec![vec![Value::Int(x), Value::Int(x * 2)]],
        deletes: vec![],
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    // Smoke scales the registry down but keeps sessions >> resident cap,
    // so CI still churns through evict/restore.
    let (sessions, resident_cap, rows, apply_samples) = if smoke {
        (4_096usize, 256usize, 64usize, 512usize)
    } else {
        (120_000, 1_024, 128, 4_096)
    };
    let spill_dir = std::env::temp_dir().join(format!("afd-serve-bench-{}", std::process::id()));

    let mut cfg = ServeConfig::new(&spill_dir);
    cfg.resident_cap = resident_cap;
    cfg.max_sessions = sessions;
    cfg.session_queue_cap = 4;
    let mut serve = AfdServe::new(cfg).expect("valid serve config");

    // One template session, snapshotted once; every registration shares
    // the bytes.
    let mut template = AfdEngine::from_relation(fixture_relation(rows, 7));
    template
        .subscribe(&SubscribeRequest::new(Fd::linear(AttrId(0), AttrId(1))))
        .expect("2-attr fixture");
    let snapshot_bytes = template
        .save(&SnapshotRequest::default())
        .expect("template snapshot")
        .bytes;

    // ------------------------------------------- 1. registry scaling
    let rss_at_start = rss_bytes().unwrap_or(0);
    let checkpoint_every = (sessions / 8).max(1);
    let mut rss_curve = Vec::new();
    let started = Instant::now();
    let mut handles = Vec::with_capacity(sessions);
    for i in 0..sessions {
        handles.push(
            serve
                .register_snapshot(&snapshot_bytes)
                .expect("registration under max_sessions"),
        );
        if (i + 1) % checkpoint_every == 0 {
            let stats = serve.stats();
            assert!(stats.resident <= resident_cap, "residency above cap");
            rss_curve.push((i + 1, stats.resident, rss_bytes().unwrap_or(0)));
        }
    }
    let register_elapsed = started.elapsed();
    // The registry cap is enforced as a typed error at the boundary.
    assert!(matches!(
        serve.register_snapshot(&snapshot_bytes),
        Err(ServeError::AtCapacity { .. })
    ));
    // All sessions stay addressable: spot-check a deterministic sweep
    // (each check restores the session, so it also exercises the cold
    // path at registry scale).
    let stride = (sessions / 64).max(1);
    for s in (0..sessions).step_by(stride) {
        serve
            .scores(handles[s], 0)
            .expect("registered session is addressable");
        assert!(serve.stats().resident <= resident_cap);
    }
    assert_eq!(serve.stats().sessions, sessions);

    // ------------------------------------------- 2. serving latency
    // The audited session's deltas are mirrored into a control engine
    // built from the same snapshot (insert-only continuation, so restore
    // renumbering cannot desynchronise ids).
    let audit = handles[0];
    let mut control = AfdEngine::restore(&afd_engine::RestoreRequest::new(snapshot_bytes.clone()))
        .expect("template snapshot restores");
    let mut latencies = Vec::with_capacity(apply_samples);
    let hot = resident_cap / 2;
    for i in 0..apply_samples {
        // 3 of 4 applies hit the hot set (resident); the 4th walks the
        // whole registry (almost always cold → restore in the timing).
        let s = if i % 4 == 3 {
            (i * 97) % sessions
        } else {
            i % hot
        };
        let delta = scripted_delta(i, rows);
        if handles[s] == audit {
            control
                .delta(&DeltaRequest::new(delta.clone()))
                .expect("scripted delta is valid");
        }
        let start = Instant::now();
        serve
            .enqueue(handles[s], delta)
            .expect("queue cap 4, one in flight");
        let report = serve.tick().expect("tick serves");
        latencies.push(start.elapsed());
        assert_eq!(report.remaining, 0, "single-delta tick drains fully");
    }
    assert!(
        serve
            .scores(audit, 0)
            .expect("audited session addressable")
            .bits_eq(&control.scores(0).expect("control candidate")),
        "served session diverged from never-evicted control"
    );
    let stats_after_apply = serve.stats();
    let rss_serving = rss_bytes().unwrap_or(0);
    latencies.sort_unstable();
    let (p50, p99, worst) = (
        percentile(&latencies, 50),
        percentile(&latencies, 99),
        percentile(&latencies, 100),
    );

    // Backpressure is a typed rejection at the serve boundary.
    for i in 0..4 {
        serve
            .enqueue(handles[1], scripted_delta(i, rows))
            .expect("under cap");
    }
    assert!(matches!(
        serve.enqueue(handles[1], scripted_delta(9, rows)),
        Err(ServeError::Backpressure { .. })
    ));
    serve.tick().expect("drain the backpressure probe");

    // ------------------------------------------- 3. spill round-trip
    let mut evict_times = Vec::new();
    let mut restore_times = Vec::new();
    for s in 0..16 {
        let h = handles[s * stride % sessions];
        serve.scores(h, 0).expect("warm it up");
        let start = Instant::now();
        serve.evict(h).expect("explicit evict");
        evict_times.push(start.elapsed());
        let start = Instant::now();
        serve.scores(h, 0).expect("first touch restores");
        restore_times.push(start.elapsed());
    }
    let evict_ns = median(evict_times).as_nanos();
    let restore_ns = median(restore_times).as_nanos();

    // ------------------------------------------------------- report
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    let _ = writeln!(
        json,
        "    {{\"workload\": \"serve_registry\", \"sessions\": {sessions}, \"resident_cap\": \
         {resident_cap}, \"template_rows\": {rows}, \"snapshot_bytes\": {}, \
         \"register_ns_per_session\": {}, \"rss_start_bytes\": {rss_at_start}, \"rss_curve\": [",
        snapshot_bytes.len(),
        register_elapsed.as_nanos() / sessions as u128,
    );
    for (i, (registered, resident, rss)) in rss_curve.iter().enumerate() {
        let comma = if i + 1 < rss_curve.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"registered\": {registered}, \"resident\": {resident}, \"rss_bytes\": \
             {rss}}}{comma}"
        );
    }
    json.push_str("    ]},\n");
    let _ = writeln!(
        json,
        "    {{\"workload\": \"serve_apply\", \"samples\": {apply_samples}, \"hot_sessions\": \
         {hot}, \"p50_ns\": {p50}, \"p99_ns\": {p99}, \"max_ns\": {worst}, \"restores\": {}, \
         \"evictions\": {}, \"resident\": {}, \"rss_serving_bytes\": {rss_serving}}},",
        stats_after_apply.restores, stats_after_apply.evictions, stats_after_apply.resident,
    );
    let _ = writeln!(
        json,
        "    {{\"workload\": \"serve_spill_roundtrip\", \"evict_ns\": {evict_ns}, \"restore_ns\": \
         {restore_ns}, \"spill_bytes_total\": {}}}",
        serve.stats().spill_bytes,
    );
    json.push_str("  ],\n");
    let _ = write!(
        json,
        "  \"smoke\": {smoke},\n  \"note\": \"one AfdServe; serve_registry = register sessions \
         from one template snapshot (no engines built) sampling VmRSS (0 off-Linux); serve_apply \
         = single-delta enqueue+tick latency, 75% hot set / 25% registry-wide cold sweep, so p99 \
         carries the restore tail; audited session asserted bit-identical to a never-evicted \
         control; serve_spill_roundtrip = median explicit evict (save+write+teardown) and \
         first-touch restore (read+rebuild); residency asserted <= resident_cap throughout\"\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write JSON");

    let final_stats = serve.stats();
    println!(
        "registered {sessions} sessions ({} bytes each) in {:.1} ms ({} ns/session)",
        snapshot_bytes.len(),
        register_elapsed.as_secs_f64() * 1e3,
        register_elapsed.as_nanos() / sessions as u128,
    );
    println!(
        "apply p50 {p50} ns  p99 {p99} ns  max {worst} ns  ({} restores, {} evictions, resident \
         {}/{resident_cap})",
        final_stats.restores, final_stats.evictions, final_stats.resident,
    );
    println!("spill round-trip: evict {evict_ns} ns, restore {restore_ns} ns");
    println!(
        "rss: start {} KiB, serving {} KiB ({} sessions registered, {} resident)",
        rss_at_start / 1024,
        rss_serving / 1024,
        sessions,
        final_stats.resident,
    );
    drop(serve);
    let _ = std::fs::remove_dir_all(&spill_dir);
    println!("wrote {out_path}");
}
