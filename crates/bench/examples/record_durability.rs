//! Records the serving layer's durability costs into
//! `BENCH_durability.json`.
//!
//! ```text
//! cargo run --release -p afd-bench --example record_durability [--smoke] [out.json]
//! ```
//!
//! Three measurements against durable (journaled) `AfdServe` instances:
//!
//! 1. **Cold-start recovery** — registers a growing session count from
//!    one template snapshot (journal on), tears the server down, and
//!    times `AfdServe::recover` rebuilding the registry from the journal
//!    plus a full validation scan of every spill file. Asserts every
//!    session recovers: zero lost, zero quarantined.
//! 2. **Journal overhead on eviction** — the same evict/restore cycle
//!    run ephemeral (no journal) and durable (`fsync_every = 64`), with
//!    the assertion that the journal's append adds **≤ 10%** to the
//!    median evict. The spill write itself (tmp → write → fsync →
//!    rename) is identical in both modes; the journal's marginal cost is
//!    one ~25-byte buffered append. Both servers run side by side and
//!    their cycles alternate, so a change in the host's speed during the
//!    run moves both medians instead of the ratio.
//! 3. **Fsync cadence sweep** — median evict latency at `fsync_every`
//!    ∈ {1, 8, 64}: what a caller buys by widening the window of
//!    re-loseable (but never corrupting) registry transitions.

use afd_bench::{fixture_relation, median, Host};
use afd_engine::{AfdEngine, SnapshotRequest, SubscribeRequest};
use afd_relation::{AttrId, Fd};
use afd_serve::{AfdServe, DurabilityConfig, ServeConfig, SessionHandle};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afd-durab-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn template_snapshot(rows: usize) -> Vec<u8> {
    let mut template = AfdEngine::from_relation(fixture_relation(rows, 7));
    template
        .subscribe(&SubscribeRequest::new(Fd::linear(AttrId(0), AttrId(1))))
        .expect("2-attr fixture");
    template
        .save(&SnapshotRequest::default())
        .expect("template snapshot")
        .bytes
}

/// One server holding one session, timing explicit evicts and
/// first-touch restores.
struct EvictRig {
    dir: PathBuf,
    serve: AfdServe,
    h: SessionHandle,
    evicts: Vec<Duration>,
    restores: Vec<Duration>,
}

impl EvictRig {
    fn new(tag: &str, durability: DurabilityConfig, snapshot: &[u8]) -> Self {
        let dir = scratch_dir(tag);
        let mut cfg = ServeConfig::new(&dir);
        cfg.durability = durability;
        let mut serve = AfdServe::new(cfg).expect("valid durability config");
        let h = serve.register_snapshot(snapshot).expect("one session");
        EvictRig {
            dir,
            serve,
            h,
            evicts: Vec::new(),
            restores: Vec::new(),
        }
    }

    fn cycle(&mut self) {
        self.serve.scores(self.h, 0).expect("warm");
        let start = Instant::now();
        self.serve.evict(self.h).expect("explicit evict");
        self.evicts.push(start.elapsed());
        let start = Instant::now();
        self.serve.scores(self.h, 0).expect("first touch restores");
        self.restores.push(start.elapsed());
    }

    /// Median evict and restore latency; tears the server down.
    fn medians(self) -> (u128, u128) {
        drop(self.serve);
        let _ = std::fs::remove_dir_all(&self.dir);
        (
            median(self.evicts).as_nanos(),
            median(self.restores).as_nanos(),
        )
    }
}

/// Median explicit-evict and first-touch-restore latency for one
/// session under each durability mode. Every mode's server is built up
/// front and their cycles alternate, with the first mode switching each
/// cycle, so drift in the host's speed lands on every mode alike
/// instead of on whichever ran later.
fn evict_restore_medians(
    modes: &[(&str, DurabilityConfig)],
    cycles: usize,
    rows: usize,
) -> Vec<(u128, u128)> {
    let snapshot = template_snapshot(rows);
    let mut rigs: Vec<EvictRig> = modes
        .iter()
        .map(|&(tag, durability)| EvictRig::new(tag, durability, &snapshot))
        .collect();
    for c in 0..cycles {
        for k in 0..rigs.len() {
            let i = if c % 2 == 0 { k } else { rigs.len() - 1 - k };
            rigs[i].cycle();
        }
    }
    rigs.into_iter().map(EvictRig::medians).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_durability.json".to_string());
    let (registry_sizes, rows, cycles): (&[usize], usize, usize) = if smoke {
        (&[256, 1_024, 4_096], 64, 96)
    } else {
        (&[1_000, 16_000, 120_000], 64, 256)
    };

    // ------------------------------------------- 1. cold-start recovery
    let mut recovery_rows = Vec::new();
    for &sessions in registry_sizes {
        let dir = scratch_dir(&format!("recover-{sessions}"));
        let mut cfg = ServeConfig::new(&dir);
        cfg.max_sessions = sessions;
        // Registration is setup, not the measurement: a relaxed fsync
        // cadence keeps the large registries cheap to build while every
        // spill file itself is still fully synced.
        cfg.durability.fsync_every = 64;
        let mut serve = AfdServe::new(cfg).expect("valid serve config");
        let snapshot = template_snapshot(rows);
        let started = Instant::now();
        for _ in 0..sessions {
            serve
                .register_snapshot(&snapshot)
                .expect("registration under max_sessions");
        }
        let register_elapsed = started.elapsed();
        let handles = serve.sessions();
        assert_eq!(handles.len(), sessions);
        serve.checkpoint().expect("clean shutdown checkpoint");
        drop(serve);
        let journal_bytes = std::fs::metadata(dir.join("registry.afdj"))
            .map(|m| m.len())
            .unwrap_or(0);

        let mut cfg = ServeConfig::new(&dir);
        cfg.max_sessions = sessions;
        let started = Instant::now();
        let (mut recovered, report) = AfdServe::recover(cfg).expect("recover rebuilt registry");
        let recover_elapsed = started.elapsed();
        assert_eq!(
            report.sessions_recovered, sessions,
            "every session recovers"
        );
        assert_eq!(report.sessions_lost, 0);
        assert!(report.quarantined.is_empty());
        // Recovered sessions are cold but addressable: first touch
        // restores from the (validated) spill file.
        recovered
            .scores(handles[sessions / 2], 0)
            .expect("recovered session serves");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);

        println!(
            "recover {sessions:>7} sessions: {:.1} ms ({} ns/session, journal {} KiB, \
             register {:.1} ms)",
            recover_elapsed.as_secs_f64() * 1e3,
            recover_elapsed.as_nanos() / sessions as u128,
            journal_bytes / 1024,
            register_elapsed.as_secs_f64() * 1e3,
        );
        recovery_rows.push((
            sessions,
            recover_elapsed.as_nanos(),
            journal_bytes,
            report.spill_bytes,
            register_elapsed.as_nanos(),
        ));
    }

    // ------------------------------------- 2. journal overhead on evict
    let relaxed = DurabilityConfig {
        fsync_every: 64,
        ..DurabilityConfig::default()
    };
    let medians = evict_restore_medians(
        &[("eph", DurabilityConfig::ephemeral()), ("dur64", relaxed)],
        cycles,
        rows,
    );
    let [(ephemeral_evict, ephemeral_restore), (durable_evict, durable_restore)] = medians[..]
    else {
        unreachable!("one median pair per mode");
    };
    let overhead_pct = if ephemeral_evict > 0 {
        (durable_evict as f64 / ephemeral_evict as f64 - 1.0) * 100.0
    } else {
        0.0
    };
    println!(
        "evict: ephemeral {ephemeral_evict} ns, durable(fsync=64) {durable_evict} ns \
         ({overhead_pct:+.1}% journal overhead); restore: {ephemeral_restore} / \
         {durable_restore} ns"
    );
    assert!(
        durable_evict as f64 <= ephemeral_evict as f64 * 1.10,
        "journal overhead on evict above 10%: ephemeral {ephemeral_evict} ns vs durable \
         {durable_evict} ns"
    );

    // ------------------------------------------- 3. fsync cadence sweep
    let mut sweep_rows = Vec::new();
    for fsync_every in [1u64, 8, 64] {
        let durability = DurabilityConfig {
            fsync_every,
            ..DurabilityConfig::default()
        };
        let (evict_ns, restore_ns) =
            evict_restore_medians(&[(&format!("fs{fsync_every}"), durability)], cycles, rows)[0];
        println!("fsync_every {fsync_every:>2}: evict {evict_ns} ns, restore {restore_ns} ns");
        sweep_rows.push((fsync_every, evict_ns, restore_ns));
    }

    // ------------------------------------------------------- report
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    let _ = writeln!(
        json,
        "    {{\"workload\": \"recover_cold_start\", \"template_rows\": {rows}, \"curve\": ["
    );
    for (i, (sessions, recover_ns, journal_bytes, spill_bytes, register_ns)) in
        recovery_rows.iter().enumerate()
    {
        let comma = if i + 1 < recovery_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"sessions\": {sessions}, \"recover_ns\": {recover_ns}, \
             \"recover_ns_per_session\": {}, \"journal_bytes\": {journal_bytes}, \
             \"spill_bytes\": {spill_bytes}, \"register_ns\": {register_ns}, \"samples\": 1}}{comma}",
            recover_ns / *sessions as u128,
        );
    }
    json.push_str("    ]},\n");
    let _ = writeln!(
        json,
        "    {{\"workload\": \"evict_journal_overhead\", \"samples\": {cycles}, \
         \"ephemeral_evict_ns\": {ephemeral_evict}, \"durable_evict_ns\": {durable_evict}, \
         \"overhead_pct\": {overhead_pct:.2}, \"ephemeral_restore_ns\": {ephemeral_restore}, \
         \"durable_restore_ns\": {durable_restore}}},"
    );
    let _ = writeln!(
        json,
        "    {{\"workload\": \"fsync_cadence_sweep\", \"samples\": {cycles}, \"sweep\": ["
    );
    for (i, (fsync_every, evict_ns, restore_ns)) in sweep_rows.iter().enumerate() {
        let comma = if i + 1 < sweep_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"fsync_every\": {fsync_every}, \"evict_ns\": {evict_ns}, \
             \"restore_ns\": {restore_ns}}}{comma}"
        );
    }
    json.push_str("    ]}\n  ],\n");
    json.push_str(&Host::detect().json_fields());
    let _ = write!(
        json,
        "  \"smoke\": {smoke},\n  \"note\": \"samples = timed runs behind each figure; \
         recover_cold_start = register N sessions from one snapshot with the registry journal \
         on, drop, then time AfdServe::recover once (journal replay + validation scan of every \
         spill file; asserts zero lost / zero quarantined); evict_journal_overhead = median over \
         samples evict/restore cycles of explicit evict with and without the journal at \
         fsync_every=64, the two servers' cycles alternating, asserted <= 10% apart (the spill \
         write itself is synced identically in both modes); fsync_cadence_sweep = median evict at fsync_every 1/8/64 — the cost of \
         making every registry transition durable the moment it returns\"\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write JSON");
    println!("wrote {out_path}");
}
