//! Records stripped-vs-full-codes lattice discovery into
//! `BENCH_lattice.json`.
//!
//! ```text
//! cargo run --release -p afd-bench --example record_lattice [--smoke] [out.json]
//! ```
//!
//! Workload: a 65 536-row, 8-attribute relation mixing low-cardinality
//! attributes (whose lattice nodes keep large clusters) with
//! hash-scattered high-cardinality ones (whose pair/triple partitions
//! are near-unique — the TANE case where stripping pays), plus a planted
//! noisy `(A, B) -> C`. `discover_all` runs end-to-end at `max_lhs = 3`
//! on both the stripped/fused lattice (`afd_discovery::lattice`, one
//! lattice shared by every RHS) and the retained full-codes reference
//! (`afd_discovery::naive_lattice`, one search per RHS), after asserting
//! their outputs are bit-identical. The measure is g3′, whose formula
//! reads only table aggregates, so the stripped side scores every
//! candidate from a tally that counts all the RHS of an LHS set in one
//! pass over its clusters (`afd_relation::YMatrix::tally_with`) and
//! builds no contingency table; the reference builds one full-codes
//! table per candidate. The memory block also records the bytes of the
//! row-major RHS code matrix that tally reads, which a discover call
//! holds beside its attribute bases.
//!
//! Acceptance bars (both sides run at `threads = 1`, so both wins come
//! from work/allocation reduction, not parallelism):
//!
//! * end-to-end `discover_all` ≥ 2× vs the reference;
//! * peak lattice node bytes ≥ 4× below the reference: on the stripped
//!   side the shared lattice's peak (one level's parents plus its open
//!   children, for every RHS at once), on the reference side the worst
//!   single RHS search's (its `O(rows)` parents plus generated
//!   children).
//!
//! Also records the shared-encoding delta (`m` attribute encodings per
//! run vs the reference's `m` per RHS = `O(m²)`).
//!
//! `--smoke` shrinks the fixture to 4 096 rows and one sample so CI can
//! exercise the full path quickly.

use afd_bench::{median, Host};
use afd_core::G3Prime;
use afd_discovery::{naive_lattice, try_discover_all_stats, LatticeConfig};
use afd_relation::{AttrSet, Relation, Schema, Value, YMatrix, YSide};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median wall time of `f` over `samples` runs.
fn time(samples: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    median(
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .collect(),
    )
}

/// Hash scatter (splitmix64 finalizer): high-cardinality pseudo-random
/// values, independent across salts, with enough collisions that
/// nothing becomes an exact key.
fn scatter(i: usize, salt: u64, dom: u64) -> i64 {
    let mut x = (i as u64) ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % dom) as i64
}

/// The lattice bench fixture: A/B moderate-cardinality (the planted
/// determinant), C a noisy function of (A, B), and D–H hash-scattered
/// near-key attributes (domains n … n/4) whose multi-attribute
/// partitions are dominated by singletons — the TANE regime where
/// stripped partitions pay off.
fn fixture(n: usize) -> Relation {
    Relation::from_rows(
        Schema::new(["A", "B", "C", "D", "E", "F", "G", "H"]).unwrap(),
        (0..n).map(|i| {
            let a = (i % 64) as i64;
            let b = ((i / 64) % 96) as i64;
            let c = if i % 97 == 13 {
                (i % 1000) as i64 + 100
            } else {
                (a * 3 + b * 7) % 17
            };
            let d = scatter(i, 1, (n as u64).max(64));
            let e = scatter(i, 2, (n as u64 / 2).max(48));
            let f = scatter(i, 3, (n as u64 / 2).max(44));
            let g = scatter(i, 4, (n as u64 / 3).max(40));
            let h = scatter(i, 5, (n as u64 / 4).max(36));
            [a, b, c, d, e, f, g, h]
                .into_iter()
                .map(Value::Int)
                .collect::<Vec<_>>()
        }),
    )
    .unwrap()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| *a != "--smoke")
        .cloned()
        .unwrap_or_else(|| "BENCH_lattice.json".to_string());
    let (n, samples) = if smoke { (4096, 1) } else { (65_536, 5) };
    let cfg = LatticeConfig {
        max_lhs: 3,
        epsilon: 0.9,
    };
    let rel = fixture(n);
    let measure = G3Prime;

    // Correctness gate: the stripped lattice must be bit-identical to
    // the full-codes reference before anything is timed.
    let (stripped, stripped_stats) = try_discover_all_stats(&rel, &measure, cfg, 1).unwrap();
    let (reference, naive_stats) = naive_lattice::discover_all_stats(&rel, &measure, cfg, 1);
    assert_eq!(
        stripped.len(),
        reference.len(),
        "stripped and reference lattices disagree"
    );
    for (a, b) in stripped.iter().zip(&reference) {
        assert_eq!(a.fd, b.fd, "FD order diverged");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "score bits diverged for {:?}",
            a.fd
        );
    }
    println!(
        "verified: {} AFDs bit-identical across both lattices",
        stripped.len()
    );

    // End-to-end discover_all, single thread (the acceptance bar).
    let t_stripped = time(samples, || {
        black_box(try_discover_all_stats(&rel, &measure, cfg, 1).unwrap());
    });
    let t_naive = time(samples, || {
        black_box(naive_lattice::discover_all_threaded(&rel, &measure, cfg, 1));
    });
    let speedup = t_naive.as_secs_f64() / t_stripped.as_secs_f64().max(1e-12);

    // Shared-encoding delta: one set of per-attribute encodings per run
    // vs the reference's per-RHS re-encoding (m encodes × m RHSs).
    let attrs: Vec<AttrSet> = rel.schema().attrs().map(AttrSet::single).collect();
    let t_shared = time(samples, || {
        for a in &attrs {
            black_box(rel.group_encode(a));
        }
    });
    let t_per_rhs = time(samples, || {
        for _rhs in 0..attrs.len() {
            for a in &attrs {
                black_box(rel.group_encode(a));
            }
        }
    });
    let encode_speedup = t_per_rhs.as_secs_f64() / t_shared.as_secs_f64().max(1e-12);

    // The row-major RHS matrix a g3' discover call builds beside its
    // bases: every attribute is an RHS of `discover_all`.
    let encs: Vec<_> = attrs.iter().map(|a| rel.group_encode(a)).collect();
    let matrix_bytes = YMatrix::new(
        encs.iter()
            .map(|e| YSide::new(&e.codes, e.n_groups))
            .collect(),
    )
    .bytes();

    let naive_peak = naive_stats.peak_node_bytes;
    let stripped_peak = stripped_stats.peak_node_bytes;
    let byte_ratio = naive_peak as f64 / stripped_peak.max(1) as f64;

    println!(
        "discover_all           n={n:<7} stripped {t_stripped:>12?} full-codes {t_naive:>12?} speedup {speedup:>6.2}x"
    );
    println!(
        "encode_shared_vs_per_rhs n={n:<7} shared {t_shared:>12?} per-rhs {t_per_rhs:>12?} speedup {encode_speedup:>6.2}x"
    );
    println!(
        "peak lattice bytes     stripped {stripped_peak:>12} full-codes {naive_peak:>12} ratio {byte_ratio:>6.2}x"
    );
    for lvl in &stripped_stats.levels {
        println!(
            "  level {}: candidates {:>5} pruned {:>5} emitted {:>3} exact {:>4} open {:>5} node_bytes {:>10} stored_rows {:>9}",
            lvl.level, lvl.candidates, lvl.pruned, lvl.emitted, lvl.exact, lvl.open,
            lvl.node_bytes, lvl.stored_rows
        );
    }
    println!(
        "  base_bytes {} matrix_bytes {matrix_bytes}",
        stripped_stats.base_bytes
    );

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    let _ = writeln!(
        json,
        "    {{\"kernel\": \"discover_all_stripped_vs_full\", \"rows\": {n}, \"optimized_ns\": {}, \"baseline_ns\": {}, \"speedup\": {speedup:.2}}},",
        t_stripped.as_nanos(),
        t_naive.as_nanos(),
    );
    let _ = writeln!(
        json,
        "    {{\"kernel\": \"encode_shared_vs_per_rhs\", \"rows\": {n}, \"optimized_ns\": {}, \"baseline_ns\": {}, \"speedup\": {encode_speedup:.2}}}",
        t_shared.as_nanos(),
        t_per_rhs.as_nanos(),
    );
    json.push_str("  ],\n  \"memory\": {\n");
    let _ = writeln!(
        json,
        "    \"full_codes_peak_node_bytes\": {naive_peak},\n    \"stripped_peak_node_bytes\": {stripped_peak},\n    \"reduction\": {byte_ratio:.2},\n    \"stripped_base_bytes\": {},\n    \"stripped_matrix_bytes\": {matrix_bytes}",
        stripped_stats.base_bytes,
    );
    json.push_str("  },\n  \"levels\": [\n");
    for (i, lvl) in stripped_stats.levels.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"level\": {}, \"candidates\": {}, \"pruned\": {}, \"emitted\": {}, \"exact\": {}, \"open\": {}, \"node_bytes\": {}, \"stored_rows\": {}}}{}",
            lvl.level,
            lvl.candidates,
            lvl.pruned,
            lvl.emitted,
            lvl.exact,
            lvl.open,
            lvl.node_bytes,
            lvl.stored_rows,
            if i + 1 < stripped_stats.levels.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    json.push_str(&Host::detect().json_fields());
    let _ = write!(
        json,
        "  \"max_lhs\": {},\n  \"epsilon\": {},\n  \"samples\": {samples},\n  \"smoke\": {smoke},\n  \"note\": \"discover_all end-to-end at threads=1 (all gains are work/allocation reduction); baseline = retained full-codes lattice (afd_discovery::naive_lattice); the stripped side scores every g3' candidate from one tally pass per LHS set over all its RHS (no contingency table); outputs asserted bit-identical before timing; peak bytes = most node partition storage alive at once - stripped: the whole shared lattice over every RHS (a level's parents plus its open children); reference: its worst single RHS search (a level's parents plus its generated children); stripped_base_bytes = the shared attribute bases; stripped_matrix_bytes = the row-major RHS code matrix the call builds beside them for a measure with a summary formula (g3' here), alive for the whole call and counted in neither; bars: >= 2x end-to-end, >= 4x lower peak bytes\"\n}}\n",
        cfg.max_lhs, cfg.epsilon
    );
    std::fs::write(&out_path, json).expect("write JSON");
    println!("wrote {out_path}");

    if !smoke {
        if speedup < 2.0 {
            eprintln!("WARNING: discover_all speedup {speedup:.2}x below the 2x acceptance bar");
        }
        if byte_ratio < 4.0 {
            eprintln!("WARNING: peak byte reduction {byte_ratio:.2}x below the 4x acceptance bar");
        }
    }
}
