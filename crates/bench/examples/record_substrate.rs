//! Records optimized-vs-naive kernel timings into `BENCH_substrate.json`.
//!
//! ```text
//! cargo run --release -p afd-bench --example record_substrate [--smoke] [out.json]
//! ```
//!
//! Measures, on the standard bench fixtures (Table V workload shape),
//! the median wall time of each optimized kernel against its retained
//! naive reference (`afd_relation::naive`), plus end-to-end
//! `discover_all` sequential vs parallel. The acceptance bar for the
//! kernel substrate is a ≥ 3× speedup of `ContingencyTable::from_codes`
//! and `Pli::refine` on the 8 192-row fixture. Each row records its
//! sample count and iterations per sample; the file records the host.
//!
//! `--smoke` runs one 1 024-row fixture with one sample of one iteration
//! per side, so CI exercises every kernel in seconds; the bar, which is
//! set on the 8 192-row fixture, is not checked.

use afd_bench::{fixture_relation, median, Host};
use afd_core::G3Prime;
use afd_discovery::{discover_all_threaded, LatticeConfig};
use afd_relation::{
    naive, AttrId, AttrSet, ContingencyTable, NullSemantics, Pli, Relation, Schema, Value,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median wall time of `f` over `samples` runs of `iters` iterations.
fn time(samples: usize, iters: usize, mut f: impl FnMut()) -> Duration {
    // Warm-up.
    f();
    median(
        (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    f();
                }
                start.elapsed() / iters as u32
            })
            .collect(),
    )
}

struct Record {
    name: String,
    n: usize,
    optimized: Duration,
    naive: Duration,
    /// Samples per side and iterations per sample.
    samples: (usize, usize),
}

impl Record {
    fn speedup(&self) -> f64 {
        self.naive.as_secs_f64() / self.optimized.as_secs_f64().max(1e-12)
    }
}

fn wide_relation(n: usize) -> Relation {
    Relation::from_rows(
        Schema::new(["A", "B", "C", "D", "E", "F"]).unwrap(),
        (0..n).map(|i| {
            let a = i % 8;
            let b = (i / 8) % 9;
            let c = if i % 211 == 17 {
                999
            } else {
                (a * 3 + b * 5) % 13
            };
            let d = (i * 7) % 23;
            let e = (i * 13) % 5;
            let f = i % 31;
            [a, b, c, d, e, f]
                .into_iter()
                .map(|v| Value::Int(v as i64))
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
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_substrate.json".to_string());
    let mut records: Vec<Record> = Vec::new();
    let (sizes, (samples, iters), slow): (&[usize], _, _) = if smoke {
        (&[1024], (1, 1), (1, 1))
    } else {
        (&[8192, 65_536], (9, 20), (3, 3))
    };

    for &n in sizes {
        let rel = fixture_relation(n, 7);
        let x = AttrSet::single(AttrId(0));
        let y = AttrSet::single(AttrId(1));
        let gx = rel.group_encode(&x);
        let gy = rel.group_encode(&y);

        records.push(Record {
            name: "contingency_from_codes".into(),
            n,
            optimized: time(samples, iters, || {
                black_box(ContingencyTable::from_codes(&gx.codes, &gy.codes));
            }),
            samples: (samples, iters),
            naive: time(samples, iters, || {
                black_box(naive::contingency_from_codes(&gx.codes, &gy.codes));
            }),
        });

        let pli = Pli::from_relation(&rel, &x);
        records.push(Record {
            name: "pli_refine".into(),
            n,
            optimized: time(samples, iters, || {
                black_box(pli.refine(&gy.codes));
            }),
            samples: (samples, iters),
            naive: time(samples, iters, || {
                black_box(naive::pli_refine(&pli, &gy.codes));
            }),
        });

        let xy = AttrSet::new([AttrId(0), AttrId(1)]);
        records.push(Record {
            name: "group_encode_multi".into(),
            n,
            optimized: time(samples, iters, || {
                black_box(rel.group_encode(&xy));
            }),
            samples: (samples, iters),
            naive: time(samples, iters, || {
                black_box(naive::group_encode_multi(
                    &rel,
                    xy.ids(),
                    NullSemantics::DropTuples,
                ));
            }),
        });
    }

    // Encoding cache: the engine's matrix request shares one
    // group-encoding per distinct attribute set across candidates; the
    // baseline re-encodes both sides of every candidate (the pre-cache
    // `Fd::contingency` path). Single thread so only the amortisation is
    // measured, not the fan-out.
    for &n in sizes {
        let rel = wide_relation(n);
        let cands = afd_engine::linear_candidates(&rel);
        let measure_names: Vec<String> = afd_core::fast_measures()
            .iter()
            .map(|m| m.name().to_string())
            .collect();
        let measures = afd_core::fast_measures();
        let mut engine = afd_engine::AfdEngine::from_relation(rel.clone())
            .with_config(afd_engine::EngineConfig {
                threads: Some(1),
                ..afd_engine::EngineConfig::default()
            })
            .expect("valid config");
        let req = afd_engine::MatrixRequest {
            measures: measure_names,
            candidates: afd_engine::CandidateSet::Fds(cands.clone()),
        };
        records.push(Record {
            name: "score_matrix_encoding_cache".into(),
            n,
            optimized: time(slow.0, slow.1, || {
                black_box(engine.matrix(&req).expect("valid matrix request"));
            }),
            samples: slow,
            naive: time(slow.0, slow.1, || {
                let cols: Vec<Vec<f64>> = cands
                    .iter()
                    .map(|fd| {
                        let t = fd.contingency(&rel);
                        measures.iter().map(|m| m.score_contingency(&t)).collect()
                    })
                    .collect();
                black_box(cols);
            }),
        });
    }

    // End-to-end: parallel vs sequential lattice discovery (the "naive"
    // slot holds the sequential time; speedup = parallel scaling).
    for &n in sizes {
        let rel = wide_relation(n);
        let cfg = LatticeConfig {
            max_lhs: 2,
            epsilon: 0.85,
        };
        records.push(Record {
            name: "discover_all_par_vs_seq".into(),
            n,
            optimized: time(slow.0, slow.1, || {
                black_box(discover_all_threaded(
                    &rel,
                    &G3Prime,
                    cfg,
                    afd_parallel::max_threads(),
                ));
            }),
            samples: slow,
            naive: time(slow.0, slow.1, || {
                black_box(discover_all_threaded(&rel, &G3Prime, cfg, 1));
            }),
        });
    }

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"rows\": {}, \"optimized_ns\": {}, \"baseline_ns\": {}, \"speedup\": {:.2}, \"samples\": {}, \"iters\": {}}}{}",
            r.name,
            r.n,
            r.optimized.as_nanos(),
            r.naive.as_nanos(),
            r.speedup(),
            r.samples.0,
            r.samples.1,
            if i + 1 < records.len() { "," } else { "" }
        );
        println!(
            "{:<28} n={:<7} optimized {:>12?} baseline {:>12?} speedup {:>6.2}x",
            r.name,
            r.n,
            r.optimized,
            r.naive,
            r.speedup()
        );
    }
    json.push_str("  ],\n");
    json.push_str(&Host::detect().json_fields());
    let threads = afd_parallel::max_threads();
    let _ = write!(
        json,
        "  \"threads\": {threads},\n  \"smoke\": {smoke},\n  \"note\": \"median ns/iter over samples of iters iterations each; baseline = naive reference (afd_relation::naive), except discover_all_par_vs_seq where baseline = sequential (threads=1) and the optimized side runs at threads; score_matrix_encoding_cache times the engine's matrix request (one encoding per attribute set, one Summary per candidate) against per-candidate tables scored measure by measure\"\n}}\n"
    );
    std::fs::write(&out_path, json).expect("write JSON");
    println!("wrote {out_path}");

    // Mirror the acceptance bar so regressions are loud when this tool
    // is re-run (the 8192-row fixture must show >= 3x on both kernels).
    for r in &records {
        if r.n == 8192
            && (r.name == "contingency_from_codes" || r.name == "pli_refine")
            && r.speedup() < 3.0
        {
            eprintln!(
                "WARNING: {} speedup {:.2}x below the 3x acceptance bar",
                r.name,
                r.speedup()
            );
        }
    }
}
