//! Ablation benches for the design choices called out in DESIGN.md §5:
//!
//! * `sfi`: paper-faithful materialising SFI vs. the closed form that
//!   exploits uniform absent-cell mass;
//! * `expected_mi`: exact hypergeometric E[I] vs. Monte-Carlo sampling at
//!   increasing sample counts;
//! * `g3_path`: g3 on a built contingency table vs. g3 from the
//!   lattice's tally of the LHS's stripped partition, here with one RHS
//!   lane.

use afd_bench::{fixture_relation, fixture_table};
use afd_core::{sfi_closed_form, Measure, Sfi, G3};
use afd_relation::{strip_codes_into, AttrId, AttrSet, ContingencyTable, Scratch, YMatrix, YSide};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_sfi(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sfi");
    group.sample_size(10);
    for &n in &[1024usize, 4096] {
        let t = fixture_table(n, 11);
        let sfi = Sfi::half();
        group.bench_with_input(BenchmarkId::new("materialising", n), &t, |b, t| {
            b.iter(|| black_box(sfi.score_contingency(black_box(t))))
        });
        group.bench_with_input(BenchmarkId::new("closed_form", n), &t, |b, t| {
            b.iter(|| black_box(sfi_closed_form(black_box(t), 0.5)))
        });
    }
    group.finish();
}

fn bench_expected_mi(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_expected_mi");
    group.sample_size(10);
    let t = fixture_table(1024, 13);
    group.bench_function("exact", |b| {
        b.iter(|| black_box(afd_entropy::expected_mi_exact(black_box(&t))))
    });
    for &samples in &[16usize, 128] {
        group.bench_with_input(
            BenchmarkId::new("monte_carlo", samples),
            &samples,
            |b, &s| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(5);
                    black_box(afd_entropy::expected_mi_monte_carlo(&t, s, &mut rng))
                })
            },
        );
    }
    group.finish();
}

fn bench_g3_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_g3_path");
    group.sample_size(20);
    let g3 = G3
        .summary_formula()
        .expect("g3 reads only table aggregates");
    for &n in &[1024usize, 8192] {
        let rel = fixture_relation(n, 17);
        let x = rel.group_encode(&AttrSet::single(AttrId(0)));
        let y = rel.group_encode(&AttrSet::single(AttrId(1)));
        group.bench_with_input(
            BenchmarkId::new("contingency", n),
            &(&x, &y),
            |b, (x, y)| {
                b.iter(|| {
                    let t = ContingencyTable::from_codes(black_box(&x.codes), &y.codes);
                    black_box(G3.score_table(&t))
                })
            },
        );
        let mut scratch = Scratch::new();
        let (mut rows, mut starts, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
        strip_codes_into(
            &mut scratch,
            &x.codes,
            x.n_groups,
            &mut rows,
            &mut starts,
            &mut dropped,
        );
        let y_lane = YMatrix::new(vec![YSide::new(&y.codes, y.n_groups)]);
        let mut summaries = Vec::new();
        group.bench_function(BenchmarkId::new("tally", n), |b| {
            b.iter(|| {
                y_lane.tally_with(
                    &mut scratch,
                    black_box(&rows),
                    &starts,
                    &dropped,
                    &[0],
                    &mut summaries,
                );
                black_box(g3(&summaries[0]))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sfi, bench_expected_mi, bench_g3_path);
criterion_main!(benches);
