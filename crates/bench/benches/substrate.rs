//! Substrate microbenchmarks: the primitives every experiment is built
//! on — grouping, contingency construction, PLI construction and
//! refinement, entropy evaluation — plus optimized-vs-naive
//! comparisons for the stamped-array kernels (the numbers recorded in
//! `BENCH_substrate.json`; see `examples/record_substrate.rs`).

use afd_bench::{fixture_relation, fixture_table};
use afd_relation::{naive, AttrId, AttrSet, ContingencyTable, NullSemantics, Pli};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const SIZES: [usize; 3] = [1024, 8192, 65_536];

fn bench_grouping(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_grouping");
    group.sample_size(20);
    for &n in &SIZES {
        let rel = fixture_relation(n, 7);
        let attrs = AttrSet::single(AttrId(0));
        group.bench_with_input(BenchmarkId::new("group_encode", n), &rel, |b, r| {
            b.iter(|| black_box(r.group_encode(black_box(&attrs))))
        });
        let x = AttrSet::single(AttrId(0));
        let y = AttrSet::single(AttrId(1));
        group.bench_with_input(BenchmarkId::new("contingency", n), &rel, |b, r| {
            b.iter(|| black_box(ContingencyTable::from_relation(r, &x, &y)))
        });
        group.bench_with_input(BenchmarkId::new("pli_build", n), &rel, |b, r| {
            b.iter(|| black_box(Pli::from_relation(r, &x)))
        });
        let pli = Pli::from_relation(&rel, &x);
        let codes = rel.group_encode(&y).codes;
        group.bench_with_input(
            BenchmarkId::new("pli_refine", n),
            &(pli, codes),
            |b, (p, cs)| b.iter(|| black_box(p.refine(black_box(cs)))),
        );
    }
    group.finish();
}

/// Optimized kernels against the retained naive reference paths — the
/// headline speedups of the kernel substrate.
fn bench_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_vs_naive");
    group.sample_size(15);
    for &n in &SIZES {
        let rel = fixture_relation(n, 7);
        let x = AttrSet::single(AttrId(0));
        let y = AttrSet::single(AttrId(1));
        let gx = rel.group_encode(&x);
        let gy = rel.group_encode(&y);
        group.bench_with_input(
            BenchmarkId::new("from_codes_optimized", n),
            &(&gx.codes, &gy.codes),
            |b, (xc, yc)| b.iter(|| black_box(ContingencyTable::from_codes(xc, yc))),
        );
        group.bench_with_input(
            BenchmarkId::new("from_codes_naive", n),
            &(&gx.codes, &gy.codes),
            |b, (xc, yc)| b.iter(|| black_box(naive::contingency_from_codes(xc, yc))),
        );
        let pli = Pli::from_relation(&rel, &x);
        group.bench_with_input(
            BenchmarkId::new("refine_optimized", n),
            &(&pli, &gy.codes),
            |b, (p, cs)| b.iter(|| black_box(p.refine(cs))),
        );
        group.bench_with_input(
            BenchmarkId::new("refine_naive", n),
            &(&pli, &gy.codes),
            |b, (p, cs)| b.iter(|| black_box(naive::pli_refine(p, cs))),
        );
        let xy = AttrSet::new([AttrId(0), AttrId(1)]);
        group.bench_with_input(
            BenchmarkId::new("group_encode_multi_optimized", n),
            &rel,
            |b, r| b.iter(|| black_box(r.group_encode(&xy))),
        );
        group.bench_with_input(
            BenchmarkId::new("group_encode_multi_naive", n),
            &rel,
            |b, r| {
                b.iter(|| {
                    black_box(naive::group_encode_multi(
                        r,
                        xy.ids(),
                        NullSemantics::DropTuples,
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_entropy(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_entropy");
    group.sample_size(20);
    for &n in &SIZES {
        let t = fixture_table(n, 9);
        group.bench_with_input(BenchmarkId::new("shannon_y_given_x", n), &t, |b, t| {
            b.iter(|| black_box(afd_entropy::shannon_y_given_x(&black_box(t).shannon_sums())))
        });
        group.bench_with_input(BenchmarkId::new("logical_y_given_x", n), &t, |b, t| {
            b.iter(|| black_box(afd_entropy::logical_y_given_x(&black_box(t).summary())))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_grouping, bench_vs_naive, bench_entropy);
criterion_main!(benches);
