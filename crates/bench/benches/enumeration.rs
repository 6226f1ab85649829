//! Criterion micro-benchmarks for the enumeration itself: the per-result
//! delay of `RankedTriang` (the paper's "delay no init" column), the CKK
//! baseline's per-result cost, and single `MinTriang` invocations with and
//! without Lawler constraints.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtr_bench::baseline_instances;
use mtr_core::cost::{Constraints, FillIn, Width};
use mtr_core::{min_triangulation, min_triangulation_with, CkkEnumerator, Enumerate, Preprocessed};
use std::time::Duration;

fn bench_min_triangulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_triangulation");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for (name, g) in baseline_instances() {
        let pre = Preprocessed::new(&g);
        group.bench_with_input(BenchmarkId::new("width", name), &pre, |b, pre| {
            b.iter(|| min_triangulation(pre, &Width))
        });
        group.bench_with_input(BenchmarkId::new("fill", name), &pre, |b, pre| {
            b.iter(|| min_triangulation(pre, &FillIn))
        });
        // Constrained variant: force the first minimal separator, forbid the
        // second (mirrors the calls the ranked enumerator makes).
        let seps = pre.minimal_separators();
        if seps.len() >= 2 {
            let constraints = Constraints::new(vec![seps[0].clone()], vec![seps[1].clone()]);
            group.bench_with_input(
                BenchmarkId::new("fill_constrained", name),
                &pre,
                |b, pre| b.iter(|| min_triangulation_with(pre, &FillIn, &constraints)),
            );
        }
    }
    group.finish();
}

fn bench_ranked_first_10(c: &mut Criterion) {
    let mut group = c.benchmark_group("ranked_first_10_results");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for (name, g) in baseline_instances() {
        let pre = Preprocessed::new(&g);
        group.bench_with_input(BenchmarkId::from_parameter(name), &pre, |b, pre| {
            b.iter(|| {
                Enumerate::with(pre)
                    .cost(&Width)
                    .max_results(10)
                    .run()
                    .expect("session is well-configured")
                    .results
                    .len()
            })
        });
    }
    group.finish();
}

fn bench_ckk_first_10(c: &mut Criterion) {
    let mut group = c.benchmark_group("ckk_first_10_results");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for (name, g) in baseline_instances() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &g, |b, g| {
            b.iter(|| CkkEnumerator::new(g).take(10).count())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_min_triangulation,
    bench_ranked_first_10,
    bench_ckk_first_10
);
criterion_main!(benches);
