//! Range-query cost of the kernel estimators — the empirical check of
//! **Theorem 2** (`O(d·|R|)` per query) and of the 1-d fast path
//! (`O(log|R| + |R′|)`, Section 5.3).
//!
//! Expected shape: the generic estimator scales linearly in `|R|` and in
//! `d`; the sorted-centre 1-d estimator is near-flat in `|R|` for narrow
//! queries (only intersecting kernels are touched).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use snod_density::{DensityModel, Kde, Kde1d};

fn sample_1d(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 2_654_435_761) % n) as f64 / n as f64)
        .collect()
}

fn sample_nd(n: usize, d: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..d)
                .map(|j| (((i + 31 * j) * 2_654_435_761) % n) as f64 / n as f64)
                .collect()
        })
        .collect()
}

fn bench_range_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_query_vs_sample_size");
    for &r in &[125usize, 250, 500, 1_000, 2_000] {
        let fast = Kde1d::from_sample(&sample_1d(r), 0.29, 10_000.0).unwrap();
        group.bench_with_input(BenchmarkId::new("kde1d_sorted", r), &r, |b, _| {
            b.iter(|| fast.range_prob(black_box(&[0.5]), black_box(0.01)).unwrap())
        });
        let generic = Kde::from_sample(&sample_nd(r, 1), &[0.29], 10_000.0).unwrap();
        group.bench_with_input(BenchmarkId::new("kde_generic", r), &r, |b, _| {
            b.iter(|| {
                generic
                    .range_prob(black_box(&[0.5]), black_box(0.01))
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_dimensionality(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_query_vs_dimensions");
    for &d in &[1usize, 2, 3, 4] {
        let kde = Kde::from_sample(&sample_nd(500, d), &vec![0.2; d], 10_000.0).unwrap();
        let p = vec![0.5; d];
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| kde.range_prob(black_box(&p), black_box(0.05)).unwrap())
        });
    }
    group.finish();
}

/// The MGDD counting pattern: one neighborhood count per MDEF cell, all
/// with the same radius. Batched answers all of them in one sorted
/// sweep; scalar pays a fresh binary search (and, in d > 1, a fresh
/// prune) per query.
fn bench_batched_vs_scalar(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_vs_scalar");
    let n = 1_000;
    let q = 64usize;
    let r = 0.05;

    let queries_1d: Vec<f64> = (0..q).map(|i| i as f64 / q as f64).collect();
    let fast = Kde1d::from_sample(&sample_1d(n), 0.29, 10_000.0).unwrap();
    group.bench_with_input(BenchmarkId::new("kde1d_scalar", q), &q, |b, _| {
        b.iter(|| {
            queries_1d
                .iter()
                .map(|&p| fast.neighborhood_count(black_box(&[p]), r).unwrap())
                .sum::<f64>()
        })
    });
    group.bench_with_input(BenchmarkId::new("kde1d_batched", q), &q, |b, _| {
        b.iter(|| fast.neighborhood_counts(black_box(&queries_1d), r).unwrap())
    });

    let kde = Kde::from_sample(&sample_nd(n, 2), &[0.2, 0.2], 10_000.0).unwrap();
    let queries_2d: Vec<f64> = (0..q).flat_map(|i| [i as f64 / q as f64, 0.5]).collect();
    group.bench_with_input(BenchmarkId::new("kde2d_scalar", q), &q, |b, _| {
        b.iter(|| {
            queries_2d
                .chunks_exact(2)
                .map(|p| kde.neighborhood_count(black_box(p), r).unwrap())
                .sum::<f64>()
        })
    });
    group.bench_with_input(BenchmarkId::new("kde2d_batched", q), &q, |b, _| {
        b.iter(|| kde.neighborhood_counts(black_box(&queries_2d), r).unwrap())
    });
    group.finish();
}

fn bench_model_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_build");
    for &r in &[250usize, 1_000] {
        let xs = sample_1d(r);
        group.bench_with_input(BenchmarkId::new("kde1d_sort", r), &r, |b, _| {
            b.iter(|| Kde1d::from_sample(black_box(&xs), 0.29, 10_000.0).unwrap())
        });
    }
    group.finish();
}

/// Short measurement windows: these benches check complexity *shape*
/// (linear vs flat), not absolute timings.
fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_range_queries,
    bench_dimensionality,
    bench_batched_vs_scalar,
    bench_model_build
}
criterion_main!(benches);
