//! MDEF evaluation cost — the empirical check of **Theorem 4**: one
//! verdict costs `O(d·|R| / (2αr))` (one range query per `2αr`-cell of
//! the sampling box). Expect cost ∝ `1/αr` and ∝ `|R|`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use snod_density::Kde1d;
use snod_outlier::{MdefConfig, MdefDetector};

fn model(r: usize) -> Kde1d {
    let xs: Vec<f64> = (0..r)
        .map(|i| ((i * 2_654_435_761) % r) as f64 / r as f64)
        .collect();
    Kde1d::from_sample(&xs, 0.29, 10_000.0).unwrap()
}

fn bench_vs_counting_radius(c: &mut Criterion) {
    let kde = model(500);
    let mut group = c.benchmark_group("mdef_vs_counting_radius");
    for &ar in &[0.02f64, 0.01, 0.005, 0.0025] {
        let det = MdefDetector::new(MdefConfig::new(0.08, ar, 3.0).unwrap());
        group.bench_with_input(BenchmarkId::from_parameter(ar), &ar, |b, _| {
            b.iter(|| det.evaluate(&kde, black_box(&[0.5])).unwrap())
        });
    }
    group.finish();
}

fn bench_vs_sample_size(c: &mut Criterion) {
    let det = MdefDetector::new(MdefConfig::new(0.08, 0.01, 3.0).unwrap());
    let mut group = c.benchmark_group("mdef_vs_sample_size");
    for &r in &[125usize, 500, 2_000] {
        let kde = model(r);
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, _| {
            b.iter(|| det.evaluate(&kde, black_box(&[0.5])).unwrap())
        });
    }
    group.finish();
}

fn bench_exact_window(c: &mut Criterion) {
    use snod_outlier::{DistanceOutlierConfig, ExactWindowDetector};
    let rule = DistanceOutlierConfig::new(45.0, 0.01);
    let mut det = ExactWindowDetector::new(rule.radius, 10_000);
    for i in 0..10_000u64 {
        det.push(vec![((i * 48_271) % 10_007) as f64 / 10_007.0]);
    }
    c.bench_function("exact_window_verdict", |b| {
        b.iter(|| det.is_outlier(black_box(&[0.5]), &rule))
    });
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
    targets = bench_vs_counting_radius,
    bench_vs_sample_size,
    bench_exact_window
}
criterion_main!(benches);
