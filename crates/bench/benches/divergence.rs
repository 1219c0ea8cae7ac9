//! JS-divergence cost between two kernel models — `O(d·k^d·|R|)` for a
//! `k`-cell grid (Section 6: *"The time complexity for the above
//! procedure is O(dk|R|)"*). This is what a leader pays per
//! model-change check (Section 8.1) and per faulty-sensor comparison
//! (Section 9).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use snod_density::{js_divergence_models, Kde1d};

fn model(offset: f64) -> Kde1d {
    let xs: Vec<f64> = (0..500)
        .map(|i| offset + 0.4 * (((i as u64 * 2_654_435_761) % 500) as f64 / 500.0))
        .collect();
    Kde1d::from_sample(&xs, 0.12, 10_000.0).unwrap()
}

fn bench_vs_grid(c: &mut Criterion) {
    let a = model(0.1);
    let b_model = model(0.2);
    let mut group = c.benchmark_group("js_divergence_vs_grid");
    for &k in &[16usize, 32, 64, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, _| {
            bench.iter(|| js_divergence_models(black_box(&a), black_box(&b_model), k).unwrap())
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
    targets = bench_vs_grid
}
criterion_main!(benches);
