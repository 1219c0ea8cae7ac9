//! Per-element cost of the streaming sketches — the maintenance half of
//! **Theorem 1**: the chain sampler must be O(1) expected per element
//! (independent of `|R|` once `|R| ≪ |W|`), and the variance sketch
//! O(log |W|)-ish amortised.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use snod_sketch::{ChainSampler, ExpHistogram, WindowedVariance};

fn bench_chain_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_sampler_push");
    for &(w, r) in &[(10_000usize, 500usize), (10_000, 2_000), (20_000, 1_000)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("W{w}_R{r}")),
            &(w, r),
            |b, _| {
                let mut s = ChainSampler::new(w, r, 7).unwrap();
                // Warm past the fill phase so steady-state cost is measured.
                for i in 0..(2 * w as u64) {
                    s.push(i);
                }
                let mut i = 2 * w as u64;
                b.iter(|| {
                    i += 1;
                    s.push(black_box(i))
                });
            },
        );
    }
    group.finish();
}

fn bench_variance(c: &mut Criterion) {
    let mut group = c.benchmark_group("windowed_variance_push");
    for &eps in &[0.1f64, 0.2] {
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |b, _| {
            let mut wv = WindowedVariance::new(10_000, eps).unwrap();
            let mut x = 0.0f64;
            for _ in 0..20_000 {
                x = (x * 997.0 + 0.123).fract();
                wv.push(x);
            }
            b.iter(|| {
                x = (x * 997.0 + 0.123).fract();
                wv.push(black_box(x));
            });
        });
    }
    group.finish();
}

fn bench_exp_histogram(c: &mut Criterion) {
    c.bench_function("exp_histogram_push", |b| {
        let mut eh = ExpHistogram::new(10_000, 0.1).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            eh.push(black_box(i.is_multiple_of(3)));
        });
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
    targets = bench_chain_sampler,
    bench_variance,
    bench_exp_histogram
}
criterion_main!(benches);
