//! End-to-end throughput of the distributed pipelines: simulated
//! sensor-readings processed per second of host time, for D3, MGDD and
//! the centralized baseline on a small hierarchy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use snod_core::pipeline::OutlierPipeline;
use snod_core::{
    CentralizedBackend, D3Backend, D3Config, DetectorBackend, EstimatorConfig, MgddBackend,
    MgddConfig, RebuildPolicy, UpdateStrategy,
};
use snod_outlier::{DistanceOutlierConfig, MdefConfig};
use snod_simnet::{NodeId, SimConfig};

const READINGS: u64 = 2_000;
const LEAVES: usize = 16;

fn source(node: NodeId, seq: u64) -> Option<Vec<f64>> {
    let h = node.0 as u64 * 1_000_003 + seq * 7_919;
    Some(vec![0.3 + 0.2 * ((h % 1_000) as f64 / 1_000.0)])
}

/// One row of the table: `backend` on the 16-leaf hierarchy under `sim`.
fn bench_backend<B: DetectorBackend>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    backend: B,
    sim: SimConfig,
) {
    let p = OutlierPipeline::balanced(LEAVES, &[4, 2], sim, backend).unwrap();
    group.bench_function(BenchmarkId::from_parameter(name), |b| {
        b.iter(|| {
            let mut src = source;
            p.run(&mut src, READINGS).unwrap()
        })
    });
}

fn bench_pipelines(c: &mut Criterion) {
    let est = EstimatorConfig::builder()
        .window(1_000)
        .sample_size(100)
        .seed(5)
        .build()
        .unwrap();

    // MGDD with the pre-epoch maintenance policy: every replica push
    // pays a full model rebuild. The default `est` uses the epoch
    // policy, so "mgdd" vs "mgdd_rebuild_always" measures the
    // incremental-maintenance speedup end to end.
    let mut est_rebuild_always = est;
    est_rebuild_always.rebuild = RebuildPolicy::always();

    let mgdd = |estimator: EstimatorConfig| MgddBackend {
        cfg: MgddConfig {
            estimator,
            rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
            sample_fraction: 0.5,
            updates: UpdateStrategy::EveryAcceptance,
            staleness_bound_ns: None,
        },
        broadcast_levels: vec![],
    };

    // "mgdd_parallel" runs the same workload with synchronous reading
    // phases and one worker per core — the per-level parallel engine.
    let parallel_sim = SimConfig {
        stagger_readings: false,
        ..SimConfig::default()
    }
    .with_worker_threads(0);

    let mut group = c.benchmark_group("pipeline_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(READINGS * LEAVES as u64));
    let sim = SimConfig::default();
    let d3 = D3Backend(D3Config {
        estimator: est,
        rule: DistanceOutlierConfig::new(10.0, 0.01),
        sample_fraction: 0.5,
    });
    bench_backend(&mut group, "d3", d3, sim);
    bench_backend(&mut group, "mgdd", mgdd(est), sim);
    let always = mgdd(est_rebuild_always);
    bench_backend(&mut group, "mgdd_rebuild_always", always, sim);
    bench_backend(&mut group, "mgdd_parallel", mgdd(est), parallel_sim);
    let centralized = CentralizedBackend {
        rule: DistanceOutlierConfig::new(10.0, 0.01),
        window_per_leaf: 1_000,
    };
    bench_backend(&mut group, "centralized", centralized, sim);
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
    targets = bench_pipelines
}
criterion_main!(benches);
