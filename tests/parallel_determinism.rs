//! The parallel simulation engine must be *bit-identical* to the
//! single-threaded one: same detections (time, value, level), same
//! message/byte/drop counts, same float-accumulated energy totals —
//! for both paper algorithms, on a fixed seed. See the `simnet` crate
//! docs for why this holds by construction.

use sensor_outliers::core::pipeline::{OutlierPipeline, PipelineReport};
use sensor_outliers::core::{
    build_backend_network, D3Backend, D3Config, DetectorBackend, EstimatorConfig, MgddBackend,
    MgddConfig, UpdateStrategy,
};
use sensor_outliers::outlier::{DistanceOutlierConfig, MdefConfig};
use sensor_outliers::persist::Persist;
use sensor_outliers::simnet::{
    FaultPlan, Hierarchy, LinkFault, NetStats, NodeId, RestartPolicy, RetryPolicy, SimConfig,
};

/// A deterministic stream with occasional planted outliers.
fn source(node: NodeId, seq: u64) -> Option<Vec<f64>> {
    let h = node.0 as u64 * 1_000_003 + seq * 7_919;
    let base = 0.3 + 0.2 * ((h % 1_000) as f64 / 1_000.0);
    if seq % 211 == 17 {
        Some(vec![base + 0.45]) // planted deviation
    } else {
        Some(vec![base])
    }
}

fn estimator() -> EstimatorConfig {
    EstimatorConfig::builder()
        .window(400)
        .sample_size(60)
        .seed(13)
        .build()
        .unwrap()
}

/// Runs `backend` with the given worker count; synchronous reading phases
/// and a lossy radio maximise batch sizes and make the loss-RNG draw
/// order observable.
fn run<B: DetectorBackend>(backend: &B, workers: usize) -> PipelineReport {
    let sim = SimConfig {
        stagger_readings: false,
        ..SimConfig::default()
    }
    .with_drop_probability(0.05)
    .with_worker_threads(workers);
    let p = OutlierPipeline::balanced(8, &[4, 2], sim, backend.clone()).unwrap();
    let mut src = source;
    p.run(&mut src, 1_200).unwrap()
}

/// Like [`run`], but under an active fault plan (crash + extra delay +
/// duplication) with the ack/retry protocol enabled — the post-pass RNG
/// draws (loss, duplication, retry timers) must replay in the same
/// order whatever the worker count.
fn run_with_faults<B: DetectorBackend>(backend: &B, workers: usize) -> PipelineReport {
    let horizon_ns = 1_200 * 1_000_000_000;
    let sim = SimConfig {
        stagger_readings: false,
        ..SimConfig::default()
    }
    .with_drop_probability(0.05)
    .with_reliability(RetryPolicy::default())
    .with_worker_threads(workers);
    let p = OutlierPipeline::balanced(8, &[4, 2], sim, backend.clone()).unwrap();
    let victim = p.topology().leaves()[1];
    let plan = FaultPlan::none()
        .with_seed(77)
        .burst(horizon_ns / 5, horizon_ns / 2, 0.4)
        .crash(victim, horizon_ns / 3, Some(2 * horizon_ns / 3))
        .link(LinkFault::delay_all(3_000_000, 1_000_000).duplicate(0.1));
    let p = p.with_fault_plan(plan);
    let mut src = source;
    p.run(&mut src, 1_200).unwrap()
}

fn assert_identical(a: &PipelineReport, b: &PipelineReport) {
    // Detections: exact content, grouping and order.
    assert_eq!(
        a.detections_by_level.keys().collect::<Vec<_>>(),
        b.detections_by_level.keys().collect::<Vec<_>>()
    );
    for (level, da) in &a.detections_by_level {
        assert_eq!(da, &b.detections_by_level[level], "level {level} diverged");
    }
    // Network statistics — the whole struct, covering the fault-layer
    // counters (drops, duplicates, retransmissions, acks, degradation)
    // along with the classic traffic totals.
    assert_eq!(a.stats, b.stats);
    // Float energy sums must agree bit for bit, not just by `==`.
    assert!(a.stats.tx_joules.to_bits() == b.stats.tx_joules.to_bits());
    assert!(a.stats.rx_joules.to_bits() == b.stats.rx_joules.to_bits());
}

fn d3_backend() -> D3Backend {
    D3Backend(D3Config {
        estimator: estimator(),
        rule: DistanceOutlierConfig::new(6.0, 0.05),
        sample_fraction: 0.5,
    })
}

fn mgdd_backend() -> MgddBackend {
    MgddBackend {
        cfg: MgddConfig {
            estimator: estimator(),
            rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
            sample_fraction: 0.5,
            updates: UpdateStrategy::EveryAcceptance,
            staleness_bound_ns: Some(20_000_000_000),
        },
        broadcast_levels: vec![],
    }
}

/// Runs `backend` under `policy` with two leaves that crash and come
/// back, and returns the final statistics plus the final checkpoint
/// bytes (which carry the restart snapshots and every engine's state).
fn run_restarting<B>(
    backend: &B,
    policy: RestartPolicy,
    stagger_readings: bool,
    workers: usize,
) -> (NetStats, Vec<u8>)
where
    B: DetectorBackend,
    B::Payload: Persist,
    B::Engine: Persist,
{
    const READINGS: u64 = 900;
    let horizon_ns = READINGS * 1_000_000_000;
    let sim = SimConfig {
        stagger_readings,
        ..SimConfig::default()
    }
    .with_drop_probability(0.05)
    .with_reliability(RetryPolicy::default())
    .with_worker_threads(workers);
    let topo = Hierarchy::balanced(8, &[4, 2]).unwrap();
    let (a, b) = (topo.leaves()[1], topo.leaves()[6]);
    let plan = FaultPlan::none()
        .with_seed(91)
        .crash(a, horizon_ns / 4, Some(horizon_ns / 2))
        .crash(b, horizon_ns / 3, Some(3 * horizon_ns / 4));
    let mut net = build_backend_network(backend, topo, sim, plan)
        .unwrap()
        .with_restart_policy(policy);
    let mut src = source;
    net.run(&mut src, READINGS);
    (net.stats().clone(), net.checkpoint())
}

/// Restart policies under batching: a crashed leaf is revived before any
/// callback of its recovery instant, and a Warm capture happens before
/// the node's first callback of the instant, whatever the worker count.
fn assert_restarts_identical<B>(backend: &B, name: &str)
where
    B: DetectorBackend,
    B::Payload: Persist,
    B::Engine: Persist,
{
    let policies = [
        RestartPolicy::Cold,
        RestartPolicy::Warm {
            checkpoint_every_ns: 15_000_000_000,
        },
    ];
    for policy in policies {
        for stagger in [false, true] {
            let case = format!("{name} {policy:?} stagger={stagger}");
            let (stats, ckpt) = run_restarting(backend, policy, stagger, 1);
            let restarts = match policy {
                RestartPolicy::Cold => stats.cold_restarts,
                _ => stats.warm_restarts,
            };
            assert!(
                restarts > 0,
                "{case}: no leaf was revived — the check would be vacuous"
            );
            let (par_stats, par_ckpt) = run_restarting(backend, policy, stagger, 4);
            assert_eq!(stats, par_stats, "{case}: statistics diverged");
            assert!(ckpt == par_ckpt, "{case}: final checkpoint bytes diverged");
        }
    }
}

#[test]
fn d3_restart_policies_are_identical_across_worker_counts() {
    assert_restarts_identical(&d3_backend(), "d3");
}

#[test]
fn mgdd_restart_policies_are_identical_across_worker_counts() {
    assert_restarts_identical(&mgdd_backend(), "mgdd");
}

#[test]
fn mgdd_detections_are_identical_across_worker_counts() {
    let alg = MgddBackend {
        cfg: MgddConfig {
            estimator: estimator(),
            rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
            sample_fraction: 0.5,
            updates: UpdateStrategy::EveryAcceptance,
            staleness_bound_ns: None,
        },
        broadcast_levels: vec![],
    };
    let sequential = run(&alg, 1);
    assert!(
        sequential.total_detections() > 0,
        "workload produced no detections — the equivalence check would be vacuous"
    );
    let parallel = run(&alg, 4);
    assert_identical(&sequential, &parallel);
}

#[test]
fn d3_detections_are_identical_across_worker_counts() {
    let alg = d3_backend();
    let sequential = run(&alg, 1);
    assert!(
        sequential.total_detections() > 0,
        "workload produced no detections — the equivalence check would be vacuous"
    );
    let parallel = run(&alg, 4);
    assert_identical(&sequential, &parallel);
}

#[test]
fn d3_is_identical_across_worker_counts_with_faults_and_retries() {
    let alg = d3_backend();
    let sequential = run_with_faults(&alg, 1);
    assert!(
        sequential.total_detections() > 0,
        "faulty workload produced no detections — the check would be vacuous"
    );
    assert!(
        sequential.stats.dropped > 0 && sequential.stats.retransmissions > 0,
        "the plan injected nothing — the check would be vacuous"
    );
    let parallel = run_with_faults(&alg, 4);
    assert_identical(&sequential, &parallel);
}

#[test]
fn mgdd_is_identical_across_worker_counts_with_faults_and_retries() {
    let alg = mgdd_backend();
    let sequential = run_with_faults(&alg, 1);
    assert!(
        sequential.stats.dropped > 0,
        "the plan injected nothing — the check would be vacuous"
    );
    let parallel = run_with_faults(&alg, 4);
    assert_identical(&sequential, &parallel);
}
