//! Golden-trace regression tests for the fault layer: D3 and MGDD at
//! three fault levels (armed-but-zero, deterministic degradation, total
//! blackout).
//!
//! The goldens are *differential*: the faultless run of the same seeded
//! workload is the reference trace, re-derived inside each test.
//! Hard-coded absolute counts would tie the goldens to the `rand`
//! crate's `StdRng` stream (the estimators sample from it), which is
//! not a stable contract across `rand` versions. Every assertion below
//! is still exact — bit-level equality or exact counter arithmetic —
//! because the injected faults are all certain events (probabilities in
//! {0, 1}) or fixed windows, so they consume no randomness that could
//! change an outcome.

use sensor_outliers::core::{
    run_backend_with_faults, D3Backend, D3Config, D3Node, D3Payload, DetectorBackend,
    EstimatorConfig, MgddBackend, MgddConfig, MgddNode, MgddPayload, UpdateStrategy,
};
use sensor_outliers::outlier::{DistanceOutlierConfig, MdefConfig};
use sensor_outliers::simnet::{
    FaultPlan, Hierarchy, LinkFault, NetStats, Network, NodeId, RetryPolicy, SimConfig,
};

const READINGS: u64 = 900;
/// One reading per second (the default period) bounds the sim horizon.
const HORIZON_NS: u64 = READINGS * 1_000_000_000;

fn topo() -> Hierarchy {
    Hierarchy::balanced(4, &[2, 2]).unwrap()
}

/// Deterministic per-leaf streams with planted deviations.
fn source(node: NodeId, seq: u64) -> Option<Vec<f64>> {
    let h = node.0 as u64 * 1_000_003 + seq * 7_919;
    if seq % 173 == 42 {
        Some(vec![0.91])
    } else {
        Some(vec![0.3 + 0.2 * ((h % 1_000) as f64 / 1_000.0)])
    }
}

fn estimator() -> EstimatorConfig {
    EstimatorConfig::builder()
        .window(300)
        .sample_size(50)
        .seed(21)
        .build()
        .unwrap()
}

fn d3_config() -> D3Config {
    D3Config {
        estimator: estimator(),
        rule: DistanceOutlierConfig::new(8.0, 0.02),
        sample_fraction: 0.5,
    }
}

fn mgdd_config() -> MgddConfig {
    MgddConfig {
        estimator: estimator(),
        rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
        sample_fraction: 0.75,
        updates: UpdateStrategy::EveryAcceptance,
        staleness_bound_ns: Some(30_000_000_000),
    }
}

/// The default retry policy has zero jitter, so retransmission timing
/// consumes no randomness and the traces stay exactly reproducible.
fn reliability() -> RetryPolicy {
    RetryPolicy::default()
}

/// Fault level 1: every fault code path armed, every effect certain to
/// not fire. Must be observationally absent.
fn zero_plan() -> FaultPlan {
    FaultPlan::none()
        .with_seed(99)
        .burst(0, HORIZON_NS, 0.0)
        .link(LinkFault::delay_all(0, 0).duplicate(0.0))
}

/// Fault level 2: a mid-run leaf crash with restart, a sensing dropout
/// on another leaf, and a fixed extra link delay — all deterministic.
fn degraded_plan(topo: &Hierarchy) -> FaultPlan {
    let leaves = topo.leaves();
    FaultPlan::none()
        .crash(leaves[0], HORIZON_NS / 3, Some(2 * HORIZON_NS / 3))
        .dropout(leaves[1], HORIZON_NS / 4, HORIZON_NS / 2)
        .link(LinkFault::delay_all(5_000_000, 0))
}

/// Fault level 3: total blackout — every frame on the air is lost.
fn blackout_plan() -> FaultPlan {
    FaultPlan::none().burst(0, u64::MAX, 1.0)
}

fn d3_run(plan: FaultPlan, sim: SimConfig) -> Network<D3Payload, D3Node> {
    let mut src = source;
    run_backend_with_faults(
        &D3Backend(d3_config()),
        topo(),
        sim,
        plan,
        &mut src,
        READINGS,
    )
    .unwrap()
}

fn mgdd_run(plan: FaultPlan, sim: SimConfig) -> Network<MgddPayload, MgddNode> {
    let mut src = source;
    let backend = MgddBackend {
        cfg: mgdd_config(),
        broadcast_levels: vec![],
    };
    run_backend_with_faults(&backend, topo(), sim, plan, &mut src, READINGS).unwrap()
}

/// Per node: `(node id, [(time, value bits, level)])`.
type DetectionTrace = Vec<(u32, Vec<(u64, Vec<u64>, u8)>)>;

fn detections<B: DetectorBackend>(net: &Network<B::Payload, B::Engine>) -> DetectionTrace {
    net.apps()
        .map(|(node, app)| {
            (
                node.0,
                B::detections(app)
                    .iter()
                    .map(|d| {
                        (
                            d.time_ns,
                            d.value.iter().map(|v| v.to_bits()).collect(),
                            d.level,
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

fn assert_stats_identical(a: &NetStats, b: &NetStats) {
    assert_eq!(a, b, "network statistics diverged");
    assert_eq!(a.tx_joules.to_bits(), b.tx_joules.to_bits());
    assert_eq!(a.rx_joules.to_bits(), b.rx_joules.to_bits());
}

// ---------------------------------------------------------------- D3 --

#[test]
fn d3_zero_probability_plan_reproduces_the_faultless_trace() {
    let sim = SimConfig::default().with_reliability(reliability());
    let baseline = d3_run(FaultPlan::none(), sim);
    let armed = d3_run(zero_plan(), sim);
    assert_stats_identical(baseline.stats(), armed.stats());
    assert_eq!(
        detections::<D3Backend>(&baseline),
        detections::<D3Backend>(&armed)
    );
}

#[test]
fn d3_deterministic_degradation_trace() {
    let sim = SimConfig::default();
    let baseline = d3_run(FaultPlan::none(), sim);
    let plan = degraded_plan(&topo());
    let faulty = d3_run(plan, sim);

    // The run is seeded end to end: replaying it is bit-identical.
    let again = d3_run(degraded_plan(&topo()), sim);
    assert_stats_identical(faulty.stats(), again.stats());
    assert_eq!(
        detections::<D3Backend>(&faulty),
        detections::<D3Backend>(&again)
    );

    // Broadcast-free D3 leaves never receive anything, so leaves the
    // plan does not touch behave bit-identically to the baseline.
    let touched = [topo().leaves()[0], topo().leaves()[1]];
    for &leaf in topo().leaves() {
        if touched.contains(&leaf) {
            continue;
        }
        assert_eq!(
            baseline.app(leaf).detections,
            faulty.app(leaf).detections,
            "untouched leaf {leaf:?} diverged"
        );
    }

    // The crashed leaf sent nothing for a third of the run and the
    // dropped-out leaf skipped a quarter of its readings, so the faulty
    // run airs strictly fewer frames.
    assert!(
        faulty.stats().messages < baseline.stats().messages,
        "faulty {} vs baseline {}",
        faulty.stats().messages,
        baseline.stats().messages
    );
}

#[test]
fn d3_blackout_trace_is_exact() {
    let sim = SimConfig::default().with_reliability(reliability());
    let baseline = d3_run(FaultPlan::none(), sim);
    let dark = d3_run(blackout_plan(), sim);

    // Every frame aired was lost, nothing was ever acknowledged.
    assert_eq!(dark.stats().dropped, dark.stats().messages);
    assert_eq!(dark.stats().acks, 0);
    assert!(
        dark.stats().retransmissions > 0,
        "reliable layer never retried"
    );
    assert!(dark.stats().retry_exhausted > 0, "retries never gave up");

    // Nothing crossed the network: every detection is leaf-local, and
    // the leaves behave exactly as in the faultless run.
    for (node, dets) in detections::<D3Backend>(&dark) {
        assert!(
            dets.iter().all(|&(_, _, level)| level == 1),
            "node {node} detected through a dead network"
        );
    }
    for &leaf in topo().leaves() {
        assert_eq!(
            baseline.app(leaf).detections,
            dark.app(leaf).detections,
            "blackout perturbed leaf {leaf:?}'s local verdicts"
        );
    }

    // Replay is bit-identical.
    let again = d3_run(blackout_plan(), sim);
    assert_stats_identical(dark.stats(), again.stats());
    assert_eq!(
        detections::<D3Backend>(&dark),
        detections::<D3Backend>(&again)
    );
}

// -------------------------------------------------------------- MGDD --

#[test]
fn mgdd_zero_probability_plan_reproduces_the_faultless_trace() {
    let sim = SimConfig::default().with_reliability(reliability());
    let baseline = mgdd_run(FaultPlan::none(), sim);
    let armed = mgdd_run(zero_plan(), sim);
    assert_stats_identical(baseline.stats(), armed.stats());
    assert_eq!(
        detections::<MgddBackend>(&baseline),
        detections::<MgddBackend>(&armed)
    );
}

#[test]
fn mgdd_deterministic_degradation_trace() {
    // Crash the sole broadcaster (the root) for the middle third of the
    // run: replicas go stale past the bound, leaves degrade, and the
    // whole episode replays bit-identically.
    let sim = SimConfig::default();
    let t = topo();
    let plan = FaultPlan::none().crash(t.root(), HORIZON_NS / 3, Some(2 * HORIZON_NS / 3));
    let faulty = mgdd_run(plan.clone(), sim);
    assert!(
        faulty.stats().degraded_scores > 0 || faulty.stats().local_fallbacks > 0,
        "a dead broadcaster caused no degradation at all"
    );
    assert!(
        faulty.stats().lost_to_crash > 0,
        "no frame died at the root"
    );

    let again = mgdd_run(plan, sim);
    assert_stats_identical(faulty.stats(), again.stats());
    assert_eq!(
        detections::<MgddBackend>(&faulty),
        detections::<MgddBackend>(&again)
    );
}

#[test]
fn mgdd_blackout_falls_back_to_local_models() {
    let sim = SimConfig::default().with_reliability(reliability());
    let dark = mgdd_run(blackout_plan(), sim);

    assert_eq!(dark.stats().dropped, dark.stats().messages);
    assert_eq!(dark.stats().acks, 0);
    assert!(
        dark.stats().local_fallbacks > 0,
        "orphaned leaves never fell back to local detection"
    );
    for (node, dets) in detections::<MgddBackend>(&dark) {
        assert!(
            dets.iter().all(|&(_, _, level)| level == 1),
            "node {node} scored against a model it could never have received"
        );
    }

    let again = mgdd_run(blackout_plan(), sim);
    assert_stats_identical(dark.stats(), again.stats());
    assert_eq!(
        detections::<MgddBackend>(&dark),
        detections::<MgddBackend>(&again)
    );
}
