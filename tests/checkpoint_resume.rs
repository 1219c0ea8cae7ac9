//! The checkpoint/restore headline guarantee: snapshot at step `k`,
//! restore in a *fresh* network, run to step `n` — and every outlier
//! trace, message counter and energy sum is bit-identical to the run
//! that never stopped. Exercised for D3 and MGDD on the golden seeded
//! workload, with and without faults, across sequential and parallel
//! engines, through in-memory bytes and through the atomic file path.
//!
//! The stream source here is a pure function of `(node, seq)`, so the
//! resumed process re-derives exactly the readings the original would
//! have seen — the same contract `snod simulate --resume-from` meets by
//! fast-forwarding its generators.

use sensor_outliers::core::{
    build_backend_network, D3Backend, D3Config, D3Node, D3Payload, DetectorBackend,
    EstimatorConfig, MgddBackend, MgddConfig, MgddNode, MgddPayload, UpdateStrategy,
};
use sensor_outliers::outlier::{DistanceOutlierConfig, MdefConfig};
use sensor_outliers::persist::PersistError;
use sensor_outliers::simnet::{
    FaultPlan, Hierarchy, NetStats, Network, NodeId, RestartPolicy, RetryPolicy, SimConfig,
};

const READINGS: u64 = 600;
/// One reading per second (the default period) bounds the sim horizon.
const HORIZON_NS: u64 = READINGS * 1_000_000_000;
/// The snapshot instant: a third of the way through the run.
const CUT_NS: u64 = HORIZON_NS / 3;

fn topo() -> Hierarchy {
    Hierarchy::balanced(4, &[2, 2]).unwrap()
}

/// Deterministic per-leaf streams with planted deviations — pure in
/// `(node, seq)`, hence trivially resumable.
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

fn d3_backend() -> D3Backend {
    D3Backend(D3Config {
        estimator: estimator(),
        rule: DistanceOutlierConfig::new(8.0, 0.02),
        sample_fraction: 0.5,
    })
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

/// A fault plan with *probabilistic* loss and a mid-run crash, plus a
/// jittered retry policy: the run burns through every per-node RNG
/// stream (loss, fault, retry), so a checkpoint that failed to persist
/// stream positions could not pass these tests.
fn random_faults(topo: &Hierarchy) -> (FaultPlan, SimConfig) {
    let plan = FaultPlan::none()
        .with_seed(424_242)
        .burst(HORIZON_NS / 5, HORIZON_NS / 2, 0.2)
        .crash(topo.leaves()[0], HORIZON_NS / 3, Some(2 * HORIZON_NS / 3));
    let sim = SimConfig::default()
        .with_drop_probability(0.05)
        .with_reliability(RetryPolicy {
            jitter_ns: 2_000_000,
            ..RetryPolicy::default()
        });
    (plan, sim)
}

fn d3_net(sim: SimConfig, plan: FaultPlan) -> Network<D3Payload, D3Node> {
    build_backend_network(&d3_backend(), topo(), sim, plan).unwrap()
}

fn mgdd_net(sim: SimConfig, plan: FaultPlan) -> Network<MgddPayload, MgddNode> {
    let backend = MgddBackend {
        cfg: mgdd_config(),
        broadcast_levels: vec![],
    };
    build_backend_network(&backend, topo(), sim, plan).unwrap()
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
fn d3_faultless_resume_is_bit_identical() {
    let sim = SimConfig::default();
    let mut uninterrupted = d3_net(sim, FaultPlan::none());
    uninterrupted.run(&mut source, READINGS);

    let mut first = d3_net(sim, FaultPlan::none());
    first.run_until(&mut source, READINGS, CUT_NS);
    let snapshot = first.checkpoint();

    // A fresh process: build the same network, restore, run to the end.
    let mut resumed = d3_net(sim, FaultPlan::none());
    resumed.restore(&snapshot).unwrap();
    resumed.run_until(&mut source, READINGS, u64::MAX);

    assert_stats_identical(uninterrupted.stats(), resumed.stats());
    assert_eq!(
        detections::<D3Backend>(&uninterrupted),
        detections::<D3Backend>(&resumed)
    );
}

#[test]
fn d3_resume_under_random_faults_is_bit_identical() {
    let (plan, sim) = random_faults(&topo());
    let mut uninterrupted = d3_net(sim, plan.clone());
    uninterrupted.run(&mut source, READINGS);
    assert!(
        uninterrupted.stats().dropped > 0 && uninterrupted.stats().retransmissions > 0,
        "the fault plan never bit — this test would prove nothing"
    );

    let mut first = d3_net(sim, plan.clone());
    first.run_until(&mut source, READINGS, CUT_NS);
    let snapshot = first.checkpoint();

    let mut resumed = d3_net(sim, plan);
    resumed.restore(&snapshot).unwrap();
    resumed.run_until(&mut source, READINGS, u64::MAX);

    assert_stats_identical(uninterrupted.stats(), resumed.stats());
    assert_eq!(
        detections::<D3Backend>(&uninterrupted),
        detections::<D3Backend>(&resumed)
    );
}

#[test]
fn d3_checkpoint_is_deterministic_and_restartable_midway() {
    // checkpoint(k) → resume → checkpoint(k') must equal the bytes an
    // uninterrupted run writes at k': the snapshot itself is part of
    // the reproducible trace.
    let (plan, sim) = random_faults(&topo());
    let cut2 = 2 * HORIZON_NS / 3;

    let mut straight = d3_net(sim, plan.clone());
    straight.run_until(&mut source, READINGS, cut2);
    let golden = straight.checkpoint();

    let mut first = d3_net(sim, plan.clone());
    first.run_until(&mut source, READINGS, CUT_NS);
    let early = first.checkpoint();

    let mut resumed = d3_net(sim, plan);
    resumed.restore(&early).unwrap();
    resumed.run_until(&mut source, READINGS, cut2);
    assert_eq!(
        golden,
        resumed.checkpoint(),
        "a resumed run checkpoints differently from an uninterrupted one"
    );
}

#[test]
fn d3_checkpoint_restores_across_engine_parallelism() {
    // worker_threads is deliberately outside the compatibility
    // fingerprint: the engines are bit-identical, so a snapshot from a
    // sequential run must resume on the parallel engine (and agree).
    let mut first = d3_net(SimConfig::default(), FaultPlan::none());
    first.run_until(&mut source, READINGS, CUT_NS);
    let snapshot = first.checkpoint();

    let mut uninterrupted = d3_net(SimConfig::default(), FaultPlan::none());
    uninterrupted.run(&mut source, READINGS);

    let parallel_sim = SimConfig {
        worker_threads: 4,
        ..SimConfig::default()
    };
    let mut resumed = d3_net(parallel_sim, FaultPlan::none());
    resumed.restore(&snapshot).unwrap();
    resumed.run_until(&mut source, READINGS, u64::MAX);

    assert_stats_identical(uninterrupted.stats(), resumed.stats());
    assert_eq!(
        detections::<D3Backend>(&uninterrupted),
        detections::<D3Backend>(&resumed)
    );
}

#[test]
fn d3_file_round_trip_is_atomic_and_bit_identical() {
    let dir = std::env::temp_dir().join("snod_ckpt_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("d3.snodckpt");

    let mut uninterrupted = d3_net(SimConfig::default(), FaultPlan::none());
    uninterrupted.run(&mut source, READINGS);

    let mut first = d3_net(SimConfig::default(), FaultPlan::none());
    first.run_until(&mut source, READINGS, CUT_NS);
    first.checkpoint_to_file(&path).unwrap();

    // Atomic write: the finished file exists, its temp sibling does not.
    assert!(path.exists());
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp file leaked: {leftovers:?}");

    let mut resumed = d3_net(SimConfig::default(), FaultPlan::none());
    resumed.restore_from_file(&path).unwrap();
    resumed.run_until(&mut source, READINGS, u64::MAX);

    assert_stats_identical(uninterrupted.stats(), resumed.stats());
    assert_eq!(
        detections::<D3Backend>(&uninterrupted),
        detections::<D3Backend>(&resumed)
    );
    std::fs::remove_file(&path).ok();
}

// -------------------------------------------------------------- MGDD --

#[test]
fn mgdd_faultless_resume_is_bit_identical() {
    let sim = SimConfig::default();
    let mut uninterrupted = mgdd_net(sim, FaultPlan::none());
    uninterrupted.run(&mut source, READINGS);

    let mut first = mgdd_net(sim, FaultPlan::none());
    first.run_until(&mut source, READINGS, CUT_NS);
    let snapshot = first.checkpoint();

    let mut resumed = mgdd_net(sim, FaultPlan::none());
    resumed.restore(&snapshot).unwrap();
    resumed.run_until(&mut source, READINGS, u64::MAX);

    assert_stats_identical(uninterrupted.stats(), resumed.stats());
    assert_eq!(
        detections::<MgddBackend>(&uninterrupted),
        detections::<MgddBackend>(&resumed)
    );
}

#[test]
fn mgdd_resume_under_random_faults_is_bit_identical() {
    let (plan, sim) = random_faults(&topo());
    let mut uninterrupted = mgdd_net(sim, plan.clone());
    uninterrupted.run(&mut source, READINGS);
    assert!(
        uninterrupted.stats().dropped > 0,
        "the fault plan never bit — this test would prove nothing"
    );

    let mut first = mgdd_net(sim, plan.clone());
    first.run_until(&mut source, READINGS, CUT_NS);
    let snapshot = first.checkpoint();

    let mut resumed = mgdd_net(sim, plan);
    resumed.restore(&snapshot).unwrap();
    resumed.run_until(&mut source, READINGS, u64::MAX);

    assert_stats_identical(uninterrupted.stats(), resumed.stats());
    assert_eq!(
        detections::<MgddBackend>(&uninterrupted),
        detections::<MgddBackend>(&resumed)
    );
}

#[test]
fn mgdd_resume_with_warm_restart_policy_is_bit_identical() {
    // The warm-restart machinery (per-node app snapshots, recovery
    // deadlines) is itself part of the checkpoint; crossing a crash
    // window with a mid-run snapshot exercises all of it.
    let t = topo();
    let plan = FaultPlan::none().crash(t.root(), HORIZON_NS / 4, Some(HORIZON_NS / 2));
    let sim = SimConfig::default();
    let policy = RestartPolicy::Warm {
        checkpoint_every_ns: 20_000_000_000,
    };

    let mut uninterrupted = mgdd_net(sim, plan.clone()).with_restart_policy(policy);
    uninterrupted.run(&mut source, READINGS);
    assert!(
        uninterrupted.stats().warm_restarts > 0,
        "the crash never triggered a warm restart"
    );

    let mut first = mgdd_net(sim, plan.clone()).with_restart_policy(policy);
    first.run_until(&mut source, READINGS, CUT_NS);
    let snapshot = first.checkpoint();

    let mut resumed = mgdd_net(sim, plan).with_restart_policy(policy);
    resumed.restore(&snapshot).unwrap();
    resumed.run_until(&mut source, READINGS, u64::MAX);

    assert_stats_identical(uninterrupted.stats(), resumed.stats());
    assert_eq!(
        detections::<MgddBackend>(&uninterrupted),
        detections::<MgddBackend>(&resumed)
    );
}

// ----------------------------------------------------- compatibility --

#[test]
fn restore_rejects_a_checkpoint_from_a_different_world() {
    let mut first = d3_net(SimConfig::default(), FaultPlan::none());
    first.run_until(&mut source, READINGS, CUT_NS);
    let snapshot = first.checkpoint();

    // Different topology.
    let other_topo = Hierarchy::balanced(8, &[2, 2, 2]).unwrap();
    let mut other = build_backend_network(
        &d3_backend(),
        other_topo,
        SimConfig::default(),
        FaultPlan::none(),
    )
    .unwrap();
    assert!(matches!(
        other.restore(&snapshot),
        Err(PersistError::Corrupt(_))
    ));

    // Different fault plan.
    let (plan, _) = random_faults(&topo());
    let mut other = d3_net(SimConfig::default(), plan);
    assert!(matches!(
        other.restore(&snapshot),
        Err(PersistError::Corrupt(_))
    ));

    // Different sim config (loss probability participates in the trace).
    let mut other = d3_net(
        SimConfig::default().with_drop_probability(0.5),
        FaultPlan::none(),
    );
    assert!(matches!(
        other.restore(&snapshot),
        Err(PersistError::Corrupt(_))
    ));

    // A failed restore leaves the target untouched and runnable.
    let mut pristine = d3_net(SimConfig::default(), FaultPlan::none());
    let mut reference = d3_net(SimConfig::default(), FaultPlan::none());
    let other_topo = Hierarchy::balanced(8, &[2, 2, 2]).unwrap();
    let mut alien = build_backend_network(
        &d3_backend(),
        other_topo,
        SimConfig::default(),
        FaultPlan::none(),
    )
    .unwrap();
    alien.run_until(&mut source, READINGS, CUT_NS);
    assert!(pristine.restore(&alien.checkpoint()).is_err());
    pristine.run(&mut source, READINGS);
    reference.run(&mut source, READINGS);
    assert_stats_identical(reference.stats(), pristine.stats());
}
