//! The fault matrix: both paper algorithms × 3 seeds × 3 fault levels.
//!
//! This is the suite CI's fault-matrix job runs in release mode. Each
//! cell replays a seeded workload under one rung of the severity ladder
//! and checks the structural invariants that hold at *every* severity —
//! soundness (Theorem 3 containment for D3), accounting consistency,
//! and graceful degradation (MGDD leaves keep detecting even when the
//! network is gone). Assertions are structural rather than count-exact,
//! so the matrix is stable across `rand` versions and platforms.

use sensor_outliers::core::{
    build_backend_network, run_backend_with_faults, D3Backend, D3Config, DetectorBackend,
    EstimatorConfig, FqnBackend, FqnConfig, MgddBackend, MgddConfig, MmdewBackend, MmdewNodeConfig,
    UpdateStrategy,
};
use sensor_outliers::outlier::{DistanceOutlierConfig, MdefConfig};
use sensor_outliers::simnet::{
    FaultPlan, Hierarchy, LinkFault, NetStats, NodeId, RestartPolicy, RetryPolicy, SimConfig,
};

const READINGS: u64 = 700;
const HORIZON_NS: u64 = READINGS * 1_000_000_000;
const SEEDS: [u64; 3] = [11, 42, 1_337];

fn topo() -> Hierarchy {
    Hierarchy::balanced(4, &[2, 2]).unwrap()
}

/// The three rungs of the severity ladder for one matrix row.
fn fault_levels(topo: &Hierarchy, seed: u64) -> Vec<(&'static str, FaultPlan)> {
    let victim = topo.leaves()[(seed % topo.leaves().len() as u64) as usize];
    vec![
        ("none", FaultPlan::none()),
        (
            "moderate",
            FaultPlan::none()
                .with_seed(seed)
                .burst(HORIZON_NS / 4, HORIZON_NS / 2, 0.3)
                .link(LinkFault::delay_all(2_000_000, 500_000)),
        ),
        (
            "severe",
            FaultPlan::none()
                .with_seed(seed)
                .burst(HORIZON_NS / 8, HORIZON_NS, 0.8)
                .crash(victim, HORIZON_NS / 3, Some(2 * HORIZON_NS / 3))
                .link(LinkFault::delay_all(5_000_000, 1_000_000).duplicate(0.1)),
        ),
    ]
}

fn source_for(seed: u64) -> impl FnMut(NodeId, u64) -> Option<Vec<f64>> {
    move |node: NodeId, seq: u64| {
        let h = (node.0 as u64 * 1_000_003) ^ seq.wrapping_mul(7_919 + seed);
        if seq % 149 == 60 {
            Some(vec![0.92])
        } else {
            Some(vec![0.3 + 0.2 * ((h % 1_009) as f64 / 1_009.0)])
        }
    }
}

fn estimator(seed: u64) -> EstimatorConfig {
    EstimatorConfig::builder()
        .window(250)
        .sample_size(40)
        .seed(seed)
        .build()
        .unwrap()
}

/// Counters can never contradict each other, whatever the plan did.
fn assert_accounting_consistent(label: &str, stats: &NetStats) {
    assert!(
        stats.dropped <= stats.messages + stats.acks,
        "{label}: more frames dropped than aired"
    );
    assert!(
        stats.retransmissions <= stats.messages,
        "{label}: retransmissions exceed total messages"
    );
    assert_eq!(
        stats.messages,
        stats.messages_per_node.iter().sum::<u64>(),
        "{label}: per-node message accounting drifted"
    );
    assert!(
        stats.tx_joules >= 0.0 && stats.rx_joules >= 0.0,
        "{label}: negative energy"
    );
}

/// One containment-engine row of the matrix: whatever the plan did, the
/// counters stay consistent, leader detections only ever echo
/// leaf-flagged values (Theorem 3 — parents re-check escalations but
/// never admit them), and leaves keep flagging the planted deviations.
fn containment_matrix_stays_sound<B: DetectorBackend>(recipe: impl Fn(u64) -> B) {
    for seed in SEEDS {
        let topo = topo();
        for (label, plan) in fault_levels(&topo, seed) {
            let backend = recipe(seed);
            let sim = SimConfig::default().with_reliability(RetryPolicy::default());
            let mut src = source_for(seed);
            let net =
                run_backend_with_faults(&backend, topo.clone(), sim, plan, &mut src, READINGS)
                    .expect("valid config");
            let cell = format!("{}/seed {seed}/{label}", backend.kind());
            assert_accounting_consistent(&cell, net.stats());

            let leaf_keys: std::collections::HashSet<Vec<u64>> = net
                .apps()
                .flat_map(|(_, app)| B::detections(app))
                .filter(|d| d.level == 1)
                .map(|d| d.value.iter().map(|v| v.to_bits()).collect())
                .collect();
            for (_, app) in net.apps() {
                for d in B::detections(app).iter().filter(|d| d.level > 1) {
                    let key: Vec<u64> = d.value.iter().map(|v| v.to_bits()).collect();
                    assert!(leaf_keys.contains(&key), "{cell}: unsound escalation");
                }
            }

            // The workload plants deviations every 149 readings; leaves
            // must flag some of them regardless of network state.
            let leaf_detections: usize = topo
                .leaves()
                .iter()
                .map(|&l| B::detections(net.app(l)).len())
                .sum();
            assert!(leaf_detections > 0, "{cell}: leaves went blind");
        }
    }
}

#[test]
fn d3_matrix_stays_sound_at_every_cell() {
    containment_matrix_stays_sound(|seed| {
        D3Backend(D3Config {
            estimator: estimator(seed),
            rule: DistanceOutlierConfig::new(8.0, 0.02),
            sample_fraction: 0.5,
        })
    });
}

/// The FQN row: the robust-scale rule inside the same engine.
#[test]
fn fqn_matrix_stays_sound_at_every_cell() {
    containment_matrix_stays_sound(|seed| {
        FqnBackend(FqnConfig {
            dimensions: 1,
            window: 128,
            k_scale: 4.0,
            warmup: 32,
            sample_fraction: 0.5,
            seed,
        })
    });
}

/// A piecewise-stationary workload for the MMDEW row: every leaf's mean
/// jumps between 0.2 and 0.8 every 250 readings.
fn shifting_source_for(seed: u64) -> impl FnMut(NodeId, u64) -> Option<Vec<f64>> {
    move |node: NodeId, seq: u64| {
        let h = (node.0 as u64 * 1_000_003) ^ seq.wrapping_mul(7_919 + seed);
        let base = if (seq / 250).is_multiple_of(2) {
            0.2
        } else {
            0.8
        };
        Some(vec![base + 0.02 * ((h % 1_009) as f64 / 1_009.0)])
    }
}

/// The MMDEW row: change alarms are local verdicts (a parent tallies
/// child alarms but never re-checks them), so the structural claims are
/// accounting consistency, leaves still alarming on the planted shifts
/// at every severity, and the tally never exceeding what was escalated.
#[test]
fn mmdew_matrix_keeps_alarming_at_every_cell() {
    for seed in SEEDS {
        let topo = topo();
        for (label, plan) in fault_levels(&topo, seed) {
            let mut cfg = MmdewNodeConfig::default();
            cfg.detector.seed = seed;
            let sim = SimConfig::default().with_reliability(RetryPolicy::default());
            let mut src = shifting_source_for(seed);
            let backend = MmdewBackend(cfg);
            let net =
                run_backend_with_faults(&backend, topo.clone(), sim, plan, &mut src, READINGS)
                    .expect("valid config");
            let cell = format!("mmdew/seed {seed}/{label}");
            assert_accounting_consistent(&cell, net.stats());

            // Leaves observe their own stream, so the planted shifts
            // must keep raising alarms whatever the network is doing.
            let leaf_detections: usize = topo
                .leaves()
                .iter()
                .map(|&l| net.app(l).detections.len())
                .sum();
            assert!(
                leaf_detections > 0,
                "{cell}: leaves went blind to the shift"
            );

            // Every tallied child alarm corresponds to a detection some
            // non-root node escalated — the tally can lag (frames still
            // in flight, crashed parents) but never run ahead.
            let escalated: u64 = net
                .apps()
                .filter(|(n, _)| topo.parent(*n).is_some())
                .map(|(_, app)| app.detections.len() as u64)
                .sum();
            let tallied: u64 = net.apps().map(|(_, app)| app.child_alarms()).sum();
            assert!(
                tallied <= escalated,
                "{cell}: {tallied} alarms tallied but only {escalated} escalated"
            );
        }
    }
}

/// The warm-restart row: a crashed-and-revived leaf that reloads its
/// last per-node checkpoint (RestartPolicy::Warm) comes back with its
/// global-model replicas intact — stale at worst, so it keeps scoring
/// through the degraded rung of the ladder. A cold restart comes back
/// with empty replicas and an empty estimator and must re-live the
/// orphan rung: blind until the estimator refills, then local fallback
/// until the next broadcast re-warms its replicas. Same workload, same
/// crash, only the restart policy differs.
#[test]
fn mgdd_warm_restart_skips_the_staleness_window_cold_restarts_incur() {
    let topo = topo();
    let seed = SEEDS[1];
    let backend = MgddBackend {
        cfg: MgddConfig {
            estimator: estimator(seed),
            rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
            sample_fraction: 0.75,
            updates: UpdateStrategy::EveryAcceptance,
            staleness_bound_ns: Some(20_000_000_000),
        },
        broadcast_levels: vec![],
    };
    // Crash one leaf (a replica holder) for the middle third.
    let victim = topo.leaves()[0];
    let plan =
        FaultPlan::none()
            .with_seed(seed)
            .crash(victim, HORIZON_NS / 3, Some(2 * HORIZON_NS / 3));
    let sim = SimConfig::default().with_reliability(RetryPolicy::default());

    let run = |policy: RestartPolicy| {
        let mut src = source_for(seed);
        let mut net = build_backend_network(&backend, topo.clone(), sim, plan.clone())
            .expect("valid config")
            .with_restart_policy(policy);
        net.run(&mut src, READINGS);
        net
    };

    let cold = run(RestartPolicy::Cold);
    let warm = run(RestartPolicy::Warm {
        checkpoint_every_ns: 10_000_000_000,
    });

    assert_accounting_consistent("mgdd/restart cold", cold.stats());
    assert_accounting_consistent("mgdd/restart warm", warm.stats());
    assert!(
        cold.stats().cold_restarts > 0,
        "the crash never cold-revived"
    );
    assert!(
        warm.stats().warm_restarts > 0,
        "the crash never warm-revived"
    );
    assert_eq!(warm.stats().cold_restarts, 0, "warm run fell back to cold");

    // The structural claim of the row: only the cold-restarted leaf is
    // orphaned (no warm replica at all), so it alone walks the local-
    // fallback rung; the warm-restarted leaf restores its replicas and
    // skips that window entirely, scoring degraded-at-worst instead.
    assert!(
        warm.stats().local_fallbacks < cold.stats().local_fallbacks,
        "warm restart did not skip the orphan window: warm {} vs cold {} local fallbacks",
        warm.stats().local_fallbacks,
        cold.stats().local_fallbacks
    );
    assert!(
        warm.stats().degraded_scores > 0,
        "the warm-restored leaf never engaged its stale replicas"
    );

    // Both policies replay bit-identically — the restart machinery
    // consumes no hidden nondeterminism.
    let warm_again = run(RestartPolicy::Warm {
        checkpoint_every_ns: 10_000_000_000,
    });
    assert_eq!(warm.stats(), warm_again.stats());
}

#[test]
fn mgdd_matrix_degrades_gracefully_at_every_cell() {
    for seed in SEEDS {
        let topo = topo();
        let top = topo.level_count() as u8;
        for (label, plan) in fault_levels(&topo, seed) {
            let backend = MgddBackend {
                cfg: MgddConfig {
                    estimator: estimator(seed),
                    rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
                    sample_fraction: 0.75,
                    updates: UpdateStrategy::EveryAcceptance,
                    staleness_bound_ns: Some(20_000_000_000),
                },
                broadcast_levels: vec![],
            };
            let sim = SimConfig::default().with_reliability(RetryPolicy::default());
            let mut src = source_for(seed);
            let net =
                run_backend_with_faults(&backend, topo.clone(), sim, plan, &mut src, READINGS)
                    .expect("valid config");
            let cell = format!("mgdd/seed {seed}/{label}");
            assert_accounting_consistent(&cell, net.stats());

            // Detections are only ever tagged with a granularity that
            // exists, and leaf-tagged ones only appear when the run
            // actually degraded to local models.
            for (_, app) in net.apps() {
                for d in &app.detections {
                    assert!(
                        (1..=top).contains(&d.level),
                        "{cell}: impossible granularity {}",
                        d.level
                    );
                    if d.level == 1 {
                        assert!(
                            net.stats().local_fallbacks > 0,
                            "{cell}: leaf-tagged detection without any local fallback"
                        );
                    }
                }
            }
        }
    }
}
