//! Property: for every detector backend and *both* drivers, ingesting
//! to a cut point, checkpointing, restoring into a fresh instance and
//! ingesting the rest is indistinguishable from never stopping.
//!
//! "Indistinguishable" is checked at the strongest level available: the
//! final checkpoint bytes, which serialize every application model,
//! every RNG stream position, the pending/dedup protocol tables and the
//! full `NetStats` block. If any state escaped persistence, the resumed
//! run's final snapshot would differ.
//!
//! The cut instant, the workload salt and the fault schedule are all
//! drawn by proptest — the invariant must hold for *any* of them, not
//! just curated cut points. Backends: D3, MGDD and the model monitor
//! (the centralized baseline's resume is pinned by the CLI round trip
//! and the driver-parity matrix). Drivers: the deterministic simulator and
//! the live runtime; one extra case restores a *simulator* snapshot
//! into a *live* runtime mid-run, which only works because the two
//! produce byte-interchangeable checkpoints, and one runs the live
//! runtime on a four-thread worker pool.

use proptest::prelude::*;

use sensor_outliers::core::{
    build_backend_live, build_backend_network, D3Backend, D3Config, EstimatorConfig, MgddBackend,
    MgddConfig, MonitorConfig, MonitorNode, UpdateStrategy,
};
use sensor_outliers::outlier::{DistanceOutlierConfig, MdefConfig};
use sensor_outliers::simnet::{FaultPlan, Hierarchy, LiveRuntime, Network, NodeId, SimConfig};

const READINGS: u64 = 360;
const HORIZON_NS: u64 = READINGS * 1_000_000_000;
const NODES: u32 = 7; // 4 leaves under [2, 2]

fn topo() -> Hierarchy {
    Hierarchy::balanced(4, &[2, 2]).unwrap()
}

/// Pure in `(salt, node, seq)`, hence trivially resumable: the fresh
/// process re-derives exactly the readings the original saw.
fn source_with(salt: u64) -> impl FnMut(NodeId, u64) -> Option<Vec<f64>> {
    move |node: NodeId, seq: u64| {
        let h = node.0 as u64 * 1_000_003 + seq * 7_919 + salt * 104_729;
        if seq % 157 == salt % 97 {
            Some(vec![0.9])
        } else {
            Some(vec![0.3 + 0.2 * ((h % 1_009) as f64 / 1_009.0)])
        }
    }
}

fn estimator() -> EstimatorConfig {
    EstimatorConfig::builder()
        .window(200)
        .sample_size(40)
        .seed(17)
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

fn mgdd_backend() -> MgddBackend {
    MgddBackend {
        cfg: MgddConfig {
            estimator: estimator(),
            rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
            sample_fraction: 0.75,
            updates: UpdateStrategy::EveryAcceptance,
            staleness_bound_ns: Some(30_000_000_000),
        },
        broadcast_levels: vec![],
    }
}

fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        estimator: estimator(),
        report_every: 60,
        threshold: 0.35,
        grid_k: 24,
        staleness_bound_ns: None,
    }
}

/// An arbitrary-but-reproducible fault schedule (or none at all): one
/// loss burst and one crash, parameters drawn from the salt.
fn plan_from(faulted: bool, salt: u64) -> FaultPlan {
    if !faulted {
        return FaultPlan::none();
    }
    let burst_from = (salt * 37) % (HORIZON_NS / 2);
    let crash_from = (salt * 53) % (HORIZON_NS / 2) + HORIZON_NS / 8;
    FaultPlan::none()
        .with_seed(salt.wrapping_mul(0x9E37_79B9))
        .burst(burst_from, burst_from + HORIZON_NS / 4, 0.15)
        .crash(
            NodeId((salt % NODES as u64) as u32),
            crash_from,
            Some(crash_from + HORIZON_NS / 4),
        )
}

/// The property for one simulator-driven network: run to `cut_ns`,
/// snapshot, restore into a fresh build, finish — the final snapshot
/// must equal the uninterrupted run's, byte for byte.
macro_rules! sim_split_equals_straight {
    ($make:expr, $salt:expr, $cut:expr) => {{
        let mut src = source_with($salt);
        let mut straight = $make;
        straight.run(&mut src, READINGS);
        let expect = straight.checkpoint();

        let mut first = $make;
        first.run_until(&mut src, READINGS, $cut);
        let snap = first.checkpoint();
        let mut resumed = $make;
        resumed.restore(&snap).expect("snapshot restores");
        resumed.run_until(&mut src, READINGS, u64::MAX);
        prop_assert_eq!(
            expect,
            resumed.checkpoint(),
            "simulator resume diverged (salt {}, cut {})",
            $salt,
            $cut
        );
    }};
}

/// The same property under the live runtime, sliced with `run_slice`.
macro_rules! live_split_equals_straight {
    ($make:expr, $salt:expr, $cut:expr) => {{
        let mut src = source_with($salt);
        let mut straight = $make;
        straight.run(&mut src, READINGS);
        let expect = straight.checkpoint();

        let mut first = $make;
        first.run_slice(&mut src, READINGS, $cut);
        let snap = first.checkpoint();
        let mut resumed = $make;
        resumed.restore(&snap).expect("snapshot restores");
        resumed.run_slice(&mut src, READINGS, u64::MAX);
        prop_assert_eq!(
            expect,
            resumed.checkpoint(),
            "live resume diverged (salt {}, cut {})",
            $salt,
            $cut
        );
    }};
}

fn monitor_net(plan: &FaultPlan) -> Network<sensor_outliers::core::ModelReport, MonitorNode> {
    let cfg = monitor_config();
    Network::new(topo(), SimConfig::default(), |node, topo| {
        MonitorNode::new(node, topo, &cfg)
    })
    .with_fault_plan(plan.clone())
}

fn monitor_live(plan: &FaultPlan) -> LiveRuntime<sensor_outliers::core::ModelReport, MonitorNode> {
    let cfg = monitor_config();
    LiveRuntime::new(topo(), SimConfig::default(), |node, topo| {
        MonitorNode::new(node, topo, &cfg)
    })
    .with_fault_plan(plan.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn d3_resume_equals_uninterrupted_under_both_drivers(
        salt in 0u64..1_000,
        cut_frac in 0.15f64..0.85,
        faulted in 0u32..2,
    ) {
        let cut = (HORIZON_NS as f64 * cut_frac) as u64;
        let plan = plan_from(faulted == 1, salt);
        sim_split_equals_straight!(
            build_backend_network(&d3_backend(), topo(), SimConfig::default(), plan.clone()).unwrap(),
            salt,
            cut
        );
        live_split_equals_straight!(
            build_backend_live(&d3_backend(), topo(), SimConfig::default(), plan.clone()).unwrap(),
            salt,
            cut
        );
    }

    #[test]
    fn mgdd_resume_equals_uninterrupted_under_both_drivers(
        salt in 0u64..1_000,
        cut_frac in 0.15f64..0.85,
        faulted in 0u32..2,
    ) {
        let cut = (HORIZON_NS as f64 * cut_frac) as u64;
        let plan = plan_from(faulted == 1, salt);
        sim_split_equals_straight!(
            build_backend_network(&mgdd_backend(), topo(), SimConfig::default(), plan.clone()).unwrap(),
            salt,
            cut
        );
        live_split_equals_straight!(
            build_backend_live(&mgdd_backend(), topo(), SimConfig::default(), plan.clone()).unwrap(),
            salt,
            cut
        );
    }

    #[test]
    fn monitor_resume_equals_uninterrupted_under_both_drivers(
        salt in 0u64..1_000,
        cut_frac in 0.15f64..0.85,
        faulted in 0u32..2,
    ) {
        let cut = (HORIZON_NS as f64 * cut_frac) as u64;
        let plan = plan_from(faulted == 1, salt);
        sim_split_equals_straight!(monitor_net(&plan), salt, cut);
        live_split_equals_straight!(monitor_live(&plan), salt, cut);
    }

    #[test]
    fn sim_snapshot_resumes_inside_a_live_runtime(
        salt in 0u64..1_000,
        cut_frac in 0.15f64..0.85,
        faulted in 0u32..2,
    ) {
        // Cross-driver restore: the snapshot comes from the simulator,
        // the remainder of the run happens under the live runtime — and
        // still lands on the uninterrupted simulator run's bytes.
        let cut = (HORIZON_NS as f64 * cut_frac) as u64;
        let plan = plan_from(faulted == 1, salt);
        let mut src = source_with(salt);

        let mut straight =
            build_backend_network(&d3_backend(), topo(), SimConfig::default(), plan.clone()).unwrap();
        straight.run(&mut src, READINGS);
        let expect = straight.checkpoint();

        let mut first =
            build_backend_network(&d3_backend(), topo(), SimConfig::default(), plan.clone()).unwrap();
        first.run_until(&mut src, READINGS, cut);
        let snap = first.checkpoint();

        let mut live =
            build_backend_live(&d3_backend(), topo(), SimConfig::default(), plan.clone()).unwrap();
        live.restore(&snap).expect("a simulator snapshot restores into a live runtime");
        live.run_slice(&mut src, READINGS, u64::MAX);
        prop_assert_eq!(
            expect,
            live.checkpoint(),
            "cross-driver resume diverged (salt {}, cut {})",
            salt,
            cut
        );
    }

    #[test]
    fn pooled_live_runtime_resumes_onto_the_inline_simulator_bytes(
        salt in 0u64..1_000,
        cut_frac in 0.15f64..0.85,
        faulted in 0u32..2,
    ) {
        // The live runtime honours `worker_threads`: a four-thread pool
        // on synchronous readings (so batches hold many nodes), cut and
        // restored mid-run, lands on the inline simulator's bytes.
        let cut = (HORIZON_NS as f64 * cut_frac) as u64;
        let plan = plan_from(faulted == 1, salt);
        let inline = SimConfig {
            stagger_readings: false,
            ..SimConfig::default()
        };
        let pooled = inline.with_worker_threads(4);
        let mut src = source_with(salt);

        let mut straight =
            build_backend_network(&mgdd_backend(), topo(), inline, plan.clone()).unwrap();
        straight.run(&mut src, READINGS);
        let expect = straight.checkpoint();

        let mut first = build_backend_live(&mgdd_backend(), topo(), pooled, plan.clone()).unwrap();
        first.run_slice(&mut src, READINGS, cut);
        let snap = first.checkpoint();
        let mut resumed = build_backend_live(&mgdd_backend(), topo(), pooled, plan.clone()).unwrap();
        resumed.restore(&snap).expect("snapshot restores");
        resumed.run_slice(&mut src, READINGS, u64::MAX);
        prop_assert_eq!(
            expect,
            resumed.checkpoint(),
            "pooled live resume diverged (salt {}, cut {})",
            salt,
            cut
        );
    }
}
