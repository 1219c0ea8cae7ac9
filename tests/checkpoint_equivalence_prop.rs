//! Property: for every detector backend, ingesting to a cut point,
//! checkpointing, restoring into a fresh instance and ingesting the rest
//! is indistinguishable from never stopping.
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
//! and the worker-parity matrix). "Both drivers" in the test names are
//! the two callback phases of the one `Network` loop: every property
//! resumes once with callbacks inline and once on a four-thread pool,
//! and both must land on the inline uninterrupted run's bytes. One more
//! case runs the pool on synchronous readings, so batches hold many
//! nodes.

use proptest::prelude::*;

use sensor_outliers::core::{
    build_backend_network, D3Backend, D3Config, EstimatorConfig, MgddBackend, MgddConfig,
    MonitorConfig, MonitorNode, UpdateStrategy,
};
use sensor_outliers::outlier::{DistanceOutlierConfig, MdefConfig};
use sensor_outliers::simnet::{FaultPlan, Hierarchy, Network, NodeId, SimConfig};

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

/// The property for one network: run to `cut_ns`, snapshot, restore
/// into a fresh build, finish — the final snapshot must equal the
/// uninterrupted inline run's, byte for byte. `$make` builds a network
/// under a given `SimConfig`; the split run goes once inline and once on
/// a four-thread callback pool.
macro_rules! split_equals_straight {
    ($make:expr, $salt:expr, $cut:expr) => {{
        let make = $make;
        let mut src = source_with($salt);
        let mut straight = make(SimConfig::default());
        straight.run(&mut src, READINGS);
        let expect = straight.checkpoint();

        for workers in [1, 4] {
            let cfg = SimConfig::default().with_worker_threads(workers);
            let mut first = make(cfg);
            first.run_until(&mut src, READINGS, $cut);
            let snap = first.checkpoint();
            let mut resumed = make(cfg);
            resumed.restore(&snap).expect("snapshot restores");
            resumed.run_until(&mut src, READINGS, u64::MAX);
            prop_assert_eq!(
                &expect,
                &resumed.checkpoint(),
                "resume diverged (salt {}, cut {}, {} workers)",
                $salt,
                $cut,
                workers
            );
        }
    }};
}

fn monitor_net(
    plan: &FaultPlan,
    sim: SimConfig,
) -> Network<sensor_outliers::core::ModelReport, MonitorNode> {
    let cfg = monitor_config();
    Network::new(topo(), sim, |node, topo| MonitorNode::new(node, topo, &cfg))
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
        split_equals_straight!(
            |sim| build_backend_network(&d3_backend(), topo(), sim, plan.clone()).unwrap(),
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
        split_equals_straight!(
            |sim| build_backend_network(&mgdd_backend(), topo(), sim, plan.clone()).unwrap(),
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
        split_equals_straight!(|sim| monitor_net(&plan, sim), salt, cut);
    }

    #[test]
    fn pooled_network_resumes_onto_the_inline_bytes(
        salt in 0u64..1_000,
        cut_frac in 0.15f64..0.85,
        faulted in 0u32..2,
    ) {
        // A four-thread pool on synchronous readings (so batches hold
        // many nodes), cut and restored mid-run, lands on the inline
        // run's bytes.
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

        let mut first =
            build_backend_network(&mgdd_backend(), topo(), pooled, plan.clone()).unwrap();
        first.run_until(&mut src, READINGS, cut);
        let snap = first.checkpoint();
        let mut resumed =
            build_backend_network(&mgdd_backend(), topo(), pooled, plan.clone()).unwrap();
        resumed.restore(&snap).expect("snapshot restores");
        resumed.run_until(&mut src, READINGS, u64::MAX);
        prop_assert_eq!(
            expect,
            resumed.checkpoint(),
            "pooled resume diverged (salt {}, cut {})",
            salt,
            cut
        );
    }
}
