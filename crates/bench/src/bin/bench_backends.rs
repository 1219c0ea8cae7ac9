//! Cross-backend snapshot: per-backend simulator throughput plus the
//! accuracy of the two new detectors at fixed operating points, written
//! to `BENCH_backends.json` in the working directory.
//!
//! Throughput rows drive the same 32-leaf hierarchy through every
//! backend recipe (`d3`, `mgdd`, `fqn`, `mmdew`) over an identical
//! seeded workload, so the numbers compare detector cost under one
//! dispatch machinery (BENCH_scale.json owns raw dispatch, BENCH_kde
//! owns KDE math). Accuracy rows report precision/recall against the
//! exact oracles of `snod_bench::accuracy`: labeled contamination for
//! FQN, planted change points for MMDEW.
//!
//! `SNOD_BENCH_SMOKE=1` shrinks the workloads to CI speed while
//! emitting the same schema.

use std::time::Instant;

use snod_bench::accuracy::{
    fqn_accuracy_sweep, mmdew_accuracy_sweep, FqnAccuracyConfig, MmdewAccuracyConfig,
};
use snod_core::{
    run_backend_with_faults, BackendKind, D3Backend, D3Config, DetectorBackend, EstimatorConfig,
    FqnBackend, FqnConfig, MgddBackend, MgddConfig, MmdewBackend, MmdewNodeConfig, UpdateStrategy,
};
use snod_outlier::{DistanceOutlierConfig, MdefConfig};
use snod_simnet::{FaultPlan, Hierarchy, NodeId, SimConfig};

struct ThroughputRow {
    backend: &'static str,
    leaves: usize,
    readings_per_leaf: u64,
    readings_per_sec: f64,
    detections: u64,
    bytes_per_node: f64,
}

struct AccuracyRow {
    backend: &'static str,
    parameter_name: &'static str,
    parameter: f64,
    precision: f64,
    recall: f64,
}

fn source(node: NodeId, seq: u64) -> Option<Vec<f64>> {
    let h = (node.0 as u64 * 1_000_003) ^ seq.wrapping_mul(7_919);
    if seq % 149 == 60 {
        Some(vec![0.92])
    } else {
        Some(vec![0.3 + 0.2 * ((h % 1_009) as f64 / 1_009.0)])
    }
}

fn measure<B: DetectorBackend>(
    backend: &B,
    leaves: usize,
    readings: u64,
) -> ThroughputRow {
    let topo = Hierarchy::balanced(leaves, &[4, 2, 4]).expect("bench topology");
    let nodes = topo.node_count();
    let mut src = source;
    let t0 = Instant::now();
    let net = run_backend_with_faults(
        backend,
        topo,
        SimConfig::default(),
        FaultPlan::none(),
        &mut src,
        readings,
    )
    .expect("bench recipe is valid");
    let run_s = t0.elapsed().as_secs_f64();
    let detections: u64 = net.apps().map(|(_, a)| B::detections(a).len() as u64).sum();
    ThroughputRow {
        backend: backend.kind().as_str(),
        leaves,
        readings_per_leaf: readings,
        readings_per_sec: leaves as f64 * readings as f64 / run_s,
        detections,
        bytes_per_node: net.stats().bytes as f64 / nodes as f64,
    }
}

fn main() {
    let smoke = std::env::var("SNOD_BENCH_SMOKE").is_ok();
    let leaves = 32usize;
    let readings: u64 = if smoke { 400 } else { 4_000 };
    let window = if smoke { 128 } else { 512 };

    let estimator = EstimatorConfig::builder()
        .window(window)
        .sample_size(window / 8)
        .seed(21)
        .build()
        .expect("bench estimator");
    let d3 = D3Backend(D3Config {
        estimator,
        rule: DistanceOutlierConfig::new(8.0, 0.02),
        sample_fraction: 0.5,
    });
    let mgdd = MgddBackend {
        cfg: MgddConfig {
            estimator,
            rule: MdefConfig::new(0.08, 0.01, 3.0).expect("bench mdef rule"),
            sample_fraction: 0.5,
            updates: UpdateStrategy::EveryAcceptance,
            staleness_bound_ns: None,
        },
        broadcast_levels: vec![4],
    };
    let fqn = FqnBackend(FqnConfig {
        dimensions: 1,
        window,
        k_scale: 4.0,
        warmup: 32,
        sample_fraction: 0.5,
        seed: 21,
    });
    let mut mmdew_cfg = MmdewNodeConfig::default();
    mmdew_cfg.detector.seed = 21;
    let mmdew = MmdewBackend(mmdew_cfg);

    let throughput = vec![
        measure(&d3, leaves, readings),
        measure(&mgdd, leaves, readings),
        measure(&fqn, leaves, readings),
        measure(&mmdew, leaves, readings),
    ];
    for r in &throughput {
        eprintln!(
            "{}: {:.0} readings/s over {} leaves × {} readings, {} detections, {:.1} bytes/node",
            r.backend, r.readings_per_sec, r.leaves, r.readings_per_leaf, r.detections,
            r.bytes_per_node,
        );
    }

    // Accuracy at fixed operating points against the exact oracles.
    let fqn_points = fqn_accuracy_sweep(&FqnAccuracyConfig {
        leaves: 4,
        fanouts: vec![2, 2],
        fqn: FqnConfig {
            dimensions: 1,
            window: 128,
            k_scale: 4.0,
            warmup: 32,
            sample_fraction: 0.5,
            seed: 11,
        },
        warmup: 128,
        eval: if smoke { 400 } else { 2_000 },
        outlier_every: 50,
        k_scales: vec![2.0, 4.0, 8.0],
        seed: 5,
    });
    let mut mmdew_node = MmdewNodeConfig::default();
    mmdew_node.detector.bucket_cap = 16;
    mmdew_node.detector.min_per_side = 8;
    mmdew_node.detector.seed = 11;
    let mmdew_points = mmdew_accuracy_sweep(&MmdewAccuracyConfig {
        leaves: 4,
        fanouts: vec![2, 2],
        node: mmdew_node,
        segment: 250,
        readings: if smoke { 1_000 } else { 4_000 },
        tolerance: 100,
        threshold_scales: vec![0.3, 0.6, 1.2],
        seed: 5,
    });
    let accuracy: Vec<AccuracyRow> = fqn_points
        .iter()
        .map(|p| AccuracyRow {
            backend: BackendKind::Fqn.as_str(),
            parameter_name: "k_scale",
            parameter: p.parameter,
            precision: p.pr.precision(),
            recall: p.pr.recall(),
        })
        .chain(mmdew_points.iter().map(|p| AccuracyRow {
            backend: BackendKind::Mmdew.as_str(),
            parameter_name: "threshold_scale",
            parameter: p.parameter,
            precision: p.pr.precision(),
            recall: p.pr.recall(),
        }))
        .collect();
    for r in &accuracy {
        eprintln!(
            "{} @ {}={}: precision {:.3}, recall {:.3}",
            r.backend, r.parameter_name, r.parameter, r.precision, r.recall,
        );
    }

    let mut json = format!("{{\n  \"smoke\": {smoke},\n  \"throughput\": [\n");
    for (i, r) in throughput.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"leaves\": {}, \"readings_per_leaf\": {}, \
             \"readings_per_sec\": {:.1}, \"detections\": {}, \"bytes_per_node\": {:.1}}}{}\n",
            r.backend,
            r.leaves,
            r.readings_per_leaf,
            r.readings_per_sec,
            r.detections,
            r.bytes_per_node,
            if i + 1 < throughput.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"accuracy\": [\n");
    for (i, r) in accuracy.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"parameter\": \"{}\", \"value\": {}, \
             \"precision\": {:.4}, \"recall\": {:.4}}}{}\n",
            r.backend,
            r.parameter_name,
            r.parameter,
            r.precision,
            r.recall,
            if i + 1 < accuracy.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_backends.json", &json).expect("write BENCH_backends.json");
    print!("{json}");
}
