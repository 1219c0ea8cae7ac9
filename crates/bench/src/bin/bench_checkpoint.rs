//! Timing and size snapshot for the checkpoint/restore subsystem,
//! written to `BENCH_checkpoint.json` in the working directory.
//!
//! Methodology matches `bench_kde_snapshot`: every measurement is the
//! best wall-clock time over several runs. For each algorithm × fleet
//! size the harness runs a seeded workload to its horizon, then
//! measures the full-network snapshot (`Network::checkpoint`, every
//! sketch, density model and queue serialized behind the checksummed
//! envelope) and the decode-all-then-commit restore into a fresh
//! network. Sizes document how the format scales with fleet size;
//! ratios are host-independent.

use std::hint::black_box;
use std::time::Instant;

use snod_core::{
    build_backend_network, D3Backend, D3Config, DetectorBackend, EstimatorConfig, MgddBackend,
    MgddConfig, UpdateStrategy,
};
use snod_outlier::{DistanceOutlierConfig, MdefConfig};
use snod_simnet::{FaultPlan, Hierarchy, NodeId, SimConfig};

const RUNS: usize = 5;
const READINGS: u64 = 400;

fn best_secs<F: FnMut()>(mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..RUNS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn source(node: NodeId, seq: u64) -> Option<Vec<f64>> {
    let h = node.0 as u64 * 1_000_003 + seq * 7_919;
    Some(vec![0.3 + 0.2 * ((h % 1_009) as f64 / 1_009.0)])
}

fn estimator() -> EstimatorConfig {
    EstimatorConfig::builder()
        .window(300)
        .sample_size(50)
        .seed(7)
        .build()
        .unwrap()
}

/// One measured cell: `(checkpoint bytes, node count, encode s, restore s)`.
fn cell<B: DetectorBackend>(backend: &B, leaves: usize) -> (usize, usize, f64, f64) {
    let topo = Hierarchy::balanced(leaves, &[2, 2]).unwrap();
    let nodes = topo.node_count();
    let build = || {
        build_backend_network(backend, topo.clone(), SimConfig::default(), FaultPlan::none())
            .unwrap()
    };
    let mut net = build();
    net.run(&mut source, READINGS);
    let bytes = net.checkpoint();
    let encode = best_secs(|| {
        black_box(net.checkpoint());
    });
    let mut target = build();
    let restore = best_secs(|| {
        target.restore(black_box(&bytes)).unwrap();
    });
    (bytes.len(), nodes, encode, restore)
}

fn d3_cell(leaves: usize) -> (usize, usize, f64, f64) {
    let backend = D3Backend(D3Config {
        estimator: estimator(),
        rule: DistanceOutlierConfig::new(8.0, 0.02),
        sample_fraction: 0.5,
    });
    cell(&backend, leaves)
}

fn mgdd_cell(leaves: usize) -> (usize, usize, f64, f64) {
    let backend = MgddBackend {
        cfg: MgddConfig {
            estimator: estimator(),
            rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
            sample_fraction: 0.75,
            updates: UpdateStrategy::EveryAcceptance,
            staleness_bound_ns: Some(30_000_000_000),
        },
        broadcast_levels: vec![],
    };
    cell(&backend, leaves)
}

fn cell_json(label: &str, (bytes, nodes, encode, restore): (usize, usize, f64, f64)) -> String {
    format!(
        "    \"{label}\": {{\"bytes\": {bytes}, \"nodes\": {nodes}, \
         \"bytes_per_node\": {per}, \"encode_secs\": {encode:.6}, \
         \"restore_secs\": {restore:.6}, \"encode_mb_s\": {emb:.1}, \
         \"restore_mb_s\": {rmb:.1}}}",
        per = bytes / nodes,
        emb = bytes as f64 / encode / 1e6,
        rmb = bytes as f64 / restore / 1e6,
    )
}

fn main() {
    let cells = [
        ("d3_leaves4", d3_cell(4)),
        ("d3_leaves16", d3_cell(16)),
        ("mgdd_leaves4", mgdd_cell(4)),
        ("mgdd_leaves16", mgdd_cell(16)),
    ];
    let body: Vec<String> = cells
        .iter()
        .map(|(label, cell)| cell_json(label, *cell))
        .collect();
    let json = format!(
        "{{\n  \"methodology\": \"best of {RUNS} runs after a {READINGS}-reading warm-up; \
         full-network snapshot + decode-all-then-commit restore\",\n  \"cells\": {{\n{}\n  }}\n}}\n",
        body.join(",\n")
    );
    std::fs::write("BENCH_checkpoint.json", &json).expect("write BENCH_checkpoint.json");
    print!("{json}");
    for (label, (bytes, nodes, encode, restore)) in cells {
        eprintln!(
            "{label}: {bytes} B over {nodes} nodes, encode {:.2} ms, restore {:.2} ms",
            encode * 1e3,
            restore * 1e3,
        );
    }
}
