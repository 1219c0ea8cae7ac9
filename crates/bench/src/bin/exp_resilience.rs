//! Extension experiment (beyond the paper): detection robustness and
//! latency of the distributed pipeline under radio loss.
//!
//! The paper's evaluation assumes reliable delivery; real deployments
//! drop frames. Two questions the library's users will ask:
//!
//! 1. **Resilience** — how do leaf-level and root-level D3 detections
//!    degrade as the per-hop loss probability grows?
//! 2. **Latency** — how long after a deviant reading arrives does the
//!    *root* confirm it (per-hop link latency × depth, plus losses)?
//!
//! Knobs: `FIG_LEAVES` (default 16), `FIG_READINGS` (default 4000).

use snod_bench::report::{num, Table};
use snod_core::{run_backend, D3Backend, D3Config, EstimatorConfig};
use snod_outlier::DistanceOutlierConfig;
use snod_simnet::{Hierarchy, NodeId, SimConfig};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let leaves = env_u64("FIG_LEAVES", 16) as usize;
    let readings = env_u64("FIG_READINGS", 4_000);
    let window = 1_000usize;
    let cfg = D3Config {
        estimator: EstimatorConfig::builder()
            .window(window)
            .sample_size(100)
            .seed(77)
            .build()
            .expect("valid configuration"),
        rule: DistanceOutlierConfig::new(10.0, 0.01),
        sample_fraction: 0.5,
    };
    // Every leaf emits one unmistakable deviant value every 250 readings;
    // each occurrence is bit-unique so root confirmations can be matched
    // back to the exact leaf detection for latency measurement.
    let make_source = || {
        move |node: NodeId, seq: u64| {
            if seq % 250 == 249 {
                Some(vec![0.92 + 1e-4 * node.0 as f64 + 1e-9 * seq as f64])
            } else {
                let h = (seq * 31 + node.0 as u64 * 17) % 500;
                Some(vec![0.35 + 0.15 * (h as f64 + 0.5) / 500.0])
            }
        }
    };

    println!(
        "Resilience of D3 under radio loss — {leaves} leaves, {readings} readings/leaf, \
         deviants every 250 readings\n"
    );
    let mut t = Table::new([
        "loss",
        "leaf dets",
        "root dets",
        "root/leaf",
        "median root latency (ms)",
    ]);
    for &loss in &[0.0f64, 0.05, 0.1, 0.2, 0.4] {
        let topo = Hierarchy::balanced(leaves, &[4, 4]).expect("valid hierarchy");
        let sim = SimConfig::default().with_drop_probability(loss);
        let mut src = make_source();
        let net = run_backend(&D3Backend(cfg), topo, sim, &mut src, readings).expect("d3 run");
        let topo = net.topology();
        let leaf_dets: Vec<_> = topo
            .leaves()
            .iter()
            .flat_map(|&l| net.app(l).detections.iter().cloned())
            .filter(|d| d.value[0] > 0.9)
            .collect();
        let root_dets: Vec<_> = net
            .app(topo.root())
            .detections
            .iter()
            .filter(|d| d.value[0] > 0.9)
            .cloned()
            .collect();
        // Root confirmation latency: root detection time minus the leaf
        // detection time of the same (bit-identical) value.
        let mut latencies: Vec<u64> = root_dets
            .iter()
            .filter_map(|rd| {
                leaf_dets
                    .iter()
                    .find(|ld| ld.value == rd.value)
                    .map(|ld| rd.time_ns - ld.time_ns)
            })
            .collect();
        latencies.sort_unstable();
        let median_ms = latencies
            .get(latencies.len() / 2)
            .map(|&ns| ns as f64 / 1e6)
            .unwrap_or(f64::NAN);
        t.row([
            format!("{:.0}%", loss * 100.0),
            leaf_dets.len().to_string(),
            root_dets.len().to_string(),
            num(root_dets.len() as f64 / leaf_dets.len().max(1) as f64, 2),
            num(median_ms, 1),
        ]);
    }
    println!("{}", t.render());
    println!(
        "expected shape: leaf detections are loss-independent (local); root\n\
         confirmations decay roughly like (1−loss)^hops; latency = hops × 5 ms links."
    );
}
