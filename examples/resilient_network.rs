//! Resilience: lossy radios and node failures.
//!
//! The paper's setting is *"unattended environments over extended periods
//! of time"* (§1) — radios drop frames and sensors die. This example runs
//! D3 under a 10 % message-loss radio, kills a leader mid-run, and shows
//! detection degrading gracefully instead of stopping.
//!
//! Run with: `cargo run --release --example resilient_network`

use sensor_outliers::core::{D3Config, D3Node, EstimatorConfig};
use sensor_outliers::data::{GaussianMixtureStream, SensorStreams};
use sensor_outliers::outlier::DistanceOutlierConfig;
use sensor_outliers::simnet::{Hierarchy, Network, NodeId, SimConfig};

fn main() {
    let topo = Hierarchy::balanced(16, &[4, 4]).unwrap();
    let cfg = D3Config {
        estimator: EstimatorConfig::builder()
            .window(2_000)
            .sample_size(150)
            .seed(8)
            .build()
            .expect("valid configuration"),
        rule: DistanceOutlierConfig::new(15.0, 0.01),
        sample_fraction: 0.5,
    };

    let sim = SimConfig::default().with_drop_probability(0.10);
    let mut net = Network::new(topo.clone(), sim, |node, topo| {
        D3Node::new(node, topo, &cfg)
    });
    // One level-2 leader dies two-thirds into the run.
    let doomed = topo.level(2)[1];
    net.schedule_failure(doomed, 4_000_000_000_000); // t = 4000 s

    let mut streams = SensorStreams::generate(16, |i| GaussianMixtureStream::new(1, 60 + i as u64));
    let topo_for_source = topo.clone();
    let mut source = move |node: NodeId, _seq: u64| {
        let leaf = topo_for_source.leaves().iter().position(|&l| l == node)?;
        Some(streams.next_for(leaf))
    };
    net.run(&mut source, 6_000);

    let s = net.stats();
    println!(
        "lossy run: {} messages sent, {} dropped ({:.1}%)",
        s.messages,
        s.dropped,
        100.0 * s.dropped as f64 / s.messages as f64
    );
    let leaf_hits: usize = topo
        .leaves()
        .iter()
        .map(|&l| net.app(l).detections.len())
        .sum();
    let leader_hits: usize = topo
        .level(2)
        .iter()
        .map(|&l| net.app(l).detections.len())
        .sum();
    println!("detections: {leaf_hits} at leaves, {leader_hits} confirmed at live leaders");
    println!(
        "dead leader {doomed} confirmed {} before failing",
        net.app(doomed).detections.len()
    );
    assert!(leaf_hits > 0, "leaves must keep detecting under loss");
}
