//! A full distributed deployment: 32 environmental sensors under a
//! three-tier leader hierarchy, running the D3 algorithm end-to-end in
//! the network simulator.
//!
//! Mirrors the paper's §10.2 setup on the Pacific-Northwest-style
//! (pressure, dew-point) workload, with one sensor developing a fault
//! that produces regionally-rare readings — the kind of event the
//! hierarchy is designed to surface at increasing granularity.
//!
//! Run with: `cargo run --release --example environmental_network`

use sensor_outliers::core::pipeline::{leaf_position, OutlierPipeline};
use sensor_outliers::core::{D3Backend, D3Config, EstimatorConfig};
use sensor_outliers::data::{EnvironmentStream, SensorStreams};
use sensor_outliers::outlier::DistanceOutlierConfig;
use sensor_outliers::simnet::{NodeId, SimConfig};

fn main() {
    let window = 4_000usize;
    let cfg = D3Config {
        estimator: EstimatorConfig::builder()
            .window(window)
            .sample_size(200)
            .dimensions(2)
            .seed(3)
            .build()
            .expect("valid configuration"),
        rule: DistanceOutlierConfig::new(10.0, 0.02),
        sample_fraction: 0.5,
    };

    // 32 leaves under leader tiers of fan-out 4/2/4 — the §10.2 shape.
    let pipeline = OutlierPipeline::balanced(32, &[4, 2, 4], SimConfig::default(), D3Backend(cfg))
        .expect("valid hierarchy");
    let topo = pipeline.topology().clone();

    // Sensor 11 intermittently reports a (pressure, dew-point) combination
    // no other sensor in the region produces.
    let mut streams = SensorStreams::generate(32, |i| EnvironmentStream::new(100 + i as u64));
    let mut source = move |node: NodeId, seq: u64| {
        let leaf = leaf_position(&topo, node)?;
        let mut v = streams.next_for(leaf);
        if leaf == 11 && seq > 4_000 && seq.is_multiple_of(500) {
            v = vec![0.44, 0.275]; // storm-low pressure with saturated air
        }
        Some(v)
    };

    let readings = (window + 2_000) as u64;
    println!("running D3 over 32 environmental sensors ({readings} readings each)…");
    let report = pipeline.run(&mut source, readings).expect("pipeline run");

    println!("\ndetections by hierarchy level:");
    for (level, dets) in &report.detections_by_level {
        let faulty = dets
            .iter()
            .filter(|d| (d.value[0] - 0.44).abs() < 1e-9)
            .count();
        println!(
            "  level {level}: {:>4} detections ({faulty} from the faulty sensor's signature)",
            dets.len()
        );
    }

    let s = &report.stats;
    println!(
        "\nnetwork cost over {:.0} simulated seconds:",
        s.elapsed_ns as f64 / 1e9
    );
    println!(
        "  messages: {} ({:.2}/s)",
        s.messages,
        s.messages_per_second()
    );
    println!(
        "  bytes on air: {} ({:.1}/s)",
        s.bytes,
        s.bytes_per_second()
    );
    println!("  radio energy: {:.4} J", s.total_joules());
    println!("  messages per level: {:?}", s.messages_per_level);
}
