//! The §9 applications: finding faulty sensors by comparing estimator
//! models, and windowed outlier-count alarms.
//!
//! *"a parent sensor can compute the difference between the estimator
//! models received from its children, to determine if any of them is
//! faulty"* — the difference being the Jensen–Shannon divergence of
//! Section 6 — runs in-network: leaves report their models to their
//! leader over the simulated radio, and the leader's monitor raises an
//! alarm naming the child whose model stands out. *"give a warning if the
//! number of outliers in a given region exceeds a given threshold T over
//! the most recent time window W"* is answered from an exponential
//! histogram so the alarm stays within sketch memory.
//!
//! Run with: `cargo run --release --example faulty_sensor_detection`

use sensor_outliers::core::apps::OutlierCountAlarm;
use sensor_outliers::core::{run_monitor, EstimatorConfig, MonitorConfig};
use sensor_outliers::data::{EnvironmentStream, SensorStreams};
use sensor_outliers::simnet::{Hierarchy, NodeId, SimConfig};

fn main() {
    // Six sibling sensors under one leader see the same regional
    // weather; sensor 4's dew-point element sticks at its ceiling.
    let stuck = NodeId(4);
    let topo = Hierarchy::balanced(6, &[6]).expect("valid hierarchy");
    let cfg = MonitorConfig {
        estimator: EstimatorConfig::builder()
            .window(600)
            .sample_size(80)
            .dimensions(2)
            .seed(9)
            .build()
            .expect("valid configuration"),
        report_every: 150,
        threshold: 0.3,
        grid_k: 16,
        staleness_bound_ns: None,
    };
    let mut streams =
        SensorStreams::generate(6, |i| EnvironmentStream::for_region(300, 400 + i as u64));
    let mut source = move |node: NodeId, seq: u64| {
        let mut v = streams.next_for(node.0 as usize);
        if node == stuck && seq > 1_200 {
            v[1] = 0.282;
        }
        Some(v)
    };
    let net = run_monitor(topo, &cfg, SimConfig::default(), &mut source, 3_000)
        .expect("valid monitor configuration");

    // The leader compares each child's model with its siblings' and
    // names the ones whose closest sibling is still far away.
    let alarms = &net.app(net.topology().root()).alarms;
    println!("fault alarms raised by the leader (sibling JS-divergence > 0.3):");
    for a in alarms {
        let secs = a.time_ns / 1_000_000_000;
        println!(
            "  t={secs:>5}s  sensor {}  divergence {:.4}",
            a.child.0, a.divergence
        );
    }
    assert!(!alarms.is_empty(), "the stuck sensor was never flagged");
    assert!(
        alarms.iter().all(|a| a.child == stuck),
        "a healthy sensor was named"
    );

    // Outlier-count alarm over the most recent 1,000 readings.
    let mut alarm = OutlierCountAlarm::new(1_000, 20, 0.1).expect("valid alarm");
    println!("\noutlier-count alarm (T = 20 over last 1,000 readings):");
    for burst in [5u32, 10, 30, 0, 0] {
        for i in 0..200 {
            alarm.record(i < burst);
        }
        println!(
            "  after a burst of {burst:>2} outliers in 200 readings: estimate {:>3}, alarmed: {}",
            alarm.estimate(),
            alarm.alarmed()
        );
    }
    // Once the bursts slide out of the 1,000-reading window, the alarm
    // clears by itself.
    for _ in 0..1_000 {
        alarm.record(false);
    }
    println!(
        "  after 1,000 further clean readings:                estimate {:>3}, alarmed: {}",
        alarm.estimate(),
        alarm.alarmed()
    );
}
