//! Integration tests for the network services around the outlier
//! pipelines: the distributed faulty-sensor monitor over a simulated
//! radio.

use sensor_outliers::core::{run_monitor, EstimatorConfig, MonitorConfig};
use sensor_outliers::data::{EnvironmentStream, SensorStreams};
use sensor_outliers::simnet::{Hierarchy, NodeId, SimConfig};

#[test]
fn monitor_blames_the_stuck_sensor_over_the_network() {
    let topo = Hierarchy::balanced(4, &[4]).unwrap();
    let cfg = MonitorConfig {
        estimator: EstimatorConfig::builder()
            .window(600)
            .sample_size(80)
            .dimensions(2)
            .seed(9)
            .build()
            .unwrap(),
        report_every: 150,
        threshold: 0.3,
        grid_k: 16,
        staleness_bound_ns: None,
    };
    // Sibling sensors observe the same regional weather, differing only
    // by instrument noise — healthy models agree, so the stuck one
    // stands out.
    let mut streams =
        SensorStreams::generate(4, |i| EnvironmentStream::for_region(300, 400 + i as u64));
    let topo2 = topo.clone();
    let mut source = move |node: NodeId, seq: u64| {
        let leaf = topo2.leaves().iter().position(|&l| l == node)?;
        let mut v = streams.next_for(leaf);
        if leaf == 1 && seq > 1_200 {
            v[1] = 0.282; // dew-point element stuck at its ceiling
        }
        Some(v)
    };
    let net = run_monitor(topo, &cfg, SimConfig::default(), &mut source, 3_000).unwrap();
    let root = net.topology().root();
    let alarms = &net.app(root).alarms;
    assert!(!alarms.is_empty(), "stuck sensor never flagged");
    assert!(
        alarms.iter().all(|a| a.child == NodeId(1)),
        "wrong sensor blamed: {alarms:?}"
    );
}
