//! End-to-end integration tests of the D3 pipeline across crates:
//! data generators → estimators → distributed detection → simulator
//! statistics.

use sensor_outliers::core::pipeline::{leaf_position, OutlierPipeline, PipelineReport};
use sensor_outliers::core::{D3Backend, D3Config, DetectorBackend, EstimatorConfig};
use sensor_outliers::data::{GaussianMixtureStream, SensorStreams};
use sensor_outliers::outlier::DistanceOutlierConfig;
use sensor_outliers::simnet::{NodeId, SimConfig};

fn d3_pipeline(leaves: usize, seed: u64) -> OutlierPipeline<D3Backend> {
    let cfg = D3Config {
        estimator: EstimatorConfig::builder()
            .window(1_000)
            .sample_size(100)
            .seed(seed)
            .build()
            .unwrap(),
        rule: DistanceOutlierConfig::new(10.0, 0.01),
        sample_fraction: 0.5,
    };
    // The simulator rejects fan-outs that leave a multi-root forest,
    // so the 16-leaf shape collapses 16 → 4 → 1 instead of 16 → 4 → 2.
    let fanouts: &[usize] = if leaves > 8 { &[4, 4] } else { &[4, 2] };
    OutlierPipeline::balanced(leaves, fanouts, SimConfig::default(), D3Backend(cfg)).unwrap()
}

fn run<B: DetectorBackend>(pipeline: &OutlierPipeline<B>, seed: u64, n: u64) -> PipelineReport {
    let topo = pipeline.topology().clone();
    let mut streams = SensorStreams::generate(topo.leaves().len(), |i| {
        GaussianMixtureStream::new(1, seed * 100 + i as u64)
    });
    let mut source = move |node: NodeId, _seq: u64| {
        let leaf = leaf_position(&topo, node)?;
        Some(streams.next_for(leaf))
    };
    pipeline.run(&mut source, n).unwrap()
}

#[test]
fn synthetic_noise_is_detected_at_the_leaves() {
    let pipeline = d3_pipeline(8, 1);
    let report = run(&pipeline, 1, 3_000);
    let leaf_dets = report
        .detections_by_level
        .get(&1)
        .expect("level-1 detections");
    // The 0.5% uniform noise in [0.5, 1] is rare everywhere: across
    // 8 × 3000 readings we expect ~120 noise values, most flagged.
    assert!(
        leaf_dets.len() > 30,
        "only {} leaf detections",
        leaf_dets.len()
    );
    let in_noise_range = leaf_dets.iter().filter(|d| d.value[0] >= 0.5).count();
    assert!(
        in_noise_range * 2 > leaf_dets.len(),
        "detections not concentrated in the noise range: {in_noise_range}/{}",
        leaf_dets.len()
    );
}

#[test]
fn detections_thin_out_up_the_hierarchy() {
    let pipeline = d3_pipeline(16, 2);
    let report = run(&pipeline, 2, 3_000);
    let count = |l: u8| report.detections_by_level.get(&l).map_or(0, Vec::len);
    // Theorem 3: parents only see child-flagged values, so counts can
    // only shrink level over level.
    assert!(count(1) >= count(2), "L1 {} < L2 {}", count(1), count(2));
    assert!(count(2) >= count(3), "L2 {} < L3 {}", count(2), count(3));
    assert!(count(3) > 0, "nothing survived to the root");
}

#[test]
fn identical_seeds_replay_identically() {
    let pipeline = d3_pipeline(8, 3);
    let a = run(&pipeline, 3, 2_000);
    let b = run(&pipeline, 3, 2_000);
    assert_eq!(a.total_detections(), b.total_detections());
    assert_eq!(a.stats.messages, b.stats.messages);
    assert_eq!(a.stats.bytes, b.stats.bytes);
    for (level, dets) in &a.detections_by_level {
        let other = &b.detections_by_level[level];
        assert_eq!(dets.len(), other.len());
        for (x, y) in dets.iter().zip(other.iter()) {
            assert_eq!(x.value, y.value);
            assert_eq!(x.time_ns, y.time_ns);
        }
    }
}

#[test]
fn different_seeds_differ() {
    let pipeline = d3_pipeline(8, 4);
    let a = run(&pipeline, 4, 2_000);
    let b = run(&pipeline, 5, 2_000);
    // Streams differ, so the detected values cannot be identical.
    let av: Vec<_> = a
        .detections_by_level
        .values()
        .flatten()
        .map(|d| d.value.clone())
        .collect();
    let bv: Vec<_> = b
        .detections_by_level
        .values()
        .flatten()
        .map(|d| d.value.clone())
        .collect();
    assert_ne!(av, bv);
}

#[test]
fn sample_fraction_controls_upward_traffic() {
    let make = |f: f64| {
        let cfg = D3Config {
            estimator: EstimatorConfig::builder()
                .window(1_000)
                .sample_size(100)
                .seed(6)
                .build()
                .unwrap(),
            rule: DistanceOutlierConfig::new(10.0, 0.01),
            sample_fraction: f,
        };
        OutlierPipeline::balanced(8, &[4, 2], SimConfig::default(), D3Backend(cfg)).unwrap()
    };
    let low = run(&make(0.25), 6, 2_000);
    let high = run(&make(1.0), 6, 2_000);
    assert!(
        high.stats.messages > low.stats.messages,
        "f=1.0 ({}) should out-message f=0.25 ({})",
        high.stats.messages,
        low.stats.messages
    );
}

#[test]
fn centralized_baseline_is_much_chattier_than_d3() {
    let d3 = run(&d3_pipeline(16, 7), 7, 2_000);
    let cent = OutlierPipeline::balanced(
        16,
        &[4, 4],
        SimConfig::default(),
        sensor_outliers::core::CentralizedBackend {
            rule: DistanceOutlierConfig::new(10.0, 0.01),
            window_per_leaf: 1_000,
        },
    )
    .unwrap();
    let cent_report = run(&cent, 7, 2_000);
    assert!(
        cent_report.stats.messages > 5 * d3.stats.messages,
        "centralized {} vs D3 {}",
        cent_report.stats.messages,
        d3.stats.messages
    );
}
