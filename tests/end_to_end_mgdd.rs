//! End-to-end integration tests of the MGDD pipeline: global model
//! propagation, multi-granular detection, and the model-change update
//! optimisation.

use sensor_outliers::core::pipeline::{leaf_position, OutlierPipeline, PipelineReport};
use sensor_outliers::core::{EstimatorConfig, MgddBackend, MgddConfig, UpdateStrategy};
use sensor_outliers::outlier::MdefConfig;
use sensor_outliers::simnet::{NodeId, SimConfig};

fn mgdd_config(updates: UpdateStrategy) -> MgddConfig {
    MgddConfig {
        estimator: EstimatorConfig::builder()
            .window(600)
            .sample_size(80)
            .seed(11)
            .build()
            .unwrap(),
        rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
        sample_fraction: 0.75,
        updates,
        staleness_bound_ns: None,
    }
}

/// All leaves emit a dense uniform block on [0.40, 0.50]; leaf 2
/// periodically emits a skirt value at 0.56.
fn block_source(
    topo: sensor_outliers::simnet::Hierarchy,
) -> impl FnMut(NodeId, u64) -> Option<Vec<f64>> {
    move |node: NodeId, seq: u64| {
        let leaf = leaf_position(&topo, node)?;
        if leaf == 2 && seq % 200 == 150 {
            Some(vec![0.56])
        } else {
            let h = (seq * 31 + leaf as u64 * 17) % 100;
            Some(vec![0.40 + 0.10 * (h as f64 + 0.5) / 100.0])
        }
    }
}

fn run(updates: UpdateStrategy, levels: Vec<u8>, readings: u64) -> PipelineReport {
    let backend = MgddBackend {
        cfg: mgdd_config(updates),
        broadcast_levels: levels,
    };
    let pipeline = OutlierPipeline::balanced(8, &[4, 2], SimConfig::default(), backend).unwrap();
    let topo = pipeline.topology().clone();
    let mut source = block_source(topo);
    pipeline.run(&mut source, readings).unwrap()
}

#[test]
fn skirt_values_detected_against_every_granularity() {
    let report = run(UpdateStrategy::EveryAcceptance, vec![2, 3], 2_400);
    for level in [2u8, 3] {
        let dets = report
            .detections_by_level
            .get(&level)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let skirt_hits = dets
            .iter()
            .filter(|d| (d.value[0] - 0.56).abs() < 1e-9)
            .count();
        assert!(
            skirt_hits >= 3,
            "level {level}: only {skirt_hits} skirt detections ({} total)",
            dets.len()
        );
    }
}

#[test]
fn default_run_uses_top_level_global_model() {
    // An empty level list means "top tier only".
    let report = run(UpdateStrategy::EveryAcceptance, vec![], 1_800);
    let levels: Vec<u8> = report.detections_by_level.keys().copied().collect();
    assert!(
        levels.iter().all(|&l| l == 3),
        "unexpected granularity levels {levels:?}"
    );
}

#[test]
fn model_change_updates_cost_less_than_per_acceptance() {
    let eager = run(UpdateStrategy::EveryAcceptance, vec![2, 3], 1_800);
    let lazy = run(
        UpdateStrategy::OnModelChange {
            js_threshold: 0.05,
            check_every: 10,
        },
        vec![2, 3],
        1_800,
    );
    assert!(
        lazy.stats.messages < eager.stats.messages,
        "model-change {} not cheaper than eager {}",
        lazy.stats.messages,
        eager.stats.messages
    );
    // …and with a stationary distribution it still detects the skirt.
    let hits: usize = lazy
        .detections_by_level
        .values()
        .flatten()
        .filter(|d| (d.value[0] - 0.56).abs() < 1e-9)
        .count();
    assert!(hits >= 2, "lazy updates missed the skirt ({hits} hits)");
}

#[test]
fn stationary_distribution_rarely_triggers_model_pushes() {
    // With a high JS threshold and a stationary stream, full-model pushes
    // should almost never fire, so traffic approaches the upward-only
    // D3-style volume.
    let strict = run(
        UpdateStrategy::OnModelChange {
            js_threshold: 0.8,
            check_every: 5,
        },
        vec![2, 3],
        1_800,
    );
    let eager = run(UpdateStrategy::EveryAcceptance, vec![2, 3], 1_800);
    assert!(
        (strict.stats.messages as f64) < 0.8 * eager.stats.messages as f64,
        "strict threshold {} vs eager {}",
        strict.stats.messages,
        eager.stats.messages
    );
}
