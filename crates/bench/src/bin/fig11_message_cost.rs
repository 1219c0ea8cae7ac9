//! **Figure 11**: number of messages per second in the network
//! (log-scale) while scaling the number of nodes — Centralized vs MGDD
//! vs D3.
//!
//! Paper setup (§10.3): each sensor generates one reading per second;
//! `|W| = 10,240`, `|R| = 1,024`, `f = 0.25`. Only the incremental
//! sample-propagation traffic is counted for D3/MGDD (*"we do not
//! account for the messages sent when a local outlier is identified,
//! since these are infrequent"*) — we run on outlier-free uniform
//! streams, so the accounting matches automatically.
//!
//! To keep the largest grids tractable the default run scales `|W|` and
//! `|R|` down by 8 (the acceptance rate, and therefore every message
//! rate, depends only on the ratio `|R|/|W|` once past warm-up).
//! Knobs: `FIG_WINDOW` (default 1280), `FIG_SAMPLE` (default 128),
//! `FIG_READINGS` (default 3·window), `FIG_MAX_SIDE` (default 64).

use snod_core::pipeline::OutlierPipeline;
use snod_core::{D3Backend, D3Config, EstimatorConfig, MgddBackend, MgddConfig, UpdateStrategy};
use snod_outlier::{DistanceOutlierConfig, MdefConfig};
use snod_simnet::{Hierarchy, NodeId, SimConfig};

use snod_bench::obs_report;
use snod_bench::report::Table;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Outlier-free uniform stream: every value is well-supported, so the
/// only traffic is sample propagation (and MGDD's model updates).
fn quiet_source(node: NodeId, seq: u64) -> Option<Vec<f64>> {
    let h = node.0 as u64 * 1_000_003 + seq * 7_919;
    Some(vec![0.3 + 0.2 * ((h % 1_000) as f64 / 1_000.0)])
}

fn main() {
    let window = env_u64("FIG_WINDOW", 1_280) as usize;
    let sample = env_u64("FIG_SAMPLE", 128) as usize;
    let readings = env_u64("FIG_READINGS", 6 * window as u64);
    let max_side = env_u64("FIG_MAX_SIDE", 64);

    let est = EstimatorConfig::builder()
        .window(window)
        .sample_size(sample)
        .seed(11)
        .build()
        .expect("valid config");
    let f = 0.25;

    println!(
        "Figure 11 — messages per second vs number of nodes\n\
         |W|={window}, |R|={sample}, f={f}, 1 reading/s/sensor, {readings} readings/leaf\n"
    );
    let mut t = Table::new([
        "nodes",
        "leaves",
        "centralized msg/s",
        "MGDD msg/s",
        "D3 msg/s",
        "cent/D3",
        "cent mJ/s",
        "D3 mJ/s",
    ]);

    let mut phases: Vec<(String, snod_obs::MetricsSnapshot)> = Vec::new();
    let mut side = 4u64;
    while side <= max_side {
        let topo = Hierarchy::virtual_grid(side as usize).expect("grid");
        let nodes = topo.node_count();
        let leaves = topo.leaves().len();
        let sim = SimConfig::default();

        // Centralized: every reading relayed hop-by-hop to the root.
        // (Only message *rates* matter here, so the root's window is
        // scaled with |W| like everything else.)
        let cent = OutlierPipeline::new(
            topo.clone(),
            sim,
            snod_core::CentralizedBackend {
                rule: DistanceOutlierConfig::new(45.0, 0.01),
                window_per_leaf: window,
            },
        );
        let ((cent_rate, cent_mj_per_s), cent_metrics) = obs_report::phase(|| {
            let mut src = quiet_source;
            let report = cent.run(&mut src, readings).expect("centralized run");
            (
                report.stats.messages_per_second(),
                report.stats.total_joules() * 1e3 * 1e9 / report.stats.elapsed_ns as f64,
            )
        });
        phases.push((format!("centralized.n{nodes}"), cent_metrics));

        // D3.
        let d3 = OutlierPipeline::new(
            topo.clone(),
            sim,
            D3Backend(D3Config {
                estimator: est,
                rule: DistanceOutlierConfig::new(45.0, 0.01),
                sample_fraction: f,
            }),
        );
        let ((d3_rate, d3_mj_per_s), d3_metrics) = obs_report::phase(|| {
            let mut src = quiet_source;
            let report = d3.run(&mut src, readings).expect("d3 run");
            let energy = report.stats.total_joules() * 1e3 * 1e9 / report.stats.elapsed_ns as f64;
            // The paper's accounting: "we do not account for the messages
            // sent when a local outlier is identified, since these are
            // infrequent" — every non-root detection sent one message.
            let root_level = topo.level_count() as u8;
            let outlier_msgs: usize = report
                .detections_by_level
                .iter()
                .filter(|(&l, _)| l != root_level)
                .map(|(_, v)| v.len())
                .sum();
            let msgs = report.stats.messages.saturating_sub(outlier_msgs as u64);
            (msgs as f64 * 1e9 / report.stats.elapsed_ns as f64, energy)
        });
        phases.push((format!("d3.n{nodes}"), d3_metrics));

        // MGDD with global models at every leader tier (the configuration
        // the accuracy experiments use).
        let levels: Vec<u8> = (2..=topo.level_count() as u8).collect();
        let mgdd = OutlierPipeline::new(
            topo.clone(),
            sim,
            MgddBackend {
                cfg: MgddConfig {
                    estimator: est,
                    rule: MdefConfig::new(0.08, 0.01, 3.0).expect("valid rule"),
                    sample_fraction: f,
                    updates: UpdateStrategy::EveryAcceptance,
                    staleness_bound_ns: None,
                },
                broadcast_levels: levels,
            },
        );
        let (mgdd_rate, mgdd_metrics) = obs_report::phase(|| {
            let mut src = quiet_source;
            let report = mgdd.run(&mut src, readings).expect("mgdd run");
            report.stats.messages_per_second()
        });
        phases.push((format!("mgdd.n{nodes}"), mgdd_metrics));

        t.row([
            nodes.to_string(),
            leaves.to_string(),
            format!("{cent_rate:.1}"),
            format!("{mgdd_rate:.1}"),
            format!("{d3_rate:.1}"),
            format!("{:.0}x", cent_rate / d3_rate.max(1e-9)),
            format!("{cent_mj_per_s:.2}"),
            format!("{d3_mj_per_s:.3}"),
        ]);
        side *= 2;
    }
    println!("{}", t.render());
    // Per-phase observability breakdown (message counters, retry
    // machinery, model-rebuild spans) per algorithm and grid size.
    obs_report::write_phases("FIG11_metrics.json", &phases).expect("write FIG11_metrics.json");
    println!(
        "per-phase metrics: FIG11_metrics.json ({} phases)",
        phases.len()
    );
}
