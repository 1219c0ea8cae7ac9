//! One-call API over the distributed detectors.
//!
//! Downstream users who just want "outliers out of my streams" build an
//! [`OutlierPipeline`], hand it a stream source, and get back a
//! [`PipelineReport`] with the detections grouped by hierarchy level and
//! the full network statistics. The figure-reproduction binaries and the
//! examples are all written against this module.

use std::collections::BTreeMap;
use std::path::PathBuf;

use snod_simnet::{FaultPlan, Hierarchy, NetStats, NodeId, SimConfig, StreamSource};

use crate::backend::{build_backend_network, DetectorBackend};
use crate::config::CoreError;
use crate::containment::Detection;

/// A configured, reusable pipeline over one detector recipe.
#[derive(Debug, Clone)]
pub struct OutlierPipeline<B: DetectorBackend> {
    topo: Hierarchy,
    sim: SimConfig,
    backend: B,
    plan: FaultPlan,
}

/// What a pipeline run produced.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Detections grouped by the hierarchy level that flagged them
    /// (for MGDD: the granularity of the global model used).
    pub detections_by_level: BTreeMap<u8, Vec<Detection>>,
    /// Message/byte/energy accounting of the run.
    pub stats: NetStats,
}

impl PipelineReport {
    /// Total number of detections across levels.
    pub fn total_detections(&self) -> usize {
        self.detections_by_level.values().map(Vec::len).sum()
    }
}

/// Snapshot/resume instructions for [`OutlierPipeline::run_checkpointed`].
///
/// The default plan does nothing; [`OutlierPipeline::run`] is
/// `run_checkpointed` with it. Checkpoint files are written atomically
/// (temp file + rename) with a versioned, checksummed header; resuming
/// one in a pipeline built with the same topology, configs and fault
/// plan is bit-identical to never having stopped.
#[derive(Debug, Clone, Default)]
pub struct CheckpointPlan {
    /// Restore this checkpoint file before processing any event.
    pub resume_from: Option<PathBuf>,
    /// Write a snapshot of the run to this file.
    pub checkpoint_out: Option<PathBuf>,
    /// With `checkpoint_out`: pause once every event at or before this
    /// simulated instant has been processed, snapshot, then continue to
    /// completion. `None` snapshots the fully drained final state.
    pub checkpoint_at_ns: Option<u64>,
}

/// Maps a leaf node id to its stream index (position among leaves).
pub fn leaf_position(topo: &Hierarchy, node: NodeId) -> Option<usize> {
    topo.leaves().iter().position(|&l| l == node)
}

/// Groups a finished run's detections by level.
fn report_by_level<'a>(
    detections: impl Iterator<Item = &'a [Detection]>,
    stats: &NetStats,
) -> PipelineReport {
    let mut by_level: BTreeMap<u8, Vec<Detection>> = BTreeMap::new();
    for d in detections.flatten() {
        by_level.entry(d.level).or_default().push(d.clone());
    }
    PipelineReport {
        detections_by_level: by_level,
        stats: stats.clone(),
    }
}

impl<B: DetectorBackend> OutlierPipeline<B> {
    /// Builds a pipeline over an explicit hierarchy.
    pub fn new(topo: Hierarchy, sim: SimConfig, backend: B) -> Self {
        Self {
            topo,
            sim,
            backend,
            plan: FaultPlan::none(),
        }
    }

    /// Returns the pipeline with a fault schedule installed: every run
    /// replays the plan's crashes, link faults and loss bursts. With
    /// [`FaultPlan::none()`] (the default) runs are bit-identical to a
    /// pipeline without a plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Convenience: a balanced hierarchy of `leaves` sensors under the
    /// given leader fan-outs.
    pub fn balanced(
        leaves: usize,
        fanouts: &[usize],
        sim: SimConfig,
        backend: B,
    ) -> Result<Self, CoreError> {
        let topo = Hierarchy::balanced(leaves, fanouts)
            .map_err(|_| CoreError::Config("invalid hierarchy shape"))?;
        Ok(Self::new(topo, sim, backend))
    }

    /// The hierarchy this pipeline runs on.
    pub fn topology(&self) -> &Hierarchy {
        &self.topo
    }

    /// Runs the pipeline: each leaf consumes `readings_per_leaf` values
    /// from `source`.
    pub fn run<S: StreamSource>(
        &self,
        source: &mut S,
        readings_per_leaf: u64,
    ) -> Result<PipelineReport, CoreError> {
        self.run_checkpointed(source, readings_per_leaf, &CheckpointPlan::default())
    }

    /// [`Self::run`] with checkpoint/resume: optionally restores a
    /// snapshot before the first event, optionally writes one mid-run or
    /// at the end.
    ///
    /// Stopping at instant `k`, snapshotting, and resuming the file in a
    /// freshly built identical pipeline replays the remainder of the run
    /// bit-identically — same detections, same stats — which
    /// `tests/checkpoint_resume.rs` pins on golden traces.
    pub fn run_checkpointed<S: StreamSource>(
        &self,
        source: &mut S,
        readings_per_leaf: u64,
        ckpt: &CheckpointPlan,
    ) -> Result<PipelineReport, CoreError> {
        let (topo, plan) = (self.topo.clone(), self.plan.clone());
        let mut net = build_backend_network(&self.backend, topo, self.sim, plan)?;
        if let Some(path) = &ckpt.resume_from {
            net.restore_from_file(path)?;
        }
        match (&ckpt.checkpoint_out, ckpt.checkpoint_at_ns) {
            (Some(out), Some(at)) => {
                net.run_until(source, readings_per_leaf, at);
                net.checkpoint_to_file(out)?;
                net.run_until(source, readings_per_leaf, u64::MAX);
            }
            (Some(out), None) => {
                net.run(source, readings_per_leaf);
                net.checkpoint_to_file(out)?;
            }
            (None, _) => net.run(source, readings_per_leaf),
        }
        Ok(report_by_level(
            net.apps().map(|(_, app)| B::detections(app)),
            net.stats(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CentralizedBackend, D3Backend};
    use crate::config::{D3Config, EstimatorConfig};
    use snod_outlier::DistanceOutlierConfig;

    fn d3_backend() -> D3Backend {
        D3Backend(D3Config {
            estimator: EstimatorConfig::builder()
                .window(400)
                .sample_size(50)
                .seed(3)
                .build()
                .unwrap(),
            rule: DistanceOutlierConfig::new(8.0, 0.02),
            sample_fraction: 0.5,
        })
    }

    fn source_with_spikes() -> impl FnMut(NodeId, u64) -> Option<Vec<f64>> {
        |node: NodeId, seq: u64| {
            if node.0 == 1 && seq % 120 == 100 {
                Some(vec![0.92])
            } else {
                Some(vec![0.5 + 0.002 * ((seq % 30) as f64)])
            }
        }
    }

    #[test]
    fn d3_pipeline_reports_by_level() {
        let p = OutlierPipeline::balanced(4, &[2, 2], SimConfig::default(), d3_backend()).unwrap();
        let mut src = source_with_spikes();
        let report = p.run(&mut src, 800).unwrap();
        assert!(report.total_detections() > 0);
        assert!(report.detections_by_level.contains_key(&1));
        assert!(report.stats.messages > 0);
    }

    #[test]
    fn centralized_pipeline_detects_at_root_level_only() {
        let backend = CentralizedBackend {
            rule: DistanceOutlierConfig::new(8.0, 0.02),
            window_per_leaf: 400,
        };
        let p = OutlierPipeline::balanced(4, &[2, 2], SimConfig::default(), backend).unwrap();
        let mut src = source_with_spikes();
        let report = p.run(&mut src, 800).unwrap();
        let levels: Vec<u8> = report.detections_by_level.keys().copied().collect();
        assert!(levels.iter().all(|&l| l == 3), "levels {levels:?}");
    }

    #[test]
    fn fault_plan_rides_the_pipeline() {
        // A total blackout burst: every frame sent is dropped, so no
        // detection can climb above the leaves.
        let p = OutlierPipeline::balanced(4, &[2, 2], SimConfig::default(), d3_backend())
            .unwrap()
            .with_fault_plan(FaultPlan::none().burst(0, u64::MAX, 1.0));
        let mut src = source_with_spikes();
        let report = p.run(&mut src, 800).unwrap();
        assert_eq!(report.stats.dropped, report.stats.messages);
        assert!(report.total_detections() > 0, "leaves went silent too");
        assert!(
            report.detections_by_level.keys().all(|&l| l == 1),
            "a detection crossed a dead network: {:?}",
            report.detections_by_level.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn leaf_position_maps_ids() {
        let p = OutlierPipeline::balanced(4, &[4], SimConfig::default(), d3_backend()).unwrap();
        let topo = p.topology();
        for (i, &leaf) in topo.leaves().iter().enumerate() {
            assert_eq!(leaf_position(topo, leaf), Some(i));
        }
        assert_eq!(leaf_position(topo, topo.root()), None);
    }

    #[test]
    fn invalid_hierarchy_is_rejected() {
        assert!(OutlierPipeline::balanced(0, &[4], SimConfig::default(), d3_backend()).is_err());
    }
}
