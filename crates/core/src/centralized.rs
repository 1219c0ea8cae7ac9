//! The centralized baseline (paper Sections 8.1 and 10.3, Figure 11).
//!
//! *"a centralized method, where all the observations from all the
//! sensors are communicated to the leader at the highest level, where the
//! … outliers are detected."*  Every reading is relayed hop-by-hop up the
//! hierarchy; the root maintains an exact union window
//! ([`snod_outlier::ExactWindowDetector`]) and flags `(D, r)`-outliers
//! with the density-scaled threshold. This is the accuracy gold standard
//! and the communication worst case.

use snod_outlier::{DistanceOutlierConfig, ExactWindowDetector};
use snod_simnet::{
    Ctx, DetectorEngine, FaultPlan, Hierarchy, Network, NodeId, SimConfig, StreamSource, Wire,
};

use crate::config::CoreError;
use crate::containment::Detection;

/// Centralized wire message: one raw reading.
#[derive(Debug, Clone)]
pub struct CentralizedPayload(pub Vec<f64>);

impl Wire for CentralizedPayload {
    fn size_bytes(&self) -> usize {
        self.0.len() * 2
    }
}

/// Per-node state: leaves/relays just forward; the root detects.
pub struct CentralizedNode {
    role: Role,
    /// Outliers flagged at the root.
    pub detections: Vec<Detection>,
}

enum Role {
    Relay,
    Root {
        window: ExactWindowDetector,
        rule: DistanceOutlierConfig,
        level: u8,
        warmup: usize,
        /// Per-leaf window `|W|`: the threshold scales with
        /// `|W_union|/|W|` so the density bar matches the per-sensor rule.
        window_per_leaf: usize,
    },
}

impl CentralizedNode {
    /// Builds the node: the hierarchy root becomes the detector with an
    /// exact union window of `window_per_leaf · leaf_count` readings.
    pub fn new(
        node: NodeId,
        topo: &Hierarchy,
        rule: DistanceOutlierConfig,
        window_per_leaf: usize,
    ) -> Self {
        let role = if node == topo.root() && topo.node_count() > 1 {
            let leaves = topo.leaves().len();
            Role::Root {
                window: ExactWindowDetector::new(rule.radius, window_per_leaf * leaves),
                rule,
                level: topo.level_of(node),
                warmup: (window_per_leaf * leaves) / 2,
                window_per_leaf,
            }
        } else {
            Role::Relay
        };
        Self {
            role,
            detections: Vec::new(),
        }
    }

    /// The root's exact window (None at relays) — for tests.
    pub fn window_len(&self) -> Option<usize> {
        match &self.role {
            Role::Root { window, .. } => Some(window.len()),
            Role::Relay => None,
        }
    }

    fn consume(&mut self, time_ns: u64, value: &[f64]) {
        if let Role::Root {
            window,
            rule,
            level,
            warmup,
            window_per_leaf,
        } = &mut self.role
        {
            window.push(value.to_vec());
            if window.len() >= *warmup {
                // Density-scaled threshold over the union window; the
                // value itself was just pushed and is discounted.
                let scaled = DistanceOutlierConfig {
                    radius: rule.radius,
                    min_neighbors: rule.min_neighbors * window.len() as f64
                        / *window_per_leaf as f64,
                };
                if window.is_outlier_indexed(value, &scaled) {
                    self.detections.push(Detection {
                        time_ns,
                        value: value.to_vec(),
                        level: *level,
                    });
                }
            }
        }
    }
}

impl DetectorEngine<CentralizedPayload> for CentralizedNode {
    fn ingest(&mut self, ctx: &mut Ctx<'_, CentralizedPayload>, value: &[f64]) {
        // A leaf that is also the root (single-node network) detects
        // directly; otherwise every reading goes upward.
        if !ctx.send_parent(CentralizedPayload(value.to_vec())) {
            self.consume(ctx.time_ns, value);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, CentralizedPayload>,
        _from: NodeId,
        payload: CentralizedPayload,
    ) {
        if !ctx.send_parent(CentralizedPayload(payload.0.clone())) {
            self.consume(ctx.time_ns, &payload.0);
        }
    }
}

/// Runs the centralized baseline.
pub fn run_centralized<S: StreamSource>(
    topo: Hierarchy,
    rule: DistanceOutlierConfig,
    window_per_leaf: usize,
    sim: SimConfig,
    source: &mut S,
    readings_per_leaf: u64,
) -> Result<Network<CentralizedPayload, CentralizedNode>, CoreError> {
    run_centralized_with_faults(
        topo,
        rule,
        window_per_leaf,
        sim,
        FaultPlan::none(),
        source,
        readings_per_leaf,
    )
}

/// Runs the centralized baseline under a fault schedule (raw readings
/// stay on the best-effort channel: the baseline has no retry budget to
/// spend on each of its per-hop relays). With [`FaultPlan::none()`]
/// this is bit-identical to [`run_centralized`].
pub fn run_centralized_with_faults<S: StreamSource>(
    topo: Hierarchy,
    rule: DistanceOutlierConfig,
    window_per_leaf: usize,
    sim: SimConfig,
    plan: FaultPlan,
    source: &mut S,
    readings_per_leaf: u64,
) -> Result<Network<CentralizedPayload, CentralizedNode>, CoreError> {
    if window_per_leaf == 0 {
        return Err(CoreError::Config("window per leaf must be positive"));
    }
    let mut net = Network::new(topo, sim, |node, topo| {
        CentralizedNode::new(node, topo, rule, window_per_leaf)
    })
    .with_fault_plan(plan);
    net.run(source, readings_per_leaf);
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_sees_every_reading() {
        let topo = Hierarchy::balanced(4, &[2, 2]).unwrap();
        let rule = DistanceOutlierConfig::new(5.0, 0.02);
        let mut source = |_: NodeId, seq: u64| Some(vec![0.5 + 0.001 * (seq % 10) as f64]);
        let net = run_centralized(topo, rule, 100, SimConfig::default(), &mut source, 50).unwrap();
        let root = net.topology().root();
        assert_eq!(net.app(root).window_len(), Some(200)); // 4 leaves × 50
    }

    #[test]
    fn detects_rare_values_exactly() {
        let topo = Hierarchy::balanced(4, &[4]).unwrap();
        let rule = DistanceOutlierConfig::new(5.0, 0.02);
        let mut source = |node: NodeId, seq: u64| {
            if node.0 == 2 && seq == 180 {
                Some(vec![0.95])
            } else {
                Some(vec![0.5 + 0.002 * ((seq % 8) as f64)])
            }
        };
        let net = run_centralized(topo, rule, 100, SimConfig::default(), &mut source, 200).unwrap();
        let root = net.topology().root();
        let dets = &net.app(root).detections;
        assert_eq!(dets.len(), 1, "detections: {dets:?}");
        assert!((dets[0].value[0] - 0.95).abs() < 1e-9);
    }

    #[test]
    fn message_cost_is_one_per_reading_per_hop() {
        let topo = Hierarchy::balanced(8, &[4, 2]).unwrap(); // 3 levels
        let rule = DistanceOutlierConfig::new(5.0, 0.02);
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        let net = run_centralized(topo, rule, 50, SimConfig::default(), &mut source, 100).unwrap();
        // 8 leaves × 100 readings × 2 hops (leaf→L2→root) = 1600 msgs.
        assert_eq!(net.stats().messages, 1_600);
    }

    #[test]
    fn zero_window_is_rejected() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let rule = DistanceOutlierConfig::new(5.0, 0.02);
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        assert!(run_centralized(topo, rule, 0, SimConfig::default(), &mut source, 10).is_err());
    }
}
