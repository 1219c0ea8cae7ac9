//! The centralized baseline (paper Sections 8.1 and 10.3, Figure 11).
//!
//! *"a centralized method, where all the observations from all the
//! sensors are communicated to the leader at the highest level, where the
//! … outliers are detected."*  Every reading is relayed hop-by-hop up the
//! hierarchy; the root maintains an exact union window
//! ([`snod_outlier::ExactWindowDetector`]) and flags `(D, r)`-outliers
//! with the density-scaled threshold. This is the accuracy gold standard
//! and the communication worst case. Build it through
//! [`crate::CentralizedBackend`].

use snod_outlier::{DistanceOutlierConfig, ExactWindowDetector};
use snod_persist::{ByteReader, ByteWriter, Persist, PersistError};
use snod_simnet::{Ctx, DetectorEngine, Hierarchy, NodeId, Wire};

use crate::containment::Detection;

/// Centralized wire message: one raw reading.
#[derive(Debug, Clone)]
pub struct CentralizedPayload(pub Vec<f64>);

impl Wire for CentralizedPayload {
    fn size_bytes(&self) -> usize {
        self.0.len() * 2
    }
}

impl Persist for CentralizedPayload {
    fn save(&self, w: &mut ByteWriter) {
        self.0.save(w);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(Self(Vec::load(r)?))
    }
}

/// Per-node state: leaves/relays just forward; the root detects.
pub struct CentralizedNode {
    root: Option<Root>,
    /// Outliers flagged at the root.
    pub detections: Vec<Detection>,
}

struct Root {
    window: ExactWindowDetector,
    rule: DistanceOutlierConfig,
    level: u8,
    warmup: usize,
    /// Per-leaf window `|W|`: the threshold scales with
    /// `|W_union|/|W|` so the density bar matches the per-sensor rule.
    window_per_leaf: usize,
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
        let capacity = window_per_leaf * topo.leaves().len();
        let root = (node == topo.root()).then(|| Root {
            window: ExactWindowDetector::new(rule.radius, capacity),
            rule,
            level: topo.level_of(node),
            warmup: capacity / 2,
            window_per_leaf,
        });
        Self {
            root,
            detections: Vec::new(),
        }
    }

    /// The root's exact window (None at relays).
    #[cfg(test)]
    fn window(&self) -> Option<&ExactWindowDetector> {
        self.root.as_ref().map(|r| &r.window)
    }

    fn consume(&mut self, time_ns: u64, value: &[f64]) {
        let Some(root) = &mut self.root else {
            return;
        };
        root.window.push(value.to_vec());
        if root.window.len() >= root.warmup {
            // Density-scaled threshold over the union window; the value
            // itself was just pushed and is discounted.
            let scaled = DistanceOutlierConfig {
                radius: root.rule.radius,
                min_neighbors: root.rule.min_neighbors * root.window.len() as f64
                    / root.window_per_leaf as f64,
            };
            if root.window.is_outlier_indexed(value, &scaled) {
                self.detections.push(Detection {
                    time_ns,
                    value: value.to_vec(),
                    level: root.level,
                });
            }
        }
    }
}

impl DetectorEngine<CentralizedPayload> for CentralizedNode {
    fn ingest(&mut self, ctx: &mut Ctx<'_, CentralizedPayload>, value: &[f64]) {
        // A non-finite reading has no neighbours and could never be
        // evicted from the root's grid: drop it at the sensor.
        if value.iter().any(|v| !v.is_finite()) {
            snod_obs::counter!("core.bad_readings").incr();
            return;
        }
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

snod_persist::persist_struct! {
    Root {
        window,
        rule,
        level,
        warmup,
        window_per_leaf,
    }
    check: none
}

snod_persist::persist_struct! {
    CentralizedNode {
        root,
        detections,
    }
    check: none
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{build_backend_network, run_backend, CentralizedBackend};
    use snod_simnet::{FaultPlan, SimConfig};

    fn backend(window_per_leaf: usize) -> CentralizedBackend {
        CentralizedBackend {
            rule: DistanceOutlierConfig::new(5.0, 0.02),
            window_per_leaf,
        }
    }

    #[test]
    fn root_sees_every_reading() {
        let topo = Hierarchy::balanced(4, &[2, 2]).unwrap();
        let mut source = |_: NodeId, seq: u64| Some(vec![0.5 + 0.001 * (seq % 10) as f64]);
        let net = run_backend(&backend(100), topo, SimConfig::default(), &mut source, 50).unwrap();
        let root = net.topology().root();
        assert_eq!(net.app(root).window().unwrap().len(), 200); // 4 leaves × 50
    }

    /// The last leaf injects one `0.95` at reading 180; the root must
    /// flag exactly that value.
    fn flags_only_the_rare_value(topo: Hierarchy) {
        let last = *topo.leaves().last().unwrap();
        let mut source = move |node: NodeId, seq: u64| {
            if node == last && seq == 180 {
                Some(vec![0.95])
            } else {
                Some(vec![0.5 + 0.002 * ((seq % 8) as f64)])
            }
        };
        let net = run_backend(&backend(100), topo, SimConfig::default(), &mut source, 200).unwrap();
        let dets = &net.app(net.topology().root()).detections;
        assert_eq!(dets.len(), 1, "detections: {dets:?}");
        assert!((dets[0].value[0] - 0.95).abs() < 1e-9);
    }

    #[test]
    fn detects_rare_values_exactly() {
        flags_only_the_rare_value(Hierarchy::balanced(4, &[4]).unwrap());
    }

    #[test]
    fn a_one_leaf_hierarchy_detects_at_its_only_node() {
        flags_only_the_rare_value(Hierarchy::balanced(1, &[]).unwrap());
    }

    #[test]
    fn non_finite_readings_are_dropped_at_the_leaves() {
        const INJECT_AT: u64 = 300;
        let spiky = |i: u64| {
            if i.is_multiple_of(97) {
                0.95
            } else {
                0.5 + 0.002 * (i % 8) as f64
            }
        };
        // The poisoned run gets +∞ and NaN at INJECT_AT on every leaf,
        // then the clean stream resumes where it left off.
        let b = backend(100);
        let run = |poisoned: bool| {
            let shift = if poisoned { 2 } else { 0 };
            let mut source = move |_: NodeId, seq: u64| {
                Some(vec![match seq.checked_sub(INJECT_AT) {
                    Some(0) if poisoned => f64::INFINITY,
                    Some(1) if poisoned => f64::NAN,
                    Some(_) => spiky(seq - shift),
                    None => spiky(seq),
                }])
            };
            let topo = Hierarchy::balanced(2, &[2]).unwrap();
            let readings = 2 * INJECT_AT + shift;
            let net = run_backend(&b, topo, SimConfig::default(), &mut source, readings).unwrap();
            let root = net.app(net.topology().root());
            let values: Vec<Vec<f64>> = root.detections.iter().map(|d| d.value.clone()).collect();
            (values, root.window().unwrap().cell_count())
        };
        let clean = run(false);
        assert!(!clean.0.is_empty());
        // Same detections, and the root's grid holds no stranded cell.
        assert_eq!(run(true), clean);
    }

    #[test]
    fn message_cost_is_one_per_reading_per_hop() {
        let topo = Hierarchy::balanced(8, &[4, 2]).unwrap(); // 3 levels
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        let net = run_backend(&backend(50), topo, SimConfig::default(), &mut source, 100).unwrap();
        // 8 leaves × 100 readings × 2 hops (leaf→L2→root) = 1600 msgs.
        assert_eq!(net.stats().messages, 1_600);
    }

    #[test]
    fn zero_window_is_rejected() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let built =
            build_backend_network(&backend(0), topo, SimConfig::default(), FaultPlan::none());
        assert!(built.is_err());
    }
}
