//! First-class detector backends.
//!
//! The five detector families — D3 (kernel-density distance rule), MGDD
//! (multi-granular MDEF), FQN (streaming Q_n robust scale), MMDEW (MMD
//! on exponential windows) and the centralized baseline (every reading
//! to the root) — share the same runtime shape: a
//! per-node [`DetectorEngine`] that ingests readings, exchanges wire
//! messages up the hierarchy and records [`Detection`]s. This module
//! names that shape ([`DetectorBackend`]) so every layer above the
//! engines — the pipeline, the CLI, `snod serve` tenants and the bench
//! crate's conformance harness — can be written once, generically,
//! instead of once per algorithm.
//!
//! A backend value is a *validated recipe*: it knows how to build one
//! engine per node (seed-decorrelated via the node id) and how to read
//! the detections back out. [`build_backend_network`] turns a recipe
//! into the one driver over those engines, whether it then runs to
//! quiescence (the simulator) or in slices (a `snod serve` tenant).

use snod_outlier::DistanceOutlierConfig;
use snod_persist::Persist;
use snod_simnet::{
    DetectorEngine, FaultPlan, Hierarchy, Network, NodeId, SimConfig, StreamSource, Wire,
};

use crate::centralized::{CentralizedNode, CentralizedPayload};
use crate::config::{CoreError, D3Config, MgddConfig};
use crate::containment::Detection;
use crate::d3::{D3Node, D3Payload};
use crate::fqn::{FqnConfig, FqnNode, FqnPayload};
use crate::mgdd::{MgddNode, MgddPayload};
use crate::shift::{MmdewNode, MmdewNodeConfig, MmdewPayload};

/// The detector families selectable at runtime (CLI `--detector`,
/// serve tenant specs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Distributed distance-based deviation detection (paper §7).
    D3,
    /// Multi-granular MDEF deviation detection (paper §8).
    Mgdd,
    /// MMD-on-exponential-windows change detection (Kalinke et al.).
    Mmdew,
    /// Streaming Q_n robust-scale outlier detection (Cafaro et al.).
    Fqn,
    /// The centralized baseline: every reading relayed to the root
    /// (paper §8.1, Figure 11).
    Centralized,
}

impl BackendKind {
    /// All selectable kinds, in CLI presentation order.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::D3,
        BackendKind::Mgdd,
        BackendKind::Mmdew,
        BackendKind::Fqn,
        BackendKind::Centralized,
    ];

    /// The CLI/config token for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::D3 => "d3",
            BackendKind::Mgdd => "mgdd",
            BackendKind::Mmdew => "mmdew",
            BackendKind::Fqn => "fqn",
            BackendKind::Centralized => "centralized",
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, CoreError> {
        match s {
            "d3" => Ok(BackendKind::D3),
            "mgdd" => Ok(BackendKind::Mgdd),
            "mmdew" => Ok(BackendKind::Mmdew),
            "fqn" => Ok(BackendKind::Fqn),
            "centralized" => Ok(BackendKind::Centralized),
            _ => Err(CoreError::Config(
                "unknown detector (expected d3|mgdd|mmdew|fqn|centralized)",
            )),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A validated recipe for one detector family: builds the per-node
/// engines and reads their detections back out.
pub trait DetectorBackend: Clone + Send + Sync + 'static {
    /// The wire message type exchanged up the hierarchy.
    type Payload: Wire + Persist + Clone + Send + 'static;
    /// The per-node engine.
    type Engine: DetectorEngine<Self::Payload> + Persist + Send + 'static;

    /// Which family this is.
    fn kind(&self) -> BackendKind;

    /// Validates the recipe's parameters.
    fn validate(&self) -> Result<(), CoreError>;

    /// Builds the engine for `node` within `topo` (seed-decorrelated).
    fn make_engine(&self, node: NodeId, topo: &Hierarchy) -> Self::Engine;

    /// The detections an engine has recorded so far.
    fn detections(engine: &Self::Engine) -> &[Detection];
}

/// [`DetectorBackend`] recipe for D3.
#[derive(Debug, Clone)]
pub struct D3Backend(pub D3Config);

impl DetectorBackend for D3Backend {
    type Payload = D3Payload;
    type Engine = D3Node;

    fn kind(&self) -> BackendKind {
        BackendKind::D3
    }

    fn validate(&self) -> Result<(), CoreError> {
        self.0.validate()
    }

    fn make_engine(&self, node: NodeId, topo: &Hierarchy) -> D3Node {
        D3Node::new(node, topo, &self.0)
    }

    fn detections(engine: &D3Node) -> &[Detection] {
        &engine.detections
    }
}

/// [`DetectorBackend`] recipe for MGDD. `broadcast_levels` lists the
/// tiers whose leaders broadcast their models downward.
#[derive(Debug, Clone)]
pub struct MgddBackend {
    /// The MGDD parameters.
    pub cfg: MgddConfig,
    /// Tiers whose leaders broadcast models (1 = leaf tier). Empty means
    /// the paper's default: the top tier only.
    pub broadcast_levels: Vec<u8>,
}

impl DetectorBackend for MgddBackend {
    type Payload = MgddPayload;
    type Engine = MgddNode;

    fn kind(&self) -> BackendKind {
        BackendKind::Mgdd
    }

    fn validate(&self) -> Result<(), CoreError> {
        self.cfg.validate()
    }

    fn make_engine(&self, node: NodeId, topo: &Hierarchy) -> MgddNode {
        let top = [topo.level_count() as u8];
        let levels = if self.broadcast_levels.is_empty() {
            &top[..]
        } else {
            &self.broadcast_levels
        };
        MgddNode::new(node, topo, &self.cfg, levels)
    }

    fn detections(engine: &MgddNode) -> &[Detection] {
        &engine.detections
    }
}

/// [`DetectorBackend`] recipe for FQN.
#[derive(Debug, Clone)]
pub struct FqnBackend(pub FqnConfig);

impl DetectorBackend for FqnBackend {
    type Payload = FqnPayload;
    type Engine = FqnNode;

    fn kind(&self) -> BackendKind {
        BackendKind::Fqn
    }

    fn validate(&self) -> Result<(), CoreError> {
        self.0.validate()
    }

    fn make_engine(&self, node: NodeId, topo: &Hierarchy) -> FqnNode {
        FqnNode::new(node, topo, &self.0)
    }

    fn detections(engine: &FqnNode) -> &[Detection] {
        &engine.detections
    }
}

/// [`DetectorBackend`] recipe for MMDEW.
#[derive(Debug, Clone)]
pub struct MmdewBackend(pub MmdewNodeConfig);

impl DetectorBackend for MmdewBackend {
    type Payload = MmdewPayload;
    type Engine = MmdewNode;

    fn kind(&self) -> BackendKind {
        BackendKind::Mmdew
    }

    fn validate(&self) -> Result<(), CoreError> {
        self.0.validate()
    }

    fn make_engine(&self, node: NodeId, topo: &Hierarchy) -> MmdewNode {
        MmdewNode::new(node, topo, &self.0)
    }

    fn detections(engine: &MmdewNode) -> &[Detection] {
        &engine.detections
    }
}

/// [`DetectorBackend`] recipe for the centralized baseline: the root
/// keeps an exact union window of `window_per_leaf` readings per leaf
/// and applies `rule` with its threshold scaled to the union.
#[derive(Debug, Clone)]
pub struct CentralizedBackend {
    /// The `(D, r)` rule, with `D` stated per leaf window.
    pub rule: DistanceOutlierConfig,
    /// Per-leaf window `|W|`.
    pub window_per_leaf: usize,
}

impl DetectorBackend for CentralizedBackend {
    type Payload = CentralizedPayload;
    type Engine = CentralizedNode;

    fn kind(&self) -> BackendKind {
        BackendKind::Centralized
    }

    fn validate(&self) -> Result<(), CoreError> {
        let r = self.rule.radius;
        if !(r > 0.0) || !r.is_finite() {
            return Err(CoreError::Config(
                "centralized radius must be positive and finite",
            ));
        }
        if self.window_per_leaf == 0 {
            return Err(CoreError::Config("window per leaf must be positive"));
        }
        Ok(())
    }

    fn make_engine(&self, node: NodeId, topo: &Hierarchy) -> CentralizedNode {
        CentralizedNode::new(node, topo, self.rule, self.window_per_leaf)
    }

    fn detections(engine: &CentralizedNode) -> &[Detection] {
        &engine.detections
    }
}

/// Builds the simulated network for any backend without running it.
pub fn build_backend_network<B: DetectorBackend>(
    backend: &B,
    topo: Hierarchy,
    sim: SimConfig,
    plan: FaultPlan,
) -> Result<Network<B::Payload, B::Engine>, CoreError> {
    backend.validate()?;
    Ok(Network::new(topo, sim, |node, topo| backend.make_engine(node, topo)).with_fault_plan(plan))
}

/// Runs any backend under a fault schedule: each leaf consumes
/// `readings_per_leaf` readings from `source`.
pub fn run_backend_with_faults<B: DetectorBackend, S: StreamSource>(
    backend: &B,
    topo: Hierarchy,
    sim: SimConfig,
    plan: FaultPlan,
    source: &mut S,
    readings_per_leaf: u64,
) -> Result<Network<B::Payload, B::Engine>, CoreError> {
    let mut net = build_backend_network(backend, topo, sim, plan)?;
    net.run(source, readings_per_leaf);
    Ok(net)
}

/// [`run_backend_with_faults`] under [`FaultPlan::none()`].
pub fn run_backend<B: DetectorBackend, S: StreamSource>(
    backend: &B,
    topo: Hierarchy,
    sim: SimConfig,
    source: &mut S,
    readings_per_leaf: u64,
) -> Result<Network<B::Payload, B::Engine>, CoreError> {
    run_backend_with_faults(backend, topo, sim, FaultPlan::none(), source, readings_per_leaf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EstimatorConfig, UpdateStrategy};
    use snod_outlier::MdefConfig;

    #[test]
    fn kind_tokens_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.as_str().parse::<BackendKind>().unwrap(), kind);
        }
        assert!("kde".parse::<BackendKind>().is_err());
    }

    #[test]
    fn every_backend_runs_end_to_end() {
        fn drive<B: DetectorBackend>(backend: &B) -> usize {
            let topo = Hierarchy::balanced(4, &[2, 2]).unwrap();
            let mut source = |node: NodeId, seq: u64| {
                let base = if seq < 200 { 0.3 } else { 0.7 };
                if node.0 == 0 && seq % 90 == 89 {
                    Some(vec![3.0])
                } else {
                    Some(vec![
                        base + 0.01 * ((seq.wrapping_mul(13) + node.0 as u64) % 7) as f64,
                    ])
                }
            };
            let net = run_backend(backend, topo, SimConfig::default(), &mut source, 400).unwrap();
            net.apps().map(|(_, a)| B::detections(a).len()).sum()
        }

        let estimator = EstimatorConfig::builder()
            .window(500)
            .sample_size(64)
            .seed(7)
            .build()
            .unwrap();
        for kind in BackendKind::ALL {
            let detections = match kind {
                BackendKind::D3 => drive(&D3Backend(D3Config {
                    estimator,
                    rule: DistanceOutlierConfig::new(10.0, 0.02),
                    sample_fraction: 0.5,
                })),
                BackendKind::Mgdd => drive(&MgddBackend {
                    cfg: MgddConfig {
                        estimator,
                        rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
                        sample_fraction: 0.5,
                        updates: UpdateStrategy::EveryAcceptance,
                        staleness_bound_ns: None,
                    },
                    broadcast_levels: vec![],
                }),
                BackendKind::Fqn => drive(&FqnBackend(FqnConfig::default())),
                BackendKind::Mmdew => drive(&MmdewBackend(MmdewNodeConfig::default())),
                BackendKind::Centralized => drive(&CentralizedBackend {
                    rule: DistanceOutlierConfig::new(10.0, 0.02),
                    window_per_leaf: 100,
                }),
            };
            assert!(detections > 0, "{kind} silent");
        }
    }

    #[test]
    fn invalid_recipes_are_rejected() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let fqn = FqnConfig {
            k_scale: -1.0,
            ..FqnConfig::default()
        };
        assert!(build_backend_network(
            &FqnBackend(fqn),
            topo.clone(),
            SimConfig::default(),
            FaultPlan::none()
        )
        .is_err());
        // A bad radius or an empty window is a config error, not a panic
        // inside `ExactWindowDetector::new`.
        for (radius, window_per_leaf) in [(0.0, 100), (-0.02, 100), (f64::NAN, 100), (0.02, 0)] {
            let bad = CentralizedBackend {
                rule: DistanceOutlierConfig::new(10.0, radius),
                window_per_leaf,
            };
            let built =
                build_backend_network(&bad, topo.clone(), SimConfig::default(), FaultPlan::none());
            assert!(built.is_err(), "radius {radius}, window {window_per_leaf}");
        }
        let mut mmdew = MmdewNodeConfig::default();
        mmdew.detector.bucket_cap = 0;
        assert!(build_backend_network(
            &MmdewBackend(mmdew),
            topo,
            SimConfig::default(),
            FaultPlan::none()
        )
        .is_err());
    }
}
