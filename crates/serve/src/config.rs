//! Daemon and per-tenant configuration.

use std::path::PathBuf;
use std::time::Duration;

use snod_core::{
    build_backend_network, BackendKind, D3Backend, D3Config, D3Node, D3Payload, DetectorBackend,
    EstimatorConfig, FqnBackend, FqnConfig, MmdewBackend, MmdewNodeConfig,
};
use snod_engine::{FaultPlan, Hierarchy, Network, SimConfig};
use snod_outlier::DistanceOutlierConfig;

use crate::error::ServeError;

/// Detector parameters stamped onto every tenant the daemon creates.
///
/// Each tenant runs its own detector hierarchy (default: a single node
/// — one sensor stream scored against its own model; multi-leaf tenants
/// get the full leaf/leader escalation protocol). The `detector` field
/// picks the backend: D3's kernel-density distance rule (the default),
/// FQN's robust `median ± k·Q_n` rule, or MMDEW distribution-shift
/// alarms.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Leaf sensors per tenant.
    pub leaves: usize,
    /// Hierarchy fan-outs above the leaves (empty = leaves report to
    /// nobody: a single node when `leaves == 1`).
    pub fanouts: Vec<usize>,
    /// Sliding window size `|W|`.
    pub window: usize,
    /// Chain-sample size `|R|`.
    pub sample_size: usize,
    /// Distance-outlier radius `r`.
    pub radius: f64,
    /// Distance-outlier neighbor threshold `t`.
    pub min_neighbors: f64,
    /// Sample-forwarding fraction `f`.
    pub sample_fraction: f64,
    /// Base RNG seed (decorrelated per node, as everywhere else).
    pub seed: u64,
    /// Stream period: reading `seq` of a leaf carries stream time
    /// `phase + seq·period`.
    pub reading_period_ns: u64,
    /// Which detector backend every tenant runs. The daemon supports
    /// `D3`, `Fqn` and `Mmdew` (see [`TenantSpec::with_backend`]).
    pub detector: BackendKind,
    /// FQN threshold scale: flag when `|x − median| > k·Q_n`.
    pub k_scale: f64,
    /// MMDEW threshold scale `c` in `τ = c·√(1/n + 1/m)`.
    pub threshold_scale: f64,
}

impl Default for TenantSpec {
    fn default() -> Self {
        Self {
            leaves: 1,
            fanouts: Vec::new(),
            window: 256,
            sample_size: 32,
            radius: 0.02,
            min_neighbors: 10.0,
            sample_fraction: 0.5,
            seed: 7,
            reading_period_ns: 1_000_000_000,
            detector: BackendKind::D3,
            k_scale: 4.0,
            threshold_scale: 0.6,
        }
    }
}

impl TenantSpec {
    /// The tenant's hierarchy.
    pub fn topology(&self) -> Result<Hierarchy, ServeError> {
        Hierarchy::balanced(self.leaves, &self.fanouts)
            .map_err(|e| ServeError::Config(format!("tenant topology: {e}")))
    }

    /// The derived D3 configuration.
    pub fn d3_config(&self) -> Result<D3Config, ServeError> {
        let estimator = EstimatorConfig::builder()
            .window(self.window)
            .sample_size(self.sample_size)
            .seed(self.seed)
            .build()
            .map_err(|e| ServeError::Config(format!("tenant estimator: {e}")))?;
        Ok(D3Config {
            estimator,
            rule: DistanceOutlierConfig::new(self.min_neighbors, self.radius),
            sample_fraction: self.sample_fraction,
        })
    }

    /// The derived driver configuration.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            reading_period_ns: self.reading_period_ns,
            ..SimConfig::default()
        }
    }

    fn fqn_config(&self) -> FqnConfig {
        FqnConfig {
            dimensions: 1,
            window: self.window,
            k_scale: self.k_scale,
            warmup: self.sample_size.min(self.window).max(2),
            sample_fraction: self.sample_fraction,
            seed: self.seed,
        }
    }

    fn mmdew_config(&self) -> MmdewNodeConfig {
        let mut cfg = MmdewNodeConfig::default();
        cfg.detector.threshold_scale = self.threshold_scale;
        cfg.detector.seed = self.seed;
        cfg.sample_fraction = self.sample_fraction;
        cfg
    }

    /// Resolves `detector` to its validated backend recipe and hands it
    /// to `visitor` — the daemon's one `kind → backend` dispatch;
    /// everything a visitor does is monomorphized over the backend.
    ///
    /// MGDD is not a tenant detector: the spec carries no MDEF
    /// parameters (`r`, `αr`, `k_σ`), no update strategy and no
    /// broadcast levels to derive an [`snod_core::MgddConfig`] from.
    pub fn with_backend<V: BackendVisitor>(&self, visitor: V) -> Result<V::Out, ServeError> {
        fn checked<B: DetectorBackend, V: BackendVisitor>(
            backend: B,
            visitor: V,
        ) -> Result<V::Out, ServeError> {
            backend.validate().map_err(|e| {
                ServeError::Config(format!("tenant {} config: {e}", backend.kind()))
            })?;
            Ok(visitor.visit(backend))
        }
        match self.detector {
            BackendKind::D3 => checked(D3Backend(self.d3_config()?), visitor),
            BackendKind::Fqn => checked(FqnBackend(self.fqn_config()), visitor),
            BackendKind::Mmdew => checked(MmdewBackend(self.mmdew_config()), visitor),
            BackendKind::Mgdd | BackendKind::Centralized => Err(ServeError::Config(
                "serve tenants support the d3, fqn and mmdew detectors".into(),
            )),
        }
    }

    /// Validates the spec for the configured detector without building
    /// a runtime (the daemon calls this once at startup).
    pub fn validate(&self) -> Result<(), ServeError> {
        struct Check;
        impl BackendVisitor for Check {
            type Out = ();
            fn visit<B: DetectorBackend>(self, _: B) {}
        }
        self.topology()?;
        self.with_backend(Check)
    }

    /// Builds one D3 tenant runtime (the in-process reference side of
    /// the differential tests and of the benchmark).
    pub fn build_runtime(&self) -> Result<Network<D3Payload, D3Node>, ServeError> {
        self.build_backend_runtime(&D3Backend(self.d3_config()?))
    }

    /// Builds one tenant runtime for an arbitrary backend recipe.
    pub fn build_backend_runtime<B: DetectorBackend>(
        &self,
        backend: &B,
    ) -> Result<Network<B::Payload, B::Engine>, ServeError> {
        build_backend_network(
            backend,
            self.topology()?,
            self.sim_config(),
            FaultPlan::none(),
        )
        .map_err(|e| ServeError::Config(format!("tenant runtime: {e}")))
    }
}

/// What to do with the backend recipe a [`TenantSpec`] resolves to (a
/// closure generic over the backend type, which Rust cannot spell).
pub trait BackendVisitor {
    /// What the visit produces.
    type Out;
    /// Called with the validated recipe.
    fn visit<B: DetectorBackend>(self, backend: B) -> Self::Out;
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Ingestion listener address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Metrics/health HTTP listener address; `None` disables it.
    pub metrics_addr: Option<String>,
    /// Directory for per-tenant checkpoint files; `None` disables
    /// durability (acks then report `durable == received`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint after this many newly processed readings per tenant.
    pub checkpoint_every: u64,
    /// Also checkpoint when this much wall time has passed since the
    /// tenant's last checkpoint (and progress was made).
    pub checkpoint_interval: Duration,
    /// Bounded per-tenant queue capacity. A full queue sheds readings
    /// (unacked — the client retransmits them later).
    pub queue_capacity: usize,
    /// Maximum concurrent tenants.
    pub max_tenants: usize,
    /// Slow-loris guard: a connection holding a partial frame open
    /// longer than this is dropped.
    pub frame_deadline: Duration,
    /// Allow [`crate::wire::Msg::Crash`] fault-injection frames
    /// (tests only).
    pub allow_crash_frames: bool,
    /// Template for tenants created on first Hello.
    pub tenant: TenantSpec,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            metrics_addr: None,
            checkpoint_dir: None,
            checkpoint_every: 64,
            checkpoint_interval: Duration::from_secs(2),
            queue_capacity: 256,
            max_tenants: 4096,
            frame_deadline: Duration::from_secs(10),
            allow_crash_frames: false,
            tenant: TenantSpec::default(),
        }
    }
}

/// True when `name` is a valid tenant name: 1–64 chars from
/// `[A-Za-z0-9_-]` (it doubles as a checkpoint file stem, so path
/// separators and dots are out).
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_builds_a_single_node_runtime() {
        let spec = TenantSpec::default();
        let rt = spec.build_runtime().expect("builds");
        assert_eq!(rt.topology().node_count(), 1);
    }

    #[test]
    fn multi_leaf_spec_builds_a_hierarchy() {
        let spec = TenantSpec {
            leaves: 4,
            fanouts: vec![2, 2],
            ..TenantSpec::default()
        };
        let rt = spec.build_runtime().expect("builds");
        assert_eq!(rt.topology().leaves().len(), 4);
        assert!(rt.topology().node_count() > 4);
    }

    #[test]
    fn every_supported_detector_validates_and_builds() {
        struct Build<'a>(&'a TenantSpec);
        impl BackendVisitor for Build<'_> {
            type Out = usize;
            fn visit<B: DetectorBackend>(self, backend: B) -> usize {
                let rt = self.0.build_backend_runtime(&backend).expect("runtime");
                rt.topology().leaves().len()
            }
        }
        for kind in [BackendKind::D3, BackendKind::Fqn, BackendKind::Mmdew] {
            let spec = TenantSpec {
                detector: kind,
                leaves: 2,
                fanouts: vec![2],
                ..TenantSpec::default()
            };
            spec.validate().expect("valid spec");
            assert_eq!(spec.with_backend(Build(&spec)).expect("builds"), 2);
        }
        let rejected = |spec: TenantSpec| match spec.validate() {
            Err(ServeError::Config(why)) => why,
            other => panic!("expected a config error, got {other:?}"),
        };
        for detector in [BackendKind::Mgdd, BackendKind::Centralized] {
            let why = rejected(TenantSpec {
                detector,
                ..TenantSpec::default()
            });
            assert!(why.contains("d3, fqn and mmdew"), "{why}");
        }
        let why = rejected(TenantSpec {
            detector: BackendKind::Fqn,
            k_scale: -1.0,
            ..TenantSpec::default()
        });
        assert!(why.contains("k_scale"), "{why}");
        // A window below 2 is a typed error (not a `min > max` clamp panic).
        let why = rejected(TenantSpec {
            detector: BackendKind::Fqn,
            window: 1,
            ..TenantSpec::default()
        });
        assert!(
            why.contains("fqn window must hold at least 2 values"),
            "{why}"
        );
        let why = rejected(TenantSpec {
            sample_fraction: 1.5,
            ..TenantSpec::default()
        });
        assert!(why.contains("sample fraction"), "{why}");
    }

    #[test]
    fn tenant_names_are_validated() {
        assert!(valid_tenant_name("plant-7_A"));
        assert!(!valid_tenant_name(""));
        assert!(!valid_tenant_name("a/b"));
        assert!(!valid_tenant_name("dot.dot"));
        assert!(!valid_tenant_name(&"x".repeat(65)));
    }
}
