//! Configuration types with the paper's defaults.

use snod_density::DensityError;
use snod_outlier::{DistanceOutlierConfig, MdefConfig};
use snod_persist::{ByteReader, ByteWriter, Persist, PersistError};
use snod_sketch::SketchError;

/// Errors surfaced by the core algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A sketch rejected its parameters.
    Sketch(SketchError),
    /// A density model rejected its input.
    Density(DensityError),
    /// A configuration field was invalid.
    Config(&'static str),
    /// The estimator has not observed any data yet.
    NoData,
    /// A checkpoint could not be written or read back.
    Persist(PersistError),
}

impl From<SketchError> for CoreError {
    fn from(e: SketchError) -> Self {
        CoreError::Sketch(e)
    }
}

impl From<DensityError> for CoreError {
    fn from(e: DensityError) -> Self {
        CoreError::Density(e)
    }
}

impl From<PersistError> for CoreError {
    fn from(e: PersistError) -> Self {
        CoreError::Persist(e)
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Sketch(e) => write!(f, "sketch error: {e}"),
            CoreError::Density(e) => write!(f, "density error: {e}"),
            CoreError::Config(what) => write!(f, "invalid configuration: {what}"),
            CoreError::NoData => write!(f, "estimator has not observed any data yet"),
            CoreError::Persist(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// When an incrementally maintained kernel model is fully rebuilt.
///
/// Between rebuilds the kernel *centres* track the data exactly (FIFO
/// replicas merge each push in `O(log|R| + shift)`; estimators serve the
/// cached model), while the *bandwidths* stay at their last-rebuild
/// values. The paper's rule `Bᵢ = √5·σᵢ·|R|^(−1/(d+4))` makes the
/// resulting error boundable: a relative σ drift of at most `ε` perturbs
/// every bandwidth by at most the same factor `(1+ε)`, and since the
/// Epanechnikov CDF is Lipschitz in its bandwidth, every probability
/// (hence every neighborhood count `N(p, r)`) moves by `O(ε)` of the
/// kernel mass that straddles the query boundary — the bulk of the mass,
/// strictly inside or outside the query box, contributes error zero.
/// MDEF, a *ratio* of such counts, is even less sensitive. The policy
/// therefore caps `ε` via [`sigma_tolerance`](Self::sigma_tolerance) and
/// additionally forces a rebuild every
/// [`rebuild_every`](Self::rebuild_every) pushes, which also bounds the
/// drift of the `|R|^(−1/(d+4))` factor to
/// `(1 + rebuild_every/|R|)^(1/(d+4))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildPolicy {
    /// Hard epoch length: force a full rebuild after this many
    /// model-changing pushes (1 = rebuild on every push, the pre-epoch
    /// behaviour).
    pub rebuild_every: u64,
    /// Early-rebuild trigger: maximum tolerated relative drift of any
    /// dimension's σ since the bandwidths were last derived.
    pub sigma_tolerance: f64,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        Self {
            rebuild_every: 32,
            sigma_tolerance: 0.1,
        }
    }
}

impl RebuildPolicy {
    /// A policy reproducing the pre-epoch behaviour: full rebuild on
    /// every push.
    pub fn always() -> Self {
        Self {
            rebuild_every: 1,
            sigma_tolerance: 0.0,
        }
    }

    /// Validates the policy.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.rebuild_every == 0 {
            return Err(CoreError::Config("rebuild interval must be positive"));
        }
        if !(self.sigma_tolerance >= 0.0) {
            return Err(CoreError::Config("sigma tolerance must be non-negative"));
        }
        Ok(())
    }

    /// Whether any dimension's σ has drifted beyond the tolerance since
    /// the bandwidths were derived from `built`.
    pub fn sigma_drift_exceeded(&self, built: &[f64], current: &[f64]) -> bool {
        if built.len() != current.len() {
            return true;
        }
        built
            .iter()
            .zip(current)
            .any(|(&b, &s)| Self::sigma_drift(b, s) > self.sigma_tolerance)
    }

    /// Relative drift of one dimension's σ from the `built` one. The
    /// estimator's interval test evaluates this same expression at the
    /// ends of σ's interval; each operation rounds monotonically, so the
    /// drift of any σ between the ends lies between theirs.
    pub(crate) fn sigma_drift(built: f64, sigma: f64) -> f64 {
        let denom = built.abs().max(f64::EPSILON);
        ((sigma - built) / denom).abs()
    }

    /// The epoch decision: rebuild when the push budget is exhausted or
    /// the σ drift exceeds the tolerance.
    pub fn should_rebuild(
        &self,
        pushes_since_rebuild: u64,
        built: &[f64],
        current: &[f64],
    ) -> bool {
        pushes_since_rebuild >= self.rebuild_every || self.sigma_drift_exceeded(built, current)
    }
}

/// Online KDE model compression, applied right after every full model
/// rebuild: near-duplicate kernel centres (within
/// [`tolerance`](Self::tolerance) bandwidths of each other in every
/// dimension) merge into single weighted centres, and the tolerance
/// escalates until at most [`budget`](Self::budget) centres remain. The
/// scoring hot path then evaluates `budget` kernels instead of `|R|`,
/// with query error bounded by `~1.5·d·tolerance` per unit of
/// probability mass (see `snod_density::CompressionStats`). Disabled by
/// default ([`EstimatorConfig::compression`] is `None`), which keeps the
/// model bit-identical to the uncompressed baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelCompression {
    /// Maximum number of weighted kernel centres after compression.
    pub budget: usize,
    /// Merge radius in bandwidth units (the starting tolerance; it
    /// doubles as needed to meet the budget).
    pub tolerance: f64,
}

impl ModelCompression {
    /// Validates the knob.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.budget == 0 {
            return Err(CoreError::Config("compression budget must be positive"));
        }
        if !(self.tolerance >= 0.0) || !self.tolerance.is_finite() {
            return Err(CoreError::Config(
                "compression tolerance must be finite and non-negative",
            ));
        }
        Ok(())
    }
}

snod_persist::persist_struct! {
    ModelCompression {
        budget,
        tolerance,
    }
    check: |c| c.validate().map_err(|_| PersistError::Corrupt("invalid compression config"))
}

/// Per-node estimator parameters (Section 5). Defaults follow the
/// paper's experiments: `|W| = 10,000`, `|R| = 0.05·|W|`, ε = 0.2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Sliding-window length `|W|`.
    pub window: usize,
    /// Kernel sample size `|R|`.
    pub sample_size: usize,
    /// Data dimensionality `d`.
    pub dimensions: usize,
    /// Error parameter ε of the windowed variance sketch.
    pub variance_epsilon: f64,
    /// RNG seed for the chain sampler.
    pub seed: u64,
    /// Epoch policy for the incrementally maintained kernel models (both
    /// the node's own cached model and any FIFO replica built from its
    /// broadcasts — `MgddConfig` and `MonitorConfig` expose it here).
    pub rebuild: RebuildPolicy,
    /// Optional online model compression applied after every rebuild;
    /// `None` (the default) keeps every kernel at weight 1.
    pub compression: Option<ModelCompression>,
}

impl EstimatorConfig {
    /// Starts a builder with the paper's defaults.
    pub fn builder() -> EstimatorConfigBuilder {
        EstimatorConfigBuilder::default()
    }

    /// Re-validates the fields (the builder already enforces these, but
    /// the fields are public, so hand-assembled configurations can be out
    /// of range — the run_* entry points call this so a bad config
    /// surfaces as a typed [`CoreError`] instead of a panic inside a
    /// simulation callback).
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.window == 0 {
            return Err(CoreError::Config("window must be positive"));
        }
        if self.sample_size == 0 {
            return Err(CoreError::Config("sample size must be positive"));
        }
        if self.dimensions == 0 {
            return Err(CoreError::Config("dimensionality must be positive"));
        }
        if !(self.variance_epsilon > 0.0 && self.variance_epsilon <= 1.0) {
            return Err(CoreError::Config("variance epsilon must lie in (0, 1]"));
        }
        if let Some(c) = &self.compression {
            c.validate()?;
        }
        self.rebuild.validate()
    }
}

/// Builder for [`EstimatorConfig`].
#[derive(Debug, Clone)]
pub struct EstimatorConfigBuilder {
    window: usize,
    sample_size: Option<usize>,
    dimensions: usize,
    variance_epsilon: f64,
    seed: u64,
    rebuild: RebuildPolicy,
    compression: Option<ModelCompression>,
}

impl Default for EstimatorConfigBuilder {
    fn default() -> Self {
        Self {
            window: 10_000,
            sample_size: None,
            dimensions: 1,
            variance_epsilon: 0.2,
            seed: 0,
            rebuild: RebuildPolicy::default(),
            compression: None,
        }
    }
}

impl EstimatorConfigBuilder {
    /// Sets the sliding-window length `|W|`.
    pub fn window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Sets the sample size `|R|` (defaults to `0.05·|W|`).
    pub fn sample_size(mut self, sample_size: usize) -> Self {
        self.sample_size = Some(sample_size);
        self
    }

    /// Sets the data dimensionality.
    pub fn dimensions(mut self, dims: usize) -> Self {
        self.dimensions = dims;
        self
    }

    /// Sets the variance-sketch error parameter ε.
    pub fn variance_epsilon(mut self, eps: f64) -> Self {
        self.variance_epsilon = eps;
        self
    }

    /// Sets the sampler seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the epoch-based model rebuild policy.
    pub fn rebuild_policy(mut self, rebuild: RebuildPolicy) -> Self {
        self.rebuild = rebuild;
        self
    }

    /// Enables online model compression after every rebuild.
    pub fn compression(mut self, compression: ModelCompression) -> Self {
        self.compression = Some(compression);
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<EstimatorConfig, CoreError> {
        if self.window == 0 {
            return Err(CoreError::Config("window must be positive"));
        }
        if self.dimensions == 0 {
            return Err(CoreError::Config("dimensionality must be positive"));
        }
        if !(self.variance_epsilon > 0.0 && self.variance_epsilon <= 1.0) {
            return Err(CoreError::Config("variance epsilon must lie in (0, 1]"));
        }
        let sample_size = self
            .sample_size
            .unwrap_or_else(|| (self.window as f64 * 0.05).round().max(1.0) as usize);
        if sample_size == 0 {
            return Err(CoreError::Config("sample size must be positive"));
        }
        self.rebuild.validate()?;
        if let Some(c) = &self.compression {
            c.validate()?;
        }
        Ok(EstimatorConfig {
            window: self.window,
            sample_size,
            dimensions: self.dimensions,
            variance_epsilon: self.variance_epsilon,
            seed: self.seed,
            rebuild: self.rebuild,
            compression: self.compression,
        })
    }
}

/// Configuration of the D3 algorithm (Section 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct D3Config {
    /// Per-node estimator parameters.
    pub estimator: EstimatorConfig,
    /// The `(D, r)`-outlier rule.
    pub rule: DistanceOutlierConfig,
    /// Sample-propagation fraction `f` (paper default 0.5).
    pub sample_fraction: f64,
}

impl D3Config {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.estimator.validate()?;
        if !(0.0..=1.0).contains(&self.sample_fraction) {
            return Err(CoreError::Config("sample fraction must lie in [0, 1]"));
        }
        if !(self.rule.radius > 0.0) {
            return Err(CoreError::Config("outlier radius must be positive"));
        }
        Ok(())
    }
}

/// How leaders propagate global-model updates to the leaves (Section 8.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateStrategy {
    /// Push every accepted sample value down immediately (the base MGDD
    /// scheme: `(f·l)^n` update messages per observation per sensor).
    EveryAcceptance,
    /// Push the full model only when its JS-divergence from the last
    /// broadcast model exceeds `js_threshold` (checked every
    /// `check_every` accepted values) — the paper's *"update the children
    /// only when their estimator model has significantly changed"*
    /// optimisation.
    OnModelChange {
        /// JS-divergence threshold in `[0, 1]`.
        js_threshold: f64,
        /// Number of accepted values between divergence checks.
        check_every: u64,
    },
}

/// Configuration of the MGDD algorithm (Section 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MgddConfig {
    /// Per-node estimator parameters.
    pub estimator: EstimatorConfig,
    /// The MDEF rule (`r`, `αr`, `k_σ`).
    pub rule: MdefConfig,
    /// Sample-propagation fraction `f`.
    pub sample_fraction: f64,
    /// Global-model update strategy.
    pub updates: UpdateStrategy,
    /// Graceful-degradation knob for faulty networks: the maximum age
    /// (in simulated ns) of a global replica before a leaf stops
    /// trusting it. Past the bound the leaf scores against the
    /// last-known model only as a last resort (counted in
    /// `NetStats::degraded_scores`) and, when *every* replica is stale
    /// or cold, falls back to purely local MDEF detection (counted in
    /// `NetStats::local_fallbacks`). `None` disables the bound: replicas
    /// are trusted forever, the pre-fault-layer behaviour.
    pub staleness_bound_ns: Option<u64>,
}

impl MgddConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.estimator.validate()?;
        if !(0.0..=1.0).contains(&self.sample_fraction) {
            return Err(CoreError::Config("sample fraction must lie in [0, 1]"));
        }
        if self.staleness_bound_ns == Some(0) {
            return Err(CoreError::Config("staleness bound must be positive"));
        }
        if let UpdateStrategy::OnModelChange {
            js_threshold,
            check_every,
        } = self.updates
        {
            if !(0.0..=1.0).contains(&js_threshold) {
                return Err(CoreError::Config("JS threshold must lie in [0, 1]"));
            }
            if check_every == 0 {
                return Err(CoreError::Config("check interval must be positive"));
            }
        }
        Ok(())
    }
}

snod_persist::persist_struct! {
    RebuildPolicy {
        rebuild_every,
        sigma_tolerance,
    }
    check: |c| c.validate().map_err(|_| PersistError::Corrupt("invalid rebuild policy"))
}

snod_persist::persist_struct! {
    EstimatorConfig {
        window,
        sample_size,
        dimensions,
        variance_epsilon,
        seed,
        rebuild,
        compression,
    }
    check: |c| c.validate().map_err(|_| PersistError::Corrupt("invalid estimator config"))
}

snod_persist::persist_struct! {
    D3Config {
        estimator,
        rule,
        sample_fraction,
    }
    check: |c| c.validate().map_err(|_| PersistError::Corrupt("invalid d3 config"))
}

impl Persist for UpdateStrategy {
    fn save(&self, w: &mut ByteWriter) {
        match self {
            UpdateStrategy::EveryAcceptance => w.put_u8(0),
            UpdateStrategy::OnModelChange {
                js_threshold,
                check_every,
            } => {
                w.put_u8(1);
                js_threshold.save(w);
                check_every.save(w);
            }
        }
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(UpdateStrategy::EveryAcceptance),
            1 => Ok(UpdateStrategy::OnModelChange {
                js_threshold: f64::load(r)?,
                check_every: u64::load(r)?,
            }),
            _ => Err(PersistError::Corrupt("unknown update-strategy tag")),
        }
    }
}

snod_persist::persist_struct! {
    MgddConfig {
        estimator,
        rule,
        sample_fraction,
        updates,
        staleness_bound_ns,
    }
    check: |c| c.validate().map_err(|_| PersistError::Corrupt("invalid mgdd config"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_applies_paper_defaults() {
        let c = EstimatorConfig::builder().build().unwrap();
        assert_eq!(c.window, 10_000);
        assert_eq!(c.sample_size, 500); // 0.05 · |W|
        assert_eq!(c.dimensions, 1);
        assert!((c.variance_epsilon - 0.2).abs() < 1e-12);
    }

    #[test]
    fn builder_validates() {
        assert!(EstimatorConfig::builder().window(0).build().is_err());
        assert!(EstimatorConfig::builder().dimensions(0).build().is_err());
        assert!(EstimatorConfig::builder()
            .variance_epsilon(0.0)
            .build()
            .is_err());
        assert!(EstimatorConfig::builder()
            .window(100)
            .sample_size(0)
            .build()
            .is_err());
    }

    #[test]
    fn compression_config_validation() {
        assert!(EstimatorConfig::builder()
            .compression(ModelCompression {
                budget: 50,
                tolerance: 0.05,
            })
            .build()
            .is_ok());
        // A zero tolerance is legal: compression then only kicks in via
        // the budget-driven escalation.
        assert!(EstimatorConfig::builder()
            .compression(ModelCompression {
                budget: 50,
                tolerance: 0.0,
            })
            .build()
            .is_ok());
        assert!(EstimatorConfig::builder()
            .compression(ModelCompression {
                budget: 0,
                tolerance: 0.05,
            })
            .build()
            .is_err());
        assert!(EstimatorConfig::builder()
            .compression(ModelCompression {
                budget: 50,
                tolerance: f64::NAN,
            })
            .build()
            .is_err());
        assert!(EstimatorConfig::builder()
            .compression(ModelCompression {
                budget: 50,
                tolerance: -0.1,
            })
            .build()
            .is_err());
    }

    #[test]
    fn rebuild_policy_defaults_and_validation() {
        let c = EstimatorConfig::builder().build().unwrap();
        assert_eq!(c.rebuild, RebuildPolicy::default());
        assert!(EstimatorConfig::builder()
            .rebuild_policy(RebuildPolicy {
                rebuild_every: 0,
                sigma_tolerance: 0.1,
            })
            .build()
            .is_err());
        assert!(EstimatorConfig::builder()
            .rebuild_policy(RebuildPolicy {
                rebuild_every: 8,
                sigma_tolerance: -0.5,
            })
            .build()
            .is_err());
    }

    #[test]
    fn rebuild_policy_decisions() {
        let p = RebuildPolicy {
            rebuild_every: 10,
            sigma_tolerance: 0.1,
        };
        // Push budget.
        assert!(!p.should_rebuild(9, &[1.0], &[1.0]));
        assert!(p.should_rebuild(10, &[1.0], &[1.0]));
        // σ drift, relative to the built value.
        assert!(!p.should_rebuild(1, &[1.0], &[1.05]));
        assert!(p.should_rebuild(1, &[1.0], &[1.2]));
        assert!(p.should_rebuild(1, &[1.0, 2.0], &[1.0, 1.5]));
        // Dimensionality change always rebuilds.
        assert!(p.should_rebuild(1, &[1.0], &[1.0, 1.0]));
        // `always()` reproduces the pre-epoch behaviour.
        assert!(RebuildPolicy::always().should_rebuild(1, &[1.0], &[1.0]));
    }

    #[test]
    fn d3_config_validates_fraction() {
        let est = EstimatorConfig::builder().build().unwrap();
        let bad = D3Config {
            estimator: est,
            rule: DistanceOutlierConfig::new(45.0, 0.01),
            sample_fraction: 1.5,
        };
        assert!(bad.validate().is_err());
        let good = D3Config {
            sample_fraction: 0.5,
            ..bad
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    fn mgdd_config_validates_update_strategy() {
        let est = EstimatorConfig::builder().build().unwrap();
        let rule = MdefConfig::new(0.08, 0.01, 3.0).unwrap();
        let bad = MgddConfig {
            estimator: est,
            rule,
            sample_fraction: 0.5,
            updates: UpdateStrategy::OnModelChange {
                js_threshold: 2.0,
                check_every: 10,
            },
            staleness_bound_ns: None,
        };
        assert!(bad.validate().is_err());
        let good = MgddConfig {
            updates: UpdateStrategy::EveryAcceptance,
            ..bad
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    fn mgdd_config_validates_staleness_bound() {
        let est = EstimatorConfig::builder().build().unwrap();
        let rule = MdefConfig::new(0.08, 0.01, 3.0).unwrap();
        let base = MgddConfig {
            estimator: est,
            rule,
            sample_fraction: 0.5,
            updates: UpdateStrategy::EveryAcceptance,
            staleness_bound_ns: Some(0),
        };
        assert!(base.validate().is_err());
        assert!(MgddConfig {
            staleness_bound_ns: Some(1),
            ..base
        }
        .validate()
        .is_ok());
        assert!(MgddConfig {
            staleness_bound_ns: None,
            ..base
        }
        .validate()
        .is_ok());
    }
}
