//! Per-node estimator state (paper Section 5).
//!
//! Each sensor maintains exactly what Theorem 1 charges it for:
//! a chain sample `R` of the current sliding window and an ε-approximate
//! standard deviation per dimension — `O(d(|R| + ε⁻²·log|W|))` memory in
//! total. From those two pieces a kernel density model is materialised on
//! demand ([`SensorEstimator::model`]): the paper's Equation 1 estimator
//! with the bandwidth rule of Section 4, using the sorted-centre 1-d
//! variant of Section 5.3 when `d = 1`.
//!
//! Leader (parent) nodes use the same type with *count scaling*: their
//! conceptual window is the union of their descendants' windows
//! (`|W_p| = Σ|W_i|`, Section 3), while their actual input is the
//! probabilistically forwarded sample sub-stream.

use snod_density::{DensityError, DensityModel, Kde, Kde1d};
use snod_outlier::{DistanceOutlierConfig, MdefConfig, MdefDetector, MdefEvaluation};
use snod_persist::{ByteReader, ByteWriter, Persist, PersistError};
use snod_sketch::{ChainSampler, WindowedVariance};

use crate::config::{CoreError, EstimatorConfig};

/// A materialised density model — the 1-d fast path or the generic
/// d-dimensional product-kernel estimator.
#[derive(Debug, Clone)]
pub enum SensorModel {
    /// Sorted-centre one-dimensional KDE (`O(log|R| + |R′|)` queries).
    One(Kde1d),
    /// Generic d-dimensional KDE (`O(d|R|)` queries).
    Multi(Kde),
}

impl DensityModel for SensorModel {
    fn dims(&self) -> usize {
        match self {
            SensorModel::One(m) => m.dims(),
            SensorModel::Multi(m) => m.dims(),
        }
    }

    fn window_len(&self) -> f64 {
        match self {
            SensorModel::One(m) => m.window_len(),
            SensorModel::Multi(m) => m.window_len(),
        }
    }

    fn pdf(&self, x: &[f64]) -> Result<f64, DensityError> {
        match self {
            SensorModel::One(m) => m.pdf(x),
            SensorModel::Multi(m) => m.pdf(x),
        }
    }

    fn box_prob(&self, lo: &[f64], hi: &[f64]) -> Result<f64, DensityError> {
        match self {
            SensorModel::One(m) => m.box_prob(lo, hi),
            SensorModel::Multi(m) => m.box_prob(lo, hi),
        }
    }

    fn neighborhood_counts(&self, points: &[f64], r: f64) -> Result<Vec<f64>, DensityError> {
        // Explicit delegation so the sorted-sweep overrides are reached
        // instead of the trait's scalar-loop default.
        match self {
            SensorModel::One(m) => m.neighborhood_counts(points, r),
            SensorModel::Multi(m) => m.neighborhood_counts(points, r),
        }
    }

    fn compress(&mut self, budget: usize, tolerance: f64) -> usize {
        match self {
            SensorModel::One(m) => m.compress(budget, tolerance),
            SensorModel::Multi(m) => m.compress(budget, tolerance),
        }
    }
}

impl SensorModel {
    /// Incrementally merges one value into the model's kernel centres
    /// (`O(log|R| + shift)`; bandwidths untouched — see
    /// [`crate::RebuildPolicy`]).
    pub fn insert_value(&mut self, value: &[f64]) -> Result<(), DensityError> {
        match self {
            SensorModel::One(m) => {
                if value.len() != 1 {
                    return Err(DensityError::DimensionMismatch {
                        expected: 1,
                        got: value.len(),
                    });
                }
                m.insert_center(value[0])
            }
            SensorModel::Multi(m) => m.insert_point(value),
        }
    }

    /// Incrementally removes one value from the model's kernel centres;
    /// `Ok(false)` when no matching centre exists (or it is the last one).
    pub fn remove_value(&mut self, value: &[f64]) -> Result<bool, DensityError> {
        match self {
            SensorModel::One(m) => {
                if value.len() != 1 {
                    return Err(DensityError::DimensionMismatch {
                        expected: 1,
                        got: value.len(),
                    });
                }
                Ok(m.remove_center(value[0]))
            }
            SensorModel::Multi(m) => m.remove_point(value),
        }
    }

    /// Replaces the window length that scales probabilities into counts.
    pub fn set_window_len(&mut self, window_len: f64) -> Result<(), DensityError> {
        match self {
            SensorModel::One(m) => m.set_window_len(window_len),
            SensorModel::Multi(m) => m.set_window_len(window_len),
        }
    }

    /// The kernel sample size `|R|` of the model.
    pub fn sample_size(&self) -> usize {
        match self {
            SensorModel::One(m) => m.sample_size(),
            SensorModel::Multi(m) => m.sample_size(),
        }
    }
}

/// The streaming estimator state of one node.
#[derive(Debug, Clone)]
pub struct SensorEstimator {
    cfg: EstimatorConfig,
    sampler: ChainSampler<Vec<f64>>,
    variances: Vec<WindowedVariance>,
    observed: u64,
    /// Conceptual window for count scaling (leaf: `|W|`; leader: `Σ|Wᵢ|`).
    conceptual_window: f64,
    /// How much conceptual coverage one arrival represents (leaf: 1).
    per_arrival_coverage: f64,
    /// Epoch-cached model (see [`Self::cached_model`]).
    cached: Option<ModelCache>,
    /// Completed full rebuilds of the cached model.
    epochs: u64,
}

/// The epoch cache of [`SensorEstimator::cached_model`].
#[derive(Debug, Clone)]
struct ModelCache {
    /// Chain-sample version the model was built from.
    version: u64,
    /// σ snapshot the bandwidths were derived from.
    built_sigmas: Vec<f64>,
    model: SensorModel,
}

impl SensorEstimator {
    /// Creates a leaf estimator.
    ///
    /// Panics when `cfg` was hand-assembled with out-of-range fields;
    /// use [`Self::try_new`] (or build the config through
    /// [`EstimatorConfig::builder`]) for a typed error instead.
    pub fn new(cfg: EstimatorConfig) -> Self {
        Self::try_new(cfg).expect("EstimatorConfig out of range — see SensorEstimator::try_new")
    }

    /// Like [`Self::new`] but surfaces an invalid configuration as a
    /// typed [`CoreError`] (the run_* entry points validate up front and
    /// then rely on this never failing).
    pub fn try_new(cfg: EstimatorConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        let sampler = ChainSampler::new(cfg.window, cfg.sample_size, cfg.seed)?;
        let variances = (0..cfg.dimensions)
            .map(|_| WindowedVariance::new(cfg.window, cfg.variance_epsilon))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            cfg,
            sampler,
            variances,
            observed: 0,
            conceptual_window: cfg.window as f64,
            per_arrival_coverage: 1.0,
            cached: None,
            epochs: 0,
        })
    }

    /// Turns this into a leader estimator summarising `conceptual_window`
    /// underlying readings, where each arriving (sub-sampled) value
    /// represents `per_arrival_coverage` of them.
    ///
    /// Panics on non-positive arguments; use
    /// [`Self::try_with_count_scaling`] for a typed error.
    pub fn with_count_scaling(self, conceptual_window: f64, per_arrival_coverage: f64) -> Self {
        self.try_with_count_scaling(conceptual_window, per_arrival_coverage)
            .expect("count-scaling parameters out of range")
    }

    /// Fallible variant of [`Self::with_count_scaling`].
    pub fn try_with_count_scaling(
        mut self,
        conceptual_window: f64,
        per_arrival_coverage: f64,
    ) -> Result<Self, CoreError> {
        if !(conceptual_window > 0.0) {
            return Err(CoreError::Config("conceptual window must be positive"));
        }
        if !(per_arrival_coverage > 0.0) {
            return Err(CoreError::Config("per-arrival coverage must be positive"));
        }
        self.conceptual_window = conceptual_window;
        self.per_arrival_coverage = per_arrival_coverage;
        Ok(self)
    }

    /// The configuration this estimator was built from.
    pub fn config(&self) -> &EstimatorConfig {
        &self.cfg
    }

    /// Feeds one reading. Returns `true` when the chain sample accepted
    /// it (D3/MGDD forward the value upward, with probability `f`,
    /// exactly in that case).
    ///
    /// A mis-dimensioned or non-finite reading is rejected before it
    /// touches any state: one `±∞` would make σ infinite and one `NaN`
    /// would read as σ = 0 for a whole window.
    pub fn observe(&mut self, value: &[f64]) -> Result<bool, CoreError> {
        if value.len() != self.cfg.dimensions {
            return Err(CoreError::Density(DensityError::DimensionMismatch {
                expected: self.cfg.dimensions,
                got: value.len(),
            }));
        }
        if value.iter().any(|v| !v.is_finite()) {
            return Err(CoreError::Density(DensityError::NonFiniteValue("reading")));
        }
        self.observed += 1;
        for (v, wv) in value.iter().zip(self.variances.iter_mut()) {
            wv.push(*v);
        }
        Ok(self.sampler.push(value.to_vec()))
    }

    /// Readings observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Estimated per-dimension standard deviations of the window.
    pub fn sigmas(&self) -> Vec<f64> {
        self.variances.iter().map(|v| v.std_dev()).collect()
    }

    /// The current chain sample (with replacement).
    pub fn sample(&self) -> Vec<Vec<f64>> {
        self.sampler.sample()
    }

    /// The window length used to scale probabilities into counts:
    /// coverage so far, capped at the conceptual window.
    pub fn window_len(&self) -> f64 {
        (self.observed as f64 * self.per_arrival_coverage).min(self.conceptual_window)
    }

    /// Materialises the current density model (paper Equation 1 with the
    /// Section 4 bandwidths). `Err(NoData)` before the first reading.
    pub fn model(&self) -> Result<SensorModel, CoreError> {
        if self.observed == 0 {
            return Err(CoreError::NoData);
        }
        let sample = self.sampler.sample();
        let sigmas = self.sigmas();
        let window_len = self.window_len().max(1.0);
        let mut model = if self.cfg.dimensions == 1 {
            SensorModel::One(
                Kde1d::from_sample_iter(sample.iter().map(|p| p[0]), sigmas[0], window_len)
                    .map_err(CoreError::Density)?,
            )
        } else {
            SensorModel::Multi(
                Kde::from_sample_iter(sample.iter().map(Vec::as_slice), &sigmas, window_len)
                    .map_err(CoreError::Density)?,
            )
        };
        // Applied on every build, so the epoch cache and a from-scratch
        // model stay exactly interchangeable.
        if let Some(c) = self.cfg.compression {
            model.compress(c.budget, c.tolerance);
        }
        Ok(model)
    }

    /// Like [`Self::model`] but epoch-cached — the hot path for
    /// per-reading outlier checks.
    ///
    /// The previous build is reused while the chain sample is unchanged
    /// (it changes on only ~`2|R|/|W|` of readings), **and** across sample
    /// changes while the [`crate::RebuildPolicy`] allows it: the served
    /// model then lags the live sample by at most `rebuild_every` sample
    /// versions with σ drift below `sigma_tolerance`, which bounds its
    /// error (see the policy's documentation). A rebuild is exact — at
    /// every epoch boundary this returns precisely what [`Self::model`]
    /// builds from scratch.
    pub fn cached_model(&mut self) -> Result<&SensorModel, CoreError> {
        if self.observed == 0 {
            return Err(CoreError::NoData);
        }
        let version = self.sampler.version();
        // With an unchanged sample (pushes = 0) only σ drift can force a
        // rebuild — the streaming σ moves on every reading even when the
        // chain sample does not.
        let rebuild = match &self.cached {
            None => true,
            Some(c) => {
                let pushes = version.wrapping_sub(c.version);
                self.cfg
                    .rebuild
                    .should_rebuild(pushes, &c.built_sigmas, &self.sigmas())
            }
        };
        if rebuild {
            let _rebuild = snod_obs::span!("core.model.rebuild");
            let model = self.model()?;
            self.cached = Some(ModelCache {
                version,
                built_sigmas: self.sigmas(),
                model,
            });
            self.epochs += 1;
            snod_obs::counter!("core.model.rebuilds").incr();
        } else {
            snod_obs::counter!("core.model.cache_hits").incr();
        }
        Ok(&self.cached.as_ref().expect("cache just filled").model)
    }

    /// Completed full rebuilds of the epoch cache (diagnostics; lets
    /// callers detect epoch boundaries).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// How many sample versions the cached model lags the live sample —
    /// 0 right after a rebuild, never more than the policy's
    /// `rebuild_every`.
    pub fn model_staleness(&self) -> u64 {
        match &self.cached {
            Some(c) => self.sampler.version().wrapping_sub(c.version),
            None => 0,
        }
    }

    /// Tests a new observation against the `(D, r)` rule using the
    /// current model (the paper's `IsOutlier()` procedure).
    pub fn is_distance_outlier(
        &mut self,
        p: &[f64],
        rule: &DistanceOutlierConfig,
    ) -> Result<bool, CoreError> {
        snod_obs::counter!("core.score.distance").incr();
        let model = self.cached_model()?;
        snod_outlier::distance::is_distance_outlier(model, p, rule).map_err(CoreError::Density)
    }

    /// Like [`Self::is_distance_outlier`] but with the threshold scaled
    /// by `window_len() / |W|`, keeping the *density* bar `t/|W|`
    /// constant while the window is still filling — and for leader nodes
    /// whose arrival stream is a uniform sub-sample of their subtree's
    /// readings, which makes the same density bar apply region-wide.
    pub fn is_distance_outlier_scaled(
        &mut self,
        p: &[f64],
        rule: &DistanceOutlierConfig,
    ) -> Result<bool, CoreError> {
        let scale = (self.window_len() / self.cfg.window as f64).max(f64::EPSILON);
        let eff = DistanceOutlierConfig {
            radius: rule.radius,
            min_neighbors: rule.min_neighbors * scale,
        };
        self.is_distance_outlier(p, &eff)
    }

    /// Runs the MDEF test for a new observation against the current
    /// model.
    pub fn evaluate_mdef(
        &mut self,
        p: &[f64],
        rule: &MdefConfig,
    ) -> Result<MdefEvaluation, CoreError> {
        snod_obs::counter!("core.score.mdef").incr();
        let detector = MdefDetector::new(*rule);
        let model = self.cached_model()?;
        detector.evaluate(model, p).map_err(CoreError::Density)
    }

    /// Actual memory footprint in bytes under the paper's §10.3
    /// accounting (`value_bytes` bytes per stored number; the paper
    /// assumes 2).
    pub fn memory_bytes(&self, value_bytes: usize) -> usize {
        let sample = self.sampler.memory_bytes(self.cfg.dimensions * value_bytes);
        let variance: usize = self
            .variances
            .iter()
            .map(|v| v.memory_bytes(value_bytes))
            .sum();
        sample + variance
    }

    /// High-water memory of the variance component plus current sample
    /// memory (the two terms of Theorem 1).
    pub fn max_variance_memory_bytes(&self, value_bytes: usize) -> usize {
        self.variances
            .iter()
            .map(|v| v.max_memory_bytes(value_bytes))
            .sum()
    }

    /// Theoretical memory bound of the variance component
    /// (`O((d/ε²)·log|W|)` with the constants of the BDMO analysis).
    pub fn variance_memory_bound(&self, value_bytes: usize) -> usize {
        self.variances
            .iter()
            .map(|v| v.theoretical_memory_bound(value_bytes))
            .sum()
    }
}

impl Persist for SensorModel {
    fn save(&self, w: &mut ByteWriter) {
        match self {
            SensorModel::One(m) => {
                w.put_u8(0);
                m.save(w);
            }
            SensorModel::Multi(m) => {
                w.put_u8(1);
                m.save(w);
            }
        }
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(SensorModel::One(Kde1d::load(r)?)),
            1 => Ok(SensorModel::Multi(Kde::load(r)?)),
            _ => Err(PersistError::Corrupt("unknown sensor-model tag")),
        }
    }
}

impl Persist for ModelCache {
    fn save(&self, w: &mut ByteWriter) {
        self.version.save(w);
        self.built_sigmas.save(w);
        self.model.save(w);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            version: u64::load(r)?,
            built_sigmas: Vec::<f64>::load(r)?,
            model: SensorModel::load(r)?,
        })
    }
}

impl Persist for SensorEstimator {
    fn save(&self, w: &mut ByteWriter) {
        self.cfg.save(w);
        self.sampler.save(w);
        self.variances.save(w);
        self.observed.save(w);
        self.conceptual_window.save(w);
        self.per_arrival_coverage.save(w);
        self.cached.save(w);
        self.epochs.save(w);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let cfg = EstimatorConfig::load(r)?;
        let sampler = ChainSampler::load(r)?;
        let variances = Vec::<WindowedVariance>::load(r)?;
        let observed = u64::load(r)?;
        let conceptual_window = f64::load(r)?;
        let per_arrival_coverage = f64::load(r)?;
        let cached = Option::<ModelCache>::load(r)?;
        let epochs = u64::load(r)?;
        if variances.len() != cfg.dimensions {
            return Err(PersistError::Corrupt(
                "estimator variance count mismatches its dimensionality",
            ));
        }
        if !(conceptual_window > 0.0) || !(per_arrival_coverage > 0.0) {
            return Err(PersistError::Corrupt(
                "estimator count-scaling parameters must be positive",
            ));
        }
        Ok(Self {
            cfg,
            sampler,
            variances,
            observed,
            conceptual_window,
            per_arrival_coverage,
            cached,
            epochs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_config() -> EstimatorConfig {
        EstimatorConfig::builder()
            .window(1_000)
            .sample_size(100)
            .seed(42)
            .build()
            .unwrap()
    }

    #[test]
    fn hand_assembled_invalid_config_is_a_typed_error() {
        // The fields are public, so a config can bypass the builder's
        // validation; try_new must fail typed instead of panicking.
        let mut cfg = leaf_config();
        cfg.sample_size = 0;
        assert!(matches!(
            SensorEstimator::try_new(cfg),
            Err(CoreError::Config(_))
        ));
        let mut cfg = leaf_config();
        cfg.variance_epsilon = -0.3;
        assert!(SensorEstimator::try_new(cfg).is_err());
        let est = SensorEstimator::new(leaf_config());
        assert!(est.try_with_count_scaling(0.0, 1.0).is_err());
        let est = SensorEstimator::new(leaf_config());
        assert!(est.try_with_count_scaling(10.0, -1.0).is_err());
        let est = SensorEstimator::new(leaf_config());
        assert!(est.try_with_count_scaling(10.0, 2.0).is_ok());
    }

    #[test]
    fn no_data_errors_until_first_observation() {
        let est = SensorEstimator::new(leaf_config());
        assert!(matches!(est.model(), Err(CoreError::NoData)));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut est = SensorEstimator::new(leaf_config());
        assert!(est.observe(&[0.5, 0.5]).is_err());
    }

    #[test]
    fn non_finite_readings_leave_no_trace() {
        let mut est = SensorEstimator::new(leaf_config());
        let mut twin = SensorEstimator::new(leaf_config());
        for i in 0..1_200 {
            let v = [0.4 + 0.01 * ((i % 10) as f64)];
            est.observe(&v).unwrap();
            twin.observe(&v).unwrap();
            if i == 600 {
                for bad in [f64::INFINITY, f64::NAN] {
                    assert!(matches!(
                        est.observe(&[bad]),
                        Err(CoreError::Density(DensityError::NonFiniteValue("reading")))
                    ));
                }
            }
        }
        assert_eq!(est.to_bytes(), twin.to_bytes());
    }

    #[test]
    fn model_tracks_the_stream() {
        let mut est = SensorEstimator::new(leaf_config());
        for i in 0..2_000 {
            est.observe(&[0.4 + 0.01 * ((i % 10) as f64)]).unwrap();
        }
        let model = est.model().unwrap();
        // Nearly the whole window lies in [0.38, 0.52].
        let n = model.neighborhood_count(&[0.45], 0.07).unwrap();
        assert!(n > 800.0, "count {n}");
        // Nothing lives near 0.9.
        let far = model.neighborhood_count(&[0.9], 0.05).unwrap();
        assert!(far < 50.0, "count {far}");
    }

    #[test]
    fn window_len_saturates_at_conceptual_window() {
        let mut est = SensorEstimator::new(leaf_config());
        for _ in 0..100 {
            est.observe(&[0.5]).unwrap();
        }
        assert_eq!(est.window_len(), 100.0);
        for _ in 0..2_000 {
            est.observe(&[0.5]).unwrap();
        }
        assert_eq!(est.window_len(), 1_000.0);
    }

    #[test]
    fn count_scaling_for_leaders() {
        let mut est = SensorEstimator::new(leaf_config()).with_count_scaling(8_000.0, 40.0);
        for _ in 0..100 {
            est.observe(&[0.5]).unwrap();
        }
        assert_eq!(est.window_len(), 4_000.0); // 100 arrivals × 40 coverage
        for _ in 0..200 {
            est.observe(&[0.5]).unwrap();
        }
        assert_eq!(est.window_len(), 8_000.0); // capped
    }

    #[test]
    fn distance_outlier_detection_end_to_end() {
        let mut est = SensorEstimator::new(leaf_config());
        for i in 0..1_500 {
            est.observe(&[0.5 + 0.002 * ((i % 20) as f64)]).unwrap();
        }
        let rule = DistanceOutlierConfig::new(20.0, 0.02);
        assert!(!est.is_distance_outlier(&[0.52], &rule).unwrap());
        assert!(est.is_distance_outlier(&[0.9], &rule).unwrap());
    }

    #[test]
    fn two_dimensional_estimator() {
        let cfg = EstimatorConfig::builder()
            .window(500)
            .sample_size(50)
            .dimensions(2)
            .seed(3)
            .build()
            .unwrap();
        let mut est = SensorEstimator::new(cfg);
        for i in 0..1_000 {
            let t = (i % 25) as f64 / 25.0;
            est.observe(&[0.4 + 0.05 * t, 0.6 + 0.05 * t]).unwrap();
        }
        let model = est.model().unwrap();
        assert_eq!(model.dims(), 2);
        let dense = model.neighborhood_count(&[0.42, 0.62], 0.05).unwrap();
        let sparse = model.neighborhood_count(&[0.9, 0.1], 0.05).unwrap();
        assert!(
            dense > 10.0 * sparse.max(1.0),
            "dense {dense} sparse {sparse}"
        );
    }

    #[test]
    fn memory_accounting_is_within_sensor_budget() {
        // Paper §7: |W| = 20,000, |R| = 2,000, ε = 0.2 → < 10 KB total.
        let cfg = EstimatorConfig::builder()
            .window(20_000)
            .sample_size(2_000)
            .variance_epsilon(0.2)
            .seed(1)
            .build()
            .unwrap();
        let mut est = SensorEstimator::new(cfg);
        let mut state = 7u64;
        for _ in 0..40_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            est.observe(&[(state % 1_000) as f64 / 1_000.0]).unwrap();
        }
        let bytes = est.memory_bytes(2);
        assert!(bytes < 65_536, "memory {bytes} B");
        assert!(est.max_variance_memory_bytes(2) <= est.variance_memory_bound(2));
    }

    #[test]
    fn epoch_cache_staleness_is_bounded_by_policy() {
        use crate::config::RebuildPolicy;
        let cfg = EstimatorConfig::builder()
            .window(500)
            .sample_size(100)
            .seed(9)
            .rebuild_policy(RebuildPolicy {
                rebuild_every: 4,
                sigma_tolerance: 1e9, // only the push budget triggers
            })
            .build()
            .unwrap();
        let mut est = SensorEstimator::new(cfg);
        for i in 0..2_000 {
            est.observe(&[0.3 + 0.001 * ((i % 100) as f64)]).unwrap();
            est.cached_model().unwrap();
            assert!(
                est.model_staleness() < 4,
                "staleness {} exceeds budget",
                est.model_staleness()
            );
        }
        assert!(est.epochs() > 1, "cache never cycled an epoch");
    }

    #[test]
    fn rebuild_always_policy_matches_from_scratch_model() {
        use crate::config::RebuildPolicy;
        use snod_density::DensityModel as _;
        let cfg = EstimatorConfig::builder()
            .window(300)
            .sample_size(50)
            .seed(4)
            .rebuild_policy(RebuildPolicy::always())
            .build()
            .unwrap();
        let mut est = SensorEstimator::new(cfg);
        for i in 0..600 {
            est.observe(&[0.2 + 0.002 * ((i % 50) as f64)]).unwrap();
            let fresh = est.model().unwrap();
            let q = fresh.neighborhood_count(&[0.25], 0.05).unwrap();
            let cached = est.cached_model().unwrap();
            assert_eq!(cached.neighborhood_count(&[0.25], 0.05).unwrap(), q);
            assert_eq!(est.model_staleness(), 0);
        }
    }

    #[test]
    fn compression_caps_model_size_and_keeps_scores_sane() {
        use crate::config::ModelCompression;
        let base = EstimatorConfig::builder()
            .window(1_000)
            .sample_size(200)
            .seed(11);
        let cfg = base
            .clone()
            .compression(ModelCompression {
                budget: 40,
                tolerance: 0.05,
            })
            .build()
            .unwrap();
        let plain = base.build().unwrap();
        let mut est = SensorEstimator::new(cfg);
        let mut reference = SensorEstimator::new(plain);
        for i in 0..2_000 {
            let v = [0.4 + 0.01 * ((i % 10) as f64)];
            est.observe(&v).unwrap();
            reference.observe(&v).unwrap();
        }
        let model = est.model().unwrap();
        assert!(
            model.sample_size() <= 40,
            "|R| = {} exceeds budget",
            model.sample_size()
        );
        // Scores stay close to the uncompressed estimator's.
        let full = reference.model().unwrap();
        let a = model.neighborhood_count(&[0.45], 0.07).unwrap();
        let b = full.neighborhood_count(&[0.45], 0.07).unwrap();
        assert!((a - b).abs() < 0.05 * b.max(1.0), "{a} vs {b}");
        let far = model.neighborhood_count(&[0.9], 0.05).unwrap();
        assert!(far < 50.0, "count {far}");
    }

    #[test]
    fn compressed_epoch_cache_matches_from_scratch_model() {
        use crate::config::{ModelCompression, RebuildPolicy};
        use snod_density::DensityModel as _;
        let cfg = EstimatorConfig::builder()
            .window(300)
            .sample_size(80)
            .seed(6)
            .rebuild_policy(RebuildPolicy::always())
            .compression(ModelCompression {
                budget: 25,
                tolerance: 0.02,
            })
            .build()
            .unwrap();
        let mut est = SensorEstimator::new(cfg);
        for i in 0..600 {
            est.observe(&[0.2 + 0.002 * ((i % 50) as f64)]).unwrap();
            let fresh = est.model().unwrap();
            let q = fresh.neighborhood_count(&[0.25], 0.05).unwrap();
            let cached = est.cached_model().unwrap();
            assert!(cached.sample_size() <= 25);
            assert_eq!(cached.neighborhood_count(&[0.25], 0.05).unwrap(), q);
        }
    }

    #[test]
    fn mdef_evaluation_runs_against_model() {
        let mut est = SensorEstimator::new(leaf_config());
        for i in 0..2_000 {
            est.observe(&[0.40 + 0.1 * ((i % 100) as f64) / 100.0])
                .unwrap();
        }
        let rule = MdefConfig::new(0.08, 0.01, 3.0).unwrap();
        let core = est.evaluate_mdef(&[0.45], &rule).unwrap();
        assert!(!core.is_outlier, "core flagged: {core:?}");
        let skirt = est.evaluate_mdef(&[0.58], &rule).unwrap();
        assert!(skirt.mdef > core.mdef, "no gradient: {skirt:?} vs {core:?}");
    }
}
