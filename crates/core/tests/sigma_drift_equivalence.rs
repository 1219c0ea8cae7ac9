//! Differential check of `SensorEstimator::cached_model`'s epoch
//! decision against `Reference`, which folds σ exactly on every call and
//! asks `RebuildPolicy::should_rebuild`: after every `observe` the epoch
//! count and the served model's checkpoint bytes must agree. Covers the
//! default policy, a tolerance inside the σ interval's ambiguity band and
//! rebuild-on-every-push, for d = 1 and 2, leaf and count-scaled leader,
//! with a `save`/`load` round trip mid-stream.

use snod_core::{EstimatorConfig, RebuildPolicy, SensorEstimator};
use snod_persist::Persist;
use snod_sketch::{ChainSampler, WindowedVariance};

const WINDOW: usize = 256;

/// The estimator's sketches, replayed beside it, with the epoch decision
/// made from exact σ on every call.
struct Reference {
    policy: RebuildPolicy,
    sampler: ChainSampler<Vec<f64>>,
    variances: Vec<WindowedVariance>,
    /// Sample version and σ of the last rebuild, and the model it built.
    cache: Option<(u64, Vec<f64>, Vec<u8>)>,
    epochs: u64,
}

impl Reference {
    fn new(cfg: &EstimatorConfig) -> Self {
        Self {
            policy: cfg.rebuild,
            sampler: ChainSampler::new(cfg.window, cfg.sample_size, cfg.seed).unwrap(),
            variances: (0..cfg.dimensions)
                .map(|_| WindowedVariance::new(cfg.window, cfg.variance_epsilon).unwrap())
                .collect(),
            cache: None,
            epochs: 0,
        }
    }

    fn observe(&mut self, value: &[f64]) {
        for (x, wv) in value.iter().zip(&mut self.variances) {
            wv.push(*x);
        }
        self.sampler.push(value.to_vec());
    }

    /// The bytes of the model `cached_model` should serve. A rebuild
    /// serves what `model()` builds from the current sample and σ.
    fn cached_model(&mut self, est: &SensorEstimator) -> &[u8] {
        let version = self.sampler.version();
        let sigmas: Vec<f64> = self.variances.iter().map(|v| v.std_dev()).collect();
        let rebuild = match &self.cache {
            None => true,
            Some((built_version, built, _)) => {
                let pushes = version.wrapping_sub(*built_version);
                self.policy.should_rebuild(pushes, built, &sigmas)
            }
        };
        if rebuild {
            let model = est.model().unwrap().to_bytes();
            self.cache = Some((version, sigmas, model));
            self.epochs += 1;
        }
        &self.cache.as_ref().expect("cache just filled").2
    }
}

/// xorshift64* uniforms in [0, 1).
struct Rng(u64);

impl Rng {
    fn uniform(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One reading per step for dimension `dim`: σ that breathes, jumps by
/// orders of magnitude, sits on a 1e6 offset (which widens the σ
/// interval relative to σ), or does not move at all.
fn stream(shape: &str, len: usize, dim: usize) -> Vec<f64> {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (len as u64 + dim as u64));
    (0..len)
        .map(|i| {
            let u = rng.uniform() - 0.5;
            let t = i as f64 + 37.0 * dim as f64;
            match shape {
                "breathing" => 0.5 + u * (1.0 + 0.6 * (t / 90.0).sin()),
                "regimes" => u * [1.0, 1e3, 1e-3, 1.0][(i / 300) % 4],
                "offset 1e6" => 1e6 + 1e-3 * u * (1.0 + 0.3 * (t / 70.0).sin()),
                "ramp" => 0.01 * t + u,
                "constant" => 3.5,
                other => unreachable!("{other}"),
            }
        })
        .collect()
}

fn check(policy: RebuildPolicy, dims: usize, leader: bool, shape: &str) {
    let cfg = EstimatorConfig::builder()
        .window(WINDOW)
        .sample_size(16)
        .dimensions(dims)
        .seed(5)
        .rebuild_policy(policy)
        .build()
        .unwrap();
    let mut est = SensorEstimator::new(cfg);
    if leader {
        est = est.with_count_scaling(8.0 * WINDOW as f64, 8.0);
    }
    let mut reference = Reference::new(&cfg);
    let len = 4 * WINDOW;
    let columns: Vec<Vec<f64>> = (0..dims).map(|d| stream(shape, len, d)).collect();
    for t in 0..len {
        let value: Vec<f64> = columns.iter().map(|c| c[t]).collect();
        est.observe(&value).unwrap();
        reference.observe(&value);
        let ctx = || format!("{shape}: {policy:?}, d = {dims}, leader = {leader}, reading {t}");
        let want = reference.cached_model(&est).to_vec();
        let got = est.cached_model().unwrap().to_bytes();
        assert!(got == want, "served model differs — {}", ctx());
        assert_eq!(est.epochs(), reference.epochs, "epochs — {}", ctx());
        if t == len / 2 {
            est = SensorEstimator::from_bytes(&est.to_bytes()).unwrap();
        }
    }
}

fn matrix(policy: RebuildPolicy) {
    for shape in ["breathing", "regimes", "offset 1e6", "ramp", "constant"] {
        for dims in [1, 2] {
            for leader in [false, true] {
                check(policy, dims, leader, shape);
            }
        }
    }
}

#[test]
fn default_policy_makes_the_exact_decision() {
    matrix(RebuildPolicy::default());
}

#[test]
fn tolerance_inside_the_ambiguity_band_makes_the_exact_decision() {
    matrix(RebuildPolicy {
        sigma_tolerance: 1e-3,
        ..RebuildPolicy::default()
    });
}

#[test]
fn rebuild_always_makes_the_exact_decision() {
    matrix(RebuildPolicy::always());
}
