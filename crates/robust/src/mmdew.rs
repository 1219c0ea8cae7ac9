//! Maximum mean discrepancy on exponential windows: logarithmically
//! merged bucket summaries with maintained within-bucket kernel sums.

use rand::Rng;

use snod_persist::{PersistError, SeededRng};

use crate::RobustError;

/// Configuration of the [`Mmdew`] change detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmdewConfig {
    /// Data dimensionality.
    pub dimensions: usize,
    /// RBF kernel precision: `k(x, y) = exp(−γ·‖x−y‖²)` (bounded by 1,
    /// which is what makes the `√(1/n + 1/m)` threshold scale-free).
    pub gamma: f64,
    /// Maximum retained samples per bucket; a merge that overflows it
    /// keeps a seeded uniform subsample and recomputes the bucket's
    /// kernel self-sum exactly over the survivors.
    pub bucket_cap: usize,
    /// Threshold coefficient `c` in `τ = c·√(1/n + 1/m)`.
    pub threshold_scale: f64,
    /// Minimum retained samples required on *each* side of a split
    /// before that split is tested.
    pub min_per_side: usize,
    /// Evaluate the statistic every this many inserts (testing on every
    /// arrival is wasted work while the windows barely changed).
    pub test_every: u64,
    /// Seed of the subsampling RNG.
    pub seed: u64,
}

impl MmdewConfig {
    /// Validates every field.
    pub fn validate(&self) -> Result<(), RobustError> {
        if self.dimensions == 0 {
            return Err(RobustError::BadConfig("dimensionality must be positive"));
        }
        if !(self.gamma > 0.0) || !self.gamma.is_finite() {
            return Err(RobustError::BadConfig("gamma must be finite and positive"));
        }
        if self.bucket_cap < 2 {
            return Err(RobustError::BadConfig("bucket cap must be at least 2"));
        }
        if !(self.threshold_scale > 0.0) || !self.threshold_scale.is_finite() {
            return Err(RobustError::BadConfig(
                "threshold scale must be finite and positive",
            ));
        }
        if self.min_per_side == 0 {
            return Err(RobustError::BadConfig("min per side must be positive"));
        }
        if self.test_every == 0 {
            return Err(RobustError::BadConfig("test cadence must be positive"));
        }
        Ok(())
    }
}

/// One exponential-window bucket: true count, capped retained samples,
/// and the exact kernel double sum `Σᵢ Σⱼ k(sᵢ, sⱼ)` over the retained
/// samples (diagonal included).
#[derive(Debug, Clone, PartialEq)]
pub struct RetainedBucket {
    /// Merge level (a bucket at level ℓ absorbed 2^ℓ arrivals).
    pub level: u32,
    /// True number of stream values the bucket summarises.
    pub count: u64,
    /// Retained subsample (≤ `bucket_cap` values).
    pub samples: Vec<Vec<f64>>,
    /// Maintained within-bucket kernel double sum.
    pub self_sum: f64,
}

/// The winning split of one statistic evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitStat {
    /// Biased MMD estimate (√ of the V-statistic MMD²) at the split.
    pub mmd: f64,
    /// Threshold `c·√(1/n + 1/m)` at the split.
    pub threshold: f64,
    /// Retained samples on the older side.
    pub older: usize,
    /// Retained samples on the newer side.
    pub newer: usize,
}

/// A raised distribution-shift alarm.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeEvent {
    /// The split that crossed its threshold (maximal margin).
    pub split: SplitStat,
    /// Buckets dropped (everything older than the detected change).
    pub dropped_buckets: usize,
    /// True stream count the dropped buckets summarised.
    pub dropped_count: u64,
}

/// The MMDEW change detector. Buckets are kept oldest-first; inserting
/// appends a singleton level-0 bucket and merges equal levels from the
/// back, so bucket sizes double with age and only O(log n) summaries
/// exist at any time.
#[derive(Debug, Clone, PartialEq)]
pub struct Mmdew {
    cfg: MmdewConfig,
    buckets: Vec<RetainedBucket>,
    inserts: u64,
    alarms: u64,
    rng: SeededRng,
}

impl Mmdew {
    /// A fresh detector.
    pub fn new(cfg: MmdewConfig) -> Result<Self, RobustError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            buckets: Vec::new(),
            inserts: 0,
            alarms: 0,
            rng: SeededRng::seed_from_u64(cfg.seed ^ 0x33D1),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &MmdewConfig {
        &self.cfg
    }

    /// Values inserted since construction (pruned ones included).
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Alarms raised so far.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// The current buckets, oldest first.
    pub fn buckets(&self) -> &[RetainedBucket] {
        &self.buckets
    }

    /// Total retained samples across buckets.
    pub fn retained(&self) -> usize {
        self.buckets.iter().map(|b| b.samples.len()).sum()
    }

    /// Inserts one value; on the configured cadence evaluates every
    /// bucket-boundary split and, if the maximal-margin split exceeds
    /// its threshold, prunes the pre-change buckets and reports the
    /// alarm.
    pub fn insert(&mut self, x: &[f64]) -> Result<Option<ChangeEvent>, RobustError> {
        if x.len() != self.cfg.dimensions {
            return Err(RobustError::Dimension {
                expected: self.cfg.dimensions,
                got: x.len(),
            });
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(RobustError::NonFinite);
        }
        self.buckets.push(RetainedBucket {
            level: 0,
            count: 1,
            samples: vec![x.to_vec()],
            self_sum: 1.0, // k(x, x) = 1 for the RBF kernel
        });
        // Exponential-histogram cascade: merge equal levels from the back.
        while self.buckets.len() >= 2 {
            let n = self.buckets.len();
            if self.buckets[n - 2].level != self.buckets[n - 1].level {
                break;
            }
            let b = self.buckets.pop().expect("len >= 2");
            let a = self.buckets.pop().expect("len >= 2");
            let merged = self.merge(a, b);
            self.buckets.push(merged);
        }
        self.inserts += 1;
        if !self.inserts.is_multiple_of(self.cfg.test_every) {
            return Ok(None);
        }
        let Some(split) = self.evaluate() else {
            return Ok(None);
        };
        if split.mmd <= split.threshold {
            return Ok(None);
        }
        // Drop everything older than the detected change. The split is
        // identified by its retained-count prefix.
        let mut seen = 0usize;
        let mut cut = 0usize;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.samples.len();
            if seen == split.older {
                cut = i + 1;
                break;
            }
        }
        let dropped: Vec<RetainedBucket> = self.buckets.drain(..cut).collect();
        self.alarms += 1;
        Ok(Some(ChangeEvent {
            split,
            dropped_buckets: dropped.len(),
            dropped_count: dropped.iter().map(|b| b.count).sum(),
        }))
    }

    /// Evaluates the MMD statistic at every bucket boundary and returns
    /// the split with the largest margin over its threshold (testable
    /// splits only); `None` when no split has `min_per_side` retained
    /// samples on both sides.
    ///
    /// One O(T²) pass over the T retained samples accumulates the
    /// bucket-pair kernel cross sums; the per-split within/cross sums
    /// then fall out of O(B²) additions. The within-bucket diagonal
    /// blocks come from the *maintained* `self_sum`s — the quantity the
    /// merged-vs-naive proptest bounds against a from-scratch
    /// recomputation.
    // Triangular (i, j) index pairs over `cross` — iterator forms would
    // obscure the i < j / i == j symmetry the sums depend on.
    #[allow(clippy::needless_range_loop)]
    pub fn evaluate(&self) -> Option<SplitStat> {
        let b = self.buckets.len();
        if b < 2 {
            return None;
        }
        // cross[i][j] (i < j): Σ over sample pairs of k(s_i, s_j).
        let mut cross = vec![vec![0.0f64; b]; b];
        for i in 0..b {
            for j in (i + 1)..b {
                cross[i][j] = kernel_cross(
                    &self.buckets[i].samples,
                    &self.buckets[j].samples,
                    self.cfg.gamma,
                );
            }
        }
        let mut best: Option<SplitStat> = None;
        for split in 0..(b - 1) {
            let older: usize = self.buckets[..=split]
                .iter()
                .map(|bk| bk.samples.len())
                .sum();
            let newer: usize = self.buckets[(split + 1)..]
                .iter()
                .map(|bk| bk.samples.len())
                .sum();
            if older < self.cfg.min_per_side || newer < self.cfg.min_per_side {
                continue;
            }
            let mut sum_xx = 0.0f64;
            let mut sum_yy = 0.0f64;
            let mut sum_xy = 0.0f64;
            for i in 0..b {
                for j in i..b {
                    let s = if i == j {
                        self.buckets[i].self_sum
                    } else {
                        2.0 * cross[i][j]
                    };
                    if j <= split {
                        sum_xx += s;
                    } else if i > split {
                        sum_yy += s;
                    } else {
                        sum_xy += s; // already the full (unordered) cross mass
                    }
                }
            }
            let n = older as f64;
            let m = newer as f64;
            let mmd2 = sum_xx / (n * n) + sum_yy / (m * m) - sum_xy / (n * m);
            let mmd = mmd2.max(0.0).sqrt();
            let threshold = self.cfg.threshold_scale * (1.0 / n + 1.0 / m).sqrt();
            let cand = SplitStat {
                mmd,
                threshold,
                older,
                newer,
            };
            let better = match &best {
                None => true,
                Some(cur) => cand.mmd - cand.threshold > cur.mmd - cur.threshold,
            };
            if better {
                best = Some(cand);
            }
        }
        best
    }

    /// Merges two adjacent equal-level buckets, maintaining the kernel
    /// self-sum incrementally; a capacity overflow keeps a seeded
    /// uniform subsample and recomputes the sum exactly over it.
    fn merge(&mut self, a: RetainedBucket, b: RetainedBucket) -> RetainedBucket {
        let cross = kernel_cross(&a.samples, &b.samples, self.cfg.gamma);
        let mut samples = a.samples;
        samples.extend(b.samples);
        let mut self_sum = a.self_sum + b.self_sum + 2.0 * cross;
        if samples.len() > self.cfg.bucket_cap {
            // Partial Fisher–Yates: the first `cap` slots end up a
            // uniform subsample, drawn from the persisted RNG stream so
            // a restored detector subsamples identically.
            for i in 0..self.cfg.bucket_cap {
                let j = self.rng.gen_range(i..samples.len());
                samples.swap(i, j);
            }
            samples.truncate(self.cfg.bucket_cap);
            self_sum = kernel_self(&samples, self.cfg.gamma);
        }
        RetainedBucket {
            level: a.level + 1,
            count: a.count + b.count,
            samples,
            self_sum,
        }
    }
}

/// `exp(−γ·‖x−y‖²)`.
fn rbf(x: &[f64], y: &[f64], gamma: f64) -> f64 {
    let d2: f64 = x
        .iter()
        .zip(y)
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum();
    (-gamma * d2).exp()
}

/// `Σ_{x∈xs} Σ_{y∈ys} k(x, y)`.
fn kernel_cross(xs: &[Vec<f64>], ys: &[Vec<f64>], gamma: f64) -> f64 {
    let mut sum = 0.0;
    for x in xs {
        for y in ys {
            sum += rbf(x, y, gamma);
        }
    }
    sum
}

/// `Σᵢ Σⱼ k(sᵢ, sⱼ)` (diagonal included).
fn kernel_self(samples: &[Vec<f64>], gamma: f64) -> f64 {
    let n = samples.len();
    let mut sum = n as f64; // the diagonal: k(x, x) = 1
    for i in 0..n {
        for j in (i + 1)..n {
            sum += 2.0 * rbf(&samples[i], &samples[j], gamma);
        }
    }
    sum
}

snod_persist::persist_struct! {
    MmdewConfig {
        dimensions,
        gamma,
        bucket_cap,
        threshold_scale,
        min_per_side,
        test_every,
        seed,
    }
    check: |c| c.validate().map_err(|_| PersistError::Corrupt("invalid mmdew config"))
}

snod_persist::persist_struct! {
    RetainedBucket {
        level,
        count,
        samples,
        self_sum,
    }
    check: RetainedBucket::check_loaded
}

impl RetainedBucket {
    fn check_loaded(&self) -> Result<(), PersistError> {
        if self.samples.is_empty() {
            return Err(PersistError::Corrupt("empty mmdew bucket"));
        }
        if self
            .samples
            .iter()
            .any(|s| s.iter().any(|v| !v.is_finite()))
        {
            return Err(PersistError::Corrupt("non-finite mmdew sample"));
        }
        Ok(())
    }
}

snod_persist::persist_struct! {
    Mmdew {
        cfg,
        buckets,
        inserts,
        alarms,
        rng,
    }
    check: Mmdew::check_loaded
}

impl Mmdew {
    fn check_loaded(&self) -> Result<(), PersistError> {
        let (cap, dims) = (self.cfg.bucket_cap, self.cfg.dimensions);
        if self
            .buckets
            .iter()
            .any(|b| b.samples.len() > cap || b.samples.iter().any(|s| s.len() != dims))
        {
            return Err(PersistError::Corrupt("mmdew bucket violates config"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snod_persist::Persist;

    fn cfg() -> MmdewConfig {
        MmdewConfig {
            dimensions: 1,
            gamma: 8.0,
            bucket_cap: 16,
            threshold_scale: 0.6,
            min_per_side: 8,
            test_every: 4,
            seed: 7,
        }
    }

    #[test]
    fn bucket_levels_stay_logarithmic() {
        let mut det = Mmdew::new(cfg()).unwrap();
        for i in 0..512 {
            det.insert(&[0.5 + 0.001 * f64::from(i % 7)]).unwrap();
        }
        // 512 inserts with no alarm on a flat stream → ≤ log2(512)+1
        // buckets, strictly decreasing levels from the front.
        assert!(det.buckets().len() <= 10, "{} buckets", det.buckets().len());
        let levels: Vec<u32> = det.buckets().iter().map(|b| b.level).collect();
        assert!(levels.windows(2).all(|w| w[0] > w[1]), "{levels:?}");
        let total: u64 = det.buckets().iter().map(|b| b.count).sum();
        assert_eq!(total, 512);
        assert!(det
            .buckets()
            .iter()
            .all(|b| b.samples.len() <= det.config().bucket_cap));
    }

    #[test]
    fn detects_a_mean_shift() {
        let mut det = Mmdew::new(cfg()).unwrap();
        let mut alarm_at = None;
        for i in 0..600 {
            let x = if i < 300 {
                0.2 + 0.01 * f64::from(i % 5)
            } else {
                0.8 + 0.01 * f64::from(i % 5)
            };
            if det.insert(&[x]).unwrap().is_some() && alarm_at.is_none() {
                alarm_at = Some(i);
            }
        }
        let at = alarm_at.expect("mean shift missed");
        assert!(at >= 300, "alarm before the change at {at}");
        assert!(at < 450, "alarm too late at {at}");
        // The pruning dropped pre-change history.
        assert!(det.alarms() >= 1);
    }

    #[test]
    fn stationary_stream_stays_quiet() {
        let mut det = Mmdew::new(cfg()).unwrap();
        for i in 0..1_000 {
            let x = 0.5 + 0.02 * f64::from(i % 11) / 11.0;
            assert_eq!(det.insert(&[x]).unwrap(), None, "false alarm at {i}");
        }
    }

    #[test]
    fn rejects_bad_values_and_configs() {
        assert!(Mmdew::new(MmdewConfig {
            gamma: 0.0,
            ..cfg()
        })
        .is_err());
        assert!(Mmdew::new(MmdewConfig {
            bucket_cap: 1,
            ..cfg()
        })
        .is_err());
        assert!(Mmdew::new(MmdewConfig {
            test_every: 0,
            ..cfg()
        })
        .is_err());
        let mut det = Mmdew::new(cfg()).unwrap();
        assert_eq!(
            det.insert(&[1.0, 2.0]),
            Err(RobustError::Dimension {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(det.insert(&[f64::NAN]), Err(RobustError::NonFinite));
    }

    #[test]
    fn persist_round_trip_resumes_bit_identically() {
        let mut live = Mmdew::new(cfg()).unwrap();
        for i in 0..200 {
            live.insert(&[0.3 + 0.05 * f64::from(i % 9)]).unwrap();
        }
        let mut restored = Mmdew::from_bytes(&live.to_bytes()).unwrap();
        assert_eq!(restored, live);
        // Same future: inserts (subsampling draws included) and
        // statistics agree exactly.
        for i in 0..200 {
            let x = [0.9 + 0.01 * f64::from(i % 3)];
            assert_eq!(live.insert(&x).unwrap(), restored.insert(&x).unwrap());
        }
        assert_eq!(live, restored);
    }
}
