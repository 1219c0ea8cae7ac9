//! Sorted-centre one-dimensional kernel estimator (paper Section 5.3).
//!
//! For one-dimensional data the paper improves the `O(|R|)` range query to
//! `O(log|R| + |R′|)` *"where R′ is the set of kernels that intersect the
//! query"*: keep the kernel centres sorted and binary-search for the ones
//! whose support overlaps `[lo − B, hi + B]`. Sensors spend almost all of
//! their query budget on `N(p, r)` calls (every arriving value triggers
//! one for D3 and `1/(2αr)` of them for MGDD), so this is the variant a
//! real deployment would run for scalar readings. The `kde_range_query`
//! benchmark compares it against the generic [`crate::Kde`].
//!
//! Like [`crate::Kde`], centres carry weights (all `1.0` until
//! [`Kde1d::compress_to_budget`] merges near-duplicates) and the
//! Epanechnikov hot path evaluates through the vectorised engine in
//! [`crate::eval`].

use snod_persist::{ByteReader, ByteWriter, Persist, PersistError};

use crate::eval;
use crate::kde::CompressionStats;
use crate::kernel::{EpanechnikovKernel, Kernel1d};
use crate::model::{check_dims, DensityModel};
use crate::{scott_bandwidth, DensityError};

/// One-dimensional KDE with sorted centres and support-pruned queries.
///
/// ```
/// use snod_density::{Kde1d, DensityModel};
/// let sample: Vec<f64> = (0..100).map(|i| 0.4 + 0.002 * (i as f64)).collect();
/// let kde = Kde1d::from_sample(&sample, 0.06, 10_000.0).unwrap();
/// let n = kde.neighborhood_count(&[0.5], 0.1).unwrap();
/// assert!(n > 8_000.0); // most of the window within ±0.1 of 0.5
/// ```
#[derive(Debug, Clone)]
pub struct Kde1d<K: Kernel1d = EpanechnikovKernel> {
    /// Kernel centres in ascending order.
    centers: Vec<f64>,
    /// Per-centre weights, parallel to `centers` (`1.0` until merged).
    weights: Vec<f64>,
    /// Cached `Σ weights`; the normaliser generalising `1/|R|`.
    total_weight: f64,
    /// Whether every weight is exactly `1.0` (true until a compression
    /// pass actually merges something). Lets the hot loop skip streaming
    /// the weight column — numerically invisible since `1.0 · m == m`.
    unit_weights: bool,
    bandwidth: f64,
    /// Cached `1/B` so the hot loop multiplies instead of divides.
    inv_bandwidth: f64,
    window_len: f64,
    kernel: K,
}

impl Kde1d<EpanechnikovKernel> {
    /// Builds an Epanechnikov estimator from an (unsorted) sample, deriving
    /// the bandwidth from `sigma` via the paper's rule with `d = 1`.
    pub fn from_sample(sample: &[f64], sigma: f64, window_len: f64) -> Result<Self, DensityError> {
        let bandwidth = scott_bandwidth(sigma, sample.len(), 1);
        Self::new(sample.to_vec(), bandwidth, window_len, EpanechnikovKernel)
    }

    /// Like [`Kde1d::from_sample`] but consumes the values straight from an
    /// iterator, so callers projecting a coordinate out of richer records
    /// (e.g. `window.iter().map(|v| v[0])`) need no intermediate `Vec`.
    pub fn from_sample_iter<I>(values: I, sigma: f64, window_len: f64) -> Result<Self, DensityError>
    where
        I: IntoIterator<Item = f64>,
    {
        let centers: Vec<f64> = values.into_iter().collect();
        let bandwidth = scott_bandwidth(sigma, centers.len(), 1);
        Self::new(centers, bandwidth, window_len, EpanechnikovKernel)
    }
}

impl<K: Kernel1d> Kde1d<K> {
    /// Builds an estimator with an explicit bandwidth and kernel; sorts the
    /// centres. Every centre starts with weight `1.0`.
    pub fn new(
        mut centers: Vec<f64>,
        bandwidth: f64,
        window_len: f64,
        kernel: K,
    ) -> Result<Self, DensityError> {
        if centers.is_empty() {
            return Err(DensityError::EmptySample);
        }
        if !(bandwidth > 0.0) {
            return Err(DensityError::NonPositiveParameter("bandwidth"));
        }
        if !(window_len > 0.0) {
            return Err(DensityError::NonPositiveParameter("window length"));
        }
        let _build = snod_obs::span!("density.kde1d.build");
        centers.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN centres"));
        let n = centers.len();
        Ok(Self {
            centers,
            weights: vec![1.0; n],
            total_weight: n as f64,
            unit_weights: true,
            bandwidth,
            inv_bandwidth: 1.0 / bandwidth,
            window_len,
            kernel,
        })
    }

    /// Number of kernels `|R|` (weighted representatives after
    /// compression; see [`Kde1d::total_weight`] for the sampled-point
    /// count).
    pub fn sample_size(&self) -> usize {
        self.centers.len()
    }

    /// The bandwidth `B`.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// The kernel centres in ascending order.
    pub fn centers(&self) -> &[f64] {
        &self.centers
    }

    /// Per-centre kernel weights, parallel to [`Kde1d::centers`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Total kernel weight `Σ wᵢ` — equal to the number of sampled points
    /// regardless of compression.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Merges a new weight-1 centre into the sorted array in
    /// `O(log|R| + shift)`.
    ///
    /// The bandwidth is deliberately **not** recomputed: under epoch-based
    /// maintenance the centres track the window exactly while the kernel
    /// widths stay at their last-rebuild values until the owner decides the
    /// drift warrants a full rebuild (see `snod-core`'s rebuild policy).
    pub fn insert_center(&mut self, x: f64) -> Result<(), DensityError> {
        if x.is_nan() {
            return Err(DensityError::NonFiniteValue("kernel centre"));
        }
        let i = self.centers.partition_point(|&c| c < x);
        self.centers.insert(i, x);
        self.weights.insert(i, 1.0);
        self.total_weight += 1.0;
        Ok(())
    }

    /// Removes one unit of weight from a centre equal to `x` in
    /// `O(log|R| + shift)`; returns whether one was found. A centre
    /// holding merged weight is decremented in place; a weight-1 centre
    /// is removed outright. Removing the last remaining centre is refused
    /// (returns `false`) so the estimator never becomes empty.
    pub fn remove_center(&mut self, x: f64) -> bool {
        let i = self.centers.partition_point(|&c| c < x);
        if i >= self.centers.len() || self.centers[i] != x {
            return false;
        }
        if self.weights[i] > 1.0 {
            self.weights[i] -= 1.0;
            self.total_weight -= 1.0;
            return true;
        }
        if self.centers.len() == 1 {
            return false;
        }
        self.centers.remove(i);
        self.total_weight -= self.weights.remove(i);
        true
    }

    /// Replaces the bandwidth (an epoch-boundary rebuild in place when the
    /// centres are already current).
    pub fn set_bandwidth(&mut self, bandwidth: f64) -> Result<(), DensityError> {
        if !(bandwidth > 0.0) {
            return Err(DensityError::NonPositiveParameter("bandwidth"));
        }
        self.bandwidth = bandwidth;
        self.inv_bandwidth = 1.0 / bandwidth;
        Ok(())
    }

    /// Replaces the window length `|W|` that scales probabilities into
    /// counts.
    pub fn set_window_len(&mut self, window_len: f64) -> Result<(), DensityError> {
        if !(window_len > 0.0) {
            return Err(DensityError::NonPositiveParameter("window length"));
        }
        self.window_len = window_len;
        Ok(())
    }

    /// Index range of centres whose kernel support intersects `[lo, hi]` —
    /// the `R′` of the paper's complexity claim.
    fn intersecting(&self, lo: f64, hi: f64) -> (usize, usize) {
        let reach = self.kernel.support();
        if reach.is_infinite() {
            return (0, self.centers.len());
        }
        let span = reach * self.bandwidth;
        let start = self.centers.partition_point(|&c| c < lo - span);
        let end = self.centers.partition_point(|&c| c <= hi + span);
        (start, end)
    }

    /// Number of kernels the query `[lo, hi]` touches (exposed so the
    /// complexity experiment can report `|R′|`).
    pub fn kernels_intersecting(&self, lo: f64, hi: f64) -> usize {
        let (s, e) = self.intersecting(lo, hi);
        e - s
    }

    /// Compresses the kernel set to at most `max(budget, 1)` weighted
    /// centres — the one-dimensional counterpart of
    /// [`crate::Kde::compress_to_budget`], with the same greedy
    /// consecutive-run merge, the same tolerance-doubling escalation, and
    /// the same exact preservation of total weight.
    pub fn compress_to_budget(&mut self, budget: usize, tolerance: f64) -> CompressionStats {
        let _span = snod_obs::span!("density.kde1d.compress");
        let before = self.centers.len();
        let budget = budget.max(1);
        let mut tol = if tolerance > 0.0 { tolerance } else { 0.0 };
        let mut passes = 0u32;
        let mut effective = 0.0;
        if tol > 0.0 && self.centers.len() > 1 {
            self.merge_within(tol);
            passes += 1;
            effective = tol;
        }
        while self.centers.len() > budget {
            tol = if !(tol > 0.0) {
                1e-3
            } else if passes >= 60 {
                f64::INFINITY
            } else {
                tol * 2.0
            };
            self.merge_within(tol);
            passes += 1;
            effective = tol;
        }
        let after = self.centers.len();
        snod_obs::counter!("density.compress.merged").add((before - after) as u64);
        snod_obs::counter!("density.compress.passes").add(passes as u64);
        CompressionStats {
            before,
            after,
            passes,
            effective_tolerance: effective,
        }
    }

    /// One greedy merge pass at radius `tol` (in bandwidth units).
    fn merge_within(&mut self, tol: f64) {
        let n = self.centers.len();
        if n <= 1 {
            return;
        }
        let thresh = tol * self.bandwidth;
        let mut out_c: Vec<f64> = Vec::new();
        let mut out_w: Vec<f64> = Vec::new();
        let mut i = 0usize;
        while i < n {
            let mut j = i + 1;
            while j < n && (self.centers[j] - self.centers[i]).abs() <= thresh {
                j += 1;
            }
            if j == i + 1 {
                out_c.push(self.centers[i]);
                out_w.push(self.weights[i]);
            } else {
                let wsum: f64 = self.weights[i..j].iter().sum();
                let num: f64 = (i..j).map(|k| self.weights[k] * self.centers[k]).sum();
                // Clamp into the (sorted) group hull so rounding can
                // never violate the sortedness invariant.
                out_c.push((num / wsum).max(self.centers[i]).min(self.centers[j - 1]));
                out_w.push(wsum);
            }
            i = j;
        }
        debug_assert!(out_c.windows(2).all(|w| w[0] <= w[1]));
        self.centers = out_c;
        self.total_weight = out_w.iter().sum();
        self.unit_weights = out_w.iter().all(|&w| w == 1.0);
        self.weights = out_w;
    }

    /// Un-normalised weighted interval mass over the pre-pruned centre
    /// range `[s, e)`. Every query path lands here — the bit-identity
    /// anchor between scalar and batched evaluation.
    fn interval_mass(&self, a: f64, b: f64, s: usize, e: usize) -> f64 {
        if self.kernel.is_epanechnikov() {
            if self.unit_weights {
                eval::epan_interval_unweighted(&self.centers, s, e, a, b, self.inv_bandwidth)
            } else {
                eval::epan_interval_weighted(
                    &self.centers,
                    &self.weights,
                    s,
                    e,
                    a,
                    b,
                    self.inv_bandwidth,
                )
            }
        } else {
            self.centers[s..e]
                .iter()
                .zip(&self.weights[s..e])
                .map(|(&c, &w)| {
                    w * self
                        .kernel
                        .mass((a - c) / self.bandwidth, (b - c) / self.bandwidth)
                })
                .sum()
        }
    }
}

impl<K: Kernel1d> DensityModel for Kde1d<K> {
    fn dims(&self) -> usize {
        1
    }

    fn window_len(&self) -> f64 {
        self.window_len
    }

    fn pdf(&self, x: &[f64]) -> Result<f64, DensityError> {
        check_dims(1, x)?;
        let x = x[0];
        let (s, e) = self.intersecting(x, x);
        let sum: f64 = self.centers[s..e]
            .iter()
            .zip(&self.weights[s..e])
            .map(|(&c, &w)| w * self.kernel.density((x - c) / self.bandwidth))
            .sum();
        Ok(sum / (self.total_weight * self.bandwidth))
    }

    fn box_prob(&self, lo: &[f64], hi: &[f64]) -> Result<f64, DensityError> {
        check_dims(1, lo)?;
        check_dims(1, hi)?;
        let (a, b) = (lo[0], hi[0]);
        if b <= a {
            return Ok(0.0);
        }
        let (s, e) = self.intersecting(a, b);
        snod_obs::counter!("density.scalar.queries").incr();
        snod_obs::counter!("density.scalar.kernels").add((e - s) as u64);
        Ok(self.interval_mass(a, b, s, e) / self.total_weight)
    }

    fn compress(&mut self, budget: usize, tolerance: f64) -> usize {
        let stats = self.compress_to_budget(budget, tolerance);
        stats.before - stats.after
    }

    /// Batched neighborhood counts. Large batches sort the queries and
    /// advance the support-pruning frontier `[s, e)` monotonically —
    /// `O(q·log q + |R| + Σ|R′|)`; small batches against large models
    /// skip the frontier walk and binary-search per query
    /// (the crate-private `eval::sweep_beats_per_query` decides). Both
    /// paths derive identical centre ranges and share one evaluator, so
    /// the choice never changes a single output bit.
    fn neighborhood_counts(&self, points: &[f64], r: f64) -> Result<Vec<f64>, DensityError> {
        let mut out = vec![0.0; points.len()];
        if r <= 0.0 {
            // box_prob short-circuits degenerate intervals to zero mass.
            return Ok(out);
        }
        let _sweep = snod_obs::span!("density.kde1d.sweep");
        let reach = self.kernel.support();
        if reach.is_infinite() {
            // No pruning possible; every query touches every kernel.
            for (o, &p) in out.iter_mut().zip(points) {
                *o = self.box_prob(&[p - r], &[p + r])? * self.window_len;
            }
            return Ok(out);
        }
        let len = self.centers.len();
        if eval::sweep_beats_per_query(points.len(), len) {
            snod_obs::counter!("density.sweep.queries").add(points.len() as u64);
            let mut order: Vec<u32> = (0..points.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| points[a as usize].total_cmp(&points[b as usize]));
            let span = reach * self.bandwidth;
            let kernels = snod_obs::counter!("density.sweep.kernels");
            let (mut s, mut e) = (0usize, 0usize);
            for &qi in &order {
                let p = points[qi as usize];
                let (a, b) = (p - r, p + r);
                while s < len && self.centers[s] < a - span {
                    s += 1;
                }
                while e < len && self.centers[e] <= b + span {
                    e += 1;
                }
                kernels.add((e - s) as u64);
                out[qi as usize] =
                    self.interval_mass(a, b, s, e) / self.total_weight * self.window_len;
            }
        } else {
            snod_obs::counter!("density.batch.per_query").add(points.len() as u64);
            let kernels = snod_obs::counter!("density.batch.kernels");
            for (o, &p) in out.iter_mut().zip(points) {
                let (a, b) = (p - r, p + r);
                let (s, e) = self.intersecting(a, b);
                kernels.add((e - s) as u64);
                *o = self.interval_mass(a, b, s, e) / self.total_weight * self.window_len;
            }
        }
        Ok(out)
    }
}

impl<K: Kernel1d + Default> Persist for Kde1d<K> {
    fn save(&self, w: &mut ByteWriter) {
        self.centers.save(w);
        self.weights.save(w);
        self.bandwidth.save(w);
        self.window_len.save(w);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let centers = Vec::<f64>::load(r)?;
        let weights = Vec::<f64>::load(r)?;
        let bandwidth = f64::load(r)?;
        let window_len = f64::load(r)?;
        let corrupt = || PersistError::Corrupt("invalid kde1d parameters");
        // Loading bypasses the sorting constructor (weights must stay
        // aligned with their centres), so validate here instead.
        if centers.is_empty() || weights.len() != centers.len() {
            return Err(corrupt());
        }
        if centers.windows(2).any(|p| !(p[0] <= p[1])) {
            return Err(corrupt());
        }
        if weights.iter().any(|&w| !w.is_finite() || !(w > 0.0)) {
            return Err(corrupt());
        }
        if !(bandwidth > 0.0) || !(window_len > 0.0) {
            return Err(corrupt());
        }
        let total_weight = weights.iter().sum();
        let unit_weights = weights.iter().all(|&w| w == 1.0);
        Ok(Self {
            centers,
            weights,
            total_weight,
            unit_weights,
            bandwidth,
            inv_bandwidth: 1.0 / bandwidth,
            window_len,
            kernel: K::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kde::Kde;

    fn sample() -> Vec<f64> {
        (0..200).map(|i| ((i * 37) % 200) as f64 / 200.0).collect()
    }

    #[test]
    fn agrees_with_generic_kde() {
        let xs = sample();
        let pts: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let sigma = 0.28;
        let fast = Kde1d::from_sample(&xs, sigma, 1_000.0).unwrap();
        let slow = Kde::from_sample(&pts, &[sigma], 1_000.0).unwrap();
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            let pf = fast.pdf(&[x]).unwrap();
            let ps = slow.pdf(&[x]).unwrap();
            assert!((pf - ps).abs() < 1e-12, "pdf mismatch at {x}: {pf} vs {ps}");
            let bf = fast.range_prob(&[x], 0.07).unwrap();
            let bs = slow.range_prob(&[x], 0.07).unwrap();
            assert!((bf - bs).abs() < 1e-12, "range mismatch at {x}");
        }
    }

    #[test]
    fn pruning_reduces_touched_kernels() {
        let xs: Vec<f64> = (0..10_000).map(|i| i as f64 / 10_000.0).collect();
        let kde = Kde1d::from_sample(&xs, 0.29, 10_000.0).unwrap();
        let touched = kde.kernels_intersecting(0.49, 0.51);
        assert!(touched < 10_000, "no pruning happened");
        assert!(touched > 0);
    }

    #[test]
    fn empty_interval_has_zero_mass() {
        let kde = Kde1d::from_sample(&sample(), 0.28, 100.0).unwrap();
        assert_eq!(kde.box_prob(&[0.5], &[0.5]).unwrap(), 0.0);
        assert_eq!(kde.box_prob(&[0.6], &[0.4]).unwrap(), 0.0);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let kde = Kde1d::from_sample(&[0.9, 0.1, 0.5], 0.3, 100.0).unwrap();
        // centres must be sorted internally for partition_point to work
        let p_all = kde.box_prob(&[-2.0], &[3.0]).unwrap();
        assert!((p_all - 1.0).abs() < 1e-12);
    }

    #[test]
    fn construction_validates_input() {
        assert!(Kde1d::from_sample(&[], 0.1, 100.0).is_err());
        assert!(Kde1d::new(vec![0.5], -0.1, 100.0, EpanechnikovKernel).is_err());
        assert!(Kde1d::new(vec![0.5], 0.1, -1.0, EpanechnikovKernel).is_err());
    }

    #[test]
    fn batched_counts_match_scalar_exactly() {
        let kde = Kde1d::from_sample(&sample(), 0.28, 2_000.0).unwrap();
        // Unsorted, duplicated and out-of-support queries.
        let queries = [0.93, 0.1, 0.1, -0.4, 0.5, 1.7, 0.02, 0.5001];
        for r in [0.01, 0.1, 0.35] {
            let batch = kde.neighborhood_counts(&queries, r).unwrap();
            for (i, &q) in queries.iter().enumerate() {
                let scalar = kde.neighborhood_count(&[q], r).unwrap();
                assert_eq!(batch[i], scalar, "q={q} r={r}");
            }
        }
        assert_eq!(kde.neighborhood_counts(&queries, 0.0).unwrap(), vec![0.0; 8]);
        assert!(kde.neighborhood_counts(&[], 0.1).unwrap().is_empty());
    }

    #[test]
    fn batched_counts_match_scalar_for_gaussian_kernel() {
        // Infinite support exercises the no-pruning fallback.
        let kde = Kde1d::new(
            vec![0.2, 0.5, 0.8],
            0.1,
            500.0,
            crate::kernel::GaussianKernel,
        )
        .unwrap();
        let queries = [0.9, 0.1, 0.55];
        let batch = kde.neighborhood_counts(&queries, 0.2).unwrap();
        for (i, &q) in queries.iter().enumerate() {
            let scalar = kde.neighborhood_count(&[q], 0.2).unwrap();
            assert_eq!(batch[i], scalar);
        }
    }

    #[test]
    fn insert_and_remove_maintain_sorted_centers() {
        let mut kde = Kde1d::from_sample(&[0.5, 0.1, 0.9], 0.3, 100.0).unwrap();
        kde.insert_center(0.4).unwrap();
        kde.insert_center(0.0).unwrap();
        kde.insert_center(1.2).unwrap();
        assert_eq!(kde.centers(), &[0.0, 0.1, 0.4, 0.5, 0.9, 1.2]);
        assert!(kde.remove_center(0.5));
        assert!(!kde.remove_center(0.5), "already gone");
        assert!(!kde.remove_center(0.77), "never present");
        assert_eq!(kde.centers(), &[0.0, 0.1, 0.4, 0.9, 1.2]);
        assert!(kde.insert_center(f64::NAN).is_err());
        // Removals stop before emptying the estimator.
        for x in [0.0, 0.1, 0.4, 0.9] {
            assert!(kde.remove_center(x));
        }
        assert!(!kde.remove_center(1.2));
        assert_eq!(kde.sample_size(), 1);
    }

    #[test]
    fn incrementally_built_model_matches_from_scratch() {
        let xs = sample();
        let mut inc = Kde1d::from_sample(&xs[..150], 0.28, 2_000.0).unwrap();
        for &x in &xs[150..] {
            inc.insert_center(x).unwrap();
        }
        for &x in &xs[..50] {
            assert!(inc.remove_center(x));
        }
        // Same centres, same bandwidth ⇒ identical queries.
        let scratch = Kde1d::new(xs[50..].to_vec(), inc.bandwidth(), 2_000.0, EpanechnikovKernel)
            .unwrap();
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            assert_eq!(
                inc.neighborhood_count(&[q], 0.1).unwrap(),
                scratch.neighborhood_count(&[q], 0.1).unwrap()
            );
        }
    }

    #[test]
    fn setters_validate_and_apply() {
        let mut kde = Kde1d::from_sample(&sample(), 0.28, 100.0).unwrap();
        assert!(kde.set_bandwidth(0.0).is_err());
        assert!(kde.set_window_len(-1.0).is_err());
        kde.set_bandwidth(0.5).unwrap();
        kde.set_window_len(400.0).unwrap();
        assert_eq!(kde.bandwidth(), 0.5);
        assert_eq!(kde.window_len(), 400.0);
    }

    #[test]
    fn from_sample_iter_matches_from_sample() {
        let xs = sample();
        let a = Kde1d::from_sample(&xs, 0.28, 1_000.0).unwrap();
        let b = Kde1d::from_sample_iter(xs.iter().copied(), 0.28, 1_000.0).unwrap();
        assert_eq!(a.bandwidth(), b.bandwidth());
        assert_eq!(a.centers(), b.centers());
    }

    #[test]
    fn neighborhood_count_counts_cluster() {
        // Sample mirrors a window where ~half the mass sits at 0.2.
        let mut xs = vec![0.2; 100];
        xs.extend(vec![0.8; 100]);
        let kde = Kde1d::from_sample(&xs, 0.3, 2_000.0).unwrap();
        let n = kde.neighborhood_count(&[0.2], 0.25).unwrap();
        assert!((n - 1_000.0).abs() < 150.0, "count {n}");
    }

    #[test]
    fn compression_merges_duplicates_into_weights() {
        // 100 copies of 0.2 and 100 of 0.8 collapse to two centres of
        // weight 100 each; queries are unchanged to the merge bound
        // (here: exactly, since every group is a single point).
        let mut xs = vec![0.2; 100];
        xs.extend(vec![0.8; 100]);
        let mut kde = Kde1d::from_sample(&xs, 0.3, 2_000.0).unwrap();
        let reference = kde.clone();
        let stats = kde.compress_to_budget(50, 1e-9);
        assert_eq!(kde.sample_size(), 2);
        assert_eq!(stats.before, 200);
        assert_eq!(stats.after, 2);
        assert_eq!(kde.total_weight(), 200.0);
        assert_eq!(kde.weights(), &[100.0, 100.0]);
        for q in [0.1, 0.2, 0.5, 0.8, 0.95] {
            let a = reference.neighborhood_count(&[q], 0.25).unwrap();
            let b = kde.neighborhood_count(&[q], 0.25).unwrap();
            assert!((a - b).abs() < 1e-9, "q={q}: {a} vs {b}");
        }
    }

    #[test]
    fn compressed_batch_matches_scalar_bit_for_bit() {
        let mut kde = Kde1d::from_sample(&sample(), 0.28, 2_000.0).unwrap();
        kde.compress_to_budget(40, 0.05);
        assert!(kde.sample_size() <= 40);
        assert!(kde.weights().iter().any(|&w| w > 1.0));
        let queries = [0.93, 0.1, 0.1, -0.4, 0.5, 1.7, 0.02, 0.5001];
        for r in [0.05, 0.2] {
            let batch = kde.neighborhood_counts(&queries, r).unwrap();
            for (i, &q) in queries.iter().enumerate() {
                assert_eq!(batch[i], kde.neighborhood_count(&[q], r).unwrap());
            }
        }
        // Mass axiom survives compression.
        let p = kde.box_prob(&[-5.0], &[5.0]).unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }
}
