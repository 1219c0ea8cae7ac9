//! The d-dimensional product-kernel density estimator (paper Section 4).
//!
//! Given a sample `R` of the window and per-dimension bandwidths `Bᵢ`,
//! the estimated density is Equation 1:
//!
//! ```text
//! f(x) = 1/|R| · Σ_{t ∈ R} k(x₁ − t₁, …, x_d − t_d)
//! ```
//!
//! with the product Epanechnikov kernel of Equation 2. Because each
//! one-dimensional factor has a closed-form CDF, the probability of an
//! axis-aligned box — and hence the neighborhood count `N(p, r)` — is an
//! exact `O(d·|R|)` sum (Theorem 2), no numerical integration involved.
//!
//! # Layout and weighting
//!
//! Centres are stored structure-of-arrays — one contiguous column per
//! dimension, all sorted by the first coordinate — and each centre
//! carries a weight. Freshly sampled centres weigh `1.0`; the online
//! compressor ([`Kde::compress_to_budget`]) merges near-duplicate
//! centres into a single weighted representative, so a model can answer
//! the same queries with far fewer kernels. All probabilities are
//! normalised by the total weight, which generalises the `1/|R|` of
//! Equation 1 (and reduces to it exactly when every weight is `1.0`).
//! The evaluation itself lives in [`crate::eval`].

use snod_persist::{ByteReader, ByteWriter, Persist, PersistError};

use crate::eval;
use crate::kernel::{EpanechnikovKernel, Kernel1d};
use crate::model::{check_dims, DensityModel};
use crate::{scott_bandwidths, DensityError};

/// Merge radius (in bandwidth units) used when a budget must be met but
/// the caller supplied no tolerance to start from.
const SEED_TOLERANCE: f64 = 1e-3;

/// Outcome of a [`Kde::compress_to_budget`] / `Kde1d::compress_to_budget`
/// call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionStats {
    /// Kernel count before merging.
    pub before: usize,
    /// Kernel count after merging (`≤ max(budget, 1)` on return).
    pub after: usize,
    /// Merge passes run; `0` means the model was already within budget
    /// and no tolerance-driven merge was requested.
    pub passes: u32,
    /// The merge radius of the *last* pass, in bandwidth units: every
    /// surviving centre is a weighted mean of original centres that all
    /// lay within `effective_tolerance · Bⱼ` of the group representative
    /// in every dimension `j`. This bounds the per-query error — the
    /// Epanechnikov CDF has slope ≤ 0.75, so a centre shift of `τ·Bⱼ`
    /// moves any one-dimensional box mass by ≤ `1.5·τ`, and a
    /// `d`-dimensional product by ≤ `1.5·d·τ` per unit of mass.
    pub effective_tolerance: f64,
}

/// Kernel density estimator over `d`-dimensional points in `[0, 1]^d`.
///
/// ```
/// use snod_density::{Kde, DensityModel};
/// // 200 sample points clustered near 0.5
/// let pts: Vec<Vec<f64>> = (0..200).map(|i| vec![0.5 + 0.001 * (i % 20) as f64]).collect();
/// let kde = Kde::from_sample(&pts, &[0.05], 1_000.0).unwrap();
/// // the cluster is dense, the far tail is not
/// assert!(kde.neighborhood_count(&[0.5], 0.05).unwrap() > 500.0);
/// assert!(kde.neighborhood_count(&[0.95], 0.05).unwrap() < 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct Kde<K: Kernel1d = EpanechnikovKernel> {
    dims: usize,
    /// Per-dimension coordinate columns: `cols[j][i]` is coordinate `j`
    /// of centre `i`. Centres are sorted by `cols[0]` so finite-support
    /// queries can prune on dimension 0.
    cols: Vec<Vec<f64>>,
    /// Per-centre kernel weights (`1.0` until compression merges
    /// centres).
    weights: Vec<f64>,
    /// Cached `Σ weights`; the normaliser generalising `1/|R|`.
    total_weight: f64,
    bandwidths: Vec<f64>,
    /// Cached `1/Bⱼ` so the hot loop multiplies instead of divides.
    inv_bandwidths: Vec<f64>,
    window_len: f64,
    kernel: K,
}

impl Kde<EpanechnikovKernel> {
    /// Builds an Epanechnikov estimator from a sample of points, applying
    /// the paper's bandwidth rule `Bᵢ = √5·σᵢ·|R|^(−1/(d+4))` to the given
    /// per-dimension standard deviations.
    pub fn from_sample(
        sample: &[Vec<f64>],
        sigmas: &[f64],
        window_len: f64,
    ) -> Result<Self, DensityError> {
        let dims = sigmas.len();
        if dims == 0 {
            return Err(DensityError::NonPositiveParameter("dimensionality"));
        }
        let mut centers = Vec::with_capacity(sample.len() * dims);
        for p in sample {
            check_dims(dims, p)?;
            centers.extend_from_slice(p);
        }
        let bandwidths = scott_bandwidths(sigmas, sample.len());
        Self::new(dims, centers, bandwidths, window_len, EpanechnikovKernel)
    }

    /// Like [`Kde::from_sample`] but consumes borrowed coordinate slices,
    /// so callers holding a `VecDeque<Vec<f64>>` window can build a model
    /// without first cloning it into a `Vec<Vec<f64>>`.
    pub fn from_sample_iter<'a, I>(
        rows: I,
        sigmas: &[f64],
        window_len: f64,
    ) -> Result<Self, DensityError>
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let dims = sigmas.len();
        if dims == 0 {
            return Err(DensityError::NonPositiveParameter("dimensionality"));
        }
        let mut centers = Vec::new();
        let mut n = 0usize;
        for p in rows {
            check_dims(dims, p)?;
            centers.extend_from_slice(p);
            n += 1;
        }
        let bandwidths = scott_bandwidths(sigmas, n);
        Self::new(dims, centers, bandwidths, window_len, EpanechnikovKernel)
    }
}

impl<K: Kernel1d> Kde<K> {
    /// Builds an estimator from a flattened row-major sample with explicit
    /// bandwidths and kernel. Sample points are re-ordered (sorted by
    /// their first coordinate) into per-dimension columns to enable query
    /// pruning and vectorised evaluation; every point starts with weight
    /// `1.0`.
    pub fn new(
        dims: usize,
        centers: Vec<f64>,
        bandwidths: Vec<f64>,
        window_len: f64,
        kernel: K,
    ) -> Result<Self, DensityError> {
        if dims == 0 {
            return Err(DensityError::NonPositiveParameter("dimensionality"));
        }
        if centers.is_empty() {
            return Err(DensityError::EmptySample);
        }
        if !centers.len().is_multiple_of(dims) {
            return Err(DensityError::RaggedSample);
        }
        if bandwidths.len() != dims {
            return Err(DensityError::DimensionMismatch {
                expected: dims,
                got: bandwidths.len(),
            });
        }
        if bandwidths.iter().any(|&b| !(b > 0.0)) {
            return Err(DensityError::NonPositiveParameter("bandwidth"));
        }
        if !(window_len > 0.0) {
            return Err(DensityError::NonPositiveParameter("window length"));
        }
        // Sort points by first coordinate (sample order carries no
        // meaning); NaNs are rejected implicitly by partial_cmp ordering
        // of generator-produced data.
        let _build = snod_obs::span!("density.kde.build");
        let n = centers.len() / dims;
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            centers[a as usize * dims]
                .partial_cmp(&centers[b as usize * dims])
                .expect("non-NaN sample")
        });
        let mut cols: Vec<Vec<f64>> = (0..dims).map(|_| Vec::with_capacity(n)).collect();
        for &i in &order {
            for (j, col) in cols.iter_mut().enumerate() {
                col.push(centers[i as usize * dims + j]);
            }
        }
        let inv_bandwidths = bandwidths.iter().map(|b| 1.0 / b).collect();
        Ok(Self {
            dims,
            cols,
            weights: vec![1.0; n],
            total_weight: n as f64,
            bandwidths,
            inv_bandwidths,
            window_len,
            kernel,
        })
    }

    /// Index range of points whose dimension-0 kernel support intersects
    /// `[lo0, hi0]` — the pruning window for finite-support kernels.
    fn dim0_range(&self, lo0: f64, hi0: f64) -> (usize, usize) {
        let reach = self.kernel.support();
        if reach.is_infinite() {
            return (0, self.weights.len());
        }
        let span = reach * self.bandwidths[0];
        let start = self.cols[0].partition_point(|&c| c < lo0 - span);
        let end = self.cols[0].partition_point(|&c| c <= hi0 + span);
        (start, end)
    }

    /// Number of kernels `|R|` (after compression this is the number of
    /// weighted representatives, not the number of sampled points — see
    /// [`Kde::total_weight`] for the latter).
    pub fn sample_size(&self) -> usize {
        self.weights.len()
    }

    /// Per-dimension bandwidths `Bᵢ`.
    pub fn bandwidths(&self) -> &[f64] {
        &self.bandwidths
    }

    /// The kernel centres, materialised row-major (`i*dims + j` is
    /// coordinate `j` of centre `i`), sorted by first coordinate.
    pub fn centers(&self) -> Vec<f64> {
        let n = self.weights.len();
        let mut out = Vec::with_capacity(n * self.dims);
        for i in 0..n {
            for col in &self.cols {
                out.push(col[i]);
            }
        }
        out
    }

    /// The contiguous coordinate column for dimension `j`.
    pub fn column(&self, j: usize) -> &[f64] {
        &self.cols[j]
    }

    /// Per-centre kernel weights, parallel to the columns.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Total kernel weight `Σ wᵢ` — equal to the number of sampled points
    /// regardless of compression.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Merges a new weight-1 sample point into the sorted columns in
    /// `O(d·(log|R| + shift))`. Bandwidths are deliberately **not**
    /// recomputed — see the epoch-based rebuild policy in `snod-core`.
    pub fn insert_point(&mut self, p: &[f64]) -> Result<(), DensityError> {
        check_dims(self.dims, p)?;
        if p.iter().any(|c| c.is_nan()) {
            return Err(DensityError::NonFiniteValue("sample point"));
        }
        let i = self.cols[0].partition_point(|&c| c < p[0]);
        for (col, &c) in self.cols.iter_mut().zip(p) {
            col.insert(i, c);
        }
        self.weights.insert(i, 1.0);
        self.total_weight += 1.0;
        Ok(())
    }

    /// Removes one unit of weight from a centre equal to `p`; returns
    /// whether one was found. A centre holding merged weight is
    /// decremented in place; a weight-1 centre is removed outright.
    /// Removing the last remaining point is refused (returns `Ok(false)`)
    /// so the estimator never becomes empty.
    pub fn remove_point(&mut self, p: &[f64]) -> Result<bool, DensityError> {
        check_dims(self.dims, p)?;
        let mut i = self.cols[0].partition_point(|&c| c < p[0]);
        while i < self.weights.len() && self.cols[0][i] == p[0] {
            if (0..self.dims).all(|j| self.cols[j][i] == p[j]) {
                if self.weights[i] > 1.0 {
                    self.weights[i] -= 1.0;
                    self.total_weight -= 1.0;
                    return Ok(true);
                }
                if self.weights.len() == 1 {
                    return Ok(false);
                }
                for col in &mut self.cols {
                    col.remove(i);
                }
                self.total_weight -= self.weights.remove(i);
                return Ok(true);
            }
            i += 1;
        }
        Ok(false)
    }

    /// Replaces the per-dimension bandwidths (an epoch-boundary rebuild in
    /// place when the centres are already current).
    pub fn set_bandwidths(&mut self, bandwidths: &[f64]) -> Result<(), DensityError> {
        if bandwidths.len() != self.dims {
            return Err(DensityError::DimensionMismatch {
                expected: self.dims,
                got: bandwidths.len(),
            });
        }
        if bandwidths.iter().any(|&b| !(b > 0.0)) {
            return Err(DensityError::NonPositiveParameter("bandwidth"));
        }
        self.bandwidths.clear();
        self.bandwidths.extend_from_slice(bandwidths);
        self.inv_bandwidths.clear();
        self.inv_bandwidths.extend(bandwidths.iter().map(|b| 1.0 / b));
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

    /// Compresses the kernel set to at most `max(budget, 1)` weighted
    /// centres by merging near-duplicates, xokde++-style.
    ///
    /// One pass walks the dimension-0-sorted centres and greedily groups
    /// consecutive runs in which every centre lies within
    /// `tolerance · Bⱼ` of the run's first member in *every* dimension
    /// `j`; each run is replaced by its weighted mean carrying the run's
    /// total weight. Because the dimension-0 column is globally sorted,
    /// consecutive-run means stay sorted, so the pruning index survives
    /// compression untouched. If one pass at the requested tolerance
    /// still exceeds `budget`, the tolerance doubles and the pass reruns
    /// until the budget is met (escalating to a single centre in the
    /// degenerate limit). Total weight — and therefore every query's
    /// normaliser — is preserved exactly.
    pub fn compress_to_budget(&mut self, budget: usize, tolerance: f64) -> CompressionStats {
        let _span = snod_obs::span!("density.kde.compress");
        let before = self.weights.len();
        let budget = budget.max(1);
        let mut tol = if tolerance > 0.0 { tolerance } else { 0.0 };
        let mut passes = 0u32;
        let mut effective = 0.0;
        if tol > 0.0 && self.weights.len() > 1 {
            self.merge_within(tol);
            passes += 1;
            effective = tol;
        }
        while self.weights.len() > budget {
            tol = if !(tol > 0.0) {
                SEED_TOLERANCE
            } else if passes >= 60 {
                // Doubling from any sane starting point meets any budget
                // long before this; an infinite radius is the guaranteed
                // terminal state (one centre).
                f64::INFINITY
            } else {
                tol * 2.0
            };
            self.merge_within(tol);
            passes += 1;
            effective = tol;
        }
        let after = self.weights.len();
        snod_obs::counter!("density.compress.merged").add((before - after) as u64);
        snod_obs::counter!("density.compress.passes").add(passes as u64);
        CompressionStats {
            before,
            after,
            passes,
            effective_tolerance: effective,
        }
    }

    /// One greedy merge pass at radius `tol` (in bandwidth units). See
    /// [`Kde::compress_to_budget`] for the invariants.
    fn merge_within(&mut self, tol: f64) {
        let n = self.weights.len();
        if n <= 1 {
            return;
        }
        let thresh: Vec<f64> = self.bandwidths.iter().map(|b| tol * b).collect();
        let mut out_cols: Vec<Vec<f64>> = (0..self.dims).map(|_| Vec::new()).collect();
        let mut out_w: Vec<f64> = Vec::new();
        let mut i = 0usize;
        while i < n {
            let mut j = i + 1;
            while j < n
                && (0..self.dims).all(|d| (self.cols[d][j] - self.cols[d][i]).abs() <= thresh[d])
            {
                j += 1;
            }
            if j == i + 1 {
                for (d, col) in out_cols.iter_mut().enumerate() {
                    col.push(self.cols[d][i]);
                }
                out_w.push(self.weights[i]);
            } else {
                let wsum: f64 = self.weights[i..j].iter().sum();
                for (d, col) in out_cols.iter_mut().enumerate() {
                    let num: f64 = (i..j).map(|k| self.weights[k] * self.cols[d][k]).sum();
                    // Clamp the weighted mean into the group's hull so
                    // float rounding can never push it outside — which
                    // for dimension 0 is exactly the sortedness invariant
                    // the pruning index depends on.
                    let (mut mn, mut mx) = (f64::INFINITY, f64::NEG_INFINITY);
                    for k in i..j {
                        mn = mn.min(self.cols[d][k]);
                        mx = mx.max(self.cols[d][k]);
                    }
                    col.push((num / wsum).max(mn).min(mx));
                }
                out_w.push(wsum);
            }
            i = j;
        }
        debug_assert!(out_cols[0].windows(2).all(|w| w[0] <= w[1]));
        self.cols = out_cols;
        self.total_weight = out_w.iter().sum();
        self.weights = out_w;
    }

    /// Un-normalised weighted box mass over the pre-pruned centre range
    /// `[s, e)`. Dispatches to the vectorised Epanechnikov engine when
    /// the kernel allows it, else the generic per-kernel loop. Every
    /// query path — scalar, swept, per-query batched — lands here, which
    /// is what makes them bit-identical to each other.
    fn box_mass_in_range(&self, lo: &[f64], hi: &[f64], s: usize, e: usize) -> f64 {
        if self.kernel.is_epanechnikov() {
            // Degenerate boxes have zero mass (the generic path gets this
            // from `Kernel1d::mass`; the clamped-CDF engine must not see
            // them).
            if lo.iter().zip(hi).any(|(&a, &b)| b <= a) {
                return 0.0;
            }
            eval::epan_box_weighted(&self.cols, &self.weights, s, e, lo, hi, &self.inv_bandwidths)
        } else {
            eval::generic_box_weighted(
                &self.kernel,
                &self.cols,
                &self.weights,
                s,
                e,
                lo,
                hi,
                &self.bandwidths,
            )
        }
    }
}

impl<K: Kernel1d> DensityModel for Kde<K> {
    fn dims(&self) -> usize {
        self.dims
    }

    fn window_len(&self) -> f64 {
        self.window_len
    }

    fn pdf(&self, x: &[f64]) -> Result<f64, DensityError> {
        check_dims(self.dims, x)?;
        let norm: f64 = self.bandwidths.iter().product();
        let (s, e) = self.dim0_range(x[0], x[0]);
        let mut sum = 0.0;
        'points: for i in s..e {
            let mut prod = self.weights[i];
            for (j, col) in self.cols.iter().enumerate() {
                let u = (x[j] - col[i]) / self.bandwidths[j];
                let k = self.kernel.density(u);
                if k == 0.0 {
                    continue 'points;
                }
                prod *= k;
            }
            sum += prod;
        }
        Ok(sum / (self.total_weight * norm))
    }

    fn box_prob(&self, lo: &[f64], hi: &[f64]) -> Result<f64, DensityError> {
        check_dims(self.dims, lo)?;
        check_dims(self.dims, hi)?;
        let (s, e) = self.dim0_range(lo[0], hi[0]);
        snod_obs::counter!("density.scalar.queries").incr();
        snod_obs::counter!("density.scalar.kernels").add((e - s) as u64);
        Ok(self.box_mass_in_range(lo, hi, s, e) / self.total_weight)
    }

    fn compress(&mut self, budget: usize, tolerance: f64) -> usize {
        let stats = self.compress_to_budget(budget, tolerance);
        stats.before - stats.after
    }

    /// Batched neighborhood counts. For large batches, queries sorted by
    /// their dimension-0 lower edge share one monotonically advancing
    /// pruning frontier over the sorted columns; for small batches
    /// against large models the per-query binary search is cheaper and
    /// is used instead (the crate-private `eval::sweep_beats_per_query`
    /// decides). Both paths derive identical centre ranges and share one
    /// evaluator, so the choice never changes a single output bit.
    fn neighborhood_counts(&self, points: &[f64], r: f64) -> Result<Vec<f64>, DensityError> {
        let d = self.dims;
        if !points.len().is_multiple_of(d) {
            return Err(DensityError::RaggedSample);
        }
        let n = points.len() / d;
        let mut out = vec![0.0; n];
        let mut lo = vec![0.0; d];
        let mut hi = vec![0.0; d];
        let _sweep = snod_obs::span!("density.kde.sweep");
        let reach = self.kernel.support();
        let len = self.weights.len();
        if reach.is_infinite() {
            // No pruning possible; every query touches every kernel.
            for (o, q) in out.iter_mut().zip(points.chunks_exact(d)) {
                for j in 0..d {
                    lo[j] = q[j] - r;
                    hi[j] = q[j] + r;
                }
                *o = self.box_mass_in_range(&lo, &hi, 0, len) / self.total_weight
                    * self.window_len;
            }
            return Ok(out);
        }
        if eval::sweep_beats_per_query(n, len) {
            snod_obs::counter!("density.sweep.queries").add(n as u64);
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                points[a as usize * d].total_cmp(&points[b as usize * d])
            });
            let span = reach * self.bandwidths[0];
            let kernels = snod_obs::counter!("density.sweep.kernels");
            let (mut s, mut e) = (0usize, 0usize);
            for &qi in &order {
                let q = &points[qi as usize * d..(qi as usize + 1) * d];
                let (lo0, hi0) = (q[0] - r, q[0] + r);
                while s < len && self.cols[0][s] < lo0 - span {
                    s += 1;
                }
                while e < len && self.cols[0][e] <= hi0 + span {
                    e += 1;
                }
                kernels.add((e - s) as u64);
                for j in 0..d {
                    lo[j] = q[j] - r;
                    hi[j] = q[j] + r;
                }
                out[qi as usize] = self.box_mass_in_range(&lo, &hi, s, e) / self.total_weight
                    * self.window_len;
            }
        } else {
            snod_obs::counter!("density.batch.per_query").add(n as u64);
            let kernels = snod_obs::counter!("density.batch.kernels");
            for (o, q) in out.iter_mut().zip(points.chunks_exact(d)) {
                let (s, e) = self.dim0_range(q[0] - r, q[0] + r);
                kernels.add((e - s) as u64);
                for j in 0..d {
                    lo[j] = q[j] - r;
                    hi[j] = q[j] + r;
                }
                *o = self.box_mass_in_range(&lo, &hi, s, e) / self.total_weight
                    * self.window_len;
            }
        }
        Ok(out)
    }
}

impl<K: Kernel1d + Default> Persist for Kde<K> {
    fn save(&self, w: &mut ByteWriter) {
        self.dims.save(w);
        self.cols.save(w);
        self.weights.save(w);
        self.bandwidths.save(w);
        self.window_len.save(w);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let dims = usize::load(r)?;
        let cols = Vec::<Vec<f64>>::load(r)?;
        let weights = Vec::<f64>::load(r)?;
        let bandwidths = Vec::<f64>::load(r)?;
        let window_len = f64::load(r)?;
        let corrupt = || PersistError::Corrupt("invalid kde parameters");
        // The saved layout is trusted structurally but verified
        // semantically: loading bypasses the sorting constructor (weights
        // must stay aligned with their centres), so sortedness and
        // positivity are checked here instead.
        if dims == 0 || cols.len() != dims {
            return Err(corrupt());
        }
        let n = cols[0].len();
        if n == 0 || cols.iter().any(|c| c.len() != n) {
            return Err(corrupt());
        }
        if weights.len() != n || weights.iter().any(|&w| !w.is_finite() || !(w > 0.0)) {
            return Err(corrupt());
        }
        if cols[0].windows(2).any(|p| !(p[0] <= p[1])) {
            return Err(corrupt());
        }
        if bandwidths.len() != dims || bandwidths.iter().any(|&b| !(b > 0.0)) {
            return Err(corrupt());
        }
        if !(window_len > 0.0) {
            return Err(corrupt());
        }
        let total_weight = weights.iter().sum();
        let inv_bandwidths = bandwidths.iter().map(|b| 1.0 / b).collect();
        Ok(Self {
            dims,
            cols,
            weights,
            total_weight,
            bandwidths,
            inv_bandwidths,
            window_len,
            kernel: K::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::GaussianKernel;

    fn uniform_sample(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![(i as f64 + 0.5) / n as f64]).collect()
    }

    #[test]
    fn construction_validates_input() {
        assert!(matches!(
            Kde::from_sample(&[], &[0.1], 100.0),
            Err(DensityError::EmptySample)
        ));
        assert!(Kde::from_sample(&[vec![0.5, 0.5]], &[0.1], 100.0).is_err());
        assert!(Kde::new(1, vec![0.5], vec![0.0], 100.0, EpanechnikovKernel).is_err());
        assert!(Kde::new(1, vec![0.5], vec![0.1], 0.0, EpanechnikovKernel).is_err());
        assert!(Kde::new(
            2,
            vec![0.5, 0.5, 0.5],
            vec![0.1, 0.1],
            100.0,
            EpanechnikovKernel
        )
        .is_err());
    }

    #[test]
    fn pdf_is_nonnegative_and_integrates_to_one() {
        let kde = Kde::from_sample(&uniform_sample(50), &[0.29], 1_000.0).unwrap();
        let steps = 4_000;
        let (lo, hi) = (-0.5, 1.5);
        let h = (hi - lo) / steps as f64;
        let mut integral = 0.0;
        for i in 0..=steps {
            let x = lo + i as f64 * h;
            let p = kde.pdf(&[x]).unwrap();
            assert!(p >= 0.0);
            let w = if i == 0 || i == steps { 0.5 } else { 1.0 };
            integral += w * p;
        }
        assert!(
            (integral * h - 1.0).abs() < 1e-3,
            "integral {}",
            integral * h
        );
    }

    #[test]
    fn box_prob_matches_numeric_integral_of_pdf() {
        let kde = Kde::from_sample(&uniform_sample(30), &[0.29], 1_000.0).unwrap();
        let (a, b) = (0.2, 0.6);
        let steps = 20_000;
        let h = (b - a) / steps as f64;
        let mut numeric = 0.0;
        for i in 0..=steps {
            let x = a + i as f64 * h;
            let w = if i == 0 || i == steps { 0.5 } else { 1.0 };
            numeric += w * kde.pdf(&[x]).unwrap();
        }
        numeric *= h;
        let exact = kde.box_prob(&[a], &[b]).unwrap();
        assert!(
            (numeric - exact).abs() < 1e-4,
            "numeric {numeric} exact {exact}"
        );
    }

    #[test]
    fn neighborhood_count_scales_with_window() {
        let pts = uniform_sample(100);
        let small = Kde::from_sample(&pts, &[0.29], 100.0).unwrap();
        let large = Kde::from_sample(&pts, &[0.29], 10_000.0).unwrap();
        let ns = small.neighborhood_count(&[0.5], 0.1).unwrap();
        let nl = large.neighborhood_count(&[0.5], 0.1).unwrap();
        assert!((nl / ns - 100.0).abs() < 1e-9);
    }

    #[test]
    fn two_dimensional_box_prob_is_product_for_factorised_sample() {
        // A single kernel at (0.5, 0.5): the box mass factorises exactly.
        let kde = Kde::new(2, vec![0.5, 0.5], vec![0.1, 0.2], 100.0, EpanechnikovKernel).unwrap();
        let p = kde.box_prob(&[0.45, 0.4], &[0.55, 0.6]).unwrap();
        let k = EpanechnikovKernel;
        let px = k.mass(-0.5, 0.5);
        let py = k.mass(-0.5, 0.5);
        assert!((p - px * py).abs() < 1e-12);
    }

    #[test]
    fn whole_domain_has_probability_one() {
        let kde = Kde::from_sample(&uniform_sample(64), &[0.2], 500.0).unwrap();
        let p = kde.box_prob(&[-10.0], &[10.0]).unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let kde = Kde::from_sample(&uniform_sample(10), &[0.2], 100.0).unwrap();
        assert!(matches!(
            kde.pdf(&[0.5, 0.5]),
            Err(DensityError::DimensionMismatch {
                expected: 1,
                got: 2
            })
        ));
    }

    #[test]
    fn gaussian_kernel_also_integrates() {
        let kde = Kde::new(1, vec![0.3, 0.5, 0.7], vec![0.1], 100.0, GaussianKernel).unwrap();
        let p = kde.box_prob(&[-5.0], &[5.0]).unwrap();
        assert!((p - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dim0_pruning_preserves_exact_results() {
        // Shuffled 2-d sample: pruned queries must equal a naive
        // all-points evaluation.
        let pts: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                vec![
                    ((i * 83) % 301) as f64 / 301.0,
                    ((i * 131) % 307) as f64 / 307.0,
                ]
            })
            .collect();
        let kde = Kde::from_sample(&pts, &[0.08, 0.12], 5_000.0).unwrap();
        let naive_box = |lo: &[f64], hi: &[f64]| -> f64 {
            let k = EpanechnikovKernel;
            let b = kde.bandwidths();
            let sum: f64 = pts
                .iter()
                .map(|t| {
                    (0..2)
                        .map(|j| k.mass((lo[j] - t[j]) / b[j], (hi[j] - t[j]) / b[j]))
                        .product::<f64>()
                })
                .sum();
            sum / pts.len() as f64
        };
        for (lo, hi) in [
            ([0.4, 0.4], [0.6, 0.6]),
            ([0.0, 0.0], [0.1, 1.0]),
            ([0.9, 0.2], [1.0, 0.3]),
        ] {
            let fast = kde.box_prob(&lo, &hi).unwrap();
            let slow = naive_box(&lo, &hi);
            assert!(
                (fast - slow).abs() < 1e-12,
                "{lo:?}..{hi:?}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn batched_counts_match_scalar_exactly_in_2d() {
        let pts: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                vec![
                    ((i * 83) % 301) as f64 / 301.0,
                    ((i * 131) % 307) as f64 / 307.0,
                ]
            })
            .collect();
        let kde = Kde::from_sample(&pts, &[0.08, 0.12], 5_000.0).unwrap();
        let queries: Vec<f64> = vec![
            0.9, 0.2, // unsorted on dim 0 on purpose
            0.1, 0.8, //
            0.1, 0.8, // duplicate
            0.5, 0.5, //
            -0.3, 0.4, // out of support
        ];
        for r in [0.02, 0.1, 0.4] {
            let batch = kde.neighborhood_counts(&queries, r).unwrap();
            for (i, q) in queries.chunks_exact(2).enumerate() {
                let scalar = kde.neighborhood_count(q, r).unwrap();
                assert_eq!(batch[i], scalar, "q={q:?} r={r}");
            }
        }
        assert!(matches!(
            kde.neighborhood_counts(&queries[..3], 0.1),
            Err(DensityError::RaggedSample)
        ));
    }

    #[test]
    fn batched_counts_match_scalar_for_gaussian_kernel() {
        let kde = Kde::new(
            2,
            vec![0.3, 0.4, 0.6, 0.7, 0.5, 0.5],
            vec![0.1, 0.1],
            500.0,
            GaussianKernel,
        )
        .unwrap();
        let queries = [0.7, 0.2, 0.4, 0.6];
        let batch = kde.neighborhood_counts(&queries, 0.15).unwrap();
        for (i, q) in queries.chunks_exact(2).enumerate() {
            assert_eq!(batch[i], kde.neighborhood_count(q, 0.15).unwrap());
        }
    }

    #[test]
    fn both_batch_strategies_agree_bit_for_bit() {
        // Straddle the sweep/per-query crossover by varying the batch
        // size against one model: every answer must equal the scalar
        // path no matter which strategy the heuristic picks.
        let pts: Vec<Vec<f64>> = (0..500)
            .map(|i| vec![((i * 197) % 503) as f64 / 503.0])
            .collect();
        let kde = Kde::from_sample(&pts, &[0.1], 2_000.0).unwrap();
        for batch_len in [1usize, 4, 16, 64, 400] {
            let queries: Vec<f64> = (0..batch_len)
                .map(|i| ((i * 29) % (batch_len + 1)) as f64 / (batch_len + 1) as f64)
                .collect();
            let batch = kde.neighborhood_counts(&queries, 0.07).unwrap();
            for (i, &q) in queries.iter().enumerate() {
                assert_eq!(
                    batch[i],
                    kde.neighborhood_count(&[q], 0.07).unwrap(),
                    "batch_len={batch_len} q={q}"
                );
            }
        }
    }

    #[test]
    fn insert_and_remove_points_preserve_query_results() {
        let pts: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![((i * 37) % 61) as f64 / 61.0, ((i * 13) % 59) as f64 / 59.0])
            .collect();
        let mut inc = Kde::from_sample(&pts[..40], &[0.2, 0.2], 1_000.0).unwrap();
        for p in &pts[40..] {
            inc.insert_point(p).unwrap();
        }
        for p in &pts[..10] {
            assert!(inc.remove_point(p).unwrap());
        }
        assert!(!inc.remove_point(&[0.123, 0.456]).unwrap());
        let flat: Vec<f64> = pts[10..].iter().flatten().copied().collect();
        let scratch = Kde::new(
            2,
            flat,
            inc.bandwidths().to_vec(),
            1_000.0,
            EpanechnikovKernel,
        )
        .unwrap();
        assert_eq!(inc.sample_size(), scratch.sample_size());
        for (q, r) in [([0.5, 0.5], 0.1), ([0.2, 0.8], 0.3), ([0.9, 0.1], 0.05)] {
            assert_eq!(
                inc.neighborhood_count(&q, r).unwrap(),
                scratch.neighborhood_count(&q, r).unwrap()
            );
        }
        assert!(inc.insert_point(&[f64::NAN, 0.5]).is_err());
        assert!(inc.insert_point(&[0.5]).is_err());
    }

    #[test]
    fn from_sample_iter_matches_from_sample() {
        let pts: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![((i * 7) % 50) as f64 / 50.0, ((i * 11) % 50) as f64 / 50.0])
            .collect();
        let a = Kde::from_sample(&pts, &[0.15, 0.25], 800.0).unwrap();
        let b = Kde::from_sample_iter(pts.iter().map(Vec::as_slice), &[0.15, 0.25], 800.0).unwrap();
        assert_eq!(a.bandwidths(), b.bandwidths());
        assert_eq!(a.centers(), b.centers());
    }

    #[test]
    fn dense_region_counts_higher_than_sparse() {
        // 90 points near 0.3, 10 near 0.8.
        let mut pts: Vec<Vec<f64>> = (0..90).map(|i| vec![0.3 + 0.0005 * i as f64]).collect();
        pts.extend((0..10).map(|i| vec![0.8 + 0.0005 * i as f64]));
        let kde = Kde::from_sample(&pts, &[0.2], 1_000.0).unwrap();
        let dense = kde.neighborhood_count(&[0.32], 0.05).unwrap();
        let sparse = kde.neighborhood_count(&[0.8], 0.05).unwrap();
        assert!(dense > 5.0 * sparse, "dense {dense} sparse {sparse}");
    }

    #[test]
    fn compression_caps_centres_and_preserves_total_weight() {
        // Two tight clusters of 200 points each: a small tolerance
        // collapses them to two weighted centres.
        let pts: Vec<Vec<f64>> = (0..400)
            .map(|i| {
                let c = if i % 2 == 0 { 0.3 } else { 0.7 };
                vec![c + ((i * 37) % 100) as f64 * 1e-5, c + ((i * 53) % 100) as f64 * 1e-5]
            })
            .collect();
        let mut kde = Kde::from_sample(&pts, &[0.1, 0.1], 1_000.0).unwrap();
        let reference = kde.clone();
        let stats = kde.compress_to_budget(50, 0.05);
        assert!(kde.sample_size() <= 50, "|R| = {}", kde.sample_size());
        assert_eq!(stats.after, kde.sample_size());
        assert_eq!(stats.before, 400);
        assert_eq!(kde.total_weight(), 400.0);
        assert!(kde.column(0).windows(2).all(|w| w[0] <= w[1]));
        // Error bound: each centre moved at most τ·Bⱼ per dimension, so
        // counts move at most ~1.5·d·τ·|W| per unit mass; 2·d·τ·|W| is a
        // strictly looser ceiling.
        let eps = 2.0 * 2.0 * stats.effective_tolerance * 1_000.0;
        for q in [[0.3, 0.3], [0.7, 0.7], [0.5, 0.5], [0.31, 0.69]] {
            let a = reference.neighborhood_count(&q, 0.1).unwrap();
            let b = kde.neighborhood_count(&q, 0.1).unwrap();
            assert!((a - b).abs() <= eps, "q={q:?}: {a} vs {b} (eps {eps})");
        }
    }

    #[test]
    fn tolerance_escalates_until_budget_met() {
        let pts: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![((i * 89) % 211) as f64 / 211.0])
            .collect();
        let mut kde = Kde::from_sample(&pts, &[0.1], 500.0).unwrap();
        let stats = kde.compress_to_budget(10, 1e-6);
        assert!(kde.sample_size() <= 10, "|R| = {}", kde.sample_size());
        assert!(stats.passes >= 2, "passes = {}", stats.passes);
        assert!(stats.effective_tolerance > 1e-6);
        assert_eq!(kde.total_weight(), 200.0);
        // Probability axioms survive compression.
        let p = kde.box_prob(&[-10.0], &[10.0]).unwrap();
        assert!((p - 1.0).abs() < 1e-12, "whole-domain prob {p}");
    }

    #[test]
    fn compressed_model_batch_matches_scalar_bit_for_bit() {
        let pts: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![((i * 83) % 301) as f64 / 301.0, ((i * 131) % 307) as f64 / 307.0])
            .collect();
        let mut kde = Kde::from_sample(&pts, &[0.08, 0.12], 5_000.0).unwrap();
        kde.compress_to_budget(60, 0.1);
        assert!(kde.weights().iter().any(|&w| w > 1.0), "merging happened");
        let queries = [0.9, 0.2, 0.1, 0.8, 0.5, 0.5, 0.3, 0.3];
        for r in [0.05, 0.2] {
            let batch = kde.neighborhood_counts(&queries, r).unwrap();
            for (i, q) in queries.chunks_exact(2).enumerate() {
                assert_eq!(batch[i], kde.neighborhood_count(q, r).unwrap());
            }
        }
    }

    #[test]
    fn removing_from_merged_centre_decrements_weight() {
        // Four exact duplicates merge into one centre of weight 4.
        let mut kde = Kde::new(
            1,
            vec![0.5, 0.5, 0.5, 0.5, 0.9],
            vec![0.1],
            100.0,
            EpanechnikovKernel,
        )
        .unwrap();
        kde.compress_to_budget(usize::MAX, 1e-9);
        assert_eq!(kde.sample_size(), 2);
        assert_eq!(kde.total_weight(), 5.0);
        assert!(kde.remove_point(&[0.5]).unwrap());
        assert_eq!(kde.sample_size(), 2, "weight decremented, centre kept");
        assert_eq!(kde.total_weight(), 4.0);
        assert_eq!(kde.weights()[0], 3.0);
        // Draining the merged centre eventually removes it.
        for _ in 0..3 {
            assert!(kde.remove_point(&[0.5]).unwrap());
        }
        assert_eq!(kde.sample_size(), 1);
        // The final centre is protected.
        assert!(!kde.remove_point(&[0.9]).unwrap());
    }

    #[test]
    fn trait_level_compress_reports_merged_count() {
        let pts = uniform_sample(100);
        let mut kde = Kde::from_sample(&pts, &[0.2], 500.0).unwrap();
        let merged = DensityModel::compress(&mut kde, 20, 0.01);
        assert_eq!(merged, 100 - kde.sample_size());
        assert!(kde.sample_size() <= 20);
    }
}
