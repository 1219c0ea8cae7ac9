//! Histogram density models — the paper's comparison baseline (§10).
//!
//! The evaluation compares the kernel approach against *equi-depth
//! histograms of `|B|` buckets computed by accessing all `|W|` values in
//! the sliding window* (with `|B| = |R|` for comparable memory). As the
//! paper notes, this offline construction *favours* the histogram: it sees
//! the exact window while the kernel model sees only a sample. We keep
//! that bias intact so Figure 7's comparison reproduces honestly.
//!
//! [`GridHistogram`] additionally provides an equi-*width* d-dimensional
//! histogram for multi-dimensional baselines and for discretising models.

use snod_persist::PersistError;

use crate::model::{check_dims, DensityModel};
use crate::DensityError;

/// One-dimensional equi-depth histogram: `buckets` intervals each holding
/// (approximately) the same number of window values.
///
/// ```
/// use snod_density::{EquiDepthHistogram, DensityModel};
/// let values: Vec<f64> = (0..1_000).map(|i| i as f64 / 1_000.0).collect();
/// let h = EquiDepthHistogram::from_window(&values, 50).unwrap();
/// // uniform data: mass of [0.2, 0.4] ≈ 0.2
/// let p = h.box_prob(&[0.2], &[0.4]).unwrap();
/// assert!((p - 0.2).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct EquiDepthHistogram {
    /// Bucket boundaries, ascending, length `buckets + 1`.
    bounds: Vec<f64>,
    /// Number of window values per bucket.
    counts: Vec<f64>,
    total: f64,
}

impl EquiDepthHistogram {
    /// Builds the histogram by sorting the full window content — the
    /// brute-force construction the paper uses for its baseline.
    pub fn from_window(window: &[f64], buckets: usize) -> Result<Self, DensityError> {
        if window.is_empty() {
            return Err(DensityError::EmptySample);
        }
        if buckets == 0 {
            return Err(DensityError::NonPositiveParameter("bucket count"));
        }
        let mut sorted = window.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN data"));
        let n = sorted.len();
        let buckets = buckets.min(n);
        let mut bounds = Vec::with_capacity(buckets + 1);
        let mut counts = Vec::with_capacity(buckets);
        bounds.push(sorted[0]);
        let mut prev_idx = 0usize;
        for b in 1..=buckets {
            let idx = (b * n) / buckets;
            let hi = if b == buckets {
                sorted[n - 1]
            } else {
                sorted[idx.min(n - 1)]
            };
            // Merge zero-width buckets (heavy ties) into their neighbour.
            if hi > *bounds.last().expect("non-empty bounds") || b == buckets {
                bounds.push(hi);
                counts.push((idx - prev_idx) as f64);
                prev_idx = idx;
            } else if let Some(last) = counts.last_mut() {
                *last += (idx - prev_idx) as f64;
                prev_idx = idx;
            } else {
                // First bucket degenerate: widen it artificially.
                bounds.push(hi + f64::EPSILON.max(hi.abs() * 1e-12));
                counts.push((idx - prev_idx) as f64);
                prev_idx = idx;
            }
        }
        // Degenerate all-equal window: one bucket of tiny width.
        if bounds.len() < 2 {
            bounds.push(bounds[0] + 1e-12);
            counts.push(n as f64);
        }
        if bounds[bounds.len() - 1] <= bounds[bounds.len() - 2] {
            let last = bounds.len() - 1;
            bounds[last] = bounds[last - 1] + 1e-12;
        }
        Ok(Self {
            bounds,
            counts,
            total: n as f64,
        })
    }

    /// Number of buckets actually stored (≤ requested when the data has
    /// heavy ties).
    pub fn bucket_count(&self) -> usize {
        self.counts.len()
    }
}

impl DensityModel for EquiDepthHistogram {
    fn dims(&self) -> usize {
        1
    }

    fn window_len(&self) -> f64 {
        self.total
    }

    fn pdf(&self, x: &[f64]) -> Result<f64, DensityError> {
        check_dims(1, x)?;
        let x = x[0];
        if x < self.bounds[0] || x > *self.bounds.last().expect("bounds") {
            return Ok(0.0);
        }
        let i = self
            .bounds
            .partition_point(|&b| b <= x)
            .saturating_sub(1)
            .min(self.counts.len() - 1);
        let width = self.bounds[i + 1] - self.bounds[i];
        Ok(self.counts[i] / self.total / width)
    }

    fn box_prob(&self, lo: &[f64], hi: &[f64]) -> Result<f64, DensityError> {
        check_dims(1, lo)?;
        check_dims(1, hi)?;
        let (a, b) = (lo[0], hi[0]);
        if b <= a {
            return Ok(0.0);
        }
        let mut mass = 0.0;
        for i in 0..self.counts.len() {
            let (blo, bhi) = (self.bounds[i], self.bounds[i + 1]);
            let overlap = (b.min(bhi) - a.max(blo)).max(0.0);
            if overlap > 0.0 {
                mass += self.counts[i] / self.total * overlap / (bhi - blo);
            }
        }
        Ok(mass.min(1.0))
    }
}

/// d-dimensional equi-width histogram over `[0, 1]^d` with `bins` cells
/// per dimension.
#[derive(Debug, Clone)]
pub struct GridHistogram {
    dims: usize,
    bins: usize,
    counts: Vec<f64>,
    total: f64,
}

impl GridHistogram {
    /// Builds the histogram from window points (coordinates clamped into
    /// `[0, 1]`, matching the paper's domain normalisation).
    pub fn from_window(
        points: &[Vec<f64>],
        dims: usize,
        bins: usize,
    ) -> Result<Self, DensityError> {
        if points.is_empty() {
            return Err(DensityError::EmptySample);
        }
        if dims == 0 {
            return Err(DensityError::NonPositiveParameter("dimensionality"));
        }
        if bins == 0 {
            return Err(DensityError::NonPositiveParameter("bins per dimension"));
        }
        let cells = bins
            .checked_pow(dims as u32)
            .ok_or(DensityError::NonPositiveParameter("bins^dims overflows"))?;
        let mut counts = vec![0.0; cells];
        for p in points {
            check_dims(dims, p)?;
            let mut idx = 0usize;
            for &c in p.iter() {
                let cell = ((c.clamp(0.0, 1.0) * bins as f64) as usize).min(bins - 1);
                idx = idx * bins + cell;
            }
            counts[idx] += 1.0;
        }
        Ok(Self {
            dims,
            bins,
            counts,
            total: points.len() as f64,
        })
    }

    /// Bins per dimension.
    pub fn bins(&self) -> usize {
        self.bins
    }
}

impl DensityModel for GridHistogram {
    fn dims(&self) -> usize {
        self.dims
    }

    fn window_len(&self) -> f64 {
        self.total
    }

    fn pdf(&self, x: &[f64]) -> Result<f64, DensityError> {
        check_dims(self.dims, x)?;
        if x.iter().any(|&c| !(0.0..=1.0).contains(&c)) {
            return Ok(0.0);
        }
        let mut idx = 0usize;
        for &c in x.iter() {
            let cell = ((c * self.bins as f64) as usize).min(self.bins - 1);
            idx = idx * self.bins + cell;
        }
        let cell_volume = (1.0 / self.bins as f64).powi(self.dims as i32);
        Ok(self.counts[idx] / self.total / cell_volume)
    }

    fn box_prob(&self, lo: &[f64], hi: &[f64]) -> Result<f64, DensityError> {
        check_dims(self.dims, lo)?;
        check_dims(self.dims, hi)?;
        // Per-dimension overlap fractions with each bin, combined by
        // recursion over dimensions (cells = product structure).
        let width = 1.0 / self.bins as f64;
        let mut overlaps: Vec<Vec<(usize, f64)>> = Vec::with_capacity(self.dims);
        for j in 0..self.dims {
            let (a, b) = (lo[j].max(0.0), hi[j].min(1.0));
            if b <= a {
                return Ok(0.0);
            }
            let first = ((a / width) as usize).min(self.bins - 1);
            let last = ((b / width) as usize).min(self.bins - 1);
            let mut dim_overlaps = Vec::with_capacity(last - first + 1);
            for cell in first..=last {
                let (clo, chi) = (cell as f64 * width, (cell + 1) as f64 * width);
                let frac = ((b.min(chi) - a.max(clo)) / width).max(0.0);
                if frac > 0.0 {
                    dim_overlaps.push((cell, frac));
                }
            }
            overlaps.push(dim_overlaps);
        }
        let mut mass = 0.0;
        let mut stack: Vec<(usize, usize, f64)> = vec![(0, 0, 1.0)];
        // Iterative depth-first product over per-dimension overlap lists.
        while let Some((dim, idx, frac)) = stack.pop() {
            if dim == self.dims {
                mass += self.counts[idx] / self.total * frac;
                continue;
            }
            for &(cell, f) in &overlaps[dim] {
                stack.push((dim + 1, idx * self.bins + cell, frac * f));
            }
        }
        Ok(mass.min(1.0))
    }
}

snod_persist::persist_struct! {
    EquiDepthHistogram {
        bounds,
        counts,
        total,
    }
    check: EquiDepthHistogram::check_loaded
}

impl EquiDepthHistogram {
    fn check_loaded(&self) -> Result<(), PersistError> {
        if self.counts.is_empty() || self.bounds.len() != self.counts.len() + 1 {
            return Err(PersistError::Corrupt(
                "equi-depth bucket arrays are inconsistent",
            ));
        }
        if self.bounds.windows(2).any(|p| !(p[1] >= p[0])) {
            return Err(PersistError::Corrupt("equi-depth bounds must be ascending"));
        }
        if !(self.total > 0.0) {
            return Err(PersistError::Corrupt("histogram total must be positive"));
        }
        Ok(())
    }
}

snod_persist::persist_struct! {
    GridHistogram {
        dims,
        bins,
        counts,
        total,
    }
    check: GridHistogram::check_loaded
}

impl GridHistogram {
    fn check_loaded(&self) -> Result<(), PersistError> {
        if self.dims == 0 || self.bins == 0 {
            return Err(PersistError::Corrupt("grid histogram shape is degenerate"));
        }
        let cells = self
            .bins
            .checked_pow(self.dims as u32)
            .ok_or(PersistError::Corrupt("grid histogram shape overflows"))?;
        if self.counts.len() != cells {
            return Err(PersistError::Corrupt(
                "grid histogram cell count mismatches its shape",
            ));
        }
        if !(self.total > 0.0) {
            return Err(PersistError::Corrupt("histogram total must be positive"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equi_depth_rejects_bad_input() {
        assert!(EquiDepthHistogram::from_window(&[], 10).is_err());
        assert!(EquiDepthHistogram::from_window(&[1.0], 0).is_err());
    }

    #[test]
    fn equi_depth_uniform_data() {
        let xs: Vec<f64> = (0..10_000).map(|i| i as f64 / 10_000.0).collect();
        let h = EquiDepthHistogram::from_window(&xs, 100).unwrap();
        let p = h.box_prob(&[0.25], &[0.75]).unwrap();
        assert!((p - 0.5).abs() < 0.01, "p {p}");
        // density roughly 1 everywhere inside
        let d = h.pdf(&[0.5]).unwrap();
        assert!((d - 1.0).abs() < 0.1, "pdf {d}");
    }

    #[test]
    fn equi_depth_handles_heavy_ties() {
        let mut xs = vec![0.5; 900];
        xs.extend((0..100).map(|i| i as f64 / 100.0));
        let h = EquiDepthHistogram::from_window(&xs, 50).unwrap();
        let total = h.box_prob(&[-1.0], &[2.0]).unwrap();
        assert!((total - 1.0).abs() < 0.05, "total {total}");
        // The tie bucket spans roughly [0.4, 0.5] (equi-depth smears ties
        // uniformly within a bucket); a query covering it sees ~90% mass.
        let near = h.box_prob(&[0.35], &[0.6]).unwrap();
        assert!(near > 0.85, "near {near}");
    }

    #[test]
    fn equi_depth_constant_window() {
        let xs = vec![0.3; 100];
        let h = EquiDepthHistogram::from_window(&xs, 8).unwrap();
        let p = h.box_prob(&[0.2], &[0.4]).unwrap();
        assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equi_depth_skewed_data_adapts_boundaries() {
        // 90% of mass in [0, 0.1]: equi-depth puts ~90% of buckets there.
        let mut xs: Vec<f64> = (0..9_000).map(|i| (i % 1_000) as f64 / 10_000.0).collect();
        xs.extend((0..1_000).map(|i| 0.1 + (i as f64) * 0.9 / 1_000.0));
        let h = EquiDepthHistogram::from_window(&xs, 100).unwrap();
        let p = h.box_prob(&[0.0], &[0.1]).unwrap();
        assert!((p - 0.9).abs() < 0.03, "p {p}");
    }

    #[test]
    fn grid_histogram_uniform_2d() {
        let pts: Vec<Vec<f64>> = (0..10_000)
            .map(|i| {
                vec![
                    ((i * 7) % 100) as f64 / 100.0,
                    ((i * 13) % 100) as f64 / 100.0,
                ]
            })
            .collect();
        let h = GridHistogram::from_window(&pts, 2, 10).unwrap();
        let p = h.box_prob(&[0.0, 0.0], &[0.5, 0.5]).unwrap();
        assert!((p - 0.25).abs() < 0.02, "p {p}");
        let total = h.box_prob(&[0.0, 0.0], &[1.0, 1.0]).unwrap();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grid_histogram_partial_cell_overlap() {
        // One point in cell [0, 0.1): querying half the cell returns half
        // the mass (uniform-within-cell assumption).
        let h = GridHistogram::from_window(&[vec![0.05]], 1, 10).unwrap();
        let p = h.box_prob(&[0.0], &[0.05]).unwrap();
        assert!((p - 0.5).abs() < 1e-9, "p {p}");
    }

    #[test]
    fn grid_histogram_out_of_domain_query() {
        let h = GridHistogram::from_window(&[vec![0.5]], 1, 10).unwrap();
        assert_eq!(h.box_prob(&[1.5], &[2.0]).unwrap(), 0.0);
        assert_eq!(h.pdf(&[-0.1]).unwrap(), 0.0);
    }

    #[test]
    fn grid_histogram_neighborhood_count() {
        let pts: Vec<Vec<f64>> = (0..1_000).map(|i| vec![(i % 100) as f64 / 100.0]).collect();
        let h = GridHistogram::from_window(&pts, 1, 20).unwrap();
        let n = h.neighborhood_count(&[0.5], 0.1).unwrap();
        assert!((n - 200.0).abs() < 30.0, "count {n}");
    }
}
