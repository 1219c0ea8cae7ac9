//! Haar-wavelet density estimator — the third classical distribution
//! summary the paper positions against (Section 4: *"Even though
//! sketches can be used to approximate histograms and wavelets in an
//! online setting [18, 42, 13], previous studies have also shown that
//! kernels are as accurate as those two techniques [23, 8]"*).
//!
//! The estimator builds a dyadic histogram of `2^levels` bins over
//! `[0, 1]`, takes its Haar transform, keeps the `B` largest-magnitude
//! normalised coefficients (the standard wavelet synopsis), and answers
//! density queries from the reconstruction. With `B = |R|` coefficients
//! it is memory-comparable to the paper's kernel sample, making the
//! kernels-vs-wavelets accuracy comparison honest.

use snod_persist::PersistError;

use crate::model::{check_dims, DensityModel};
use crate::DensityError;

/// One-dimensional Haar-wavelet synopsis of a window.
///
/// ```
/// use snod_density::{WaveletHistogram, DensityModel};
/// let xs: Vec<f64> = (0..1_000).map(|i| (i % 500) as f64 / 1_000.0).collect();
/// // Values live in [0, 0.5): the synopsis sees that sharply.
/// let w = WaveletHistogram::from_window(&xs, 8, 64).unwrap();
/// assert!(w.box_prob(&[0.0], &[0.5]).unwrap() > 0.95);
/// assert!(w.box_prob(&[0.6], &[0.9]).unwrap() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct WaveletHistogram {
    /// Reconstructed per-bin probabilities (non-negative, sum ≤ 1).
    bins: Vec<f64>,
    /// Number of coefficients retained (the synopsis size).
    kept: usize,
    total: f64,
}

impl WaveletHistogram {
    /// Builds the synopsis from the exact window: `levels` dyadic levels
    /// (`2^levels` bins) thresholded to the `coefficients`
    /// largest-magnitude normalised Haar coefficients.
    pub fn from_window(
        window: &[f64],
        levels: u32,
        coefficients: usize,
    ) -> Result<Self, DensityError> {
        if window.is_empty() {
            return Err(DensityError::EmptySample);
        }
        if levels == 0 || levels > 20 {
            return Err(DensityError::NonPositiveParameter(
                "levels must lie in 1..=20",
            ));
        }
        if coefficients == 0 {
            return Err(DensityError::NonPositiveParameter("coefficient budget"));
        }
        let n_bins = 1usize << levels;
        let mut bins = vec![0.0f64; n_bins];
        for &x in window {
            let b = ((x.clamp(0.0, 1.0) * n_bins as f64) as usize).min(n_bins - 1);
            bins[b] += 1.0;
        }
        let total = window.len() as f64;
        for b in &mut bins {
            *b /= total;
        }

        // Forward Haar transform, keeping for every detail coefficient
        // its (flat index in the standard layout, raw value, weighted
        // magnitude for thresholding).
        let mut work = bins.clone();
        let mut details: Vec<(usize, f64, f64)> = Vec::with_capacity(n_bins);
        let mut len = n_bins;
        let mut lev = 0u32;
        let mut offset = n_bins;
        while len > 1 {
            let half = len / 2;
            offset -= half;
            for i in 0..half {
                let a = work[2 * i];
                let b = work[2 * i + 1];
                let detail = (a - b) / 2.0;
                work[i] = (a + b) / 2.0;
                details.push((offset + i, detail, detail_weight(detail, lev)));
            }
            len = half;
            lev += 1;
        }
        let overall_avg = work[0];

        // Keep the `coefficients` largest weighted magnitudes (the
        // overall average is always kept and not charged).
        let budget = coefficients.min(details.len());
        details.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite magnitudes"));
        let kept_details = &details[..budget];

        // Reconstruct: place kept details into the standard layout and
        // inverse-transform.
        let mut spectrum = vec![0.0f64; n_bins];
        spectrum[0] = overall_avg;
        for &(idx, raw, _) in kept_details {
            spectrum[idx] = raw;
        }
        let mut recon = spectrum.clone();
        let mut len = 1usize;
        while len < n_bins {
            // Invert one level: averages in [0, len), details in [len, 2len).
            let mut next = vec![0.0f64; 2 * len];
            for i in 0..len {
                let avg = recon[i];
                let detail = spectrum[len + i];
                next[2 * i] = avg + detail;
                next[2 * i + 1] = avg - detail;
            }
            recon[..2 * len].copy_from_slice(&next);
            len *= 2;
        }

        // Thresholding can produce small negatives: clamp & renormalise.
        let mut recon: Vec<f64> = recon.into_iter().map(|v| v.max(0.0)).collect();
        let sum: f64 = recon.iter().sum();
        if sum > 0.0 {
            for v in &mut recon {
                *v /= sum;
            }
        }
        Ok(Self {
            bins: recon,
            kept: budget,
            total,
        })
    }

    /// Number of detail coefficients retained.
    pub fn coefficients_kept(&self) -> usize {
        self.kept
    }

    /// Number of reconstruction bins (`2^levels`).
    pub fn bins(&self) -> usize {
        self.bins.len()
    }
}

/// Standard L²-normalised thresholding weight: a Haar detail at level
/// `l` (counting from the finest) influences `2^l` bins, so its energy
/// scales with `2^{l/2}`.
fn detail_weight(detail: f64, level_from_finest: u32) -> f64 {
    detail.abs() * (2f64).powf(level_from_finest as f64 / 2.0)
}

impl DensityModel for WaveletHistogram {
    fn dims(&self) -> usize {
        1
    }

    fn window_len(&self) -> f64 {
        self.total
    }

    fn pdf(&self, x: &[f64]) -> Result<f64, DensityError> {
        check_dims(1, x)?;
        let x = x[0];
        if !(0.0..=1.0).contains(&x) {
            return Ok(0.0);
        }
        let n = self.bins.len();
        let b = ((x * n as f64) as usize).min(n - 1);
        Ok(self.bins[b] * n as f64)
    }

    fn box_prob(&self, lo: &[f64], hi: &[f64]) -> Result<f64, DensityError> {
        check_dims(1, lo)?;
        check_dims(1, hi)?;
        let (a, b) = (lo[0].max(0.0), hi[0].min(1.0));
        if b <= a {
            return Ok(0.0);
        }
        let n = self.bins.len() as f64;
        let width = 1.0 / n;
        let first = (a * n) as usize;
        let last = ((b * n) as usize).min(self.bins.len() - 1);
        let mut mass = 0.0;
        for (i, &p) in self.bins.iter().enumerate().take(last + 1).skip(first) {
            let (blo, bhi) = (i as f64 * width, (i + 1) as f64 * width);
            let overlap = (b.min(bhi) - a.max(blo)).max(0.0);
            mass += p * overlap / width;
        }
        Ok(mass.min(1.0))
    }
}

snod_persist::persist_struct! {
    WaveletHistogram {
        bins,
        kept,
        total,
    }
    check: WaveletHistogram::check_loaded
}

impl WaveletHistogram {
    fn check_loaded(&self) -> Result<(), PersistError> {
        if self.bins.is_empty() || !self.bins.len().is_power_of_two() {
            return Err(PersistError::Corrupt(
                "wavelet bin count must be a power of two",
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

    fn mixture(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if i % 10 == 9 {
                    0.7 + 0.2 * ((i % 97) as f64 / 97.0)
                } else {
                    0.3 + 0.05 * ((i % 89) as f64 / 89.0)
                }
            })
            .collect()
    }

    #[test]
    fn construction_validates() {
        assert!(WaveletHistogram::from_window(&[], 6, 10).is_err());
        assert!(WaveletHistogram::from_window(&[0.5], 0, 10).is_err());
        assert!(WaveletHistogram::from_window(&[0.5], 6, 0).is_err());
    }

    #[test]
    fn full_budget_is_exact_histogram() {
        let xs = mixture(2_000);
        let full = WaveletHistogram::from_window(&xs, 6, 64).unwrap();
        // With every coefficient kept the reconstruction equals the raw
        // 64-bin histogram.
        let exact = {
            let mut bins = vec![0.0f64; 64];
            for &x in &xs {
                bins[((x * 64.0) as usize).min(63)] += 1.0 / xs.len() as f64;
            }
            bins
        };
        for (r, e) in full.bins.iter().zip(exact.iter()) {
            assert!((r - e).abs() < 1e-12, "{r} vs {e}");
        }
    }

    #[test]
    fn probabilities_are_well_formed() {
        let xs = mixture(2_000);
        let w = WaveletHistogram::from_window(&xs, 8, 40).unwrap();
        let all = w.box_prob(&[0.0], &[1.0]).unwrap();
        assert!((all - 1.0).abs() < 1e-9, "total {all}");
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            assert!(w.pdf(&[x]).unwrap() >= 0.0);
        }
    }

    #[test]
    fn captures_cluster_structure_under_tight_budget() {
        let xs = mixture(5_000);
        let w = WaveletHistogram::from_window(&xs, 8, 32).unwrap();
        let dense = w.box_prob(&[0.28], &[0.38]).unwrap();
        let sparse = w.box_prob(&[0.5], &[0.6]).unwrap();
        assert!(dense > 0.7, "dense mass {dense}");
        assert!(sparse < 0.1, "gap mass {sparse}");
    }

    #[test]
    fn more_coefficients_reduce_error() {
        let xs = mixture(5_000);
        let exact_mass =
            xs.iter().filter(|&&x| (0.7..0.9).contains(&x)).count() as f64 / xs.len() as f64;
        let err = |budget: usize| {
            let w = WaveletHistogram::from_window(&xs, 8, budget).unwrap();
            (w.box_prob(&[0.7], &[0.9]).unwrap() - exact_mass).abs()
        };
        assert!(
            err(128) <= err(4) + 1e-9,
            "err(128)={} err(4)={}",
            err(128),
            err(4)
        );
    }

    #[test]
    fn out_of_domain_queries_are_zero() {
        let w = WaveletHistogram::from_window(&mixture(100), 6, 16).unwrap();
        assert_eq!(w.pdf(&[1.5]).unwrap(), 0.0);
        assert_eq!(w.box_prob(&[1.2], &[1.4]).unwrap(), 0.0);
    }
}
