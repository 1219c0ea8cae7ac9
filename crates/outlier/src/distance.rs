//! Distance-based `(D, r)`-outliers (paper Sections 3 and 7).
//!
//! *"A point p in a dataset T is a (D, r)-outlier if at most D of the
//! points in T lie within distance r from p"* (Knorr & Ng). Online, the
//! sensor estimates the number of neighbors with its density model:
//! `N(p, r) = P[p − r, p + r] · |W|` and flags `p` when
//! `N(p, r) < t` (paper's `IsOutlier()` procedure, Figure 4 lines 32–36).

use snod_density::{DensityError, DensityModel};

/// Parameters of the `(D, r)`-outlier rule. The paper's synthetic
/// experiments look for `(45, 0.01)`-outliers; the real-data experiments
/// use `(100, 0.005)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceOutlierConfig {
    /// Neighborhood radius `r` (L∞).
    pub radius: f64,
    /// Threshold `t`: flag when fewer than this many neighbors exist.
    pub min_neighbors: f64,
}

impl DistanceOutlierConfig {
    /// `(D, r)` constructor matching the paper's notation order.
    pub fn new(min_neighbors: f64, radius: f64) -> Self {
        Self {
            radius,
            min_neighbors,
        }
    }
}

snod_persist::persist_struct! {
    DistanceOutlierConfig {
        radius,
        min_neighbors,
    }
    check: none
}

/// Tests whether `p` is a `(D, r)`-outlier under `model`'s estimate of the
/// window distribution.
pub fn is_distance_outlier<M: DensityModel + ?Sized>(
    model: &M,
    p: &[f64],
    cfg: &DistanceOutlierConfig,
) -> Result<bool, DensityError> {
    Ok(model.neighborhood_count(p, cfg.radius)? < cfg.min_neighbors)
}

/// Convenience wrapper binding a configuration, so call sites read as
/// `detector.check(&model, p)`.
#[derive(Debug, Clone, Copy)]
pub struct DistanceOutlierDetector {
    cfg: DistanceOutlierConfig,
}

impl DistanceOutlierDetector {
    /// Creates a detector for `(D, r)`-outliers.
    pub fn new(cfg: DistanceOutlierConfig) -> Self {
        Self { cfg }
    }

    /// The bound configuration.
    pub fn config(&self) -> &DistanceOutlierConfig {
        &self.cfg
    }

    /// Tests `p` against `model`.
    pub fn check<M: DensityModel + ?Sized>(
        &self,
        model: &M,
        p: &[f64],
    ) -> Result<bool, DensityError> {
        is_distance_outlier(model, p, &self.cfg)
    }

    /// Estimated neighbor count — exposed for diagnostics and tests.
    pub fn neighbor_count<M: DensityModel + ?Sized>(
        &self,
        model: &M,
        p: &[f64],
    ) -> Result<f64, DensityError> {
        model.neighborhood_count(p, self.cfg.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snod_density::Kde1d;

    fn clustered_model() -> Kde1d {
        // 95% of mass near 0.4, 5% near 0.9; window of 1000 values.
        let mut xs = vec![];
        for i in 0..190 {
            xs.push(0.4 + 0.0005 * (i % 50) as f64);
        }
        for i in 0..10 {
            xs.push(0.9 + 0.0005 * i as f64);
        }
        Kde1d::from_sample(&xs, 0.12, 1_000.0).unwrap()
    }

    #[test]
    fn cluster_member_is_not_outlier() {
        let model = clustered_model();
        let cfg = DistanceOutlierConfig::new(45.0, 0.05);
        assert!(!is_distance_outlier(&model, &[0.41], &cfg).unwrap());
    }

    #[test]
    fn sparse_region_is_outlier() {
        let model = clustered_model();
        let cfg = DistanceOutlierConfig::new(45.0, 0.01);
        assert!(is_distance_outlier(&model, &[0.7], &cfg).unwrap());
    }

    #[test]
    fn threshold_is_strict_less_than() {
        let model = clustered_model();
        let det = DistanceOutlierDetector::new(DistanceOutlierConfig::new(45.0, 0.05));
        let n = det.neighbor_count(&model, &[0.41]).unwrap();
        // Exactly-n threshold: n < n is false → not an outlier.
        let exact = DistanceOutlierConfig::new(n, 0.05);
        assert!(!is_distance_outlier(&model, &[0.41], &exact).unwrap());
        let above = DistanceOutlierConfig::new(n + 1.0, 0.05);
        assert!(is_distance_outlier(&model, &[0.41], &above).unwrap());
    }

    #[test]
    fn dimension_mismatch_surfaces_error() {
        let model = clustered_model();
        let cfg = DistanceOutlierConfig::new(45.0, 0.01);
        assert!(is_distance_outlier(&model, &[0.5, 0.5], &cfg).is_err());
    }

    #[test]
    fn larger_radius_finds_more_neighbors() {
        let model = clustered_model();
        let det_small = DistanceOutlierDetector::new(DistanceOutlierConfig::new(1.0, 0.01));
        let det_large = DistanceOutlierDetector::new(DistanceOutlierConfig::new(1.0, 0.2));
        let ns = det_small.neighbor_count(&model, &[0.4]).unwrap();
        let nl = det_large.neighbor_count(&model, &[0.4]).unwrap();
        assert!(nl > ns);
    }
}
