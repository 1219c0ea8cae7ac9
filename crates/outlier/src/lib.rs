//! # snod-outlier — outlier definitions, detectors and baselines
//!
//! The paper follows two formal outlier definitions (Section 3) and this
//! crate implements both against any [`snod_density::DensityModel`], plus
//! the exact offline baselines the evaluation scores against:
//!
//! * [`DistanceOutlierConfig`] / [`distance::is_distance_outlier`] — the
//!   `(D, r)`-outliers of Knorr & Ng: a point is an outlier when fewer
//!   than `D` window values lie within distance `r`. Estimated from a
//!   density model via `N(p, r)` (paper Section 7).
//! * [`MdefDetector`] — the local-metrics outliers of Papadimitriou et
//!   al.'s LOCI/aLOCI: a point is an outlier when its Multi-Granularity
//!   Deviation Factor exceeds `k_σ` standard deviations of the local
//!   neighborhood counts (paper Section 8, Figure 3).
//! * [`brute_force`] — `BruteForce-D` (exact `O(d|W|²)` distance-based
//!   detection) and `BruteForce-M` (aLOCI over the exact window), the
//!   ground-truth generators for the precision/recall experiments
//!   (Section 10).
//! * [`PrecisionRecall`] — the two measures of interest of Section 10.
//!
//! Distances are L∞ (axis-aligned boxes) throughout: the paper's
//! neighborhood count `N(p, r) = P[p − r, p + r] · |W|` is a box query,
//! so the exact baselines must count with the same metric for the
//! comparison to be apples-to-apples.
//!
//! ```
//! use snod_density::Kde1d;
//! use snod_outlier::{distance::is_distance_outlier, DistanceOutlierConfig};
//!
//! // A model of a window whose mass clusters near 0.4 …
//! let sample: Vec<f64> = (0..200).map(|i| 0.4 + 0.0005 * (i % 40) as f64).collect();
//! let model = Kde1d::from_sample(&sample, 0.05, 10_000.0).unwrap();
//!
//! // … makes far values (D, r)-outliers and near values inliers.
//! let rule = DistanceOutlierConfig::new(45.0, 0.01);
//! assert!(is_distance_outlier(&model, &[0.9], &rule).unwrap());
//! assert!(!is_distance_outlier(&model, &[0.41], &rule).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute_force;
pub mod distance;
pub mod exact;
pub mod mdef;
pub mod metrics;

pub use exact::ExactWindowDetector;

pub use distance::{DistanceOutlierConfig, DistanceOutlierDetector};
pub use mdef::{CellMemo, MdefConfig, MdefDetector, MdefEvaluation, SigmaMode};
pub use metrics::PrecisionRecall;
