//! # snod-density — non-parametric distribution approximation
//!
//! The central contribution of the VLDB'06 paper is a *"general and
//! flexible data distribution approximation framework that does not
//! require a priori knowledge about the input distribution"*. This crate
//! is that framework:
//!
//! * [`EpanechnikovKernel`] (plus Gaussian and uniform alternatives) — the
//!   kernel functions of Section 4, with closed-form CDFs so that range
//!   queries integrate exactly.
//! * [`scott_bandwidth`] — the paper's bandwidth rule
//!   `Bᵢ = √5 · σᵢ · |R|^(−1/(d+4))`.
//! * [`Kde`] — the d-dimensional product-kernel estimator of Equation 1,
//!   answering `P[p−r, p+r]` (Equation 5) and the neighborhood count
//!   `N(p,r) = P(p,r)·|W|` (Equation 4) in `O(d|R|)` (Theorem 2).
//! * [`Kde1d`] — the sorted-centre one-dimensional variant whose range
//!   query costs `O(log|R| + |R′|)` where `R′` are the kernels that
//!   intersect the query (Section 5.3).
//! * [`EquiDepthHistogram`] / [`GridHistogram`] — the histogram baseline
//!   of Section 10 (with `|B| = |R|` buckets for comparable memory).
//! * [`js_divergence_models`] — the Jensen–Shannon divergence between two
//!   estimator models on a finite grid (Equations 7–8), used to measure
//!   estimation accuracy (Figure 6), to decide when a parent's model has
//!   changed enough to re-broadcast (Section 8.1), and to flag faulty
//!   sensors (Section 9).
//!
//! All models implement the [`DensityModel`] trait so the outlier
//! detectors are agnostic to the estimator in use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` is deliberate throughout: unlike `x <= 0.0` it also
// rejects NaN parameters, which must never enter a model.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod bandwidth;
mod divergence;
mod eval;
mod grid;
mod histogram;
mod kde;
mod kde1d;
mod kernel;
mod model;
mod wavelet;

pub use bandwidth::{scott_bandwidth, scott_bandwidths};
pub use divergence::{js_divergence, js_divergence_models, kl_divergence};
pub use grid::GridDiscretization;
pub use histogram::{EquiDepthHistogram, GridHistogram};
pub use kde::{CompressionStats, Kde};
pub use kde1d::Kde1d;
pub use kernel::{EpanechnikovKernel, GaussianKernel, Kernel1d, UniformKernel};
pub use model::DensityModel;
pub use wavelet::WaveletHistogram;

/// Errors produced while building density models.
#[derive(Debug, Clone, PartialEq)]
pub enum DensityError {
    /// The sample used to build the estimator was empty.
    EmptySample,
    /// A point had the wrong number of coordinates.
    DimensionMismatch {
        /// Dimensionality the model was built with.
        expected: usize,
        /// Dimensionality of the offending input.
        got: usize,
    },
    /// A bandwidth, window length or bucket count was not positive.
    NonPositiveParameter(&'static str),
    /// The flattened sample length was not a multiple of the dimensionality.
    RaggedSample,
    /// A value that must be a real number was NaN (a kernel centre handed
    /// to an incremental update) or not finite (a sensor reading).
    NonFiniteValue(&'static str),
}

impl std::fmt::Display for DensityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DensityError::EmptySample => write!(f, "sample must not be empty"),
            DensityError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected}-dimensional point, got {got}")
            }
            DensityError::NonPositiveParameter(p) => write!(f, "{p} must be positive"),
            DensityError::RaggedSample => {
                write!(
                    f,
                    "flattened sample length must be a multiple of the dimensionality"
                )
            }
            DensityError::NonFiniteValue(p) => write!(f, "{p} must be a finite number"),
        }
    }
}

impl std::error::Error for DensityError {}
