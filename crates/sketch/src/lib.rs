//! # snod-sketch — streaming summaries over sliding windows
//!
//! This crate is the streaming substrate of the `sensor-outliers` workspace.
//! It contains the per-sensor data structures that the VLDB'06 paper
//! *"Online Outlier Detection in Sensor Data Using Non-Parametric Models"*
//! (Subramaniam et al.) assumes each node maintains:
//!
//! * [`ChainSampler`] — a uniform random sample of the last `|W|` stream
//!   elements, maintained with the *chain-sample* algorithm of Babcock,
//!   Datar and Motwani (SODA 2002). This is the sample `R` the paper's
//!   kernel estimators are built from.
//! * [`WindowedVariance`] — an ε-approximate estimate of the variance (and
//!   standard deviation) of the last `|W|` elements using
//!   `O((1/ε²)·log|W|)` words, after Babcock, Datar, Motwani and
//!   O'Callaghan (PODS 2003). The paper's Theorem 1 charges
//!   `O((d/ε²)·log|W|)` memory to this component; the struct also reports
//!   its actual memory so that the §10.3 experiment can be reproduced.
//! * [`ExpHistogram`] — DGIM exponential histogram for ε-approximate counts
//!   over a sliding window (building block and baseline).
//! * [`SlidingWindow`] — an exact ring-buffer window, used by the offline
//!   brute-force baselines and as ground truth in tests.
//! * [`StreamingMoments`] / [`DatasetStats`] — first-moment summaries
//!   (min/max/mean/median/σ/skew) used to regenerate the paper's Figure 5.
//!
//! All structures are single-threaded by design (they live inside one
//! simulated sensor); the network layer owns concurrency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain_sample;
mod exp_histogram;
mod moments;
mod variance;
mod window;

pub use chain_sample::ChainSampler;
pub use exp_histogram::ExpHistogram;
pub use moments::{DatasetStats, StreamingMoments};
pub use variance::WindowedVariance;
pub use window::SlidingWindow;

/// Errors produced by sketch construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SketchError {
    /// A size parameter (window length, sample size, …) was zero.
    ZeroSize(&'static str),
    /// The accuracy parameter ε was outside `(0, 1]`.
    InvalidEpsilon,
}

impl std::fmt::Display for SketchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SketchError::ZeroSize(what) => write!(f, "{what} must be positive"),
            SketchError::InvalidEpsilon => write!(f, "epsilon must lie in (0, 1]"),
        }
    }
}

impl std::error::Error for SketchError {}
