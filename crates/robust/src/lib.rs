//! # snod-robust — robust scale and distribution-shift statistics
//!
//! Two detector substrates that do *not* rest on kernel density models,
//! for streams where the paper's σ-scaled thresholds mislead:
//!
//! * [`QnWindow`] — the streaming Q_n robust scale estimator over a
//!   sliding window (Cafaro et al., *Fast Detection of Outliers in Data
//!   Streams with the Q_n Estimator*). Q_n is the k-th order statistic
//!   of the pairwise differences `|x_i − x_j|`, `i < j`, with
//!   `k = C(h, 2)`, `h = ⌊n/2⌋ + 1` — a 50%-breakdown scale that
//!   ignores both tails, so a contamination burst cannot inflate the
//!   outlier threshold the way it inflates σ. The window keeps a sorted
//!   buffer beside the arrival queue; a Q_n query brackets the k-th
//!   difference around the previous answer with O(n) two-pointer pair
//!   counts and selects inside the bracket (the sorted-matrix
//!   rank-select), falling back to a value-space bisection — about 3
//!   passes per query instead of ~21, never materialising the O(n²)
//!   differences.
//! * [`Mmdew`] — maximum mean discrepancy on exponential windows
//!   (Kalinke et al., *Maximum Mean Discrepancy on Exponential Windows
//!   for Online Change Detection*). The stream is summarised by
//!   logarithmically many buckets whose sizes double with age (merged
//!   exponential-histogram style); each bucket retains a capped, seeded
//!   subsample and its exact within-bucket kernel sum. At test time the
//!   biased MMD² estimate between the samples older and newer than each
//!   bucket boundary is compared to the kernel-bound threshold
//!   `τ = c·√(1/n + 1/m)`; the maximal-margin split raises a
//!   distribution-shift alarm and prunes the pre-change buckets.
//!
//! Both structures checkpoint via `snod-persist` (bit-identical resume,
//! RNG position included) and are proven against from-scratch reference
//! computations by the proptest suites in `tests/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` rejects NaN parameters as well as non-positive ones.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod mmdew;
mod qn;

pub use mmdew::{ChangeEvent, Mmdew, MmdewConfig, RetainedBucket, SplitStat};
pub use qn::QnWindow;

/// Errors surfaced by the robust-statistics structures.
#[derive(Debug, Clone, PartialEq)]
pub enum RobustError {
    /// A construction parameter was out of range.
    BadConfig(&'static str),
    /// A pushed value's dimensionality did not match the configuration.
    Dimension {
        /// Configured dimensionality.
        expected: usize,
        /// Dimensionality of the offending value.
        got: usize,
    },
    /// A pushed value contained a NaN or infinity.
    NonFinite,
}

impl std::fmt::Display for RobustError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RobustError::BadConfig(what) => write!(f, "invalid configuration: {what}"),
            RobustError::Dimension { expected, got } => {
                write!(f, "expected {expected}-dimensional value, got {got}")
            }
            RobustError::NonFinite => write!(f, "values must be finite"),
        }
    }
}

impl std::error::Error for RobustError {}
