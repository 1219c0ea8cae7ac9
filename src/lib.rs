//! # sensor-outliers
//!
//! Rust reproduction of *"Online Outlier Detection in Sensor Data Using
//! Non-Parametric Models"* (Subramaniam, Palpanas, Papadopoulos,
//! Kalogeraki, Gunopulos — VLDB 2006).
//!
//! The workspace implements the paper's full stack and this façade crate
//! re-exports the pieces a downstream user needs:
//!
//! * [`sketch`] — streaming summaries per sensor: chain sampling over
//!   sliding windows, ε-approximate windowed variance, exponential
//!   histograms.
//! * [`density`] — the non-parametric distribution-approximation
//!   framework: Epanechnikov kernel density estimators, range queries
//!   `N(p, r)`, histograms, Jensen–Shannon divergence.
//! * [`outlier`] — outlier definitions and detectors: distance-based
//!   `(D, r)`-outliers, MDEF/aLOCI local-metric outliers, exact
//!   brute-force baselines, precision/recall scoring.
//! * [`simnet`] — the discrete-event sensor-network driver
//!   ([`simnet::Network`]) with the paper's tiered virtual-grid
//!   hierarchy and message/energy accounting.
//! * [`robust`] — robust/non-parametric detector substrates beyond the
//!   paper: the streaming Q_n scale estimator and MMDEW, MMD-based
//!   change detection over exponential windows.
//! * [`core`] — the paper's algorithms D3 (distributed distance-based
//!   deviation detection) and MGDD (multi-granular MDEF detection), the
//!   centralized baseline and §9 applications. Every detector is a
//!   [`core::DetectorBackend`] recipe ([`core::D3Backend`],
//!   [`core::MgddBackend`], [`core::FqnBackend`], [`core::MmdewBackend`],
//!   [`core::CentralizedBackend`]) built and run through
//!   [`core::build_backend_network`] and
//!   [`core::run_backend_with_faults`]; D3 and FQN are one
//!   [`core::ContainmentNode`] under two [`core::LeafRule`]s.
//! * [`data`] — the evaluation workloads: the synthetic Gaussian-mixture
//!   streams and calibrated stand-ins for the paper's proprietary engine
//!   and Pacific-Northwest environmental datasets.
//!
//! Beyond the paper's letter the workspace also provides the substrates
//! its evaluation needs: radio loss and node-failure injection
//! ([`simnet::SimConfig`]), a Haar-wavelet synopsis baseline
//! ([`density::WaveletHistogram`]), the distributed faulty-sensor
//! monitor ([`core::run_monitor`]), and an exact grid-indexed window
//! detector ([`outlier::ExactWindowDetector`]).
//!
//! ## Quickstart
//!
//! Detect `(D, r)`-outliers on a single sensor stream:
//!
//! ```
//! use sensor_outliers::core::{SensorEstimator, EstimatorConfig};
//! use sensor_outliers::outlier::DistanceOutlierConfig;
//!
//! let cfg = EstimatorConfig::builder()
//!     .window(1_000)
//!     .sample_size(100)
//!     .dimensions(1)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let mut est = SensorEstimator::new(cfg);
//! let rule = DistanceOutlierConfig { radius: 0.05, min_neighbors: 20.0 };
//!
//! // A tight cluster around 0.5 …
//! for i in 0..1_000 {
//!     est.observe(&[0.5 + 0.01 * ((i % 7) as f64 - 3.0)]).unwrap();
//! }
//! // … makes a far-away reading an outlier, and a nearby one not.
//! assert!(est.is_distance_outlier(&[0.95], &rule).unwrap());
//! assert!(!est.is_distance_outlier(&[0.5], &rule).unwrap());
//! ```

pub use snod_core as core;
pub use snod_data as data;
pub use snod_density as density;
pub use snod_outlier as outlier;
pub use snod_persist as persist;
pub use snod_robust as robust;
pub use snod_simnet as simnet;
pub use snod_sketch as sketch;
