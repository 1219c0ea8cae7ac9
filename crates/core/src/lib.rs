//! # snod-core — the paper's algorithms
//!
//! This crate assembles the substrates into the systems the VLDB'06 paper
//! actually proposes:
//!
//! * [`SensorEstimator`] — the per-node estimator state of Section 5: a
//!   chain sample `R` of the sliding window plus streaming per-dimension
//!   standard deviations, materialised on demand into a kernel density
//!   model (with the 1-d fast path of Section 5.3).
//! * [`ContainmentNode`] — the protocol of Figure 4 with the
//!   `IsOutlier` rule behind the [`LeafRule`] seam: every leaf checks
//!   each reading against its local state; flagged values climb the
//!   hierarchy and are re-checked against each ancestor's state (sound
//!   by Theorem 3). [`D3Node`] is the engine under the paper's
//!   kernel-density distance rule (algorithm **D3**, Section 7),
//!   [`FqnNode`] the same engine under a robust `median ± k·Q_n` rule.
//! * [`MgddNode`] — algorithm **MGDD** (Multi-Granular Deviation
//!   Detection, Section 8): leaders maintain region models and stream
//!   incremental updates down to the leaves, which evaluate the MDEF
//!   test against each granularity's *global* model.
//! * [`CentralizedNode`] — the baseline that ships every reading to the
//!   top-level leader (Section 8.1's comparison point and the upper
//!   curve of Figure 11).
//! * [`DetectorBackend`] — a validated recipe for one detector family
//!   ([`D3Backend`], [`MgddBackend`], [`FqnBackend`], [`MmdewBackend`],
//!   [`CentralizedBackend`]). [`build_backend_network`] and
//!   [`run_backend_with_faults`] turn any recipe into the one driver —
//!   the one way to build and run a detector.
//! * [`MonitorNode`] / [`run_monitor`] and [`apps`] — the Section 9
//!   applications: faulty sensor detection via model divergence and
//!   windowed outlier-count alarms.
//!
//! The [`pipeline`] module offers a one-call API over all of the above
//! for downstream users who just want "outliers out of my sensor
//! streams".

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` is deliberate throughout: unlike `x <= 0.0` it also
// rejects NaN parameters, which must never enter a configuration.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod apps;
mod backend;
mod centralized;
mod config;
mod containment;
mod d3;
mod estimator;
mod fqn;
mod mgdd;
mod monitor;
pub mod pipeline;
mod replica;
mod shift;

pub use backend::{
    build_backend_network, run_backend, run_backend_with_faults, BackendKind, CentralizedBackend,
    D3Backend, DetectorBackend, FqnBackend, MgddBackend, MmdewBackend,
};
pub use centralized::{CentralizedNode, CentralizedPayload};
pub use config::{
    CoreError, D3Config, EstimatorConfig, EstimatorConfigBuilder, MgddConfig, RebuildPolicy,
    UpdateStrategy,
};
pub use containment::{ContainmentNode, ContainmentPayload, Detection, LeafRule};
pub use d3::{D3Node, D3Payload, DistanceRule};
pub use estimator::{SensorEstimator, SensorModel};
pub use fqn::{FqnConfig, FqnNode, FqnPayload, QnRule};
pub use mgdd::{MgddNode, MgddPayload};
pub use monitor::{
    run_monitor, run_monitor_with_faults, FaultAlarm, ModelReport, MonitorConfig, MonitorNode,
};
pub use replica::IncrementalReplica;
pub use shift::{MmdewNode, MmdewNodeConfig, MmdewPayload};
