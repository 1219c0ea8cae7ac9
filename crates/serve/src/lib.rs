//! `snod-serve`: a crash-safe multi-tenant ingestion daemon for the
//! D3 outlier detector.
//!
//! The daemon accepts length-prefixed [`wire`] frames over TCP, routes
//! each tenant's readings into its own detector runtime (one
//! [`snod_engine::Network`] per tenant, advanced by stream-time
//! slicing so the served results are bit-identical to an in-process
//! run), and surfaces escalations plus health metrics on a scrapeable
//! HTTP endpoint.
//!
//! Robustness spine:
//! - **bounded queues** per tenant with load shedding (shed readings
//!   are unacked, so at-least-once clients retransmit them),
//! - **idempotent ingestion** via per-stream sequence numbers,
//! - **supervised workers**: a crashed tenant respawns warm from its
//!   last checkpoint,
//! - **durable acks**: `durable` advances only when a checkpoint hits
//!   disk, so clients know exactly what to replay after a `kill -9`,
//! - **graceful shutdown** that drains queues and writes final
//!   checkpoints — and a `hard_abort` crash path for testing that
//!   does neither.
//!
//! The [`proxy`] module provides a seeded socket-level fault injector
//! (the transport analogue of the engine's `FaultPlan`) used by the
//! differential tests to prove all of the above.

pub mod client;
pub mod config;
mod daemon;
pub mod error;
mod http;
pub mod proxy;
mod stats;
mod tenant;
pub mod wire;

pub use client::{ClientConfig, DetectionRow, ServeClient};
pub use config::{valid_tenant_name, ServeConfig, TenantSpec};
pub use daemon::{serve, ServerHandle};
pub use error::ServeError;
pub use proxy::{FaultProxy, SocketFaultPlan};
pub use stats::{EscalationRecord, ServeStats};
