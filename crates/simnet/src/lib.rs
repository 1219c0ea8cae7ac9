//! # snod-simnet — hierarchical sensor-network simulator
//!
//! The paper evaluates its algorithms on a simulator built on top of TAG
//! (Madden et al., OSDI 2002), using it to *"define the topology of the
//! network and the type of messages exchanged, to disseminate queries,
//! and to gather statistics"*, extended with the hierarchical (virtual
//! grid) organisation of Section 2. TAG's source is not available, so
//! this crate is the substitute substrate: a deterministic discrete-event
//! simulator providing the same observable quantities — message counts,
//! bytes on the air, per-level traffic, energy — for a detector engine
//! running on every node.
//!
//! The runtime-agnostic core — the [`DetectorEngine`] trait, the
//! message/fault/statistics types and the event-processing protocol —
//! lives in the `snod-engine` crate and is re-exported here under its
//! historic paths; this crate adds the *simulated-time driver*:
//!
//! * [`Hierarchy`] — the tiered virtual-grid organisation of Figure 1:
//!   leaf sensors at the bottom, one leader per cell per tier.
//! * [`Network`] — the simulation driver: schedules sensor readings,
//!   delivers messages with configurable latency, and accounts for
//!   every byte, jumping the clock from event to event.
//! * [`DetectorEngine`] — the callback trait the paper's algorithms
//!   (D3, MGDD, centralized) implement in `snod-core`. The same engines
//!   run unmodified under `snod-engine`'s streaming `LiveRuntime`.
//! * [`NetStats`] / [`EnergyModel`] — the statistics behind Figure 11 and
//!   the §10.3 communication-cost discussion.
//!
//! ## Determinism at every worker count
//!
//! Identical inputs (topology, streams, seeds) replay identical
//! executions, which the integration tests rely on: at every
//! [`SimConfig::worker_threads`] setting, under the fault layer
//! ([`fault::FaultPlan`]), the ack/retry protocol
//! ([`fault::RetryPolicy`]) and every [`RestartPolicy`] — and
//! identically to `snod-engine`'s `LiveRuntime`. All of them run the
//! one batch loop of [`snod_engine::protocol`], whose docs give the
//! argument.
//!
//! ```
//! use snod_simnet::{DetectorEngine, EngineCtx, Hierarchy, Network, NodeId, SimConfig};
//!
//! // A trivial application: every leaf forwards its readings upward.
//! struct Forward;
//! impl DetectorEngine<Vec<f64>> for Forward {
//!     fn ingest(&mut self, ctx: &mut EngineCtx<'_, Vec<f64>>, value: &[f64]) {
//!         ctx.send_parent(value.to_vec());
//!     }
//!     fn on_message(&mut self, _: &mut EngineCtx<'_, Vec<f64>>, _: NodeId, _: Vec<f64>) {}
//! }
//!
//! let topo = Hierarchy::balanced(4, &[4]).unwrap();
//! let mut net = Network::new(topo, SimConfig::default(), |_, _| Forward);
//! let mut source = |_: NodeId, seq: u64| Some(vec![seq as f64]);
//! net.run(&mut source, 10);
//! assert_eq!(net.stats().messages, 40); // 4 leaves × 10 readings
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod network;

pub use snod_engine::fault;

pub use network::Network;
pub use snod_engine::fault::{
    BurstLoss, CrashWindow, DropoutWindow, FaultPlan, LinkFault, RestartPolicy, RetryPolicy,
};
pub use snod_engine::{
    DetectorEngine, EnergyModel, Envelope, EngineCtx, Event, EventQueue, Hierarchy, LiveRuntime,
    Location, NetStats, NodeId, NodeRole, ReadingTrace, SimConfig, SimError, StreamSource,
    TraceRecorder, Wire, ACK_BYTES, HEADER_BYTES, MSG_ID_BYTES,
};

/// The historic name of [`EngineCtx`], kept so downstream code reads
/// naturally in either vocabulary.
pub type Ctx<'a, P> = EngineCtx<'a, P>;
