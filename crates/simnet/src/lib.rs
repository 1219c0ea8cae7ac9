//! # snod-simnet — hierarchical sensor-network simulator
//!
//! The paper evaluates its algorithms on a simulator built on top of TAG
//! (Madden et al., OSDI 2002), using it to *"define the topology of the
//! network and the type of messages exchanged, to disseminate queries,
//! and to gather statistics"*, extended with the hierarchical (virtual
//! grid) organisation of Section 2. TAG's source is not available; its
//! substitute is `snod-engine`'s [`Network`], a deterministic
//! discrete-event driver providing the same observable quantities —
//! message counts, bytes on the air, per-level traffic, energy — for a
//! detector engine running on every node.
//!
//! This crate only re-exports `snod-engine` under its historic paths
//! (and forwards its Cargo features), so that code written against
//! `snod_simnet` keeps building. ROADMAP item 22 deletes it together
//! with the [`LiveRuntime`] alias.
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

pub use snod_engine::fault;

pub use snod_engine::fault::{
    BurstLoss, CrashWindow, DropoutWindow, FaultPlan, LinkFault, RestartPolicy, RetryPolicy,
};
pub use snod_engine::{
    DetectorEngine, EnergyModel, EngineCtx, Envelope, Event, EventQueue, Hierarchy, LiveRuntime,
    Location, NetStats, Network, NodeId, NodeRole, ReadingTrace, SimConfig, SimError, StreamSource,
    TraceRecorder, Wire, ACK_BYTES, HEADER_BYTES, MSG_ID_BYTES,
};

/// The historic name of [`EngineCtx`], kept so downstream code reads
/// naturally in either vocabulary.
pub type Ctx<'a, P> = EngineCtx<'a, P>;
