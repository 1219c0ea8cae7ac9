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
//!   run unmodified under `snod-engine`'s wall-clock `LiveRuntime`.
//! * [`NetStats`] / [`EnergyModel`] — the statistics behind Figure 11 and
//!   the §10.3 communication-cost discussion.
//!
//! ## Determinism, sequential *and* parallel
//!
//! Identical inputs (topology, streams, seeds) replay identical
//! executions, which the integration tests rely on — **including** when
//! [`SimConfig::worker_threads`] enables the parallel engine. The
//! argument:
//!
//! 1. **Batches.** Events are totally ordered by `(time, scheduling
//!    seq)`. The parallel engine drains one *batch* — every event
//!    sharing the earliest timestamp — at a time, in heap order. A
//!    callback can only schedule events at `time + latency`/`period`
//!    (or at the same instant with zero latency, which lands in a
//!    *later* scheduling-seq batch exactly where the sequential engine
//!    would process it), so batch boundaries never cut a
//!    happens-before edge.
//! 2. **Isolation.** Application state is per-node and an [`EngineCtx`]
//!    only buffers sends. Within a batch, callbacks on different nodes
//!    are therefore independent; callbacks on the *same* node are
//!    grouped and run in batch order on one worker. The assignment of
//!    groups to threads cannot affect any observable value.
//! 3. **Side-effect replay.** Everything shared — stream fetches,
//!    receive/transmit energy sums, message statistics, the per-node
//!    RNG streams, the reliability protocol's pending/dedup tables,
//!    queue sequence numbers — is executed by the coordinator thread in
//!    exact batch order: stream fetches, receive accounting and
//!    duplicate suppression in a pre-pass; outbox flushing, ack and
//!    retransmission handling and next-reading scheduling in a
//!    post-pass. Floating-point accumulation order and RNG draw order
//!    are thus byte-for-byte those of the sequential engine. Crucially,
//!    *acks and retry timers are resolved in the post-pass too*: a
//!    retransmission at batch position `k` followed by an ack at `k+1`
//!    replays in exactly that order, as the sequential engine would.
//!
//! Hence every statistic, alarm and detection is bit-identical across
//! `worker_threads` settings; the parallel engine merely overlaps the
//! (expensive, pure) per-node model computations. The same argument
//! covers the fault layer ([`fault::FaultPlan`]) and the ack/retry
//! protocol ([`fault::RetryPolicy`]): both engines consult the plan in
//! the pre phase and draw fault/loss/retry randomness in the post
//! phase, from per-node streams whose draw order is per-stream
//! sequential order. See `snod-engine`'s `protocol` module for the
//! per-node stream layout and the bit-exactness argument for
//! `FaultPlan::none()` — and for why the same pre/post split makes the
//! wall-clock `LiveRuntime` bit-identical to this simulator.
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
    Clock, DetectorEngine, EnergyModel, Envelope, EngineCtx, Event, EventQueue, Hierarchy,
    LiveRuntime, Location, MonotonicClock, NetStats, NodeId, NodeRole, ReadingTrace, SimConfig,
    SimError, StreamSource, TraceRecorder, VirtualClock, Wire, ACK_BYTES, HEADER_BYTES,
    MSG_ID_BYTES,
};

/// The historic name of [`EngineCtx`], kept so downstream code reads
/// naturally in either vocabulary.
pub type Ctx<'a, P> = EngineCtx<'a, P>;
