//! # snod-engine — runtime-agnostic detector engines and their driver
//!
//! The paper's algorithms (D3, MGDD, the centralized baseline) are
//! *per-node state machines*: they ingest sensor readings, exchange
//! messages along the hierarchy, maintain model epochs and react to
//! timers. Nothing about that logic depends on *how* time advances —
//! a discrete-event simulator and a live streaming process must drive
//! the very same code. This crate is that separation:
//!
//! * [`DetectorEngine`] — the pure per-node state machine trait:
//!   [`DetectorEngine::ingest`] for readings,
//!   [`DetectorEngine::on_message`] for hierarchy traffic,
//!   [`DetectorEngine::on_timer`] for engine-armed timers, plus
//!   checkpoint/restore via `snod-persist`. Engines never see an event
//!   queue or a clock; they observe time only through
//!   [`EngineCtx::time_ns`].
//! * [`EngineCtx`] — the engine's window onto the network during one
//!   callback: hierarchy links (parent/children), buffered sends,
//!   degradation counters and timer arming. The driver constructs it,
//!   collects it, and replays its side effects deterministically.
//! * [`Network`] — the one driver: topology, one engine per node, the
//!   protocol state and the checkpoint codec, advanced by one batch
//!   loop. Its pre phase classifies events, its callback phase runs
//!   engine callbacks (inline, or on a worker pool) and its post phase
//!   replays side effects: the ack/retry protocol, the fault layer, the
//!   restart machinery, per-node RNG streams and all traffic/energy
//!   accounting. Time comes from the inputs, never the wall clock, so
//!   the simulator runs it to quiescence ([`Network::run`]) and a daemon
//!   advances it in slices ([`Network::run_until`]) fed by any
//!   [`StreamSource`] — the [`IngestBuffer`] of a daemon, or a
//!   replayable [`trace::ReadingTrace`] CSV trace.
//!
//! ## The driver contract
//!
//! The one loop delivers callbacks to each node in a single total
//! order, replays the protocol's side effects (sends, acks, retries,
//! timers, RNG draws, statistics) in event order, and timestamps
//! callbacks with a monotone `time_ns`. So a run fed the same replayable
//! inputs produces **bit-identical** outcomes however it is sliced and
//! at any [`SimConfig::worker_threads`]: the same escalations, the same
//! model epochs, the same [`NetStats`], and the same checkpoint bytes.
//! The resume and worker-count suites pin exactly this property, with
//! and without fault injection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod detector;
mod energy;
mod event;
pub mod fault;
pub mod ingest;
mod message;
mod network;
mod node;
mod protocol;
mod stats;
mod topology;
pub mod trace;

pub use config::{SimConfig, StreamSource};
pub use detector::{DetectorEngine, EngineCtx};
pub use energy::EnergyModel;
pub use event::{Event, EventQueue};
pub use fault::{
    BurstLoss, CrashWindow, DropoutWindow, FaultPlan, LinkFault, RestartPolicy, RetryPolicy,
};
pub use ingest::{IngestBuffer, PushOutcome};
pub use message::{Envelope, Wire, ACK_BYTES, HEADER_BYTES, MSG_ID_BYTES};
pub use network::Network;
pub use node::{Location, NodeId, NodeRole};
pub use stats::NetStats;
pub use topology::Hierarchy;
pub use trace::{ReadingTrace, TraceRecorder};

/// [`Network`] under the streaming runtime's older name, kept until the
/// benchmark's callers move to `Network` (ROADMAP item 22).
pub type LiveRuntime<P, A> = Network<P, A>;

/// Errors raised while building simulations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A structural parameter (leaf count, fan-out) was zero.
    ZeroSize(&'static str),
    /// A node id was out of range for the topology.
    UnknownNode(NodeId),
    /// The hierarchy's top tier did not reduce to a single root.
    MultiRoot {
        /// Number of nodes left at the top tier.
        top_tier: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ZeroSize(what) => write!(f, "{what} must be positive"),
            SimError::UnknownNode(id) => write!(f, "node {id:?} is not part of the topology"),
            SimError::MultiRoot { top_tier } => write!(
                f,
                "fan-outs leave {top_tier} nodes at the top tier (must reduce to 1 root)"
            ),
        }
    }
}

impl std::error::Error for SimError {}
