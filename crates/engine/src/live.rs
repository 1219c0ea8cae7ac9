//! The live streaming driver.
//!
//! [`LiveRuntime`] drives the same [`DetectorEngine`] state machines
//! the simulator drives, through the same batch loop
//! ([`crate::protocol`]): the event queue doubles as the timer wheel,
//! the pre phase classifies and the post phase replays side effects in
//! exact event order, and callbacks run inline on the calling thread
//! (or on a worker pool when [`SimConfig::worker_threads`] asks for
//! one). It runs as fast as the machine allows — stream time is read
//! from the inputs, not the wall clock. The conformance suite in
//! `snod-bench` pins that a live run is bit-identical to the simulated
//! one on replayed streams.

use snod_persist::{Persist, PersistError};

use crate::config::{SimConfig, StreamSource};
use crate::detector::DetectorEngine;
use crate::fault::FaultPlan;
use crate::message::Wire;
use crate::node::NodeId;
use crate::protocol::Runner;
use crate::stats::NetStats;
use crate::topology::Hierarchy;

/// A live network of detector engines: topology + one engine per node +
/// the shared protocol state, advanced by [`Self::run_slice`].
///
/// Structurally this is the simulator without its restart policies:
/// events (readings, deliveries, acks, retry and application timers)
/// live on the same queue and run through the same loop. Crash/recovery
/// semantics follow [`crate::RestartPolicy::Persistent`]: a node that
/// comes back keeps its in-memory state, exactly like the simulator's
/// default.
pub struct LiveRuntime<P: Wire, A: DetectorEngine<P>> {
    core: Runner<P, A>,
}

impl<P: Wire, A: DetectorEngine<P>> LiveRuntime<P, A> {
    /// Builds a runtime, constructing one engine per node via
    /// `make_engine`.
    pub fn new(
        topo: Hierarchy,
        cfg: SimConfig,
        make_engine: impl FnMut(NodeId, &Hierarchy) -> A,
    ) -> Self {
        Self {
            core: Runner::new(topo, cfg, make_engine),
        }
    }

    /// Installs `plan` as this run's fault schedule (and reseeds the
    /// fault streams from its seed). Must be called before the run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.core.set_fault_plan(plan);
        self
    }

    /// The fault-decision log (`fault-trace` feature only).
    pub fn fault_trace(&self) -> &[String] {
        &self.core.state().trace
    }

    /// Every leaf takes `readings_per_leaf` readings from `source` and
    /// all resulting traffic is processed to quiescence:
    /// [`Self::run_slice`] with no stop time.
    pub fn run<S: StreamSource>(&mut self, source: &mut S, readings_per_leaf: u64)
    where
        P: Send,
        A: Send,
    {
        self.run_slice(source, readings_per_leaf, u64::MAX);
    }

    /// Processes every event at or before `stop_ns` (later events stay
    /// queued). Calling again — or on a checkpoint-restored runtime —
    /// continues exactly where the run left off, so any sequence of
    /// slices is bit-identical to one [`Self::run`]. Daemons that
    /// multiplex many small runtimes advance each in short slices as
    /// network input arrives; at the default single worker a slice
    /// spawns nothing and allocates only its batch scratch.
    pub fn run_slice<S: StreamSource>(
        &mut self,
        source: &mut S,
        readings_per_leaf: u64,
        stop_ns: u64,
    ) where
        P: Send,
        A: Send,
    {
        self.core.run_until(source, readings_per_leaf, stop_ns);
    }

    /// Traffic and energy statistics of the run so far.
    pub fn stats(&self) -> &NetStats {
        &self.core.state().stats
    }

    /// The topology.
    pub fn topology(&self) -> &Hierarchy {
        self.core.topology()
    }

    /// Iterates over `(node, engine)` pairs.
    pub fn engines(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.core
            .apps()
            .iter()
            .enumerate()
            .map(|(i, a)| (NodeId(i as u32), a))
    }

    /// Snapshots the complete runtime state in the simulator's format
    /// (see [`Runner::checkpoint`]): a live checkpoint restores into a
    /// simulator network built with matching parameters under the
    /// default restart policy, and vice versa.
    pub fn checkpoint(&self) -> Vec<u8>
    where
        P: Persist,
        A: Persist,
    {
        self.core.checkpoint()
    }

    /// Restores state captured by [`Self::checkpoint`] (or by the
    /// simulator under its default restart policy); see
    /// [`Runner::restore`].
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), PersistError>
    where
        P: Persist,
        A: Persist,
    {
        self.core.restore(bytes)
    }
}

#[cfg(all(test, feature = "fault-trace"))]
mod tests {
    use super::*;
    use crate::detector::EngineCtx;
    use snod_persist::{ByteReader, ByteWriter};

    /// Leaves forward every reading to their parent.
    struct Relay(u64);

    impl DetectorEngine<Vec<f64>> for Relay {
        fn ingest(&mut self, ctx: &mut EngineCtx<'_, Vec<f64>>, value: &[f64]) {
            self.0 += 1;
            ctx.send_parent(value.to_vec());
        }

        fn on_message(&mut self, _: &mut EngineCtx<'_, Vec<f64>>, _: NodeId, _: Vec<f64>) {}
    }

    impl Persist for Relay {
        fn save(&self, w: &mut ByteWriter) {
            self.0.save(w);
        }
        fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
            Ok(Self(u64::load(r)?))
        }
    }

    #[test]
    fn restore_keeps_the_accumulated_fault_trace() {
        // The trace is diagnostic and never persisted: a restore keeps
        // what the runtime has logged so far, as the simulator does.
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let cfg = SimConfig::default().with_drop_probability(0.3);
        let plan = FaultPlan::none().crash(NodeId(0), 5_000_000_000, Some(10_000_000_000));
        let mut rt = LiveRuntime::new(topo, cfg, |_, _| Relay(0)).with_fault_plan(plan);
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        rt.run_slice(&mut source, 30, 15_000_000_000);
        let logged = rt.fault_trace().to_vec();
        assert!(logged.iter().any(|l| l.contains("missed reading")));
        assert!(logged.iter().any(|l| l.contains("lost")));

        let snap = rt.checkpoint();
        rt.restore(&snap).expect("own checkpoint restores");
        assert_eq!(rt.fault_trace(), logged.as_slice());

        rt.run(&mut source, 30);
        assert!(rt.fault_trace().len() > logged.len());
        assert!(rt.fault_trace().starts_with(&logged));
    }
}
