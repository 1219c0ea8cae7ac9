//! The runtime-agnostic per-node detector interface.

use snod_persist::{Persist, PersistError};

use crate::message::Wire;
use crate::node::NodeId;
use crate::topology::Hierarchy;

/// A per-node detector state machine, one instance per node.
///
/// Engines are *pure* in the driver's sense: they hold only their own
/// state, observe time exclusively through [`EngineCtx::time_ns`], and
/// interact with the world exclusively through the [`EngineCtx`] they
/// are handed — buffered sends, degradation notes and timer arming. No
/// event queue, no clock, no threads. That is what lets the
/// deterministic simulator and the [`crate::LiveRuntime`] drive the
/// identical code and produce bit-identical outcomes.
pub trait DetectorEngine<P: Wire> {
    /// A new sensor reading arrived at this (leaf) node.
    fn ingest(&mut self, ctx: &mut EngineCtx<'_, P>, value: &[f64]);

    /// A message from `from` was delivered to this node.
    fn on_message(&mut self, ctx: &mut EngineCtx<'_, P>, from: NodeId, payload: P);

    /// A timer armed via [`EngineCtx::set_timer`] fired. The default
    /// ignores it (no current detector arms timers; the hook exists so
    /// periodic maintenance can move out of the reading path).
    fn on_timer(&mut self, _ctx: &mut EngineCtx<'_, P>, _timer: u64) {}

    /// Serializes this engine's complete state. The default defers to
    /// the engine's [`Persist`] implementation.
    fn checkpoint(&self) -> Vec<u8>
    where
        Self: Persist,
    {
        Persist::to_bytes(self)
    }

    /// Rebuilds an engine from [`DetectorEngine::checkpoint`] bytes.
    fn restore(bytes: &[u8]) -> Result<Self, PersistError>
    where
        Self: Sized + Persist,
    {
        Persist::from_bytes(bytes)
    }
}

/// The engine's window onto the network during a callback.
pub struct EngineCtx<'a, P> {
    /// The node the callback runs on.
    pub node: NodeId,
    /// Current stream time (simulated or read from the inputs, in ns).
    pub time_ns: u64,
    topo: &'a Hierarchy,
    outbox: Vec<(NodeId, P, bool)>,
    timers: Vec<(u64, u64)>,
    degraded_scores: u64,
    local_fallbacks: u64,
}

impl<'a, P> EngineCtx<'a, P> {
    /// Builds the context one callback runs under. Applications receive
    /// contexts, they never build them.
    pub(crate) fn new(node: NodeId, time_ns: u64, topo: &'a Hierarchy) -> Self {
        Self {
            node,
            time_ns,
            topo,
            outbox: Vec::new(),
            timers: Vec::new(),
            degraded_scores: 0,
            local_fallbacks: 0,
        }
    }

    /// Consumes the context into the callback's recorded side effects
    /// (the post phase's input).
    pub(crate) fn into_out(self) -> CtxOut<P> {
        CtxOut {
            outbox: self.outbox,
            timers: self.timers,
            degraded_scores: self.degraded_scores,
            local_fallbacks: self.local_fallbacks,
        }
    }

    /// The hierarchy (read-only).
    pub fn topology(&self) -> &Hierarchy {
        self.topo
    }

    /// This node's leader, `None` at the root.
    pub fn parent(&self) -> Option<NodeId> {
        self.topo.parent(self.node)
    }

    /// This node's children.
    pub fn children(&self) -> &[NodeId] {
        self.topo.children(self.node)
    }

    /// This node's tier (1 = leaf).
    pub fn level(&self) -> u8 {
        self.topo.level_of(self.node)
    }

    /// Queues `payload` for delivery to `to`.
    pub fn send(&mut self, to: NodeId, payload: P) {
        self.outbox.push((to, payload, false));
    }

    /// Queues `payload` for acknowledged delivery to `to`: with
    /// [`crate::SimConfig::reliability`] enabled the engine retransmits
    /// on timeout until the receiver acks, and the receiver suppresses
    /// duplicate deliveries of the same message id. With reliability
    /// `None` this is exactly [`EngineCtx::send`].
    pub fn send_reliable(&mut self, to: NodeId, payload: P) {
        self.outbox.push((to, payload, true));
    }

    /// Queues `payload` for the parent; returns `false` at the root.
    pub fn send_parent(&mut self, payload: P) -> bool {
        match self.parent() {
            Some(p) => {
                self.send(p, payload);
                true
            }
            None => false,
        }
    }

    /// [`EngineCtx::send_reliable`] to the parent; returns `false` at
    /// the root.
    pub fn send_parent_reliable(&mut self, payload: P) -> bool {
        match self.parent() {
            Some(p) => {
                self.send_reliable(p, payload);
                true
            }
            None => false,
        }
    }

    /// Queues `payload` for every child (cloned per child).
    pub fn send_children(&mut self, payload: P)
    where
        P: Clone,
    {
        for &c in self.topo.children(self.node) {
            self.outbox.push((c, payload.clone(), false));
        }
    }

    /// [`EngineCtx::send_reliable`] to every child (cloned per child).
    pub fn send_children_reliable(&mut self, payload: P)
    where
        P: Clone,
    {
        for &c in self.topo.children(self.node) {
            self.outbox.push((c, payload.clone(), true));
        }
    }

    /// Arms a one-shot timer: `delay_ns` from now the driver calls
    /// [`DetectorEngine::on_timer`] on this node with `id`. Timers ride
    /// the event queue both drivers share and are suppressed while the
    /// node is crashed, like any other callback.
    pub fn set_timer(&mut self, delay_ns: u64, id: u64) {
        self.timers.push((delay_ns, id));
    }

    /// Records that this node scored against a stale (last-known) child
    /// model instead of a fresh one — graceful degradation, surfaced in
    /// [`crate::NetStats::degraded_scores`].
    pub fn note_degraded_score(&mut self) {
        self.degraded_scores += 1;
    }

    /// Records that this node fell back to local-only detection because
    /// its upstream model source went silent — surfaced in
    /// [`crate::NetStats::local_fallbacks`].
    pub fn note_local_fallback(&mut self) {
        self.local_fallbacks += 1;
    }
}

/// What one callback produced: queued sends, armed timers and
/// degradation counters — collected by the callback phase, replayed by
/// the post phase.
pub(crate) struct CtxOut<P> {
    pub(crate) outbox: Vec<(NodeId, P, bool)>,
    pub(crate) timers: Vec<(u64, u64)>,
    pub(crate) degraded_scores: u64,
    pub(crate) local_fallbacks: u64,
}

impl<P> Default for CtxOut<P> {
    fn default() -> Self {
        Self {
            outbox: Vec::new(),
            timers: Vec::new(),
            degraded_scores: 0,
            local_fallbacks: 0,
        }
    }
}
