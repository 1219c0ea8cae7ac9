//! Run configuration and stream supply, shared by every driver.

use crate::fault::RetryPolicy;
use crate::node::NodeId;

/// Timing and fault parameters of a run (simulated or live).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Interval between consecutive readings of one sensor
    /// (the paper's Figure 11 assumes one reading per second).
    pub reading_period_ns: u64,
    /// One-hop link latency.
    pub link_latency_ns: u64,
    /// Stagger leaf reading phases across the period (avoids artificial
    /// synchronisation of all sensors on the same instant).
    pub stagger_readings: bool,
    /// Probability that any sent message is lost on the air (lossy
    /// radio). Dropped messages are still charged transmit energy and
    /// counted in [`crate::NetStats::dropped`]. A
    /// [`crate::FaultPlan`] loss burst can raise (never lower) this
    /// rate for a window.
    pub drop_probability: f64,
    /// Seed for the loss process and retry-timer jitter (both are
    /// deterministic per seed, via per-node streams).
    pub loss_seed: u64,
    /// Ack/retry protocol parameters for
    /// [`crate::EngineCtx::send_reliable`]. `None` (the default)
    /// disables the protocol: reliable sends then behave exactly like
    /// plain sends — no ids, no acks, no timers — and the engine is
    /// bit-identical to one without the protocol.
    pub reliability: Option<RetryPolicy>,
    /// Worker threads running same-instant callbacks on *different*
    /// nodes concurrently. `1` (the default) runs every callback inline
    /// on the calling thread; `0` means one worker per core. Results are
    /// bit-identical at every setting — see DESIGN.md §12 for the
    /// determinism argument. Parallelism
    /// only pays off when many nodes act at the same instant (e.g.
    /// `stagger_readings = false`).
    pub worker_threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            reading_period_ns: 1_000_000_000, // 1 s
            link_latency_ns: 5_000_000,       // 5 ms
            stagger_readings: true,
            drop_probability: 0.0,
            loss_seed: 0x10_55,
            reliability: None,
            worker_threads: 1,
        }
    }
}

impl SimConfig {
    /// Returns a copy with the given message-loss probability.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability in [0, 1]");
        self.drop_probability = p;
        self
    }

    /// Returns a copy with the given worker-thread count (`0` = one per
    /// core, `1` = inline on the calling thread).
    pub fn with_worker_threads(mut self, n: usize) -> Self {
        self.worker_threads = n;
        self
    }

    /// Returns a copy with the ack/retry protocol enabled under
    /// `policy`.
    pub fn with_reliability(mut self, policy: RetryPolicy) -> Self {
        self.reliability = Some(policy);
        self
    }

    /// The resolved worker count (`0` mapped to the machine's
    /// parallelism).
    pub fn resolved_workers(&self) -> usize {
        match self.worker_threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }
}

/// Supplies the per-sensor data streams. `seq` is the 0-based reading
/// index; returning `None` ends that sensor's stream early.
pub trait StreamSource {
    /// The `seq`-th reading of leaf `node`.
    fn next(&mut self, node: NodeId, seq: u64) -> Option<Vec<f64>>;
}

impl<F: FnMut(NodeId, u64) -> Option<Vec<f64>>> StreamSource for F {
    fn next(&mut self, node: NodeId, seq: u64) -> Option<Vec<f64>> {
        self(node, seq)
    }
}
