//! Deterministic fault injection.
//!
//! The paper's evaluation assumes a benign network; real deployments see
//! crashes, delayed and duplicated frames, loss bursts and dead sensors.
//! A [`FaultPlan`] describes such an adversity schedule *declaratively*:
//! the engine consults it at the event-queue level (when scheduling a
//! delivery, when firing a reading) so applications never need
//! fault-specific code paths. Every stochastic choice the plan makes is
//! drawn from a per-node RNG stream seeded from [`FaultPlan::seed`],
//! disjoint from the loss and retry streams — see the determinism notes
//! in the crate-level docs and `network.rs`.
//!
//! [`FaultPlan::none`] is the identity: with it (the default), the
//! engine takes exactly the pre-fault-layer code paths and produces
//! bit-identical executions.

use crate::node::NodeId;

/// A node outage: the node neither reads, relays, receives nor
/// acknowledges inside `[down_ns, up_ns)`. State survives the outage
/// (a reboot with persistent storage); messages addressed to a down
/// node are lost and counted in [`crate::NetStats::lost_to_crash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashing node.
    pub node: NodeId,
    /// Start of the outage (inclusive).
    pub down_ns: u64,
    /// End of the outage (exclusive); `None` = never restarts.
    pub up_ns: Option<u64>,
}

/// A sensing outage: the leaf takes no readings inside
/// `[from_ns, to_ns)` but keeps relaying and receiving (a failed
/// transducer on a live mote). Skipped readings are never fetched from
/// the stream source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropoutWindow {
    /// The affected leaf.
    pub node: NodeId,
    /// Start of the dropout (inclusive).
    pub from_ns: u64,
    /// End of the dropout (exclusive).
    pub to_ns: u64,
}

/// Per-link propagation faults. `from`/`to` of `None` match any node, so
/// a single wildcard rule degrades every link; the first matching rule
/// wins. Jitter permutes delivery order between frames sharing a link —
/// the reordering fault of the plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Sending side filter (`None` = any).
    pub from: Option<NodeId>,
    /// Receiving side filter (`None` = any).
    pub to: Option<NodeId>,
    /// Fixed extra one-way delay added to every matching frame.
    pub extra_delay_ns: u64,
    /// Uniform random extra delay in `[0, jitter_ns]` per frame
    /// (drawn from the sender's fault stream); induces reordering.
    pub jitter_ns: u64,
    /// Probability that a matching frame is delivered twice (the copy
    /// takes an independent delay draw). Duplicates are radio artifacts:
    /// they cost the receiver energy but the sender nothing extra.
    pub duplicate_probability: f64,
}

impl LinkFault {
    /// A wildcard rule with the given delay parameters and no
    /// duplication.
    pub fn delay_all(extra_delay_ns: u64, jitter_ns: u64) -> Self {
        Self {
            from: None,
            to: None,
            extra_delay_ns,
            jitter_ns,
            duplicate_probability: 0.0,
        }
    }

    /// Returns the rule with its duplication probability set.
    pub fn duplicate(mut self, probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&probability), "probability in [0, 1]");
        self.duplicate_probability = probability;
        self
    }

    fn matches(&self, from: NodeId, to: NodeId) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

/// A loss burst: inside `[from_ns, to_ns)` every frame is dropped with
/// `drop_probability` *in place of* the base
/// [`crate::SimConfig::drop_probability`] (the burst models interference
/// that swamps the ambient loss floor, so the larger of the two rates
/// applies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstLoss {
    /// Start of the burst (inclusive).
    pub from_ns: u64,
    /// End of the burst (exclusive).
    pub to_ns: u64,
    /// Loss probability during the burst.
    pub drop_probability: f64,
}

/// A declarative, seeded fault schedule for one simulation run.
///
/// All stochastic decisions (jitter, duplication, burst-loss draws) are
/// deterministic per `seed`, drawn from per-node streams independent of
/// the ambient loss process — adding or removing faults never perturbs
/// the draws of the faultless path (see `crate::protocol` docs).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-node fault streams.
    pub seed: u64,
    /// Node outages.
    pub crashes: Vec<CrashWindow>,
    /// Sensing outages.
    pub dropouts: Vec<DropoutWindow>,
    /// Link degradations (first matching rule wins).
    pub links: Vec<LinkFault>,
    /// Loss bursts.
    pub bursts: Vec<BurstLoss>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing, leaves the engine bit-identical
    /// to a run without a fault layer.
    pub fn none() -> Self {
        Self {
            seed: 0xFA_17,
            crashes: Vec::new(),
            dropouts: Vec::new(),
            links: Vec::new(),
            bursts: Vec::new(),
        }
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.dropouts.is_empty()
            && self.links.is_empty()
            && self.bursts.is_empty()
    }

    /// Returns a copy with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a crash window (`up_ns = None` for a permanent crash).
    pub fn crash(mut self, node: NodeId, down_ns: u64, up_ns: Option<u64>) -> Self {
        self.crashes.push(CrashWindow {
            node,
            down_ns,
            up_ns,
        });
        self
    }

    /// Adds a sensing dropout window.
    pub fn dropout(mut self, node: NodeId, from_ns: u64, to_ns: u64) -> Self {
        self.dropouts.push(DropoutWindow {
            node,
            from_ns,
            to_ns,
        });
        self
    }

    /// Adds a link-fault rule.
    pub fn link(mut self, fault: LinkFault) -> Self {
        self.links.push(fault);
        self
    }

    /// Adds a loss burst.
    pub fn burst(mut self, from_ns: u64, to_ns: u64, drop_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_probability),
            "probability in [0, 1]"
        );
        self.bursts.push(BurstLoss {
            from_ns,
            to_ns,
            drop_probability,
        });
        self
    }

    /// Is `node` inside a crash window at `time_ns`?
    pub fn is_down(&self, node: NodeId, time_ns: u64) -> bool {
        self.crashes.iter().any(|c| {
            c.node == node && c.down_ns <= time_ns && c.up_ns.is_none_or(|up| time_ns < up)
        })
    }

    /// Is `node`'s sensor inside a dropout window at `time_ns`?
    pub fn is_sensor_down(&self, node: NodeId, time_ns: u64) -> bool {
        self.dropouts
            .iter()
            .any(|d| d.node == node && d.from_ns <= time_ns && time_ns < d.to_ns)
    }

    /// Will `node` ever act again after `time_ns`? (`false` exactly when
    /// it sits in a crash window that never ends — the engine then stops
    /// rescheduling its readings, like the permanent-failure path.)
    pub fn recovers(&self, node: NodeId, time_ns: u64) -> bool {
        !self
            .crashes
            .iter()
            .any(|c| c.node == node && c.down_ns <= time_ns && c.up_ns.is_none())
    }

    /// The first link-fault rule matching `from → to`, if any.
    pub fn link_fault(&self, from: NodeId, to: NodeId) -> Option<&LinkFault> {
        self.links.iter().find(|l| l.matches(from, to))
    }

    /// The loss probability in force at `time_ns`: the largest active
    /// burst rate, floored at `base` (the ambient radio loss).
    pub fn loss_probability(&self, base: f64, time_ns: u64) -> f64 {
        self.bursts
            .iter()
            .filter(|b| b.from_ns <= time_ns && time_ns < b.to_ns)
            .map(|b| b.drop_probability)
            .fold(base, f64::max)
    }
}

/// Acknowledgement/retry parameters for reliable sends
/// ([`crate::EngineCtx::send_reliable`]). `None` in
/// [`crate::SimConfig::reliability`] disables the protocol entirely:
/// reliable sends then behave exactly like plain sends (no ids, no acks,
/// no timers) and the engine is bit-identical to the pre-retry engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Time the sender waits for an ack before the first retransmission.
    pub timeout_ns: u64,
    /// Retransmissions after the initial attempt; when all are spent the
    /// message is abandoned and counted in
    /// [`crate::NetStats::retry_exhausted`].
    pub max_retries: u32,
    /// Multiplier applied to the timeout per attempt (exponential
    /// backoff; 2.0 doubles the wait each time).
    pub backoff: f64,
    /// Uniform random extra wait in `[0, jitter_ns]` per timer, drawn
    /// from the sender's retry stream (decorrelates synchronized
    /// retries).
    pub jitter_ns: u64,
}

impl Default for RetryPolicy {
    /// 50 ms initial timeout (10× the default link latency), 3 retries,
    /// doubling backoff, no jitter.
    fn default() -> Self {
        Self {
            timeout_ns: 50_000_000,
            max_retries: 3,
            backoff: 2.0,
            jitter_ns: 0,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (0-based), without jitter:
    /// `timeout_ns · backoff^attempt`, saturating.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let scaled = self.timeout_ns as f64 * self.backoff.powi(attempt as i32);
        if scaled >= u64::MAX as f64 {
            u64::MAX
        } else {
            scaled as u64
        }
    }
}

/// What happens to a node's *application state* when it comes back from
/// a recoverable [`CrashWindow`].
///
/// The crash window itself only silences the node (no reads, relays or
/// acks); the policy decides what memory survives the outage. Warm
/// restarts are the checkpoint/restore story at mote granularity: a
/// node that persisted its model state periodically resumes from the
/// last snapshot instead of relearning from scratch, skipping the
/// replica-staleness degradation window a cold restart incurs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// State survives the outage untouched (battery-backed RAM / the
    /// pre-persistence engine behaviour). The default.
    #[default]
    Persistent,
    /// The node reboots with the application state it had at the start
    /// of the run — everything learned since is lost. Counted in
    /// [`crate::NetStats::cold_restarts`].
    Cold,
    /// The node checkpoints its application state every
    /// `checkpoint_every_ns` of simulated time and reboots from the
    /// most recent snapshot (pristine state if it never reached the
    /// first checkpoint). Counted in
    /// [`crate::NetStats::warm_restarts`].
    Warm {
        /// Interval between on-node checkpoint captures.
        checkpoint_every_ns: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_identity() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.is_down(NodeId(0), 0));
        assert!(!p.is_sensor_down(NodeId(0), 0));
        assert!(p.recovers(NodeId(0), u64::MAX));
        assert!(p.link_fault(NodeId(0), NodeId(1)).is_none());
        assert_eq!(p.loss_probability(0.25, 123), 0.25);
    }

    #[test]
    fn crash_windows_bound_downtime() {
        let p = FaultPlan::none().crash(NodeId(3), 100, Some(200));
        assert!(!p.is_down(NodeId(3), 99));
        assert!(p.is_down(NodeId(3), 100));
        assert!(p.is_down(NodeId(3), 199));
        assert!(!p.is_down(NodeId(3), 200));
        assert!(!p.is_down(NodeId(2), 150));
        assert!(p.recovers(NodeId(3), 150));
    }

    #[test]
    fn permanent_crash_never_recovers() {
        let p = FaultPlan::none().crash(NodeId(1), 50, None);
        assert!(p.is_down(NodeId(1), u64::MAX));
        assert!(p.recovers(NodeId(1), 49));
        assert!(!p.recovers(NodeId(1), 50));
    }

    #[test]
    fn link_rules_match_first() {
        let p = FaultPlan::none()
            .link(LinkFault {
                from: Some(NodeId(0)),
                to: None,
                extra_delay_ns: 7,
                jitter_ns: 0,
                duplicate_probability: 0.0,
            })
            .link(LinkFault::delay_all(99, 0));
        assert_eq!(
            p.link_fault(NodeId(0), NodeId(5)).unwrap().extra_delay_ns,
            7
        );
        assert_eq!(
            p.link_fault(NodeId(1), NodeId(5)).unwrap().extra_delay_ns,
            99
        );
    }

    #[test]
    fn burst_loss_floors_at_base() {
        let p = FaultPlan::none().burst(10, 20, 0.9).burst(15, 30, 0.4);
        assert_eq!(p.loss_probability(0.1, 5), 0.1);
        assert_eq!(p.loss_probability(0.1, 12), 0.9);
        assert_eq!(p.loss_probability(0.1, 17), 0.9); // max of overlapping
        assert_eq!(p.loss_probability(0.1, 25), 0.4);
        assert_eq!(p.loss_probability(0.5, 25), 0.5); // base floor
    }

    #[test]
    fn sensor_dropout_is_leaf_scoped() {
        let p = FaultPlan::none().dropout(NodeId(2), 5, 10);
        assert!(p.is_sensor_down(NodeId(2), 5));
        assert!(!p.is_sensor_down(NodeId(2), 10));
        assert!(!p.is_sensor_down(NodeId(0), 7));
        // A sensing dropout is not a node outage.
        assert!(!p.is_down(NodeId(2), 7));
    }

    #[test]
    fn backoff_is_exponential() {
        let r = RetryPolicy {
            timeout_ns: 100,
            max_retries: 5,
            backoff: 2.0,
            jitter_ns: 0,
        };
        assert_eq!(r.backoff_ns(0), 100);
        assert_eq!(r.backoff_ns(1), 200);
        assert_eq!(r.backoff_ns(3), 800);
    }
}
