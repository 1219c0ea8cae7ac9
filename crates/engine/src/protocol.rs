//! The driver core: the one batch loop and its pre/post phases.
//!
//! Every run of a [`crate::Network`] — to quiescence, in slices, inline
//! or on a worker pool — advances through this one loop. Each turn of
//! the loop takes a *batch*
//! (every event at the earliest queued instant, in scheduling order)
//! and puts each event through three phases:
//!
//! * the **pre phase** (`Engine::classify`, in batch order) decides
//!   what (if any) callback the event runs and what engine work
//!   follows; only receive-energy accumulation, integer counters, stream
//!   fetches and dedup-table updates happen here — never queue
//!   scheduling or RNG draws;
//! * the **callback phase** runs the engine callback. With
//!   [`SimConfig::resolved_workers`] `<= 1` it runs inline on the
//!   calling thread, at once, with no channel hop; otherwise it is
//!   queued, and once the batch is classified each node's queued
//!   callbacks go, in batch order, to one thread of a scoped worker
//!   pool. Callbacks on different nodes touch disjoint engines, so
//!   neither choice can change an outcome;
//! * the **post phase** (`Engine::finish`, in batch order) replays every
//!   side effect that schedules, draws randomness or touches the pending
//!   table — for each event as soon as its callback output exists and
//!   every earlier event of the batch is finished.
//!
//! Three facts make the outcome independent of where callbacks run:
//!
//! 1. **Batches.** Events are totally ordered by `(time, scheduling
//!    seq)`. A post phase schedules at `time + latency`/`period`, or at
//!    the same instant with a larger seq, which lands after every event
//!    already queued for it — so batch boundaries never cut a
//!    happens-before edge.
//! 2. **Isolation.** Engine state is per node and an [`EngineCtx`] only
//!    buffers sends, so callbacks on different nodes are independent,
//!    and callbacks on one node run in batch order.
//! 3. **Replay.** Everything shared — stream fetches, energy sums,
//!    statistics, the RNG streams, the pending/dedup tables, queue
//!    sequence numbers, restart revivals and captures — runs on the
//!    calling thread in batch order, and the pre phase never reads what
//!    a post phase writes. So running an event's post phase before or
//!    after the next event's pre phase is the same execution: a
//!    retransmission at batch position `k` followed by an ack at `k+1`
//!    replays in exactly that order either way.
//!
//! Because every run goes through this one code path, slicings and
//! worker counts cannot drift apart: statistics, RNG draw order,
//! floating-point accumulation order, queue sequence numbers and
//! checkpoint bytes are bit-for-bit the same. The 1-vs-4 worker
//! conformance suite in `snod-bench` and the resume suites pin it.
//!
//! ## Per-node RNG streams and the bit-exactness argument
//!
//! Every stochastic engine process draws from its own *per-node* seeded
//! stream, decorrelated by a splitmix64 finalizer over
//! `(base seed, node)`:
//!
//! * **loss draws** — base [`SimConfig::loss_seed`];
//! * **fault draws** (delay jitter, duplication) — base
//!   [`FaultPlan::seed`];
//! * **retry-timer jitter** — base `loss_seed`, distinct salt.
//!
//! A stream is consulted *only* when the corresponding effect has
//! non-zero probability at that instant (e.g. no loss draw when the
//! effective drop probability is `0`). Three properties follow:
//!
//! 1. With [`FaultPlan::none`] and [`SimConfig::reliability`] `= None`,
//!    no fault or retry stream is ever touched and loss draws are
//!    exactly those of the fault-free engine: the fault layer is
//!    observationally absent, bit for bit.
//! 2. Adding a fault on one link or node never perturbs the draws made
//!    for any other node, because streams never interleave — the
//!    faultless part of a run keeps its exact behaviour.
//! 3. The post phase replays every draw in batch order, which *per
//!    stream* equals event order, so inline and pooled callback phases
//!    stay bit-identical with faults enabled.

use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Mutex};

use snod_persist::{Persist, PersistError, SeededRng};

use crate::config::{SimConfig, StreamSource};
use crate::detector::{CtxOut, DetectorEngine, EngineCtx};
use crate::energy::EnergyModel;
use crate::event::{Event, EventQueue};
use crate::fault::{FaultPlan, RestartPolicy, RetryPolicy};
use crate::message::{Wire, ACK_BYTES, HEADER_BYTES, MSG_ID_BYTES};
use crate::node::NodeId;
use crate::stats::NetStats;
use crate::topology::Hierarchy;

#[cfg(feature = "fault-trace")]
macro_rules! ftrace {
    ($trace:expr, $($arg:tt)*) => {
        $trace.push(format!($($arg)*))
    };
}
#[cfg(not(feature = "fault-trace"))]
macro_rules! ftrace {
    ($($arg:tt)*) => {{}};
}

/// The fault-decision log. Only populated with the `fault-trace`
/// feature; always present so the engine plumbing is feature-free.
pub(crate) type FaultTrace = Vec<String>;

/// splitmix64 finalizer over `(base, salt)` — decorrelates the per-node
/// stream seeds.
fn mix(base: u64, salt: u64) -> u64 {
    let mut z = base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Salt separating the loss streams from the retry streams (both are
/// derived from [`SimConfig::loss_seed`]).
const LOSS_SALT: u64 = 0x4C4F_5353; // "LOSS"
const RETRY_SALT: u64 = 0x5254_5259; // "RTRY"
pub(crate) const FAULT_SALT: u64 = 0xFA17_FA17;

/// A structural fingerprint of the run parameters a checkpoint does
/// *not* carry but bit-identical resume depends on: topology shape,
/// every [`SimConfig`] field except `worker_threads` (runs are
/// bit-identical across worker counts), the fault-plan seed and the
/// restart policy.
pub(crate) fn fingerprint(
    topo: &Hierarchy,
    cfg: &SimConfig,
    plan_seed: u64,
    policy: RestartPolicy,
) -> u64 {
    let mut h = mix(0x534E_4F44, topo.node_count() as u64); // "SNOD"
    h = mix(h, topo.level_count() as u64);
    h = mix(h, cfg.reading_period_ns);
    h = mix(h, cfg.link_latency_ns);
    h = mix(h, u64::from(cfg.stagger_readings));
    h = mix(h, cfg.drop_probability.to_bits());
    h = mix(h, cfg.loss_seed);
    match cfg.reliability {
        None => h = mix(h, 0),
        Some(p) => {
            h = mix(h, 1);
            h = mix(h, p.timeout_ns);
            h = mix(h, u64::from(p.max_retries));
            h = mix(h, p.backoff.to_bits());
            h = mix(h, p.jitter_ns);
        }
    }
    h = mix(h, plan_seed);
    match policy {
        RestartPolicy::Persistent => mix(h, 0),
        RestartPolicy::Cold => mix(h, 1),
        RestartPolicy::Warm {
            checkpoint_every_ns,
        } => mix(mix(h, 2), checkpoint_every_ns),
    }
}

/// One callback a node must run during a batch.
enum Task<P> {
    /// [`DetectorEngine::ingest`] with this value.
    Read(Vec<f64>),
    /// [`DetectorEngine::on_message`] from this sender with this payload.
    Msg(NodeId, P),
    /// [`DetectorEngine::on_timer`] with this timer id.
    Timer(u64),
}

impl<P: Wire> Task<P> {
    /// Runs this callback on `app` at `time` and returns its recorded
    /// side effects.
    fn run_on<A: DetectorEngine<P>>(
        self,
        app: &mut A,
        node: NodeId,
        time: u64,
        topo: &Hierarchy,
    ) -> CtxOut<P> {
        let mut ctx = EngineCtx::new(node, time, topo);
        match self {
            Task::Read(value) => app.ingest(&mut ctx, &value),
            Task::Msg(from, payload) => app.on_message(&mut ctx, from, payload),
            Task::Timer(id) => app.on_timer(&mut ctx, id),
        }
        ctx.into_out()
    }
}

/// Engine work owed *after* an event's callback (the post phase). All
/// queue scheduling, RNG draws, transmit accounting and pending-table
/// mutation live here, so they replay in identical order.
enum Post {
    /// Flush the callback's outbox, maybe ack a reliable delivery,
    /// maybe schedule the node's next reading.
    Callback {
        /// The node the callback ran on (sender of its outbox).
        node: NodeId,
        /// `Some((node, seq))`: schedule reading `seq` one period later.
        next_reading: Option<(NodeId, u64)>,
        /// `Some((receiver, original_sender, msg_id))`: transmit an ack.
        ack: Option<(NodeId, NodeId, u64)>,
    },
    /// An ack arrived: retire the pending entry.
    AckDone {
        /// Acknowledged message id.
        msg_id: u64,
    },
    /// A retransmission timer fired.
    RetryTimer {
        /// The message the timer guards.
        msg_id: u64,
    },
}

/// The pre-phase verdict on one event.
enum Pre<P> {
    /// Nothing to do (dead target, ended stream, permanent crash).
    Skip,
    /// Engine-only work, no application callback.
    Engine(Post),
    /// Run a callback on `node`, then do `post`.
    Run {
        /// The node the callback runs on.
        node: NodeId,
        /// The callback to run.
        task: Task<P>,
        /// The post-phase work owed after the callback.
        post: Post,
    },
}

/// A message awaiting acknowledgement.
pub(crate) struct Pending<P> {
    from: NodeId,
    to: NodeId,
    payload: P,
    attempts: u32,
}

snod_persist::persist_struct! {
    impl[P: Persist] Pending<P> {
        from,
        to,
        payload,
        attempts,
    }
    check: none
}

/// The complete mutable protocol state of one [`crate::Network`]: the
/// event queue (doubling as the timer wheel), traffic statistics, the
/// per-node RNG stream families, the reliability protocol's pending and
/// dedup tables, scheduled failures, dead flags and the clock.
///
/// The network owns one of these, borrows the loop's engine over it
/// per run, and persists it as one unit — the [`Persist`] impl writes
/// the fields in the exact order the historic simulator checkpoint
/// format uses, so the bytes stay stable.
pub(crate) struct EngineState<P: Wire> {
    /// Pending events / timers, ordered by `(time, scheduling seq)`.
    pub(crate) queue: EventQueue<P>,
    /// Traffic and energy accounting.
    pub(crate) stats: NetStats,
    /// The driver clock: the latest event time processed (ns).
    pub(crate) clock_ns: u64,
    /// Per-node loss-draw streams.
    pub(crate) loss_rngs: Vec<SeededRng>,
    /// Per-node fault-effect streams (jitter, duplication).
    pub(crate) fault_rngs: Vec<SeededRng>,
    /// Per-node retry-jitter streams.
    pub(crate) retry_rngs: Vec<SeededRng>,
    /// Reliable messages awaiting acknowledgement, by message id.
    pub(crate) pending: HashMap<u64, Pending<P>>,
    /// Per-node sets of reliable message ids already delivered (dedup).
    pub(crate) seen: Vec<HashSet<u64>>,
    /// The next reliable message id to assign.
    pub(crate) next_msg_id: u64,
    /// Scheduled permanent node failures `(time_ns, node)`, unsorted.
    pub(crate) failures: Vec<(u64, NodeId)>,
    /// Per-node dead flags.
    pub(crate) dead: Vec<bool>,
    /// True once the initial readings have been seeded.
    pub(crate) started: bool,
    /// The fault-decision log (`fault-trace` feature only).
    pub(crate) trace: FaultTrace,
}

impl<P: Wire> EngineState<P> {
    /// Fresh state for `n` nodes under `cfg` and `plan` (seeds the
    /// three per-node stream families).
    pub(crate) fn new(n: usize, levels: usize, cfg: &SimConfig, plan: &FaultPlan) -> Self {
        Self {
            queue: EventQueue::new(),
            stats: NetStats::new(n, levels),
            clock_ns: 0,
            loss_rngs: Self::streams(n, cfg.loss_seed ^ LOSS_SALT),
            fault_rngs: Self::streams(n, plan.seed ^ FAULT_SALT),
            retry_rngs: Self::streams(n, cfg.loss_seed ^ RETRY_SALT),
            pending: HashMap::new(),
            seen: vec![HashSet::new(); n],
            next_msg_id: 0,
            failures: Vec::new(),
            dead: vec![false; n],
            started: false,
            trace: FaultTrace::new(),
        }
    }

    /// One per-node RNG stream family, decorrelated per node.
    pub(crate) fn streams(n: usize, base: u64) -> Vec<SeededRng> {
        (0..n)
            .map(|i| SeededRng::seed_from_u64(mix(base, i as u64)))
            .collect()
    }

    /// Schedules every leaf's first reading (staggered or synchronous).
    pub(crate) fn seed_initial_readings(&mut self, topo: &Hierarchy, cfg: &SimConfig) {
        let leaves = topo.leaves();
        let n = leaves.len().max(1) as u64;
        for (i, &leaf) in leaves.iter().enumerate() {
            let phase = if cfg.stagger_readings {
                (i as u64 * cfg.reading_period_ns) / n
            } else {
                0
            };
            self.queue
                .schedule(phase, Event::Reading { node: leaf, seq: 0 });
        }
    }

    /// Borrows the processing engine over this state for one run of the
    /// batch loop.
    pub(crate) fn engine<'a>(
        &'a mut self,
        topo: &'a Hierarchy,
        cfg: SimConfig,
        energy: &'a EnergyModel,
        plan: &'a FaultPlan,
    ) -> Engine<'a, P> {
        Engine {
            topo,
            cfg,
            energy,
            plan,
            queue: &mut self.queue,
            stats: &mut self.stats,
            loss_rngs: &mut self.loss_rngs,
            fault_rngs: &mut self.fault_rngs,
            retry_rngs: &mut self.retry_rngs,
            pending: &mut self.pending,
            seen: &mut self.seen,
            next_msg_id: &mut self.next_msg_id,
            failures: &mut self.failures,
            dead: &mut self.dead,
            clock_ns: &mut self.clock_ns,
            trace: &mut self.trace,
        }
    }
}

// The state is saved field by field in the exact order of the historic
// simulator checkpoint payload, so pre-extraction golden checkpoints
// remain bit-identical. The trace is diagnostic and not persisted.
snod_persist::persist_struct! {
    impl[P: Wire + Persist] EngineState<P> {
        started,
        clock_ns,
        queue,
        stats,
        loss_rngs,
        fault_rngs,
        retry_rngs,
        pending,
        seen,
        next_msg_id,
        failures,
        dead,
    }
    derived {
        trace: FaultTrace::new(),
    }
    check: none
}

impl<P: Wire> EngineState<P> {
    /// Shape-validates a freshly loaded state against the topology:
    /// every per-node vector must have `n` entries and the per-level
    /// statistics must match `levels`.
    pub(crate) fn shape_matches(&self, n: usize, levels: usize) -> bool {
        [
            self.loss_rngs.len(),
            self.fault_rngs.len(),
            self.retry_rngs.len(),
            self.seen.len(),
            self.dead.len(),
            self.stats.bytes_per_node.len(),
            self.stats.messages_per_node.len(),
        ]
        .iter()
        .all(|&len| len == n)
            && self.stats.messages_per_level.len() == levels
    }
}

/// The event-processing engine, borrowing an [`EngineState`] plus the
/// run's immutable parameters: the one implementation of batch popping,
/// the *pre* phase (classification, stream fetches, receive accounting,
/// dedup) and the *post* phase (outbox flushing, acks, retries,
/// scheduling).
pub(crate) struct Engine<'a, P: Wire> {
    topo: &'a Hierarchy,
    cfg: SimConfig,
    energy: &'a EnergyModel,
    plan: &'a FaultPlan,
    queue: &'a mut EventQueue<P>,
    stats: &'a mut NetStats,
    loss_rngs: &'a mut [SeededRng],
    fault_rngs: &'a mut [SeededRng],
    retry_rngs: &'a mut [SeededRng],
    pending: &'a mut HashMap<u64, Pending<P>>,
    seen: &'a mut [HashSet<u64>],
    next_msg_id: &'a mut u64,
    failures: &'a mut Vec<(u64, NodeId)>,
    dead: &'a mut [bool],
    clock_ns: &'a mut u64,
    #[allow(dead_code)] // written only under the fault-trace feature
    trace: &'a mut FaultTrace,
}

impl<P: Wire> Engine<'_, P> {
    /// Starts the next batch: the earliest queued instant, if it is at
    /// or before `stop_ns`. Advances the clock and applies the failures
    /// due by then. Peek-then-pop: an event past the stop time stays
    /// queued, so a later run (or a restored checkpoint) resumes with the
    /// queue exactly as the uninterrupted run saw it.
    fn next_batch(&mut self, stop_ns: u64) -> Option<u64> {
        let time = self.queue.peek_time().filter(|&t| t <= stop_ns)?;
        *self.clock_ns = (*self.clock_ns).max(time);
        self.apply_failures(time);
        Some(time)
    }

    /// Pops the batch's next event, in scheduling order (`None` once no
    /// event at `time` is left).
    fn pop_at(&mut self, time: u64) -> Option<Event<P>> {
        if self.queue.peek_time() != Some(time) {
            return None;
        }
        self.queue.pop().map(|(_, event)| event)
    }

    /// Marks every scheduled failure due at `time` as dead.
    fn apply_failures(&mut self, time: u64) {
        if self.failures.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.failures.len() {
            if self.failures[i].0 <= time {
                let (_, n) = self.failures.swap_remove(i);
                self.dead[n.index()] = true;
                ftrace!(self.trace, "{time}: {n:?} failed permanently");
            } else {
                i += 1;
            }
        }
    }

    /// The *pre* phase of one event: decides what (if any) callback to
    /// run and what engine work follows. Only receive-energy
    /// accumulation, integer counters, stream fetches and dedup-table
    /// updates happen here — never queue scheduling or RNG draws, which
    /// belong to the post phase (see the determinism argument).
    fn classify<S: StreamSource>(
        &mut self,
        time: u64,
        event: Event<P>,
        source: &mut S,
        readings_per_leaf: u64,
    ) -> Pre<P> {
        snod_obs::counter!("simnet.events").incr();
        match event {
            Event::Reading { node, seq } => {
                if self.dead[node.index()] {
                    return Pre::Skip; // a failed sensor stops reading for good
                }
                let down = self.plan.is_down(node, time);
                if down && !self.plan.recovers(node, time) {
                    return Pre::Skip; // permanent crash: like a failure
                }
                let next_reading = (seq + 1 < readings_per_leaf).then_some((node, seq + 1));
                let post = Post::Callback {
                    node,
                    next_reading,
                    ack: None,
                };
                if down || self.plan.is_sensor_down(node, time) {
                    // The reading is missed (never fetched from the
                    // stream) but the schedule marches on.
                    snod_obs::counter!("simnet.fault.missed_readings").incr();
                    ftrace!(self.trace, "{time}: {node:?} missed reading {seq}");
                    return Pre::Engine(post);
                }
                match source.next(node, seq) {
                    Some(value) => Pre::Run {
                        node,
                        task: Task::Read(value),
                        post,
                    },
                    None => Pre::Skip, // stream ended early
                }
            }
            Event::Deliver { from, to, payload } => {
                if self.dead[to.index()] || self.plan.is_down(to, time) {
                    self.stats.lost_to_crash += 1;
                    snod_obs::counter!("simnet.lost_to_crash").incr();
                    return Pre::Skip; // delivered into the void
                }
                self.stats.rx_joules += self.energy.rx_joules(payload.size_bytes() + HEADER_BYTES);
                Pre::Run {
                    node: to,
                    task: Task::Msg(from, payload),
                    post: Post::Callback {
                        node: to,
                        next_reading: None,
                        ack: None,
                    },
                }
            }
            Event::DeliverReliable {
                from,
                to,
                msg_id,
                payload,
            } => {
                if self.dead[to.index()] || self.plan.is_down(to, time) {
                    // No ack: the sender's timer will retransmit.
                    self.stats.lost_to_crash += 1;
                    snod_obs::counter!("simnet.lost_to_crash").incr();
                    return Pre::Skip;
                }
                self.stats.rx_joules += self
                    .energy
                    .rx_joules(payload.size_bytes() + HEADER_BYTES + MSG_ID_BYTES);
                let post = Post::Callback {
                    node: to,
                    next_reading: None,
                    // Re-ack even duplicates, so a sender whose ack was
                    // lost eventually stops retransmitting.
                    ack: Some((to, from, msg_id)),
                };
                if self.seen[to.index()].insert(msg_id) {
                    Pre::Run {
                        node: to,
                        task: Task::Msg(from, payload),
                        post,
                    }
                } else {
                    self.stats.duplicates_suppressed += 1;
                    snod_obs::counter!("simnet.duplicates_suppressed").incr();
                    Pre::Engine(post)
                }
            }
            Event::Ack { to, msg_id, .. } => {
                if self.dead[to.index()] || self.plan.is_down(to, time) {
                    return Pre::Skip; // ack lost: the sender keeps retrying
                }
                self.stats.rx_joules += self.energy.rx_joules(ACK_BYTES);
                Pre::Engine(Post::AckDone { msg_id })
            }
            Event::Retry { msg_id } => Pre::Engine(Post::RetryTimer { msg_id }),
            Event::AppTimer { node, id } => {
                if self.dead[node.index()] || self.plan.is_down(node, time) {
                    return Pre::Skip; // a crashed node's timers are lost
                }
                Pre::Run {
                    node,
                    task: Task::Timer(id),
                    post: Post::Callback {
                        node,
                        next_reading: None,
                        ack: None,
                    },
                }
            }
        }
    }

    /// The *post* phase of one event: every side effect that schedules,
    /// draws randomness or touches the pending table, replayed in exact
    /// batch order.
    fn finish(&mut self, time: u64, out: CtxOut<P>, post: Post) {
        self.stats.degraded_scores += out.degraded_scores;
        self.stats.local_fallbacks += out.local_fallbacks;
        match post {
            Post::Callback {
                node,
                next_reading,
                ack,
            } => {
                self.flush(out.outbox, node, time);
                for (delay, id) in out.timers {
                    self.queue
                        .schedule(time + delay, Event::AppTimer { node, id });
                }
                if let Some((receiver, sender, msg_id)) = ack {
                    self.transmit_ack(receiver, sender, msg_id, time);
                }
                if let Some((n, seq)) = next_reading {
                    self.queue.schedule(
                        time + self.cfg.reading_period_ns,
                        Event::Reading { node: n, seq },
                    );
                }
            }
            Post::AckDone { msg_id } => {
                self.pending.remove(&msg_id);
            }
            Post::RetryTimer { msg_id } => self.handle_retry(msg_id, time),
        }
    }

    /// Turns one callback's outbox into scheduled deliveries: per-send
    /// statistics, transmit energy, the loss process and fault effects,
    /// plus — for reliable sends — message-id assignment, the pending
    /// table and the first retry timer. This is the single definition of
    /// send semantics.
    fn flush(&mut self, outbox: Vec<(NodeId, P, bool)>, node: NodeId, time: u64) {
        for (to, payload, reliable) in outbox {
            match (reliable, self.cfg.reliability) {
                (true, Some(policy)) => {
                    let msg_id = *self.next_msg_id;
                    *self.next_msg_id += 1;
                    self.pending.insert(
                        msg_id,
                        Pending {
                            from: node,
                            to,
                            payload: payload.clone(),
                            attempts: 0,
                        },
                    );
                    self.transmit(node, to, time, Some(msg_id), payload);
                    let wait = policy.backoff_ns(0) + self.retry_jitter(node, policy);
                    self.queue.schedule(time + wait, Event::Retry { msg_id });
                }
                // Without a reliability policy, a reliable send *is* a
                // plain send — bit for bit.
                _ => self.transmit(node, to, time, None, payload),
            }
        }
    }

    /// Puts one application frame on the air: statistics, transmit
    /// energy, then the radio (loss + fault effects) decides delivery.
    fn transmit(&mut self, from: NodeId, to: NodeId, time: u64, msg_id: Option<u64>, payload: P) {
        let bytes =
            payload.size_bytes() + HEADER_BYTES + if msg_id.is_some() { MSG_ID_BYTES } else { 0 };
        let dist = self.topo.location(from).distance(&self.topo.location(to));
        self.stats
            .record_send(from, self.topo.level_of(from), bytes);
        snod_obs::counter!("simnet.sends").incr();
        snod_obs::counter!("simnet.send_bytes").add(bytes as u64);
        // Transmit energy is spent whether or not the frame survives.
        self.stats.tx_joules += self.energy.tx_joules(bytes, dist);
        let Some((delay, dup_delay)) = self.radio(from, to, time) else {
            return; // lost on the air (counted in `dropped`)
        };
        let make = |payload: P| match msg_id {
            Some(id) => Event::DeliverReliable {
                from,
                to,
                msg_id: id,
                payload,
            },
            None => Event::Deliver { from, to, payload },
        };
        match dup_delay {
            Some(d2) => {
                self.stats.duplicates += 1;
                snod_obs::counter!("simnet.duplicates").incr();
                self.queue.schedule(time + delay, make(payload.clone()));
                self.queue.schedule(time + d2, make(payload));
            }
            None => self.queue.schedule(time + delay, make(payload)),
        }
    }

    /// Puts one engine-level ack on the air, from the receiver of a
    /// reliable message back to its sender. Acks ride the same radio —
    /// they can be lost, delayed and duplicated like any frame — and are
    /// charged energy, but are accounted separately from application
    /// traffic ([`NetStats::acks`]/[`NetStats::ack_bytes`]).
    fn transmit_ack(&mut self, from: NodeId, to: NodeId, msg_id: u64, time: u64) {
        let dist = self.topo.location(from).distance(&self.topo.location(to));
        self.stats.acks += 1;
        snod_obs::counter!("simnet.acks").incr();
        self.stats.ack_bytes += ACK_BYTES as u64;
        self.stats.tx_joules += self.energy.tx_joules(ACK_BYTES, dist);
        let Some((delay, dup_delay)) = self.radio(from, to, time) else {
            return;
        };
        self.queue
            .schedule(time + delay, Event::Ack { from, to, msg_id });
        if let Some(d2) = dup_delay {
            self.stats.duplicates += 1;
            snod_obs::counter!("simnet.duplicates").incr();
            self.queue
                .schedule(time + d2, Event::Ack { from, to, msg_id });
        }
    }

    /// The radio's verdict on one frame from `from` to `to` at `time`:
    /// `None` = lost (counted), otherwise the delivery delay plus an
    /// optional duplicate-copy delay. Draw order is fixed — loss, then
    /// jitter, then duplication, then the copy's jitter — and every draw
    /// is gated on its effect having non-zero probability, so runs
    /// without that effect never consult the stream.
    fn radio(&mut self, from: NodeId, to: NodeId, time: u64) -> Option<(u64, Option<u64>)> {
        let p = self.plan.loss_probability(self.cfg.drop_probability, time);
        if p > 0.0 && rand::Rng::gen::<f64>(&mut self.loss_rngs[from.index()]) < p {
            self.stats.dropped += 1;
            snod_obs::counter!("simnet.drops").incr();
            ftrace!(self.trace, "{time}: frame {from:?}->{to:?} lost (p={p})");
            return None;
        }
        let mut delay = self.cfg.link_latency_ns;
        let mut dup = None;
        if let Some(lf) = self.plan.link_fault(from, to) {
            snod_obs::counter!("simnet.fault.link_hits").incr();
            delay += lf.extra_delay_ns;
            if lf.jitter_ns > 0 {
                delay += rand::Rng::gen_range(&mut self.fault_rngs[from.index()], 0..=lf.jitter_ns);
            }
            if lf.duplicate_probability > 0.0
                && rand::Rng::gen::<f64>(&mut self.fault_rngs[from.index()])
                    < lf.duplicate_probability
            {
                let mut d2 = self.cfg.link_latency_ns + lf.extra_delay_ns;
                if lf.jitter_ns > 0 {
                    d2 +=
                        rand::Rng::gen_range(&mut self.fault_rngs[from.index()], 0..=lf.jitter_ns);
                }
                dup = Some(d2);
            }
        }
        Some((delay, dup))
    }

    /// Jitter for the next retry timer of `node` (0 without jitter — the
    /// retry stream is then never consulted).
    fn retry_jitter(&mut self, node: NodeId, policy: RetryPolicy) -> u64 {
        if policy.jitter_ns == 0 {
            0
        } else {
            rand::Rng::gen_range(&mut self.retry_rngs[node.index()], 0..=policy.jitter_ns)
        }
    }

    /// A retransmission timer fired: if the message is still unacked,
    /// retransmit (unless the sender is crashed — a down sender burns
    /// the attempt without airing a frame) and re-arm the timer with
    /// exponential backoff; give up after `max_retries`.
    fn handle_retry(&mut self, msg_id: u64, time: u64) {
        let Some(policy) = self.cfg.reliability else {
            return;
        };
        let Some(p) = self.pending.get(&msg_id) else {
            return; // acked in the meantime
        };
        let (from, to, attempts) = (p.from, p.to, p.attempts);
        if self.dead[from.index()] || !self.plan.recovers(from, time) {
            // The sender is gone for good: nobody will ever retransmit.
            self.pending.remove(&msg_id);
            self.stats.retry_exhausted += 1;
            snod_obs::counter!("simnet.retry_exhausted").incr();
            return;
        }
        if attempts >= policy.max_retries {
            self.pending.remove(&msg_id);
            self.stats.retry_exhausted += 1;
            snod_obs::counter!("simnet.retry_exhausted").incr();
            ftrace!(
                self.trace,
                "{time}: msg {msg_id} abandoned after {attempts} retries"
            );
            return;
        }
        if self.plan.is_down(from, time) {
            // Crashed (but recovering) sender: the attempt is spent, the
            // timer keeps running, no frame is aired.
            self.pending
                .get_mut(&msg_id)
                .expect("pending entry present")
                .attempts += 1;
        } else {
            let payload = {
                let p = self
                    .pending
                    .get_mut(&msg_id)
                    .expect("pending entry present");
                p.attempts += 1;
                p.payload.clone()
            };
            self.stats.retransmissions += 1;
            snod_obs::counter!("simnet.retransmissions").incr();
            self.transmit(from, to, time, Some(msg_id), payload);
        }
        let wait = policy.backoff_ns(attempts + 1) + self.retry_jitter(from, policy);
        self.queue.schedule(time + wait, Event::Retry { msg_id });
    }
}

/// Decodes one application's state from restart-snapshot bytes.
type ReviveFn<A> = fn(&[u8]) -> Result<A, PersistError>;

/// Per-node restart machinery behind
/// [`crate::Network::with_restart_policy`]:
/// pristine start-of-run snapshots, the latest periodic on-node
/// checkpoint, per-node capture deadlines, and the pending crash
/// recoveries of the installed fault plan. The `snap`/`revive` function
/// pointers are monomorphized from `A`'s [`Persist`] impl when the
/// policy is installed, so running needs no `A: Persist` bound. Under
/// the default [`RestartPolicy::Persistent`] every hook is a no-op.
pub(crate) struct RestartState<A> {
    pub(crate) policy: RestartPolicy,
    /// Serialized start-of-run application state, one entry per node
    /// (empty under [`RestartPolicy::Persistent`]).
    pristine: Vec<Vec<u8>>,
    /// The most recent periodic checkpoint per node (Warm only).
    pub(crate) last_ckpt: Vec<Option<Vec<u8>>>,
    /// Next capture deadline per node (Warm only).
    pub(crate) next_ckpt_ns: Vec<u64>,
    /// Outstanding crash recoveries `(up_ns, node index)`, unsorted.
    pub(crate) recoveries: Vec<(u64, u32)>,
    snap: Option<fn(&A) -> Vec<u8>>,
    revive: Option<ReviveFn<A>>,
}

impl<A> Default for RestartState<A> {
    fn default() -> Self {
        Self {
            policy: RestartPolicy::Persistent,
            pristine: Vec::new(),
            last_ckpt: Vec::new(),
            next_ckpt_ns: Vec::new(),
            recoveries: Vec::new(),
            snap: None,
            revive: None,
        }
    }
}

impl<A> RestartState<A> {
    /// The machinery for `policy`, snapshotting `apps` as the pristine
    /// state a Cold restart returns to.
    pub(crate) fn new(policy: RestartPolicy, apps: &[A]) -> Self
    where
        A: Persist,
    {
        if policy == RestartPolicy::Persistent {
            return Self::default();
        }
        let n = apps.len();
        Self {
            policy,
            pristine: apps.iter().map(Persist::to_bytes).collect(),
            last_ckpt: vec![None; n],
            next_ckpt_ns: match policy {
                RestartPolicy::Warm {
                    checkpoint_every_ns,
                } => vec![checkpoint_every_ns; n],
                _ => Vec::new(),
            },
            recoveries: Vec::new(),
            snap: Some(<A as Persist>::to_bytes),
            revive: Some(<A as Persist>::from_bytes),
        }
    }

    /// Arms the recoveries of `plan`'s crash windows (once, at the start
    /// of a run).
    pub(crate) fn arm(&mut self, plan: &FaultPlan) {
        if self.policy != RestartPolicy::Persistent {
            self.recoveries = plan
                .crashes
                .iter()
                .filter_map(|c| c.up_ns.map(|up| (up, c.node.0)))
                .collect();
        }
    }

    /// Drains and returns the node indices due for recovery at `time`,
    /// in ascending order.
    fn due_recoveries(&mut self, time: u64) -> Vec<usize> {
        if self.recoveries.is_empty() {
            return Vec::new();
        }
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.recoveries.len() {
            if self.recoveries[i].0 <= time {
                due.push(self.recoveries.swap_remove(i).1 as usize);
            } else {
                i += 1;
            }
        }
        due.sort_unstable();
        due
    }

    /// The application state node `idx` reboots with, per policy
    /// (`None` under Persistent: state survives untouched).
    fn revive_app(&mut self, idx: usize, stats: &mut NetStats) -> Option<A> {
        let revive = self.revive?;
        let bytes: &[u8] = match self.policy {
            RestartPolicy::Persistent => return None,
            RestartPolicy::Cold => {
                stats.cold_restarts += 1;
                &self.pristine[idx]
            }
            RestartPolicy::Warm { .. } => {
                stats.warm_restarts += 1;
                self.last_ckpt[idx]
                    .as_deref()
                    .unwrap_or(self.pristine[idx].as_slice())
            }
        };
        // The bytes were written by this engine from a live app, so a
        // decode failure is an engine bug, not bad input.
        Some(revive(bytes).expect("restart snapshot decodes"))
    }

    /// Is a periodic capture due for `node` at `time`? (Cheap check so
    /// the pooled phase only locks the app when needed.)
    fn capture_due(&self, time: u64, node: NodeId) -> bool {
        matches!(self.policy, RestartPolicy::Warm { .. })
            && self
                .next_ckpt_ns
                .get(node.index())
                .is_some_and(|&due| time >= due)
    }

    /// Captures `app` as `node`'s latest checkpoint and re-arms the
    /// deadline. The loop runs this in the pre phase, before the node's
    /// first callback of the instant, so the bytes do not depend on how
    /// the callback phase runs.
    fn capture(&mut self, time: u64, node: NodeId, app: &A) {
        let RestartPolicy::Warm {
            checkpoint_every_ns,
        } = self.policy
        else {
            return;
        };
        let Some(snap) = self.snap else { return };
        self.last_ckpt[node.index()] = Some(snap(app));
        self.next_ckpt_ns[node.index()] = time + checkpoint_every_ns;
    }
}

/// The callback phase of one batch: inline ([`Inline`]) or on the worker
/// pool ([`Pool`]). Either way callbacks on one node run in batch order.
trait CallbackPhase<P, A> {
    /// Applies `f` to node `idx`'s engine while no callback is in flight
    /// (restart revive and capture).
    fn with_app(&mut self, idx: usize, f: impl FnOnce(&mut A));

    /// Runs `task` on `node` at `time` and returns its output, or queues
    /// it and returns `None`.
    fn submit(&mut self, time: u64, node: NodeId, task: Task<P>) -> Option<CtxOut<P>>;

    /// Runs every queued callback and appends their outputs to `outs` in
    /// submission order.
    fn flush(&mut self, time: u64, outs: &mut Vec<CtxOut<P>>);
}

/// Callbacks on the calling thread, at once: no channel hop, no lock,
/// nothing queued.
struct Inline<'a, A> {
    apps: &'a mut [A],
    topo: &'a Hierarchy,
}

impl<P: Wire, A: DetectorEngine<P>> CallbackPhase<P, A> for Inline<'_, A> {
    fn with_app(&mut self, idx: usize, f: impl FnOnce(&mut A)) {
        f(&mut self.apps[idx]);
    }

    fn submit(&mut self, time: u64, node: NodeId, task: Task<P>) -> Option<CtxOut<P>> {
        Some(task.run_on(&mut self.apps[node.index()], node, time, self.topo))
    }

    fn flush(&mut self, _time: u64, _outs: &mut Vec<CtxOut<P>>) {}
}

/// A node's same-instant callbacks with their submission positions, in
/// batch order.
type TaskGroup<P> = Vec<(usize, Task<P>)>;

/// One worker job: a node, the batch instant and the node's tasks.
type Job<P> = (u32, u64, TaskGroup<P>);

/// Callbacks on a scoped worker pool: each node's same-instant tasks
/// form one job, so one node's callbacks stay in order on one thread.
struct Pool<'a, P, A> {
    apps: &'a [Mutex<A>],
    work_tx: mpsc::Sender<Job<P>>,
    res_rx: mpsc::Receiver<Vec<(usize, CtxOut<P>)>>,
    /// This batch's jobs in first-touch batch order.
    jobs: Vec<(u32, TaskGroup<P>)>,
    /// Dense node → job-index slab (`u32::MAX` = not in this batch),
    /// reset from `jobs` so a batch costs O(batch), not O(nodes).
    job_of: Vec<u32>,
    /// One output slot per callback queued since the last flush, in
    /// submission order, filled as jobs come back.
    slots: Vec<Option<CtxOut<P>>>,
}

impl<P: Wire, A> CallbackPhase<P, A> for Pool<'_, P, A> {
    fn with_app(&mut self, idx: usize, f: impl FnOnce(&mut A)) {
        f(&mut self.apps[idx].lock().expect("no callback in flight"));
    }

    fn submit(&mut self, _time: u64, node: NodeId, task: Task<P>) -> Option<CtxOut<P>> {
        let slot = &mut self.job_of[node.index()];
        if *slot == u32::MAX {
            *slot = self.jobs.len() as u32;
            self.jobs.push((node.0, Vec::new()));
        }
        self.jobs[*slot as usize].1.push((self.slots.len(), task));
        self.slots.push(None);
        None
    }

    fn flush(&mut self, time: u64, outs: &mut Vec<CtxOut<P>>) {
        let n_jobs = self.jobs.len();
        for (node, job) in self.jobs.drain(..) {
            self.job_of[node as usize] = u32::MAX;
            self.work_tx.send((node, time, job)).expect("workers alive");
        }
        for _ in 0..n_jobs {
            for (pos, out) in self.res_rx.recv().expect("workers alive") {
                self.slots[pos] = Some(out);
            }
        }
        outs.extend(
            self.slots
                .drain(..)
                .map(|out| out.expect("callback completed")),
        );
    }
}

/// Runs `body` with a [`Pool`] of `workers` scoped threads over `apps`.
/// The apps move into per-node locks for the duration and back after.
fn with_pool<P, A>(
    apps: &mut Vec<A>,
    topo: &Hierarchy,
    workers: usize,
    body: impl FnOnce(&mut Pool<'_, P, A>),
) where
    P: Wire + Send,
    A: DetectorEngine<P> + Send,
{
    let cells: Vec<Mutex<A>> = std::mem::take(apps).into_iter().map(Mutex::new).collect();
    let (work_tx, work_rx) = mpsc::channel::<Job<P>>();
    let work_rx = Mutex::new(work_rx);
    let (res_tx, res_rx) = mpsc::channel();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let (work_rx, res_tx, cells) = (&work_rx, res_tx.clone(), &cells);
            s.spawn(move || loop {
                let job = work_rx.lock().expect("work queue intact").recv();
                let Ok((node, time, tasks)) = job else { break };
                let mut app = cells[node as usize].lock().expect("one worker per node");
                let results: Vec<_> = tasks
                    .into_iter()
                    .map(|(pos, task)| (pos, task.run_on(&mut *app, NodeId(node), time, topo)))
                    .collect();
                if res_tx.send(results).is_err() {
                    break;
                }
            });
        }
        let mut pool = Pool {
            apps: &cells,
            work_tx,
            res_rx,
            jobs: Vec::new(),
            job_of: vec![u32::MAX; cells.len()],
            slots: Vec::new(),
        };
        body(&mut pool);
        // Dropping `pool` closes the work channel: the workers exit.
    });
    *apps = cells
        .into_iter()
        .map(|m| m.into_inner().expect("workers finished cleanly"))
        .collect();
}

/// The batch loop. For each instant: revive the nodes whose crash ends
/// now; then, event by event in scheduling order, classify (capturing a
/// Warm snapshot before the node's first callback of the instant) and
/// submit the callback. An event's post phase runs, in batch order, as
/// soon as its output exists: at once when callbacks run inline, after
/// the pool's flush otherwise. Scratch is allocated once per call.
fn drive<P, A, S, C>(
    eng: &mut Engine<'_, P>,
    restart: &mut RestartState<A>,
    phase: &mut C,
    source: &mut S,
    readings_per_leaf: u64,
    stop_ns: u64,
) where
    P: Wire,
    S: StreamSource,
    C: CallbackPhase<P, A>,
{
    // Post phases waiting on an earlier queued callback; `None` marks a
    // queued callback's own output.
    let mut waiting: Vec<(Post, Option<CtxOut<P>>)> = Vec::new();
    let mut outs: Vec<CtxOut<P>> = Vec::new();
    while let Some(time) = eng.next_batch(stop_ns) {
        for idx in restart.due_recoveries(time) {
            if let Some(app) = restart.revive_app(idx, eng.stats) {
                phase.with_app(idx, |slot| *slot = app);
            }
        }
        while let Some(event) = eng.pop_at(time) {
            let (post, out) = match eng.classify(time, event, source, readings_per_leaf) {
                Pre::Skip => continue,
                Pre::Engine(post) => (post, Some(CtxOut::default())),
                Pre::Run { node, task, post } => {
                    if restart.capture_due(time, node) {
                        phase.with_app(node.index(), |app| restart.capture(time, node, app));
                    }
                    (post, phase.submit(time, node, task))
                }
            };
            match out {
                Some(out) if waiting.is_empty() => eng.finish(time, out, post),
                out => waiting.push((post, out)),
            }
        }
        if !waiting.is_empty() {
            phase.flush(time, &mut outs);
            let mut queued = outs.drain(..);
            for (post, out) in waiting.drain(..) {
                let out = out.unwrap_or_else(|| queued.next().expect("callback completed"));
                eng.finish(time, out, post);
            }
        }
    }
}

/// Runs the batch loop over `apps` until every event at or before
/// `stop_ns` is processed. With `workers <= 1` the callback phase runs
/// inline on the calling thread; otherwise on a scoped pool of that many
/// threads. Results are bit-identical either way.
pub(crate) fn run_batches<P, A, S>(
    eng: &mut Engine<'_, P>,
    restart: &mut RestartState<A>,
    apps: &mut Vec<A>,
    workers: usize,
    source: &mut S,
    readings_per_leaf: u64,
    stop_ns: u64,
) where
    P: Wire + Send,
    A: DetectorEngine<P> + Send,
    S: StreamSource,
{
    let topo = eng.topo;
    if workers <= 1 {
        let mut inline = Inline { apps, topo };
        drive(
            eng,
            restart,
            &mut inline,
            source,
            readings_per_leaf,
            stop_ns,
        );
    } else {
        with_pool(apps, topo, workers, |pool| {
            drive(eng, restart, pool, source, readings_per_leaf, stop_ns);
        });
    }
}
