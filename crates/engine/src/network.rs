//! The one driver.
//!
//! [`Network`] owns one detector engine per node (the paper's
//! *"continuous query on every node"*) and drives them with events:
//! periodic sensor readings at the leaves, message deliveries between
//! nodes, and — when the reliability protocol is enabled —
//! acknowledgements and retransmission timers. Engines react through
//! [`DetectorEngine`] callbacks and talk to the network through
//! [`crate::EngineCtx`], which restricts them to the hierarchy links
//! (parent/children) — exactly the communication pattern of the
//! paper's algorithms.
//!
//! Time is read from the inputs, never from the wall clock, so the same
//! type serves the simulator (one [`Network::run`] to quiescence) and a
//! streaming daemon (short [`Network::run_until`] slices as readings
//! arrive). The batch loop, the pre/post phase split, the fault layer,
//! the ack/retry protocol, the per-node RNG streams and the restart
//! machinery live in `crate::protocol`; this module owns the run state
//! and the checkpoint codec.

use std::path::Path;

use snod_persist::{ByteReader, ByteWriter, Persist, PersistError};

use crate::config::{SimConfig, StreamSource};
use crate::detector::DetectorEngine;
use crate::energy::EnergyModel;
use crate::fault::{FaultPlan, RestartPolicy};
use crate::message::Wire;
use crate::node::NodeId;
use crate::protocol::{fingerprint, run_batches, EngineState, RestartState, FAULT_SALT};
use crate::stats::NetStats;
use crate::topology::Hierarchy;

/// A running network: topology, one engine per node, run parameters,
/// the protocol state and the restart machinery — plus the one batch
/// loop ([`Self::run_until`]) and the one checkpoint codec.
///
/// The simulator runs it to quiescence with [`Self::run`]; a daemon
/// advances it in short [`Self::run_until`] slices as readings arrive.
/// Either way the same events run through the same loop, so any
/// sequence of slices is bit-identical to one uninterrupted run.
pub struct Network<P: Wire, A> {
    topo: Hierarchy,
    /// One engine per node, indexed by [`NodeId::index`].
    apps: Vec<A>,
    cfg: SimConfig,
    energy: EnergyModel,
    plan: FaultPlan,
    state: EngineState<P>,
    restart: RestartState<A>,
}

impl<P: Wire, A: DetectorEngine<P>> Network<P, A> {
    /// Builds a network over `topo`, constructing one engine per node via
    /// `make_app`, with no faults and the default energy model.
    pub fn new(
        topo: Hierarchy,
        cfg: SimConfig,
        mut make_app: impl FnMut(NodeId, &Hierarchy) -> A,
    ) -> Self {
        let apps = (0..topo.node_count())
            .map(|i| make_app(NodeId(i as u32), &topo))
            .collect();
        let plan = FaultPlan::none();
        let state = EngineState::new(topo.node_count(), topo.level_count(), &cfg, &plan);
        Self {
            apps,
            cfg,
            energy: EnergyModel::default(),
            plan,
            state,
            restart: RestartState::default(),
            topo,
        }
    }

    /// Installs `plan` as this run's fault schedule (and reseeds the
    /// fault streams from its seed). Must be called before
    /// [`Self::run`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        let n = self.topo.node_count();
        self.state.fault_rngs = EngineState::<P>::streams(n, plan.seed ^ FAULT_SALT);
        self.plan = plan;
        self
    }

    /// Installs the application-state restart policy applied when a
    /// node comes back from a recoverable
    /// [`crate::fault::CrashWindow`] (see [`RestartPolicy`]). The
    /// default, `Persistent`, keeps the engine's in-memory state. `Cold`
    /// and `Warm` snapshot every application's pristine state now, so
    /// call this *after* the apps are built but before [`Self::run`].
    /// Counted in [`NetStats::cold_restarts`] /
    /// [`NetStats::warm_restarts`].
    pub fn with_restart_policy(mut self, policy: RestartPolicy) -> Self
    where
        A: Persist,
    {
        self.restart = RestartState::new(policy, &self.apps);
        self
    }

    /// Schedules `node` to fail (permanently stop reading, relaying and
    /// receiving) at time `time_ns`. Must be called before
    /// [`Self::run`]. For a *recoverable* outage use a
    /// [`crate::fault::CrashWindow`] instead.
    pub fn schedule_failure(&mut self, node: NodeId, time_ns: u64) {
        self.state.failures.push((time_ns, node));
    }

    /// Whether `node` has failed.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.state.dead[node.index()]
    }

    /// The fault-decision log: one line per crash, missed reading,
    /// lost frame and abandoned retry, in engine order. Empty unless
    /// the `fault-trace` feature is enabled. Never persisted: a restore
    /// keeps what has been logged so far.
    pub fn fault_trace(&self) -> &[String] {
        &self.state.trace
    }

    /// Runs the network: every leaf takes `readings_per_leaf` readings
    /// from `source`, and all resulting message traffic is processed to
    /// quiescence — [`Self::run_until`] with no stop time.
    pub fn run<S: StreamSource>(&mut self, source: &mut S, readings_per_leaf: u64)
    where
        P: Send,
        A: Send,
    {
        self.run_until(source, readings_per_leaf, u64::MAX);
    }

    /// Runs the batch loop until every event at or before `stop_ns` is
    /// processed: each leaf takes up to `readings_per_leaf` readings from
    /// `source`. Later events stay queued, so calling again — or on a
    /// restored network — continues exactly where the run left off:
    /// `run_until(k)` followed by `run_until(u64::MAX)` is bit-identical
    /// to one uninterrupted [`Self::run`]. At the default single worker
    /// a call spawns nothing and allocates only its batch scratch.
    ///
    /// With [`SimConfig::resolved_workers`] `<= 1` the callback phase
    /// runs inline on the calling thread; otherwise on a scoped pool of
    /// that many threads. Results are bit-identical either way —
    /// including under a fault plan, a restart policy and the
    /// reliability protocol.
    pub fn run_until<S: StreamSource>(
        &mut self,
        source: &mut S,
        readings_per_leaf: u64,
        stop_ns: u64,
    ) where
        P: Send,
        A: Send,
    {
        if readings_per_leaf == 0 {
            return;
        }
        if !self.state.started {
            self.state.seed_initial_readings(&self.topo, &self.cfg);
            self.restart.arm(&self.plan);
            self.state.started = true;
        }
        let workers = self.cfg.resolved_workers();
        let mut eng = self
            .state
            .engine(&self.topo, self.cfg, &self.energy, &self.plan);
        run_batches(
            &mut eng,
            &mut self.restart,
            &mut self.apps,
            workers,
            source,
            readings_per_leaf,
            stop_ns,
        );
        self.state.stats.elapsed_ns = self.state.clock_ns;
        // Per-level message flow, exported after the run so the loop
        // never pays a dynamic metric lookup.
        if snod_obs::enabled() {
            for (i, &msgs) in self.state.stats.messages_per_level.iter().enumerate() {
                let name = format!("simnet.level.{}.msgs", i + 1);
                snod_obs::Gauge::named(&name).set(msgs);
            }
        }
    }

    /// [`Self::run_until`] under its older name, kept until the
    /// benchmark's callers move to `run_until` (ROADMAP item 22).
    pub fn run_slice<S: StreamSource>(
        &mut self,
        source: &mut S,
        readings_per_leaf: u64,
        stop_ns: u64,
    ) where
        P: Send,
        A: Send,
    {
        self.run_until(source, readings_per_leaf, stop_ns);
    }

    /// Traffic and energy statistics of the run so far.
    pub fn stats(&self) -> &NetStats {
        &self.state.stats
    }

    /// The topology.
    pub fn topology(&self) -> &Hierarchy {
        &self.topo
    }

    /// The application instance at `node`.
    pub fn app(&self, node: NodeId) -> &A {
        &self.apps[node.index()]
    }

    /// Iterates over `(node, app)` pairs.
    pub fn apps(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.apps
            .iter()
            .enumerate()
            .map(|(i, a)| (NodeId(i as u32), a))
    }

    /// [`Self::apps`] under its older name, kept until the benchmark's
    /// callers move to `apps` (ROADMAP item 22).
    pub fn engines(&self) -> impl Iterator<Item = (NodeId, &A)> {
        self.apps()
    }

    /// The clock: the latest event time processed (ns).
    pub fn now_ns(&self) -> u64 {
        self.state.clock_ns
    }

    /// The raw checkpoint payload: fingerprint, protocol state, the
    /// three restart slots (empty under Persistent) and every engine.
    fn checkpoint_payload(&self) -> Vec<u8>
    where
        P: Persist,
        A: Persist,
    {
        let mut w = ByteWriter::new();
        fingerprint(&self.topo, &self.cfg, self.plan.seed, self.restart.policy).save(&mut w);
        self.state.save(&mut w);
        self.restart.last_ckpt.save(&mut w);
        self.restart.next_ckpt_ns.save(&mut w);
        self.restart.recoveries.save(&mut w);
        w.put_usize(self.apps.len());
        for app in &self.apps {
            app.save(&mut w);
        }
        w.into_bytes()
    }

    /// Snapshots the complete run state — clock, event queue (with its
    /// tie-break sequence numbers), statistics, the three per-node RNG
    /// stream families, the reliability protocol's pending and dedup
    /// tables, scheduled failures and dead flags, the restart snapshots
    /// and every engine — in the versioned, checksummed `snod-persist`
    /// envelope. Restoring into a network built identically (any
    /// `worker_threads`) and continuing is bit-identical to never having
    /// stopped.
    pub fn checkpoint(&self) -> Vec<u8>
    where
        P: Persist,
        A: Persist,
    {
        snod_persist::encode_checkpoint(&self.checkpoint_payload())
    }

    /// [`Self::checkpoint`] written atomically to `path` (temp file +
    /// rename — a crash mid-write never leaves a torn file).
    pub fn checkpoint_to_file(&self, path: &Path) -> Result<(), PersistError>
    where
        P: Persist,
        A: Persist,
    {
        snod_persist::write_checkpoint_file(path, &self.checkpoint_payload())
    }

    /// Restores state captured by [`Self::checkpoint`]. The network must
    /// be built like the checkpointed one — same topology, [`SimConfig`]
    /// (except `worker_threads`), fault plan and restart policy — which
    /// a structural fingerprint verifies before anything is touched. On
    /// any error the network is left unmodified. The fault trace is not
    /// persisted: the network keeps the one it has accumulated.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), PersistError>
    where
        P: Persist,
        A: Persist,
    {
        self.restore_payload(snod_persist::decode_checkpoint(bytes)?)
    }

    /// [`Self::restore`] from a checkpoint file.
    pub fn restore_from_file(&mut self, path: &Path) -> Result<(), PersistError>
    where
        P: Persist,
        A: Persist,
    {
        self.restore_payload(&snod_persist::read_checkpoint_file(path)?)
    }

    fn restore_payload(&mut self, payload: &[u8]) -> Result<(), PersistError>
    where
        P: Persist,
        A: Persist,
    {
        let mut r = ByteReader::new(payload);
        let policy = self.restart.policy;
        if u64::load(&mut r)? != fingerprint(&self.topo, &self.cfg, self.plan.seed, policy) {
            return Err(PersistError::Corrupt(
                "checkpoint was taken on a different topology, config, fault plan or restart policy",
            ));
        }
        let state = EngineState::<P>::load(&mut r)?;
        let last_ckpt = Vec::<Option<Vec<u8>>>::load(&mut r)?;
        let next_ckpt_ns = Vec::<u64>::load(&mut r)?;
        let recoveries = Vec::<(u64, u32)>::load(&mut r)?;
        let n = self.topo.node_count();
        if !state.shape_matches(n, self.topo.level_count()) {
            return Err(PersistError::Corrupt("checkpoint node count mismatch"));
        }
        let restart_shape_ok = match policy {
            RestartPolicy::Persistent => {
                last_ckpt.is_empty() && next_ckpt_ns.is_empty() && recoveries.is_empty()
            }
            RestartPolicy::Cold => last_ckpt.len() == n && next_ckpt_ns.is_empty(),
            RestartPolicy::Warm { .. } => last_ckpt.len() == n && next_ckpt_ns.len() == n,
        };
        if !restart_shape_ok || recoveries.iter().any(|&(_, idx)| idx as usize >= n) {
            return Err(PersistError::Corrupt("checkpoint restart state mismatch"));
        }
        if r.get_usize()? != n {
            return Err(PersistError::Corrupt("checkpoint app count mismatch"));
        }
        let apps = (0..n)
            .map(|_| A::load(&mut r))
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        // Everything decoded and validated — commit, keeping the
        // accumulated (never persisted) fault trace.
        let trace = std::mem::take(&mut self.state.trace);
        self.state = state;
        self.state.trace = trace;
        self.restart.last_ckpt = last_ckpt;
        self.restart.next_ckpt_ns = next_ckpt_ns;
        self.restart.recoveries = recoveries;
        self.apps = apps;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::EngineCtx;
    use crate::fault::{LinkFault, RetryPolicy};

    /// Leaves forward every reading to their parent; leaders count what
    /// they hear and forward a fraction upward (every other message).
    struct Relay {
        received: u64,
        forwarded: u64,
        readings: u64,
    }

    impl Relay {
        fn new() -> Self {
            Self {
                received: 0,
                forwarded: 0,
                readings: 0,
            }
        }
    }

    impl DetectorEngine<Vec<f64>> for Relay {
        fn ingest(&mut self, ctx: &mut EngineCtx<'_, Vec<f64>>, value: &[f64]) {
            self.readings += 1;
            ctx.send_parent(value.to_vec());
        }

        fn on_message(
            &mut self,
            ctx: &mut EngineCtx<'_, Vec<f64>>,
            _from: NodeId,
            payload: Vec<f64>,
        ) {
            self.received += 1;
            if self.received.is_multiple_of(2) && ctx.send_parent(payload) {
                self.forwarded += 1;
            }
        }
    }

    snod_persist::persist_struct! {
        Relay {
            received,
            forwarded,
            readings,
        }
        check: none
    }

    /// Like [`Relay`] but every send is reliable; also records the
    /// instant of every delivery it receives.
    struct ReliableRelay(Relay, Vec<u64>);

    impl DetectorEngine<Vec<f64>> for ReliableRelay {
        fn ingest(&mut self, ctx: &mut EngineCtx<'_, Vec<f64>>, value: &[f64]) {
            self.0.readings += 1;
            ctx.send_parent_reliable(value.to_vec());
        }

        fn on_message(
            &mut self,
            ctx: &mut EngineCtx<'_, Vec<f64>>,
            _from: NodeId,
            payload: Vec<f64>,
        ) {
            self.0.received += 1;
            self.1.push(ctx.time_ns);
            if self.0.received.is_multiple_of(2) && ctx.send_parent_reliable(payload) {
                self.0.forwarded += 1;
            }
        }
    }

    fn run_relay(readings: u64) -> Network<Vec<f64>, Relay> {
        let topo = Hierarchy::balanced(8, &[4, 2]).unwrap();
        let mut net = Network::new(topo, SimConfig::default(), |_, _| Relay::new());
        let mut source = |node: NodeId, seq: u64| Some(vec![node.0 as f64 + seq as f64 * 0.001]);
        net.run(&mut source, readings);
        net
    }

    #[test]
    fn leaves_read_the_requested_number_of_values() {
        let net = run_relay(10);
        for &leaf in net.topology().leaves() {
            assert_eq!(net.app(leaf).readings, 10);
        }
    }

    #[test]
    fn every_leaf_message_reaches_its_parent() {
        let net = run_relay(5);
        // 8 leaves × 5 readings = 40 messages into level-2 leaders.
        let total_level2: u64 = net
            .topology()
            .level(2)
            .iter()
            .map(|&l| net.app(l).received)
            .sum();
        assert_eq!(total_level2, 40);
    }

    #[test]
    fn halving_relay_reaches_root_with_half_traffic() {
        let net = run_relay(8);
        // 64 leaf messages reach the two level-2 leaders, which forward
        // every second one: 32 arrive at the root.
        let root = net.topology().root();
        assert_eq!(net.app(root).received, 32);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let net = run_relay(5);
        let s = net.stats();
        // 40 leaf sends + 20 level-2 forwards = 60 messages.
        assert_eq!(s.messages, 60);
        assert_eq!(s.messages_per_level[0], 40);
        assert_eq!(s.messages_per_level[1], 20);
        // Each message: 1 value (2 bytes) + 8 header = 10 bytes.
        assert_eq!(s.bytes, 600);
        assert!(s.tx_joules > 0.0 && s.rx_joules > 0.0);
        assert!(s.elapsed_ns > 0);
        assert!(s.messages_per_second() > 0.0);
    }

    #[test]
    fn deterministic_replay() {
        let a = run_relay(7);
        let b = run_relay(7);
        assert_eq!(a.stats().messages, b.stats().messages);
        assert_eq!(a.stats().bytes, b.stats().bytes);
        assert_eq!(a.now_ns(), b.now_ns());
    }

    #[test]
    fn stream_can_end_early() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let mut net = Network::new(topo, SimConfig::default(), |_, _| Relay::new());
        // Streams dry up after 3 readings even though 100 were requested.
        let mut source = |_node: NodeId, seq: u64| if seq < 3 { Some(vec![0.5]) } else { None };
        net.run(&mut source, 100);
        for &leaf in net.topology().leaves() {
            assert_eq!(net.app(leaf).readings, 3);
        }
    }

    #[test]
    fn lossy_radio_drops_messages_but_charges_energy() {
        let topo = Hierarchy::balanced(4, &[4]).unwrap();
        let cfg = SimConfig::default().with_drop_probability(0.5);
        let mut net = Network::new(topo, cfg, |_, _| Relay::new());
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        net.run(&mut source, 200);
        let s = net.stats();
        // 800 leaf sends; roughly half are dropped.
        assert_eq!(s.messages, 800);
        assert!(
            s.dropped > 250 && s.dropped < 550,
            "dropped {} of 800",
            s.dropped
        );
        let root = net.topology().root();
        assert_eq!(net.app(root).received + s.dropped, 800);
        // Energy was charged for every transmit attempt.
        assert!(s.tx_joules > 0.0);
    }

    #[test]
    fn failed_leaf_stops_reading() {
        // Leaf 0 reads at t = 0, 1 s, 2 s, … A failure is applied when
        // the first batch at or after its instant starts, before any of
        // that batch's events, so a leaf failing at t took exactly the
        // readings strictly before t.
        const S: u64 = 1_000_000_000;
        let cases = [
            (0, 0),
            (1, 1),
            (50 * S - 1, 50),
            (50 * S, 50),
            (50 * S + 1, 51),
        ];
        for (fail_ns, readings) in cases {
            let topo = Hierarchy::balanced(2, &[2]).unwrap();
            let mut net = Network::new(topo, SimConfig::default(), |_, _| Relay::new());
            net.schedule_failure(NodeId(0), fail_ns);
            let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
            net.run(&mut source, 200);
            assert!(net.is_dead(NodeId(0)));
            assert_eq!(
                net.app(NodeId(0)).readings,
                readings,
                "failure at {fail_ns} ns"
            );
            assert_eq!(net.app(NodeId(1)).readings, 200);
        }
    }

    #[test]
    fn failed_leader_silences_its_subtree_upward() {
        let topo = Hierarchy::balanced(4, &[2, 2]).unwrap();
        let mut net = Network::new(topo.clone(), SimConfig::default(), |_, _| Relay::new());
        // Kill one level-2 leader immediately: its two leaves keep
        // reading, but nothing from them reaches the root.
        let leader = topo.level(2)[0];
        net.schedule_failure(leader, 0);
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        net.run(&mut source, 100);
        let root = net.topology().root();
        // Only the surviving leader's messages arrive (it halves them).
        assert_eq!(net.app(root).received, 100);
        assert_eq!(net.app(leader).received, 0);
    }

    #[test]
    fn zero_readings_is_a_noop() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let mut net = Network::new(topo, SimConfig::default(), |_, _| Relay::new());
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        net.run(&mut source, 0);
        assert_eq!(net.stats().messages, 0);
    }

    /// Runs the relay workload under `cfg` and returns the network.
    fn run_relay_cfg(cfg: SimConfig, readings: u64) -> Network<Vec<f64>, Relay> {
        run_relay_cfg_plan(cfg, FaultPlan::none(), readings)
    }

    fn run_relay_cfg_plan(
        cfg: SimConfig,
        plan: FaultPlan,
        readings: u64,
    ) -> Network<Vec<f64>, Relay> {
        let topo = Hierarchy::balanced(8, &[4, 2]).unwrap();
        let mut net = Network::new(topo, cfg, |_, _| Relay::new()).with_fault_plan(plan);
        // One level-2 leader dies mid-run to exercise the dead-node path.
        net.schedule_failure(NodeId(9), 60_000_000_000);
        let mut source = |node: NodeId, seq: u64| Some(vec![node.0 as f64 + seq as f64 * 0.001]);
        net.run(&mut source, readings);
        net
    }

    /// Byte-level comparison of two runs: stats and per-app counters.
    fn assert_identical(a: &Network<Vec<f64>, Relay>, b: &Network<Vec<f64>, Relay>) {
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.messages, sb.messages);
        assert_eq!(sa.bytes, sb.bytes);
        assert_eq!(sa.dropped, sb.dropped);
        assert_eq!(sa.messages_per_level, sb.messages_per_level);
        assert_eq!(sa.acks, sb.acks);
        assert_eq!(sa.ack_bytes, sb.ack_bytes);
        assert_eq!(sa.retransmissions, sb.retransmissions);
        assert_eq!(sa.duplicates, sb.duplicates);
        assert_eq!(sa.duplicates_suppressed, sb.duplicates_suppressed);
        assert_eq!(sa.retry_exhausted, sb.retry_exhausted);
        assert_eq!(sa.lost_to_crash, sb.lost_to_crash);
        // Energy is float accumulation: bit-identical order required.
        assert!(sa.tx_joules.to_bits() == sb.tx_joules.to_bits());
        assert!(sa.rx_joules.to_bits() == sb.rx_joules.to_bits());
        assert_eq!(a.now_ns(), b.now_ns());
        for (node, app) in a.apps() {
            let other = b.app(node);
            assert_eq!(
                (app.readings, app.received, app.forwarded),
                (other.readings, other.received, other.forwarded),
                "app state diverged at {node:?}"
            );
        }
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_sequential() {
        // Synchronous readings (no stagger) maximise batch sizes, and a
        // lossy radio makes the loss-RNG draw order observable.
        let base = SimConfig {
            stagger_readings: false,
            ..SimConfig::default()
        }
        .with_drop_probability(0.2);
        let seq = run_relay_cfg(base.with_worker_threads(1), 120);
        for workers in [2, 4, 0] {
            let par = run_relay_cfg(base.with_worker_threads(workers), 120);
            assert_identical(&seq, &par);
        }
    }

    #[test]
    fn parallel_engine_matches_with_staggered_readings() {
        // Staggered phases make most batches singletons — the degenerate
        // case must be exact too.
        let base = SimConfig::default().with_drop_probability(0.1);
        let seq = run_relay_cfg(base.with_worker_threads(1), 60);
        let par = run_relay_cfg(base.with_worker_threads(3), 60);
        assert_identical(&seq, &par);
    }

    /// A crash window plus delays, duplication and a loss burst —
    /// representative of a full-adversity plan.
    fn adversity_plan() -> FaultPlan {
        FaultPlan::none()
            .with_seed(0xBAD)
            .crash(NodeId(2), 20_000_000_000, Some(55_000_000_000))
            .dropout(NodeId(5), 10_000_000_000, 30_000_000_000)
            .link(LinkFault {
                from: None,
                to: None,
                extra_delay_ns: 2_000_000,
                jitter_ns: 7_000_000,
                duplicate_probability: 0.1,
            })
            .burst(40_000_000_000, 50_000_000_000, 0.8)
    }

    #[test]
    fn parallel_engine_is_bit_identical_with_faults_and_reliability() {
        // Satellite: bit-identity must survive crashes, delays, jitter,
        // duplication, bursts *and* the ack/retry protocol.
        let base = SimConfig {
            stagger_readings: false,
            ..SimConfig::default()
        }
        .with_drop_probability(0.1)
        .with_reliability(RetryPolicy {
            timeout_ns: 200_000_000,
            max_retries: 3,
            backoff: 2.0,
            jitter_ns: 50_000_000,
        });
        let seq = run_relay_cfg_plan(base.with_worker_threads(1), adversity_plan(), 90);
        for workers in [2, 4] {
            let par = run_relay_cfg_plan(base.with_worker_threads(workers), adversity_plan(), 90);
            assert_identical(&seq, &par);
        }
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        // Installing FaultPlan::none() (and even a reliability policy no
        // app uses reliably... Relay sends plain) must leave the run
        // bit-identical to one without either.
        let cfg = SimConfig::default().with_drop_probability(0.3);
        let plain = run_relay_cfg(cfg, 80);
        let planned = run_relay_cfg_plan(cfg, FaultPlan::none(), 80);
        assert_identical(&plain, &planned);
        let with_policy = run_relay_cfg_plan(
            cfg.with_reliability(RetryPolicy::default()),
            FaultPlan::none(),
            80,
        );
        assert_identical(&plain, &with_policy);
    }

    #[test]
    fn reliability_none_makes_reliable_sends_plain() {
        // The same app using send_reliable everywhere, run without a
        // policy, must match the plain-send app bit for bit.
        let topo = Hierarchy::balanced(4, &[4]).unwrap();
        let cfg = SimConfig::default().with_drop_probability(0.25);
        let mut plain = Network::new(topo.clone(), cfg, |_, _| Relay::new());
        let mut reliable = Network::new(topo, cfg, |_, _| ReliableRelay(Relay::new(), Vec::new()));
        let mut source = |node: NodeId, seq: u64| Some(vec![node.0 as f64 + seq as f64]);
        plain.run(&mut source, 100);
        let mut source2 = |node: NodeId, seq: u64| Some(vec![node.0 as f64 + seq as f64]);
        reliable.run(&mut source2, 100);
        let (sp, sr) = (plain.stats(), reliable.stats());
        assert_eq!(sp.messages, sr.messages);
        assert_eq!(sp.bytes, sr.bytes);
        assert_eq!(sp.dropped, sr.dropped);
        assert_eq!(sr.acks, 0);
        assert_eq!(sr.retransmissions, 0);
        assert!(sp.tx_joules.to_bits() == sr.tx_joules.to_bits());
    }

    #[test]
    fn crash_window_pauses_and_resumes_readings() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let cfg = SimConfig {
            stagger_readings: false,
            ..SimConfig::default()
        };
        // Down for t ∈ [10 s, 50 s): readings 10..=49 are missed.
        let plan = FaultPlan::none().crash(NodeId(0), 10_000_000_000, Some(50_000_000_000));
        let mut net = Network::new(topo, cfg, |_, _| Relay::new()).with_fault_plan(plan);
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        net.run(&mut source, 100);
        assert_eq!(net.app(NodeId(0)).readings, 60);
        assert_eq!(net.app(NodeId(1)).readings, 100);
        // The parent heard 60 + 100 messages.
        let root = net.topology().root();
        assert_eq!(net.app(root).received, 160);
    }

    #[test]
    fn revive_on_a_reading_instant_precedes_that_reading() {
        // Down for t ∈ [10 s, 50 s) with a reading due at 50 s. The
        // revive is applied before any event of the 50 s batch, so under
        // Cold the fresh app takes readings 50..=99: 50 after the revive.
        // Persistent keeps the 10 readings from before the crash.
        const S: u64 = 1_000_000_000;
        for (policy, readings, cold_restarts) in [
            (RestartPolicy::Persistent, 60, 0),
            (RestartPolicy::Cold, 50, 1),
        ] {
            let topo = Hierarchy::balanced(2, &[2]).unwrap();
            let cfg = SimConfig {
                stagger_readings: false,
                ..SimConfig::default()
            };
            let plan = FaultPlan::none().crash(NodeId(0), 10 * S, Some(50 * S));
            let mut net = Network::new(topo, cfg, |_, _| Relay::new())
                .with_fault_plan(plan)
                .with_restart_policy(policy);
            let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
            net.run(&mut source, 100);
            assert_eq!(net.app(NodeId(0)).readings, readings, "{policy:?}");
            assert_eq!(net.stats().cold_restarts, cold_restarts, "{policy:?}");
            assert_eq!(net.app(net.topology().root()).received, 160);
        }
    }

    #[test]
    fn sensor_dropout_skips_readings_but_keeps_relaying() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let cfg = SimConfig {
            stagger_readings: false,
            ..SimConfig::default()
        };
        let plan = FaultPlan::none().dropout(NodeId(0), 5_000_000_000, 15_000_000_000);
        let mut net = Network::new(topo, cfg, |_, _| Relay::new()).with_fault_plan(plan);
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        net.run(&mut source, 30);
        // Readings 5..=14 missed: 20 remain.
        assert_eq!(net.app(NodeId(0)).readings, 20);
        assert_eq!(net.app(NodeId(1)).readings, 30);
    }

    #[test]
    fn delivery_to_crashed_node_is_lost_and_counted() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let cfg = SimConfig {
            stagger_readings: false,
            ..SimConfig::default()
        };
        // The parent (root) is down for [0, 10.5 s): the ~10 first
        // messages from each leaf evaporate.
        let root_id = topo.root();
        let plan = FaultPlan::none().crash(root_id, 0, Some(10_500_000_000));
        let mut net = Network::new(topo, cfg, |_, _| Relay::new()).with_fault_plan(plan);
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        net.run(&mut source, 30);
        let s = net.stats();
        // Readings at t = 0..=10 s arrive at t + 5 ms, still in-window:
        // 11 per leaf lost.
        assert_eq!(s.lost_to_crash, 22);
        assert_eq!(net.app(root_id).received, 38);
    }

    #[test]
    fn link_duplication_delivers_copies_best_effort() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let plan = FaultPlan::none().link(LinkFault {
            from: None,
            to: None,
            extra_delay_ns: 0,
            jitter_ns: 0,
            duplicate_probability: 1.0,
        });
        let mut net =
            Network::new(topo, SimConfig::default(), |_, _| Relay::new()).with_fault_plan(plan);
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        net.run(&mut source, 25);
        // Every best-effort frame arrives twice; duplicated forwards
        // compound, so just check the leaf→parent hop exactly.
        let root = net.topology().root();
        assert_eq!(net.stats().duplicates, net.stats().messages);
        assert_eq!(net.app(root).received, 100); // 2 leaves × 25 × 2
    }

    #[test]
    fn reliable_delivery_survives_a_total_loss_burst() {
        let topo = Hierarchy::balanced(1, &[1]).unwrap();
        let policy = RetryPolicy {
            timeout_ns: 1_000_000_000,
            max_retries: 10,
            backoff: 2.0,
            jitter_ns: 0,
        };
        let cfg = SimConfig {
            stagger_readings: false,
            ..SimConfig::default()
        }
        .with_reliability(policy);
        // Everything on the air before t = 3.5 s dies.
        let plan = FaultPlan::none().burst(0, 3_500_000_000, 1.0);
        let mut net = Network::new(topo, cfg, |_, _| ReliableRelay(Relay::new(), Vec::new()))
            .with_fault_plan(plan);
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        net.run(&mut source, 1);
        let s = net.stats();
        let root = net.topology().root();
        // Initial tx at t=0 lost; retry i waits backoff_ns(i) after the
        // previous one (DESIGN §8.2): retries at t=1 s and t=3 s are
        // lost, the t=7 s retry survives, lands one hop later and is
        // acked. The run ends when the now-moot fourth timer fires.
        let b = |i| policy.backoff_ns(i);
        let (latency, retry3) = (cfg.link_latency_ns, b(0) + b(1) + b(2));
        assert_eq!(retry3, 7_000_000_000);
        assert_eq!(net.app(root).1, vec![retry3 + latency]);
        assert_eq!(s.elapsed_ns, retry3 + b(3));
        assert_eq!(net.app(root).0.received, 1);
        assert_eq!(s.dropped, 3);
        assert_eq!(s.retransmissions, 3);
        assert_eq!(s.acks, 1);
        assert_eq!(s.retry_exhausted, 0);
        assert_eq!(s.duplicates_suppressed, 0);
    }

    #[test]
    fn reliable_dedup_suppresses_duplicate_deliveries() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let cfg = SimConfig {
            stagger_readings: false,
            ..SimConfig::default()
        }
        .with_reliability(RetryPolicy::default());
        let plan = FaultPlan::none().link(LinkFault {
            from: None,
            to: None,
            extra_delay_ns: 0,
            jitter_ns: 0,
            duplicate_probability: 1.0,
        });
        let mut net = Network::new(topo, cfg, |_, _| ReliableRelay(Relay::new(), Vec::new()))
            .with_fault_plan(plan);
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        net.run(&mut source, 20);
        let s = net.stats();
        let root = net.topology().root();
        // 40 reliable sends, each aired twice: the app sees each once.
        assert_eq!(net.app(root).0.received, 40);
        assert_eq!(s.duplicates_suppressed, 40);
        // Both copies are acked (the ack for the duplicate re-confirms).
        assert_eq!(s.acks, 80);
        assert_eq!(s.retransmissions, 0);
    }

    #[test]
    fn retries_exhaust_against_a_permanently_crashed_receiver() {
        let topo = Hierarchy::balanced(1, &[1]).unwrap();
        let root_id = topo.root();
        let cfg = SimConfig {
            stagger_readings: false,
            ..SimConfig::default()
        }
        .with_reliability(RetryPolicy {
            timeout_ns: 1_000_000_000,
            max_retries: 2,
            backoff: 2.0,
            jitter_ns: 0,
        });
        let plan = FaultPlan::none().crash(root_id, 0, None);
        let mut net = Network::new(topo, cfg, |_, _| ReliableRelay(Relay::new(), Vec::new()))
            .with_fault_plan(plan);
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        net.run(&mut source, 3);
        let s = net.stats();
        assert_eq!(net.app(root_id).0.received, 0);
        // 3 messages × (1 initial + 2 retries) frames, all into the void.
        assert_eq!(s.retransmissions, 6);
        assert_eq!(s.retry_exhausted, 3);
        assert_eq!(s.lost_to_crash, 9);
        assert_eq!(s.acks, 0);
    }

    #[test]
    fn link_delay_defers_but_preserves_delivery() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let plan = FaultPlan::none().link(LinkFault::delay_all(500_000_000, 0));
        let mut slow = Network::new(topo.clone(), SimConfig::default(), |_, _| Relay::new())
            .with_fault_plan(plan);
        let mut fast = Network::new(topo, SimConfig::default(), |_, _| Relay::new());
        let mut s1 = |_: NodeId, _: u64| Some(vec![0.5]);
        let mut s2 = |_: NodeId, _: u64| Some(vec![0.5]);
        slow.run(&mut s1, 20);
        fast.run(&mut s2, 20);
        let root = slow.topology().root();
        assert_eq!(slow.app(root).received, fast.app(root).received);
        assert!(slow.now_ns() > fast.now_ns());
        assert_eq!(slow.stats().dropped, 0);
    }

    /// An app that arms a timer on every reading and counts firings —
    /// drives the AppTimer path end to end through the simulator.
    struct TimerApp {
        readings: u64,
        fired: u64,
    }

    impl DetectorEngine<Vec<f64>> for TimerApp {
        fn ingest(&mut self, ctx: &mut EngineCtx<'_, Vec<f64>>, _value: &[f64]) {
            self.readings += 1;
            ctx.set_timer(250_000_000, self.readings);
        }

        fn on_message(&mut self, _: &mut EngineCtx<'_, Vec<f64>>, _: NodeId, _: Vec<f64>) {}

        fn on_timer(&mut self, ctx: &mut EngineCtx<'_, Vec<f64>>, timer: u64) {
            self.fired += 1;
            assert_eq!(timer, self.fired, "timers fire in arming order");
            ctx.send_parent(vec![timer as f64]);
        }
    }

    #[test]
    fn app_timers_fire_once_each_and_can_send() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let mut net = Network::new(topo, SimConfig::default(), |_, _| TimerApp {
            readings: 0,
            fired: 0,
        });
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        net.run(&mut source, 10);
        for &leaf in net.topology().leaves() {
            assert_eq!(net.app(leaf).readings, 10);
            assert_eq!(net.app(leaf).fired, 10);
        }
        // Timer callbacks sent one frame each: 2 leaves × 10 timers.
        assert_eq!(net.stats().messages, 20);
    }

    #[test]
    fn timers_are_lost_while_a_node_is_down() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let cfg = SimConfig {
            stagger_readings: false,
            ..SimConfig::default()
        };
        // Down for [5 s, 15 s): readings 5..=14 are missed AND any timer
        // armed at t=4.x s fires into the crash window and is lost.
        let plan = FaultPlan::none().crash(NodeId(0), 4_500_000_000, Some(15_000_000_000));
        let mut net = Network::new(topo, cfg, |_, _| TimerApp {
            readings: 0,
            fired: 0,
        })
        .with_fault_plan(plan);
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        net.run(&mut source, 20);
        let down = net.app(NodeId(0));
        // Readings at t=0..4 and t=15..19: 5 + 5 = 10; the t=4 timer
        // (due t=4.25? no — armed at 4 + 0.25 = 4.25 s, before the
        // window) fires, so only timers armed at t ∈ {4.5..} are at
        // risk; all surviving readings' timers fire.
        assert_eq!(down.readings, 10);
        assert_eq!(down.fired, down.readings);
        let up = net.app(NodeId(1));
        assert_eq!(up.readings, 20);
        assert_eq!(up.fired, 20);
    }

    #[cfg(feature = "fault-trace")]
    #[test]
    fn restore_keeps_the_accumulated_fault_trace() {
        // The trace is diagnostic and never persisted: a restore keeps
        // what the network has logged so far.
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let cfg = SimConfig::default().with_drop_probability(0.3);
        let plan = FaultPlan::none().crash(NodeId(0), 5_000_000_000, Some(10_000_000_000));
        let mut rt = Network::new(topo, cfg, |_, _| Relay::new()).with_fault_plan(plan);
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        rt.run_until(&mut source, 30, 15_000_000_000);
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
