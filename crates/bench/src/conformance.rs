//! Differential conformance harness for the fault-injection layer.
//!
//! The fault layer promises three things, and this module checks all of
//! them by *replaying the identical reading streams* through differently
//! configured engines and diffing the results:
//!
//! 1. **Absence is free** — an all-zero-probability [`FaultPlan`] (and a
//!    faultless plan under the parallel engine) must produce results
//!    **bit-identical** to the plain engine: same [`NetStats`], same
//!    detections at every node, same timestamps.
//! 2. **Faults are sound** — whatever the plan does, D3 stays sound in
//!    the sense of the paper's Theorem 3: every value flagged at a
//!    leader level was first flagged by some leaf. Faults can *lose*
//!    flagged values; they can never *invent* them, so containment is a
//!    hard invariant, not a statistical one.
//! 3. **Degradation is graceful** — as loss rates climb, recall against
//!    the exact offline oracles (`BruteForce-D` via
//!    [`crate::harness::TruthTracker`]) may only degrade, and leaf-level
//!    behaviour — which never crosses the network — must not move at
//!    all.
//!
//! The harness runs one *capture* pass (faultless engine + oracle
//! recording) and then replays the same streams through each fault level
//! of a severity ladder, scoring precision/recall per level against the
//! captured ground truth.
//!
//! On top of the fault ladder, [`run_backend_parity`] is the **1-vs-4
//! worker differential suite**: the reading trace one inline run
//! recorded is replayed on a four-thread callback pool, and the
//! outcomes — outlier escalation sequences, every [`NetStats`] counter
//! and the complete checkpoint bytes (which hold every engine's model
//! state, maintenance epochs included) — must be `==`. This pins the
//! engine crate's driver contract: the detector engines are pure state
//! machines, and every observable side effect is produced by the loop's
//! post phase in the same order wherever the callbacks run.

use std::collections::HashSet;

use snod_core::{run_backend_with_faults, D3Backend, D3Config, Detection, DetectorBackend};
use snod_data::{DataStream, SensorStreams};
use snod_outlier::{MdefConfig, PrecisionRecall};
use snod_simnet::{
    FaultPlan, Hierarchy, LinkFault, NetStats, NodeId, ReadingTrace, SimConfig, StreamSource,
    TraceRecorder,
};

use crate::harness::{score_level, value_key, ReadingRecord, RecordingSource};

/// Configuration of one conformance experiment.
pub struct ConformanceConfig {
    /// Leaf sensors.
    pub leaves: usize,
    /// Leader fan-outs above the leaves.
    pub fanouts: Vec<usize>,
    /// The D3 configuration under test (shared by every engine run).
    pub d3: D3Config,
    /// Sliding window `|W|` of the exact oracle (normally the estimator
    /// window).
    pub window: usize,
    /// MDEF rule for the oracle tracker (required by the shared harness;
    /// unused by D3 scoring).
    pub mdef_rule: MdefConfig,
    /// Readings per leaf before scoring starts.
    pub warmup: u64,
    /// Scored readings per leaf.
    pub eval: u64,
    /// Simulator configuration (reliability, timing); worker-thread
    /// overrides are applied internally for the parallel parity check.
    pub sim: SimConfig,
}

impl ConformanceConfig {
    fn readings_per_leaf(&self) -> u64 {
        self.warmup + self.eval
    }

    fn topology(&self) -> Hierarchy {
        Hierarchy::balanced(self.leaves, &self.fanouts).expect("valid conformance hierarchy")
    }
}

/// Everything one run produced that bit-identity cares about. Two runs
/// are conformant exactly when their outcomes are `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    /// Full network accounting (message/byte/energy/fault counters).
    pub stats: NetStats,
    /// Detections per node, indexed by `NodeId::index()` — order,
    /// timestamps and values all participate in equality.
    pub detections: Vec<Vec<Detection>>,
    /// The run's complete end-of-run checkpoint; its bytes do not
    /// depend on the worker count, so they must match exactly.
    pub checkpoint: Vec<u8>,
}

impl EngineOutcome {
    /// Captures a finished network (`net.apps()`).
    fn capture<'a, B: DetectorBackend>(
        engines: impl Iterator<Item = (NodeId, &'a B::Engine)>,
        stats: &NetStats,
        checkpoint: Vec<u8>,
    ) -> Self {
        Self {
            stats: stats.clone(),
            detections: engines.map(|(_, e)| B::detections(e).to_vec()).collect(),
            checkpoint,
        }
    }

    /// Same counters and detections. (A run's checkpoint also holds its
    /// fault plan, so runs under different plans compare by this.)
    pub fn same_trace(&self, other: &Self) -> bool {
        self.stats == other.stats && self.detections == other.detections
    }

    /// All detections across nodes, flattened (for level scoring).
    pub fn all_detections(&self) -> Vec<Detection> {
        self.detections.iter().flatten().cloned().collect()
    }

    /// Theorem 3 containment: every value flagged at a level above the
    /// leaves was flagged (bit-identically) by some leaf. Faults may
    /// lose escalations but never fabricate them, so this must hold
    /// under *any* plan.
    pub fn containment_holds(&self) -> bool {
        let leaf_keys: HashSet<Vec<u64>> = self
            .detections
            .iter()
            .flatten()
            .filter(|d| d.level == 1)
            .map(|d| value_key(&d.value))
            .collect();
        self.detections
            .iter()
            .flatten()
            .filter(|d| d.level > 1)
            .all(|d| leaf_keys.contains(&value_key(&d.value)))
    }
}

/// One rung of the fault-severity ladder, scored against the oracle.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// Human-readable plan label ("baseline", "moderate", …).
    pub label: String,
    /// The plan this rung ran under.
    pub plan: FaultPlan,
    /// The raw engine outcome (stats + per-node detections).
    pub outcome: EngineOutcome,
    /// Theorem 3 containment verdict for this run.
    pub containment_ok: bool,
    /// Precision/recall of root-level detections vs `BruteForce-D`.
    pub root: PrecisionRecall,
    /// Precision/recall of leaf-level detections vs `BruteForce-D`.
    pub leaf: PrecisionRecall,
}

/// The full differential report.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// The faultless run every claim is measured against.
    pub baseline: FaultOutcome,
    /// An all-zero-probability plan (burst at `p = 0`, zero-delay link,
    /// `duplicate = 0`) reproduced the baseline bit-for-bit.
    pub zero_fault_bit_identical: bool,
    /// The parallel engine reproduced the sequential *faulty* run
    /// bit-for-bit under the severest plan.
    pub parallel_bit_identical: bool,
    /// Severity ladder outcomes, mildest first (excludes the baseline).
    pub ladder: Vec<FaultOutcome>,
}

impl ConformanceReport {
    /// True when Theorem 3 containment held in the baseline and at every
    /// ladder rung.
    pub fn all_contained(&self) -> bool {
        self.baseline.containment_ok && self.ladder.iter().all(|o| o.containment_ok)
    }

    /// True when root-level recall never *rises* by more than
    /// `tolerance` from one severity rung to the next (baseline
    /// included as rung zero). Losing messages can only hide true
    /// outliers from the root, so recall must fall monotonically up to
    /// sampling noise.
    pub fn recall_degrades_monotonically(&self, tolerance: f64) -> bool {
        let mut prev = self.baseline.root.recall();
        for o in &self.ladder {
            let r = o.root.recall();
            if r > prev + tolerance {
                return false;
            }
            prev = r;
        }
        true
    }

    /// True when every run's *leaf-level* detections are bit-identical
    /// to the baseline's on every leaf the plan leaves alone. Leaf
    /// verdicts never cross the network, so link faults and loss bursts
    /// must not move them; only a crashed or dropped-out leaf may differ
    /// (it legitimately observes a different reading sequence).
    pub fn leaves_unperturbed(&self) -> bool {
        let base = leaf_only(&self.baseline.outcome, &FaultPlan::none());
        self.ladder
            .iter()
            .all(|o| leaf_only(&o.outcome, &o.plan) == base_minus_touched(&base, &o.plan))
    }
}

/// Per-node leaf-level detections, with nodes the plan crashes or drops
/// out blanked (their streams legitimately diverge).
fn leaf_only(outcome: &EngineOutcome, plan: &FaultPlan) -> Vec<Vec<Detection>> {
    outcome
        .detections
        .iter()
        .enumerate()
        .map(|(i, per_node)| {
            if plan_touches(plan, NodeId(i as u32)) {
                Vec::new()
            } else {
                per_node.iter().filter(|d| d.level == 1).cloned().collect()
            }
        })
        .collect()
}

fn base_minus_touched(base: &[Vec<Detection>], plan: &FaultPlan) -> Vec<Vec<Detection>> {
    base.iter()
        .enumerate()
        .map(|(i, dets)| {
            if plan_touches(plan, NodeId(i as u32)) {
                Vec::new()
            } else {
                dets.clone()
            }
        })
        .collect()
}

fn plan_touches(plan: &FaultPlan, node: NodeId) -> bool {
    plan.crashes.iter().any(|c| c.node == node) || plan.dropouts.iter().any(|d| d.node == node)
}

/// The default severity ladder over a run of `horizon_ns` nanoseconds:
/// moderate loss, then heavy loss plus a mid-run leaf crash plus link
/// delay and duplication. `seed` feeds every plan's fault streams.
pub fn default_ladder(topo: &Hierarchy, seed: u64, horizon_ns: u64) -> Vec<(String, FaultPlan)> {
    let victim = topo.leaves()[0];
    vec![
        (
            "moderate".into(),
            FaultPlan::none()
                .with_seed(seed)
                .burst(horizon_ns / 4, horizon_ns / 2, 0.3),
        ),
        (
            "severe".into(),
            FaultPlan::none()
                .with_seed(seed)
                .burst(horizon_ns / 8, horizon_ns, 0.85)
                .crash(victim, horizon_ns / 3, Some(2 * horizon_ns / 3))
                .link(LinkFault::delay_all(2_000_000, 0).duplicate(0.05)),
        ),
    ]
}

/// The all-zero-probability plan: structurally non-empty (so every fault
/// code path is armed) yet observationally absent. Runs under it must be
/// bit-identical to [`FaultPlan::none()`].
pub fn zero_probability_plan(seed: u64, horizon_ns: u64) -> FaultPlan {
    FaultPlan::none()
        .with_seed(seed)
        .burst(0, horizon_ns, 0.0)
        .link(LinkFault::delay_all(0, 0).duplicate(0.0))
}

/// Feeds the simulator from a regenerated stream bank without recording
/// (the oracle pass already captured ground truth for these readings).
struct BankSource {
    streams: SensorStreams,
    /// `NodeId::index() -> leaf position`, `usize::MAX` for non-leaves.
    leaf_of: Vec<usize>,
}

impl BankSource {
    fn new(streams: SensorStreams, topo: &Hierarchy) -> Self {
        let mut leaf_of = vec![usize::MAX; topo.node_count()];
        for (pos, &leaf) in topo.leaves().iter().enumerate() {
            leaf_of[leaf.index()] = pos;
        }
        Self { streams, leaf_of }
    }
}

impl StreamSource for BankSource {
    fn next(&mut self, node: NodeId, _seq: u64) -> Option<Vec<f64>> {
        let pos = self.leaf_of[node.index()];
        (pos != usize::MAX).then(|| self.streams.next_for(pos))
    }
}

/// Runs the full differential experiment: capture pass (faultless engine
/// and exact oracles), zero-probability bit-identity, parallel-engine
/// parity under the severest plan, and the severity ladder.
///
/// `make_stream(leaf)` must be deterministic in its argument — every
/// engine run replays the streams it builds from scratch.
pub fn run_conformance<F, S>(cfg: &ConformanceConfig, make_stream: F) -> ConformanceReport
where
    F: Fn(usize) -> S,
    S: DataStream + Send + 'static,
{
    let topo = cfg.topology();
    let root_level = topo.level_count() as u8;
    // Readings are injected once per sim tick per leaf; the horizon in
    // sim time is conservatively the reading count times the default
    // tick — severity windows only need to overlap the run, so a loose
    // upper bound is fine.
    let horizon_ns = cfg.readings_per_leaf() * cfg.sim.reading_period_ns;

    // Capture pass: faultless engine + oracle.
    let mut streams = SensorStreams::generate(cfg.leaves, &make_stream);
    let mut recording = RecordingSource::new(
        &mut streams,
        &topo,
        cfg.window,
        cfg.d3.rule,
        cfg.mdef_rule,
        cfg.warmup,
    );
    let backend = D3Backend(cfg.d3);
    let baseline_outcome = sim_outcome(
        &backend,
        &topo,
        cfg.sim,
        FaultPlan::none(),
        &mut recording,
        cfg.readings_per_leaf(),
    );
    let records = std::mem::take(&mut recording.records);
    let baseline = score_outcome(
        "baseline",
        FaultPlan::none(),
        baseline_outcome,
        &records,
        root_level,
    );

    let replay = |plan: FaultPlan, sim: SimConfig| -> EngineOutcome {
        let mut source = BankSource::new(SensorStreams::generate(cfg.leaves, &make_stream), &topo);
        sim_outcome(
            &backend,
            &topo,
            sim,
            plan,
            &mut source,
            cfg.readings_per_leaf(),
        )
    };

    // Claim 1a: zero-probability plan == no plan, bit for bit.
    let zero = replay(zero_probability_plan(7, horizon_ns), cfg.sim);
    let zero_fault_bit_identical = zero.same_trace(&baseline.outcome);

    // Severity ladder.
    let ladder_plans = default_ladder(&topo, 0x00C0_FFEE, horizon_ns);
    let ladder: Vec<FaultOutcome> = ladder_plans
        .iter()
        .map(|(label, plan)| {
            score_outcome(
                label,
                plan.clone(),
                replay(plan.clone(), cfg.sim),
                &records,
                root_level,
            )
        })
        .collect();

    // Claim 1b: the parallel engine reproduces the sequential run under
    // the severest plan, bit for bit.
    let severest = &ladder_plans.last().expect("non-empty ladder").1;
    let parallel = replay(severest.clone(), cfg.sim.with_worker_threads(4));
    let parallel_bit_identical = parallel == ladder.last().expect("non-empty ladder").outcome;

    ConformanceReport {
        baseline,
        zero_fault_bit_identical,
        parallel_bit_identical,
        ladder,
    }
}

/// Runs `backend` under the simulator and captures the outcome.
fn sim_outcome<B: DetectorBackend, S: StreamSource>(
    backend: &B,
    topo: &Hierarchy,
    sim: SimConfig,
    plan: FaultPlan,
    source: &mut S,
    readings_per_leaf: u64,
) -> EngineOutcome {
    let net = run_backend_with_faults(backend, topo.clone(), sim, plan, source, readings_per_leaf)
        .expect("backend recipe is valid");
    EngineOutcome::capture::<B>(net.apps(), net.stats(), net.checkpoint())
}

/// The severe rung of [`default_ladder`], reseeded — the plan the parity
/// matrix uses for its fault-injected cases.
fn severe_plan(topo: &Hierarchy, seed: u64, horizon_ns: u64) -> FaultPlan {
    default_ladder(topo, seed, horizon_ns)
        .pop()
        .expect("non-empty ladder")
        .1
}

/// One seed × fault setting of the backend parity matrix.
#[derive(Debug, Clone)]
pub struct BackendParityCase {
    /// Stream/fault seed of this case.
    pub seed: u64,
    /// Whether the severe fault plan was installed.
    pub faulted: bool,
    /// Readings the recorded trace carries.
    pub trace_len: usize,
    /// The inline run's outcome (the reference).
    pub reference: EngineOutcome,
    /// The 4-worker pool replayed the trace bit-identically.
    pub sim_parallel_identical: bool,
}

/// The 1-vs-4 worker differential report.
#[derive(Debug, Clone)]
pub struct BackendParityReport {
    /// One row per seed × fault setting.
    pub cases: Vec<BackendParityCase>,
}

impl BackendParityReport {
    /// True when every case replayed bit-identically.
    pub fn all_identical(&self) -> bool {
        !self.cases.is_empty()
            && self
                .cases
                .iter()
                .all(|c| c.sim_parallel_identical && c.trace_len > 0)
    }

    /// Cases that diverged, for failure messages.
    pub fn divergent(&self) -> Vec<(u64, bool)> {
        self.cases
            .iter()
            .filter(|c| !c.sim_parallel_identical)
            .map(|c| (c.seed, c.faulted))
            .collect()
    }
}

/// Runs the 1-vs-4 worker differential conformance matrix for any
/// [`DetectorBackend`] recipe: for every seed and fault setting, one
/// run under `sim` records the reading trace it ingested and serves as
/// the reference, and the trace is replayed on a 4-thread worker pool,
/// asserting that the stats, the per-node detection sequences and the
/// checkpoint bytes are all `==`. This is the executable form of the
/// engine crate's driver contract: the callback phase may run the
/// [`snod_simnet::DetectorEngine`] callbacks anywhere, so nothing
/// observable may depend on where they ran.
///
/// `make_stream(seed, leaf)` must be deterministic in its arguments.
pub fn run_backend_parity<B, F, S>(
    backend: &B,
    leaves: usize,
    fanouts: &[usize],
    sim: SimConfig,
    readings_per_leaf: u64,
    seeds: &[u64],
    make_stream: F,
) -> BackendParityReport
where
    B: DetectorBackend,
    F: Fn(u64, usize) -> S,
    S: DataStream + Send + 'static,
{
    let topo = Hierarchy::balanced(leaves, fanouts).expect("valid parity hierarchy");
    let horizon_ns = readings_per_leaf * sim.reading_period_ns;
    let mut cases = Vec::new();
    for &seed in seeds {
        for faulted in [false, true] {
            let plan = if faulted {
                severe_plan(&topo, seed, horizon_ns)
            } else {
                FaultPlan::none()
            };

            // Reference pass: one run under `sim`, recording the trace
            // it actually ingested.
            let bank = BankSource::new(
                SensorStreams::generate(leaves, |leaf| make_stream(seed, leaf)),
                &topo,
            );
            let mut recorder = TraceRecorder::new(bank);
            let reference = sim_outcome(
                backend,
                &topo,
                sim,
                plan.clone(),
                &mut recorder,
                readings_per_leaf,
            );
            let trace = recorder.into_trace();

            // Replay: the same trace on a worker pool.
            let mut replay: ReadingTrace = trace.clone();
            let par_outcome = sim_outcome(
                backend,
                &topo,
                sim.with_worker_threads(4),
                plan.clone(),
                &mut replay,
                readings_per_leaf,
            );

            cases.push(BackendParityCase {
                seed,
                faulted,
                trace_len: trace.len(),
                sim_parallel_identical: par_outcome == reference,
                reference,
            });
        }
    }
    BackendParityReport { cases }
}

fn score_outcome(
    label: &str,
    plan: FaultPlan,
    outcome: EngineOutcome,
    records: &[ReadingRecord],
    root_level: u8,
) -> FaultOutcome {
    let all = outcome.all_detections();
    let root = score_level(records, &all, root_level, |r| {
        r.dist_truth[root_level as usize - 1]
    });
    let leaf = score_level(records, &all, 1, |r| r.dist_truth[0]);
    FaultOutcome {
        label: label.to_string(),
        plan,
        containment_ok: outcome.containment_holds(),
        outcome,
        root,
        leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snod_core::EstimatorConfig;
    use snod_outlier::DistanceOutlierConfig;

    /// Deterministic per-leaf stream: a slow sweep with rare far-out
    /// spikes (true outliers under a tight radius).
    struct SpikeStream {
        sensor: usize,
        n: u64,
    }

    impl DataStream for SpikeStream {
        fn dims(&self) -> usize {
            1
        }
        fn next_reading(&mut self) -> Vec<f64> {
            let n = self.n;
            self.n += 1;
            if n % 157 == 150 + self.sensor as u64 % 7 {
                vec![0.93 + 0.004 * self.sensor as f64]
            } else {
                let phase = (n * (self.sensor as u64 * 13 + 7)) % 97;
                vec![0.35 + 0.003 * phase as f64]
            }
        }
    }

    fn test_config() -> ConformanceConfig {
        ConformanceConfig {
            leaves: 4,
            fanouts: vec![2, 2],
            d3: D3Config {
                estimator: EstimatorConfig::builder()
                    .window(300)
                    .sample_size(60)
                    .seed(9)
                    .build()
                    .unwrap(),
                rule: DistanceOutlierConfig::new(8.0, 0.02),
                sample_fraction: 0.5,
            },
            window: 300,
            mdef_rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
            warmup: 300,
            eval: 500,
            sim: SimConfig::default().with_reliability(snod_simnet::RetryPolicy::default()),
        }
    }

    fn run() -> ConformanceReport {
        run_conformance(&test_config(), |sensor| SpikeStream { sensor, n: 0 })
    }

    #[test]
    fn zero_probability_plan_is_bit_identical() {
        let report = run();
        assert!(report.zero_fault_bit_identical);
    }

    #[test]
    fn parallel_engine_matches_sequential_under_faults() {
        let report = run();
        assert!(report.parallel_bit_identical);
    }

    #[test]
    fn theorem3_containment_holds_at_every_severity() {
        let report = run();
        assert!(report.all_contained());
        assert!(
            report.baseline.root.true_positives + report.baseline.root.false_positives > 0,
            "baseline never escalated anything — the ladder is vacuous"
        );
    }

    #[test]
    fn pooled_replay_matches_the_recording_on_one_seed() {
        // One faulted seed per containment rule through the parity
        // harness; the full 3-seed × fault matrix for every backend runs
        // as an integration test (`tests/driver_parity.rs`).
        fn one_seed<B: DetectorBackend>(backend: &B) {
            let report = run_backend_parity(
                backend,
                4,
                &[2, 2],
                test_config().sim,
                500,
                &[5],
                |seed, sensor| SpikeStream {
                    sensor: sensor + seed as usize,
                    n: 0,
                },
            );
            assert!(
                report.all_identical(),
                "{} pooled replay diverged on {:?}",
                backend.kind(),
                report.divergent()
            );
            assert!(report.cases.iter().any(|c| c.faulted
                && !c.reference.checkpoint.is_empty()
                && c.reference.detections.iter().any(|d| !d.is_empty())));
        }
        one_seed(&D3Backend(test_config().d3));
        one_seed(&snod_core::FqnBackend(snod_core::FqnConfig {
            dimensions: 1,
            window: 128,
            k_scale: 4.0,
            warmup: 32,
            sample_fraction: 0.5,
            seed: 9,
        }));
    }

    #[test]
    fn recall_degrades_monotonically_and_leaves_hold_still() {
        let report = run();
        assert!(
            report.recall_degrades_monotonically(0.05),
            "root recall rose under heavier faults: baseline {:.3}, ladder {:?}",
            report.baseline.root.recall(),
            report
                .ladder
                .iter()
                .map(|o| (o.label.clone(), o.root.recall()))
                .collect::<Vec<_>>()
        );
        assert!(report.leaves_unperturbed());
    }
}
