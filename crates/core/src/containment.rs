//! The containment engine — the protocol of the paper's Figure 4 with
//! the `IsOutlier` rule left open.
//!
//! Leaves test every reading against their local state and push two
//! kinds of traffic upward: values their rule admitted (with probability
//! `f` — this keeps the parents' state representative of the region) and
//! values flagged as outliers. Parents re-check received outliers
//! against their own (region-level) state and escalate survivors.
//! Theorem 3 makes this sound: an outlier of the union window is
//! necessarily an outlier of some child window, so parents never need to
//! see non-flagged values — a property of the *protocol*, whatever rule
//! sits inside it.
//!
//! The rule is a [`LeafRule`]: the kernel-density distance rule of D3
//! (`d3.rs`) and the `median ± k·Q_n` rule of FQN (`fqn.rs`) are the two
//! impls. Adding a third costs one `LeafRule` impl and one
//! [`crate::DetectorBackend`] recipe.

use rand::Rng;

use snod_persist::{ByteReader, ByteWriter, Persist, PersistError, SeededRng};
use snod_simnet::{Ctx, DetectorEngine, Hierarchy, NodeId, Wire};

/// Wire messages of the containment protocol.
#[derive(Debug, Clone)]
pub enum ContainmentPayload {
    /// A value the sender's rule admitted, forwarded so the parent's
    /// state stays representative (D3 lines 14–15 / 28–30).
    SampleValue(Vec<f64>),
    /// A value flagged as an outlier at the sender's level
    /// (D3 lines 17–19 / 23–27).
    Outlier(Vec<f64>),
}

impl Wire for ContainmentPayload {
    fn size_bytes(&self) -> usize {
        // d numbers at 2 bytes each plus a 1-byte message tag.
        match self {
            ContainmentPayload::SampleValue(v) | ContainmentPayload::Outlier(v) => v.len() * 2 + 1,
        }
    }
}

impl Persist for ContainmentPayload {
    fn save(&self, w: &mut ByteWriter) {
        match self {
            ContainmentPayload::SampleValue(v) => {
                w.put_u8(0);
                v.save(w);
            }
            ContainmentPayload::Outlier(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(ContainmentPayload::SampleValue(Vec::<f64>::load(r)?)),
            1 => Ok(ContainmentPayload::Outlier(Vec::<f64>::load(r)?)),
            _ => Err(PersistError::Corrupt("unknown containment payload tag")),
        }
    }
}

/// One reported outlier, as recorded by the node that flagged it.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Simulated time of the detection.
    pub time_ns: u64,
    /// The flagged value.
    pub value: Vec<f64>,
    /// Tier of the node that flagged it (1 = leaf).
    pub level: u8,
}

snod_persist::persist_struct! {
    Detection {
        time_ns,
        value,
        level,
    }
    check: none
}

/// The `IsOutlier(R, σ, P)` of Figure 4: a node's local state, how a
/// value enters it and how a value is judged against it. The rule owns
/// its configuration; its [`Persist`] impl writes the state, then the
/// configuration.
///
/// The rule also bumps its own `core.<rule>.*` counters:
/// `snod_obs::counter!` caches its handle in a per-call-site `static`,
/// which the generic engine would share between every rule.
pub trait LeafRule: Persist + Sized {
    /// The rule's parameters (sample fraction and base seed included).
    type Config;

    /// Leaf step order. `false`: admit the reading, forward it, then
    /// score it against state that already holds it (D3). `true`: score
    /// against history *excluding* the reading, then admit and forward —
    /// a burst of outliers must not poison its own threshold (FQN). On a
    /// flagged reading this decides whether `Outlier` or `SampleValue`
    /// is sent first.
    const SCORE_BEFORE_ADMIT: bool;

    /// Salt separating the forward-sampling RNG from the node seed.
    const FORWARD_SALT: u64;

    /// The base seed the engine decorrelates per node.
    fn base_seed(cfg: &Self::Config) -> u64;

    /// Fresh state for the node whose decorrelated seed is `node_seed`.
    fn new(cfg: &Self::Config, node_seed: u64) -> Self;

    /// Probability that an admitted value is forwarded to the parent.
    fn sample_fraction(&self) -> f64;

    /// Admits `value` into the local state. `None` when the value was
    /// rejected (mis-dimensioned, non-finite — counted, never a panic);
    /// `Some(forwardable)` otherwise, where `forwardable` says whether
    /// the value may be offered to the parent's state.
    fn admit(&mut self, value: &[f64]) -> Option<bool>;

    /// Judges `p` against the local state: `None` while warming up or
    /// when `p` cannot be judged, `Some(true)` for an outlier — which
    /// the engine always records and escalates, so this is also where
    /// the rule counts its detections and escalations.
    fn verdict(&mut self, p: &[f64]) -> Option<bool>;
}

/// Per-node state of the containment protocol (both `LeafProcess` and
/// `ParentProcess` of the paper's Figure 4 — the role decides which
/// callbacks fire).
///
/// Leaders run the *identical* rule over their own arrival stream (the
/// sample values forwarded by their children), exactly as in Figure 4,
/// where `LeafProcess` and `ParentProcess` share one
/// `IsOutlier(R, σ, P)`.
pub struct ContainmentNode<R: LeafRule> {
    pub(crate) rule: R,
    rng: SeededRng,
    /// Outliers this node has flagged.
    pub detections: Vec<Detection>,
    level: u8,
}

impl<R: LeafRule> ContainmentNode<R> {
    /// Builds the node for `node` within `topo`.
    pub fn new(node: NodeId, topo: &Hierarchy, cfg: &R::Config) -> Self {
        // Decorrelate RNGs across nodes.
        let node_seed = R::base_seed(cfg).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (node.0 as u64);
        Self {
            rule: R::new(cfg, node_seed),
            rng: SeededRng::seed_from_u64(node_seed ^ R::FORWARD_SALT),
            detections: Vec::new(),
            level: topo.level_of(node),
        }
    }

    /// Admits `value`; forwards it upward with probability `f`. The RNG
    /// is drawn only for forwardable values. False when the rule
    /// rejected the value.
    fn admit_and_forward<V>(&mut self, ctx: &mut Ctx<'_, ContainmentPayload>, value: V) -> bool
    where
        V: AsRef<[f64]> + Into<Vec<f64>>,
    {
        let Some(forwardable) = self.rule.admit(value.as_ref()) else {
            return false;
        };
        if forwardable && self.rng.gen::<f64>() < self.rule.sample_fraction() {
            ctx.send_parent(ContainmentPayload::SampleValue(value.into()));
        }
        true
    }

    /// Checks `p` against this node's state; records and escalates on a
    /// hit.
    fn check_and_escalate(&mut self, ctx: &mut Ctx<'_, ContainmentPayload>, p: &[f64]) {
        if self.rule.verdict(p) == Some(true) {
            self.detections.push(Detection {
                time_ns: ctx.time_ns,
                value: p.to_vec(),
                level: self.level,
            });
            // Flagged values are precious (Theorem 3's soundness only
            // helps if the report arrives): escalate them on the
            // reliable channel, retried under a retry policy.
            ctx.send_parent_reliable(ContainmentPayload::Outlier(p.to_vec()));
        }
    }
}

impl<R: LeafRule> DetectorEngine<ContainmentPayload> for ContainmentNode<R> {
    fn ingest(&mut self, ctx: &mut Ctx<'_, ContainmentPayload>, value: &[f64]) {
        if R::SCORE_BEFORE_ADMIT {
            self.check_and_escalate(ctx, value);
            self.admit_and_forward(ctx, value);
        } else if self.admit_and_forward(ctx, value) {
            self.check_and_escalate(ctx, value);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, ContainmentPayload>,
        _from: NodeId,
        payload: ContainmentPayload,
    ) {
        match payload {
            ContainmentPayload::SampleValue(v) => {
                self.admit_and_forward(ctx, v);
            }
            // Escalations are re-checked but never admitted: flagged
            // values must not drag the region state toward the tail.
            ContainmentPayload::Outlier(p) => self.check_and_escalate(ctx, &p),
        }
    }
}

snod_persist::persist_struct! {
    impl[R: LeafRule] ContainmentNode<R> {
        rule,
        rng,
        detections,
        level,
    }
    check: none
}

/// One battery over the protocol, instantiated per rule at the bottom:
/// what must hold for any [`LeafRule`] inside the engine.
#[cfg(test)]
mod tests {
    use snod_outlier::DistanceOutlierConfig;
    use snod_simnet::{FaultPlan, LinkFault, Network, RetryPolicy, SimConfig};

    use super::*;
    use crate::backend::{
        build_backend_network, run_backend, run_backend_with_faults, D3Backend, DetectorBackend,
        FqnBackend,
    };
    use crate::config::{D3Config, EstimatorConfig};
    use crate::fqn::FqnConfig;

    /// What the battery needs from a rule's recipe beyond the trait.
    trait Fixture: DetectorBackend {
        /// Most detections a clean leaf may record over 600 readings.
        const CLEAN_LEAF_SLACK: usize;
        fn recipe(sample_fraction: f64) -> Self;
        fn invalid() -> Self;
        /// Values the engine's local state has admitted.
        fn admitted(engine: &Self::Engine) -> u64;
    }

    impl Fixture for D3Backend {
        const CLEAN_LEAF_SLACK: usize = 2;

        fn recipe(sample_fraction: f64) -> Self {
            D3Backend(D3Config {
                estimator: EstimatorConfig::builder()
                    .window(500)
                    .sample_size(64)
                    .seed(7)
                    .build()
                    .unwrap(),
                rule: DistanceOutlierConfig::new(10.0, 0.02),
                sample_fraction,
            })
        }

        fn invalid() -> Self {
            Self::recipe(-0.5)
        }

        fn admitted(engine: &Self::Engine) -> u64 {
            engine.estimator().observed()
        }
    }

    impl Fixture for FqnBackend {
        const CLEAN_LEAF_SLACK: usize = 0;

        fn recipe(sample_fraction: f64) -> Self {
            FqnBackend(FqnConfig {
                dimensions: 1,
                window: 128,
                k_scale: 4.0,
                warmup: 32,
                sample_fraction,
                seed: 7,
            })
        }

        fn invalid() -> Self {
            let mut backend = Self::recipe(0.5);
            backend.0.k_scale = 0.0;
            backend
        }

        fn admitted(engine: &Self::Engine) -> u64 {
            engine.windows()[0].len() as u64
        }
    }

    type Net<B> = Network<<B as DetectorBackend>::Payload, <B as DetectorBackend>::Engine>;

    fn topo() -> Hierarchy {
        Hierarchy::balanced(4, &[2, 2]).unwrap()
    }

    /// 4 leaves emit a tight cluster; leaf 0 occasionally emits a value
    /// far from everything.
    fn spiky_source() -> impl FnMut(NodeId, u64) -> Option<Vec<f64>> {
        |node: NodeId, seq: u64| {
            if node.0 == 0 && seq % 100 == 99 {
                Some(vec![0.9])
            } else {
                Some(vec![
                    0.45 + 0.002 * ((seq % 25) as f64) + 0.001 * node.0 as f64,
                ])
            }
        }
    }

    fn run_small<B: Fixture>(readings: u64) -> Net<B> {
        let mut source = spiky_source();
        run_backend(
            &B::recipe(0.5),
            topo(),
            SimConfig::default(),
            &mut source,
            readings,
        )
        .unwrap()
    }

    /// Theorem 3: everything a parent flags arrived as a child report.
    fn assert_contained<B: Fixture>(net: &Net<B>) {
        let topo = net.topology();
        for level in 2..=topo.level_count() {
            for &leader in topo.level(level) {
                for d in B::detections(net.app(leader)) {
                    let reported_below = topo.descendant_leaves(leader).iter().any(|&leaf| {
                        B::detections(net.app(leaf))
                            .iter()
                            .any(|ld| ld.value == d.value)
                    });
                    assert!(reported_below, "parent flagged un-reported value {d:?}");
                }
            }
        }
    }

    fn assert_same_run<B: Fixture>(a: &Net<B>, b: &Net<B>) {
        assert_eq!(a.stats(), b.stats());
        for (node, app) in a.apps() {
            assert_eq!(B::detections(app), B::detections(b.app(node)));
        }
        assert_eq!(a.checkpoint(), b.checkpoint());
    }

    fn leaf_detects_the_injected_outliers<B: Fixture>() {
        let net = run_small::<B>(600);
        let hits = B::detections(net.app(NodeId(0)));
        assert!(
            !hits.is_empty(),
            "leaf 0 saw injected outliers but flagged none"
        );
        // All detections are the far value.
        assert!(hits.iter().all(|d| d.value[0] > 0.8));
    }

    fn clean_leaves_stay_silent<B: Fixture>() {
        let net = run_small::<B>(600);
        for id in 1..4u32 {
            let flagged = B::detections(net.app(NodeId(id))).len();
            assert!(
                flagged <= B::CLEAN_LEAF_SLACK,
                "leaf {id} flagged {flagged} values"
            );
        }
    }

    fn outliers_escalate_to_upper_levels<B: Fixture>() {
        let net = run_small::<B>(1_000);
        let root_hits = B::detections(net.app(net.topology().root()));
        // 0.9 is rare across the whole network too → the root should
        // confirm at least some escalations.
        assert!(!root_hits.is_empty(), "no outlier survived to the root");
        assert!(root_hits.iter().all(|d| d.level == 3));
    }

    fn parent_detections_are_subset_of_child_reports<B: Fixture>() {
        assert_contained::<B>(&run_small::<B>(800));
    }

    fn theorem3_containment_survives_faults<B: Fixture>() {
        // Loss bursts, a leaf outage and duplicated links cannot break
        // Theorem 3's containment: parents only flag values that some
        // descendant leaf reported (deliveries may be lost, but never
        // invented).
        let plan = FaultPlan::none()
            .with_seed(11)
            .burst(100_000_000_000, 300_000_000_000, 0.3)
            .crash(NodeId(1), 400_000_000_000, Some(600_000_000_000))
            .link(LinkFault::delay_all(2_000_000, 0).duplicate(0.05));
        let sim = SimConfig::default().with_reliability(RetryPolicy::default());
        let mut source = spiky_source();
        let net = run_backend_with_faults(&B::recipe(0.5), topo(), sim, plan, &mut source, 1_000)
            .unwrap();
        assert!(net.stats().dropped > 0, "the plan never bit");
        assert_contained::<B>(&net);
    }

    fn fault_free_plan_is_identical_to_plain_run<B: Fixture>() {
        let mut source = spiky_source();
        let faulty = run_backend_with_faults(
            &B::recipe(0.5),
            topo(),
            SimConfig::default(),
            FaultPlan::none(),
            &mut source,
            600,
        )
        .unwrap();
        assert_same_run::<B>(&run_small::<B>(600), &faulty);
    }

    fn checkpoint_resume_matches_uninterrupted_run<B: Fixture>() {
        let build = || {
            build_backend_network(
                &B::recipe(0.5),
                topo(),
                SimConfig::default(),
                FaultPlan::none(),
            )
            .unwrap()
        };
        let mut source = spiky_source();
        let mut first = build();
        first.run_until(&mut source, 700, 250_000_000_000);
        let bytes = first.checkpoint();
        let mut resumed = build();
        resumed.restore(&bytes).unwrap();
        resumed.run(&mut source, 700);
        assert_same_run::<B>(&run_small::<B>(700), &resumed);
    }

    fn sample_traffic_flows_upward<B: Fixture>() {
        let net = run_small::<B>(500);
        assert!(net.stats().messages > 0);
        let root = net.topology().root();
        assert!(B::admitted(net.app(root)) > 0, "root state starved");
    }

    fn zero_sample_fraction_still_detects_locally<B: Fixture>() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let mut source =
            |_n: NodeId, seq: u64| Some(vec![if seq % 200 == 199 { 0.95 } else { 0.5 }]);
        let net = run_backend(
            &B::recipe(0.0),
            topo,
            SimConfig::default(),
            &mut source,
            400,
        )
        .unwrap();
        let hits: usize = net
            .topology()
            .leaves()
            .iter()
            .map(|&l| B::detections(net.app(l)).len())
            .sum();
        assert!(hits > 0);
        // With f = 0, parents get no sample traffic at all.
        let root = net.topology().root();
        assert_eq!(B::admitted(net.app(root)), 0);
    }

    fn invalid_config_is_rejected<B: Fixture>() {
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        assert!(run_backend(&B::invalid(), topo, SimConfig::default(), &mut source, 10).is_err());
    }

    /// One `+∞` used to make σ infinite and one `NaN` made it read 0,
    /// each flagging every following reading of the leaf for a window.
    /// Both are now dropped at the estimator: a leaf fed the clean
    /// uniform stream with the two inserted flags exactly the values the
    /// clean run flags.
    #[test]
    fn non_finite_readings_do_not_blind_a_d3_leaf() {
        const INJECT_AT: u64 = 2_000;
        let backend = D3Backend(D3Config {
            estimator: EstimatorConfig::builder()
                .window(2_000)
                .sample_size(100)
                .seed(7)
                .build()
                .unwrap(),
            rule: DistanceOutlierConfig::new(20.0, 0.01),
            sample_fraction: 0.5,
        });
        let leaf0_flags = |poisoned: bool, readings: u64| {
            let mut streams: Vec<SeededRng> = (0..2).map(SeededRng::seed_from_u64).collect();
            let mut source = move |node: NodeId, seq: u64| {
                let injected = match seq.wrapping_sub(INJECT_AT) {
                    0 => Some(f64::INFINITY),
                    1 => Some(f64::NAN),
                    _ => None,
                };
                Some(vec![match injected {
                    Some(bad) if poisoned && node.0 == 0 => bad,
                    _ => streams[node.0 as usize].gen::<f64>(),
                }])
            };
            let topo = Hierarchy::balanced(2, &[2]).unwrap();
            let net =
                run_backend(&backend, topo, SimConfig::default(), &mut source, readings).unwrap();
            D3Backend::detections(net.app(NodeId(0)))
                .iter()
                .map(|d| d.value.clone())
                .collect::<Vec<_>>()
        };
        let clean = leaf0_flags(false, 2 * INJECT_AT);
        assert_eq!(leaf0_flags(true, 2 * INJECT_AT + 2), clean);
    }

    macro_rules! battery {
        ($($case:ident),* $(,)?) => {
            mod distance_rule {
                $(#[test] fn $case() { super::$case::<super::D3Backend>(); })*
            }
            mod qn_rule {
                $(#[test] fn $case() { super::$case::<super::FqnBackend>(); })*
            }
        };
    }

    battery!(
        leaf_detects_the_injected_outliers,
        clean_leaves_stay_silent,
        outliers_escalate_to_upper_levels,
        parent_detections_are_subset_of_child_reports,
        theorem3_containment_survives_faults,
        fault_free_plan_is_identical_to_plain_run,
        checkpoint_resume_matches_uninterrupted_run,
        sample_traffic_flows_upward,
        zero_sample_fraction_still_detects_locally,
        invalid_config_is_rejected,
    );
}
