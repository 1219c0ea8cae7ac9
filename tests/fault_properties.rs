//! Property-based invariants of the fault-injection layer (proptest).
//!
//! Three hard invariants that must hold for *any* fault plan, not just
//! the curated ones in the golden traces:
//!
//! 1. **Theorem 3 containment** — whatever a plan crashes, delays,
//!    duplicates or drops, every value D3 flags above the leaf tier was
//!    first flagged by a leaf. Faults lose escalations; they never
//!    invent them.
//! 2. **Crash isolation and causality** — no message is ever delivered
//!    to a node while it is down, and never before its send time plus
//!    one link latency (duplication and jitter only ever *add* delay).
//! 3. **Observational absence** — a structurally armed plan whose every
//!    probability is zero and whose every window is empty leaves the
//!    engine bit-identical to [`FaultPlan::none()`], for any seed.

use proptest::prelude::*;

use sensor_outliers::core::{
    run_backend, run_backend_with_faults, D3Backend, D3Config, EstimatorConfig,
};
use sensor_outliers::outlier::DistanceOutlierConfig;
use sensor_outliers::simnet::{
    Ctx, DetectorEngine, FaultPlan, Hierarchy, LinkFault, Network, NodeId, RetryPolicy, SimConfig,
    Wire,
};

const READINGS: u64 = 400;
const HORIZON_NS: u64 = READINGS * 1_000_000_000;
const NODES: u32 = 7; // 4 leaves under [2, 2]

fn topo() -> Hierarchy {
    Hierarchy::balanced(4, &[2, 2]).unwrap()
}

fn source(node: NodeId, seq: u64) -> Option<Vec<f64>> {
    let h = node.0 as u64 * 999_983 + seq * 6_151;
    if seq % 131 == 40 {
        Some(vec![0.9])
    } else {
        Some(vec![0.3 + 0.2 * ((h % 997) as f64 / 997.0)])
    }
}

fn d3_backend() -> D3Backend {
    D3Backend(D3Config {
        estimator: EstimatorConfig::builder()
            .window(200)
            .sample_size(40)
            .seed(5)
            .build()
            .unwrap(),
        rule: DistanceOutlierConfig::new(8.0, 0.02),
        sample_fraction: 0.5,
    })
}

/// An arbitrary fault plan: one loss burst, one crash (possibly
/// permanent), one wildcard link fault with delay, jitter and
/// duplication — each parameter drawn independently.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..1_000,                          // fault-stream seed
        (0u64..HORIZON_NS, 1u64..HORIZON_NS), // burst start / length
        0.0f64..1.0,                          // burst drop probability
        0u32..NODES,                          // crashing node
        (0u64..HORIZON_NS, 1u64..HORIZON_NS), // crash start / length
        0u32..2,                              // 1 = never restarts
        0u64..20_000_000,                     // extra link delay
        0u64..5_000_000,                      // link jitter
        0.0f64..0.3,                          // duplication probability
    )
        .prop_map(
            |(seed, (b_from, b_len), p, node, (c_from, c_len), perm, delay, jitter, dup)| {
                FaultPlan::none()
                    .with_seed(seed)
                    .burst(b_from, b_from.saturating_add(b_len), p)
                    .crash(
                        NodeId(node),
                        c_from,
                        (perm == 0).then_some(c_from.saturating_add(c_len)),
                    )
                    .link(LinkFault::delay_all(delay, jitter).duplicate(dup))
            },
        )
}

/// A probe app: every node relays a send-time stamp upward and records
/// any delivery that violates crash isolation or causality.
struct Probe {
    node: NodeId,
    plan: FaultPlan,
    latency_ns: u64,
    violations: Vec<String>,
}

#[derive(Debug, Clone)]
struct Stamp {
    sent_ns: u64,
}

impl Wire for Stamp {
    fn size_bytes(&self) -> usize {
        8
    }
}

impl DetectorEngine<Stamp> for Probe {
    fn ingest(&mut self, ctx: &mut Ctx<'_, Stamp>, _value: &[f64]) {
        ctx.send_parent(Stamp {
            sent_ns: ctx.time_ns,
        });
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Stamp>, from: NodeId, stamp: Stamp) {
        if ctx.time_ns < stamp.sent_ns + self.latency_ns {
            self.violations.push(format!(
                "{:?} -> {:?}: sent at {} ns, delivered at {} ns (latency {} ns)",
                from, self.node, stamp.sent_ns, ctx.time_ns, self.latency_ns
            ));
        }
        if self.plan.is_down(self.node, ctx.time_ns) {
            self.violations.push(format!(
                "{:?} received a frame at {} ns while crashed",
                self.node, ctx.time_ns
            ));
        }
        ctx.send_parent(Stamp {
            sent_ns: ctx.time_ns,
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Theorem 3 containment survives any fault plan, with and without
    /// the ack/retry protocol.
    #[test]
    fn theorem3_containment_for_any_plan(plan in arb_plan(), reliable in 0u32..2) {
        let mut sim = SimConfig::default();
        if reliable == 1 {
            sim = sim.with_reliability(RetryPolicy::default());
        }
        let mut src = source;
        let net = run_backend_with_faults(&d3_backend(), topo(), sim, plan, &mut src, READINGS)
            .expect("valid config");
        let leaf_keys: std::collections::HashSet<Vec<u64>> = net
            .apps()
            .flat_map(|(_, app)| app.detections.iter())
            .filter(|d| d.level == 1)
            .map(|d| d.value.iter().map(|v| v.to_bits()).collect())
            .collect();
        for (_, app) in net.apps() {
            for d in app.detections.iter().filter(|d| d.level > 1) {
                let key: Vec<u64> = d.value.iter().map(|v| v.to_bits()).collect();
                prop_assert!(
                    leaf_keys.contains(&key),
                    "level-{} detection of {:?} was never flagged by a leaf",
                    d.level,
                    d.value
                );
            }
        }
    }

    /// No delivery to a crashed node; no delivery earlier than the send
    /// time plus one link latency.
    #[test]
    fn deliveries_respect_crashes_and_causality(plan in arb_plan()) {
        let sim = SimConfig::default();
        let latency = sim.link_latency_ns;
        let probe_plan = plan.clone();
        let mut net = Network::new(topo(), sim, move |node, _| Probe {
            node,
            plan: probe_plan.clone(),
            latency_ns: latency,
            violations: Vec::new(),
        })
        .with_fault_plan(plan);
        let mut src = source;
        net.run(&mut src, READINGS);
        for (node, app) in net.apps() {
            prop_assert!(
                app.violations.is_empty(),
                "{:?}: {:?}",
                node,
                app.violations
            );
        }
    }

    /// An armed all-zero plan is observationally absent for any seed.
    #[test]
    fn zero_probability_plans_never_perturb(seed in 0u64..10_000) {
        let zero = FaultPlan::none()
            .with_seed(seed)
            .burst(0, HORIZON_NS, 0.0)
            .link(LinkFault::delay_all(0, 0).duplicate(0.0));
        let sim = SimConfig::default().with_reliability(RetryPolicy::default());
        let mut src_a = source;
        let plain = run_backend(&d3_backend(), topo(), sim, &mut src_a, READINGS)
            .expect("valid config");
        let mut src_b = source;
        let armed = run_backend_with_faults(&d3_backend(), topo(), sim, zero, &mut src_b, READINGS)
            .expect("valid config");
        prop_assert_eq!(plain.stats(), armed.stats());
        for (node, app) in plain.apps() {
            prop_assert_eq!(&app.detections, &armed.app(node).detections);
        }
    }
}
