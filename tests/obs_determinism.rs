//! Observability determinism: instrumentation must never perturb the
//! simulation.
//!
//! The guarantee (DESIGN.md §9) has two halves:
//!
//! * **Compile-time.** A binary built with the `obs` feature produces
//!   bit-identical outlier streams and `NetStats` to one built without
//!   it. CI proves this by running this test file under both feature
//!   settings *and* by diffing the stdout of an obs-on vs obs-off CLI
//!   `simulate` run of the same seeded workload.
//! * **Run-time.** Within an obs-enabled build, toggling collection
//!   (`snod_obs::set_active`), snapshotting and resetting the registry
//!   around runs changes nothing about the traces. That is what the
//!   tests here assert, on the same D3 and MGDD scenarios the fault
//!   golden traces use.
//!
//! In a disabled build the obs calls are no-ops, so the assertions
//! degenerate to plain replay-determinism — the same property, with the
//! instrumentation compiled out.
//!
//! The obs registry is process-global, so every test serialises on one
//! mutex: a `set_active(false)` in one thread must not overlap another
//! test's counter-vs-NetStats accounting.

use std::sync::{Mutex, MutexGuard};

use sensor_outliers::core::{
    run_backend, D3Backend, D3Config, D3Node, D3Payload, Detection, DetectorBackend,
    EstimatorConfig, MgddBackend, MgddConfig, MgddNode, MgddPayload, UpdateStrategy,
};
use sensor_outliers::outlier::{DistanceOutlierConfig, MdefConfig};
use sensor_outliers::simnet::{Hierarchy, NetStats, Network, NodeId, SimConfig};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const READINGS: u64 = 700;

fn topo() -> Hierarchy {
    Hierarchy::balanced(4, &[2, 2]).unwrap()
}

/// Deterministic per-leaf streams with planted deviations (the golden
/// traces' source).
fn source(node: NodeId, seq: u64) -> Option<Vec<f64>> {
    let h = node.0 as u64 * 1_000_003 + seq * 7_919;
    if seq % 173 == 42 {
        Some(vec![0.91])
    } else {
        Some(vec![0.3 + 0.2 * ((h % 1_000) as f64 / 1_000.0)])
    }
}

fn estimator() -> EstimatorConfig {
    EstimatorConfig::builder()
        .window(300)
        .sample_size(50)
        .seed(21)
        .build()
        .unwrap()
}

fn d3_run() -> Network<D3Payload, D3Node> {
    let backend = D3Backend(D3Config {
        estimator: estimator(),
        rule: DistanceOutlierConfig::new(8.0, 0.02),
        sample_fraction: 0.5,
    });
    let mut src = source;
    run_backend(&backend, topo(), SimConfig::default(), &mut src, READINGS).unwrap()
}

fn mgdd_run() -> Network<MgddPayload, MgddNode> {
    let backend = MgddBackend {
        cfg: MgddConfig {
            estimator: estimator(),
            rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
            sample_fraction: 0.75,
            updates: UpdateStrategy::EveryAcceptance,
            staleness_bound_ns: Some(30_000_000_000),
        },
        broadcast_levels: vec![],
    };
    let mut src = source;
    run_backend(&backend, topo(), SimConfig::default(), &mut src, READINGS).unwrap()
}

/// Bit-exact digest of every node's detection stream.
type Trace = Vec<(u32, Vec<(u64, Vec<u64>, u8)>)>;

fn trace<B: DetectorBackend>(net: &Network<B::Payload, B::Engine>) -> Trace {
    net.apps()
        .map(|(node, app)| {
            let dets = B::detections(app).iter();
            let bits = |d: &Detection| {
                let value = d.value.iter().map(|v| v.to_bits()).collect();
                (d.time_ns, value, d.level)
            };
            (node.0, dets.map(bits).collect())
        })
        .collect()
}

fn assert_stats_identical(a: &NetStats, b: &NetStats) {
    assert_eq!(a, b, "network statistics diverged");
    assert_eq!(a.tx_joules.to_bits(), b.tx_joules.to_bits());
    assert_eq!(a.rx_joules.to_bits(), b.rx_joules.to_bits());
}

#[test]
fn d3_trace_is_identical_with_collection_on_and_off() {
    let _guard = serial();
    snod_obs::set_active(true);
    snod_obs::reset();
    let with_obs = d3_run();
    // Poke the registry between runs too: snapshotting and resetting
    // must be invisible to the next simulation.
    let snap = snod_obs::snapshot();
    if snod_obs::enabled() {
        assert!(!snap.is_empty(), "obs-enabled run recorded nothing");
    }
    snod_obs::reset();

    snod_obs::set_active(false);
    let without_obs = d3_run();
    snod_obs::set_active(true);

    assert_stats_identical(with_obs.stats(), without_obs.stats());
    assert_eq!(
        trace::<D3Backend>(&with_obs),
        trace::<D3Backend>(&without_obs)
    );
}

#[test]
fn mgdd_trace_is_identical_with_collection_on_and_off() {
    let _guard = serial();
    snod_obs::set_active(true);
    snod_obs::reset();
    let with_obs = mgdd_run();
    let snap = snod_obs::snapshot();
    if snod_obs::enabled() {
        assert!(
            snap.counter("outlier.mdef.evals").unwrap_or(0) > 0,
            "MGDD run evaluated no MDEF scores through the instrumented path"
        );
    }
    snod_obs::reset();

    snod_obs::set_active(false);
    let without_obs = mgdd_run();
    snod_obs::set_active(true);

    assert_stats_identical(with_obs.stats(), without_obs.stats());
    assert_eq!(
        trace::<MgddBackend>(&with_obs),
        trace::<MgddBackend>(&without_obs)
    );
}

/// The metrics must be *true*, not just harmless: radio counters agree
/// exactly with the simulator's own `NetStats` ground truth.
#[test]
fn counters_agree_with_netstats() {
    if !snod_obs::enabled() {
        return;
    }
    let _guard = serial();
    snod_obs::set_active(true);
    snod_obs::reset();
    let net = d3_run();
    let snap = snod_obs::snapshot();
    let s = net.stats();
    assert_eq!(snap.counter("simnet.sends"), Some(s.messages));
    assert_eq!(snap.counter("simnet.send_bytes"), Some(s.bytes));
    assert_eq!(snap.counter("simnet.acks").unwrap_or(0), s.acks);
    assert_eq!(snap.counter("simnet.drops").unwrap_or(0), s.dropped);
    assert_eq!(
        snap.counter("simnet.retransmissions").unwrap_or(0),
        s.retransmissions
    );
    // Per-level gauges mirror messages_per_level.
    for (i, &msgs) in s.messages_per_level.iter().enumerate() {
        let name = format!("simnet.level.{}.msgs", i + 1);
        let gauge = snap
            .gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v);
        assert_eq!(gauge, Some(msgs), "gauge {name}");
    }
}
