//! Shared helpers for the serve integration tests: synthetic traces
//! and the in-process reference run the daemon must match bit-for-bit.

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snod_core::DetectorBackend;
use snod_serve::config::BackendVisitor;
use snod_serve::TenantSpec;

/// A row as the daemon's Query frame reports it.
pub type DetRow = (u32, u64, u8, Vec<f64>);

/// A small hierarchical tenant: 4 leaves under 2 mid nodes and a root,
/// sized so tests finish fast but still exercise the escalation
/// protocol across levels.
pub fn spec(leaves: usize, fanouts: &[usize]) -> TenantSpec {
    TenantSpec {
        leaves,
        fanouts: fanouts.to_vec(),
        window: 64,
        sample_size: 16,
        ..TenantSpec::default()
    }
}

/// Deterministic synthetic readings: a tight cluster with seeded
/// spikes, per `(leaf, seq)`, keyed by the tenant's actual leaf ids.
pub fn synth_rows(spec: &TenantSpec, per_leaf: u64, seed: u64) -> Vec<(u32, u64, Vec<f64>)> {
    let topo = spec.topology().expect("test topology");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    for &leaf in topo.leaves() {
        for seq in 0..per_leaf {
            let v = if rng.gen::<f64>() < 0.05 {
                5.0 + rng.gen::<f64>()
            } else {
                0.5 + 0.05 * (rng.gen::<f64>() - 0.5)
            };
            rows.push((leaf.0, seq, vec![v]));
        }
    }
    rows
}

/// Runs the same spec — whatever its detector — in-process over the
/// same rows, through the builder the daemon's workers use, and
/// collects the detection rows exactly as the daemon's Query reply does.
pub fn reference_detections(
    spec: &TenantSpec,
    rows: &[(u32, u64, Vec<f64>)],
    per_leaf: u64,
) -> Vec<DetRow> {
    struct Reference<'a> {
        spec: &'a TenantSpec,
        rows: &'a [(u32, u64, Vec<f64>)],
        per_leaf: u64,
    }
    impl BackendVisitor for Reference<'_> {
        type Out = Vec<DetRow>;
        fn visit<B: DetectorBackend>(self, backend: B) -> Vec<DetRow> {
            let mut rt = self
                .spec
                .build_backend_runtime(&backend)
                .expect("reference runtime");
            let table: std::collections::HashMap<(u32, u64), Vec<f64>> = self
                .rows
                .iter()
                .map(|(n, s, v)| ((*n, *s), v.clone()))
                .collect();
            let mut source =
                |node: snod_engine::NodeId, seq: u64| table.get(&(node.0, seq)).cloned();
            rt.run(&mut source, self.per_leaf);
            let mut out = Vec::new();
            for (node, engine) in rt.engines() {
                for d in B::detections(engine) {
                    out.push((node.0, d.time_ns, d.level, d.value.clone()));
                }
            }
            out
        }
    }
    let reference = Reference {
        spec,
        rows,
        per_leaf,
    };
    spec.with_backend(reference).expect("reference spec")
}

/// Deterministic piecewise-stationary readings: every leaf's mean jumps
/// from 0.2 to 0.8 at `shift_at` (MMDEW's bread and butter).
pub fn shifted_rows(
    spec: &TenantSpec,
    per_leaf: u64,
    shift_at: u64,
    seed: u64,
) -> Vec<(u32, u64, Vec<f64>)> {
    let topo = spec.topology().expect("test topology");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    for &leaf in topo.leaves() {
        for seq in 0..per_leaf {
            let base = if seq < shift_at { 0.2 } else { 0.8 };
            let v = base + 0.02 * (rng.gen::<f64>() - 0.5);
            rows.push((leaf.0, seq, vec![v]));
        }
    }
    rows
}

/// Per-leaf totals for a Finish frame.
pub fn totals(spec: &TenantSpec, per_leaf: u64) -> Vec<(u32, u64)> {
    spec.topology()
        .expect("test topology")
        .leaves()
        .iter()
        .map(|l| (l.0, per_leaf))
        .collect()
}

/// A unique temp dir under the target-adjacent tmp root.
pub fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "snod-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}
