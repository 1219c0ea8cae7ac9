//! Golden checkpoint files: committed byte-for-byte snapshots of a
//! small seeded run of each detector backend (D3, MGDD, FQN, MMDEW and
//! the centralized baseline), pinned by three guards.
//!
//! 1. **Schema guard** — re-encoding the same deterministic state must
//!    reproduce the committed bytes exactly. Any change to a `Persist`
//!    impl (field added, order shuffled, width changed) trips this test;
//!    the fix is to bump `FORMAT_VERSION` in `crates/persist` and
//!    regenerate (see below), never to silently re-commit.
//! 2. **Version guard** — the committed header carries the
//!    `FORMAT_VERSION` this build writes; decoding a *different* version
//!    is a typed [`PersistError::UnsupportedVersion`], checked in
//!    `tests/persist_corruption.rs`.
//! 3. **Resume smoke** — restoring the goldens in a fresh process and
//!    running to the end reproduces the uninterrupted trace
//!    bit-identically.
//!
//! Regenerate after an intentional format change with:
//! `SNOD_REGEN_GOLDENS=1 cargo test --test golden_checkpoints`

use sensor_outliers::core::{
    build_backend_network, CentralizedBackend, D3Backend, D3Config, DetectorBackend,
    EstimatorConfig, FqnBackend, FqnConfig, MgddBackend, MgddConfig, MmdewBackend, MmdewNodeConfig,
    UpdateStrategy,
};
use sensor_outliers::outlier::{DistanceOutlierConfig, MdefConfig};
use sensor_outliers::persist::{crc32, decode_checkpoint, FORMAT_VERSION, HEADER_LEN, MAGIC};
use sensor_outliers::simnet::{FaultPlan, Hierarchy, Network, NodeId, SimConfig};

const READINGS: u64 = 300;
const CUT_NS: u64 = 100 * 1_000_000_000;
const GOLDENS: [&str; 5] = [
    "d3.ckpt",
    "mgdd.ckpt",
    "fqn.ckpt",
    "mmdew.ckpt",
    "centralized.ckpt",
];

pub fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

fn topo() -> Hierarchy {
    Hierarchy::balanced(4, &[2, 2]).unwrap()
}

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

fn build<B: DetectorBackend>(backend: &B) -> Network<B::Payload, B::Engine> {
    build_backend_network(backend, topo(), SimConfig::default(), FaultPlan::none()).unwrap()
}

fn d3() -> D3Backend {
    D3Backend(D3Config {
        estimator: estimator(),
        rule: DistanceOutlierConfig::new(8.0, 0.02),
        sample_fraction: 0.5,
    })
}

fn mgdd() -> MgddBackend {
    let cfg = MgddConfig {
        estimator: estimator(),
        rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
        sample_fraction: 0.75,
        updates: UpdateStrategy::EveryAcceptance,
        staleness_bound_ns: Some(30_000_000_000),
    };
    MgddBackend {
        cfg,
        broadcast_levels: vec![],
    }
}

fn fqn() -> FqnBackend {
    FqnBackend(FqnConfig {
        dimensions: 1,
        window: 128,
        k_scale: 4.0,
        warmup: 32,
        sample_fraction: 0.5,
        seed: 21,
    })
}

fn mmdew() -> MmdewBackend {
    let mut cfg = MmdewNodeConfig::default();
    cfg.detector.seed = 21;
    MmdewBackend(cfg)
}

/// The root warms up after 100 union readings (seq 25), so the golden
/// carries its detections of the seq-42 spikes.
fn centralized() -> CentralizedBackend {
    CentralizedBackend {
        rule: DistanceOutlierConfig::new(8.0, 0.05),
        window_per_leaf: 50,
    }
}

/// The checkpoint an interrupted run would have written at `CUT_NS`.
fn fresh_checkpoint<B: DetectorBackend>(backend: &B) -> Vec<u8> {
    let mut net = build(backend);
    net.run_until(&mut source, READINGS, CUT_NS);
    net.checkpoint()
}

fn regenerating() -> bool {
    std::env::var("SNOD_REGEN_GOLDENS").is_ok()
}

#[test]
fn golden_bytes_are_stable_without_a_version_bump() {
    // In `GOLDENS` order.
    let fresh = [
        fresh_checkpoint(&d3()),
        fresh_checkpoint(&mgdd()),
        fresh_checkpoint(&fqn()),
        fresh_checkpoint(&mmdew()),
        fresh_checkpoint(&centralized()),
    ];
    for (name, fresh) in GOLDENS.into_iter().zip(fresh) {
        let path = golden_path(name);
        if regenerating() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &fresh).unwrap();
            continue;
        }
        let committed = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {name}: {e}; regenerate with \
                 SNOD_REGEN_GOLDENS=1 cargo test --test golden_checkpoints"
            )
        });
        assert_eq!(
            committed, fresh,
            "the checkpoint encoding of {name} changed without a FORMAT_VERSION bump \
             (currently {FORMAT_VERSION}). If the format change is intentional, bump \
             FORMAT_VERSION in crates/persist/src/container.rs and regenerate the \
             goldens with SNOD_REGEN_GOLDENS=1 cargo test --test golden_checkpoints"
        );
    }
}

#[test]
fn golden_headers_carry_the_current_version() {
    for name in GOLDENS {
        if regenerating() {
            continue;
        }
        let bytes = std::fs::read(golden_path(name)).expect("golden exists");
        assert!(bytes.len() > HEADER_LEN, "{name} has no payload");
        assert_eq!(&bytes[..8], &MAGIC, "{name} magic");
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        assert_eq!(version, FORMAT_VERSION, "{name} format version");
        let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        assert_eq!(
            len as usize,
            bytes.len() - HEADER_LEN,
            "{name} payload length"
        );
        let crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
        assert_eq!(crc, crc32(&bytes[HEADER_LEN..]), "{name} checksum");
        // And the canonical decoder agrees end to end.
        assert!(decode_checkpoint(&bytes).is_ok());
    }
}

/// The CI resume-bit-identity smoke test: restore the golden `name` in
/// a fresh network and run to the end; the full trace must match an
/// uninterrupted run of the same seeded workload.
fn assert_golden_resume_matches_uninterrupted_run<B: DetectorBackend>(backend: &B, name: &str) {
    if regenerating() {
        return;
    }
    let bytes = std::fs::read(golden_path(name)).expect("golden exists");
    let mut resumed = build(backend);
    resumed.restore(&bytes).unwrap();
    resumed.run_until(&mut source, READINGS, u64::MAX);

    let mut uninterrupted = build(backend);
    uninterrupted.run(&mut source, READINGS);

    assert_eq!(uninterrupted.stats(), resumed.stats(), "{name}");
    for (node, engine) in uninterrupted.apps() {
        assert_eq!(
            B::detections(engine),
            B::detections(resumed.app(node)),
            "{name}: node {node:?} diverged after golden resume"
        );
    }
}

#[test]
fn golden_d3_resume_matches_uninterrupted_run() {
    assert_golden_resume_matches_uninterrupted_run(&d3(), "d3.ckpt");
}

#[test]
fn golden_mgdd_resume_matches_uninterrupted_run() {
    assert_golden_resume_matches_uninterrupted_run(&mgdd(), "mgdd.ckpt");
}

#[test]
fn golden_fqn_resume_matches_uninterrupted_run() {
    assert_golden_resume_matches_uninterrupted_run(&fqn(), "fqn.ckpt");
}

#[test]
fn golden_mmdew_resume_matches_uninterrupted_run() {
    assert_golden_resume_matches_uninterrupted_run(&mmdew(), "mmdew.ckpt");
}

#[test]
fn golden_centralized_resume_matches_uninterrupted_run() {
    assert_golden_resume_matches_uninterrupted_run(&centralized(), "centralized.ckpt");
}
