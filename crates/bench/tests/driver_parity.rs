//! 1-vs-4 worker differential conformance: the reading trace an inline
//! run recorded, replayed on a four-thread callback pool, must produce
//! identical outlier escalations, NetStats counters and checkpoint bytes
//! (model epochs included) — for every backend, across seeds, with and
//! without fault injection.

use snod_bench::conformance::{run_backend_parity, BackendParityReport};
use snod_core::{
    CentralizedBackend, D3Backend, D3Config, DetectorBackend, EstimatorConfig, FqnBackend,
    FqnConfig, MgddBackend, MgddConfig, MmdewBackend, MmdewNodeConfig, UpdateStrategy,
};
use snod_data::DataStream;
use snod_outlier::{DistanceOutlierConfig, MdefConfig};
use snod_simnet::{RetryPolicy, SimConfig};

/// Deterministic per-(seed, leaf) stream: a drifting sweep with rare
/// far-out spikes.
struct SeededSpikes {
    salt: u64,
    n: u64,
}

impl DataStream for SeededSpikes {
    fn dims(&self) -> usize {
        1
    }
    fn next_reading(&mut self) -> Vec<f64> {
        let n = self.n;
        self.n += 1;
        if n % 151 == self.salt % 97 {
            vec![0.91 + 0.0003 * (self.salt % 11) as f64]
        } else {
            let phase = (n * (self.salt % 17 + 3)) % 89;
            vec![0.34 + 0.0031 * phase as f64]
        }
    }
}

fn estimator() -> EstimatorConfig {
    EstimatorConfig::builder()
        .window(300)
        .sample_size(60)
        .seed(9)
        .build()
        .unwrap()
}

/// 3 seeds × (faultless, severe plan) = 6 cases; every case records one
/// trace inline and replays it on a worker pool.
fn parity_matrix<B, S>(backend: &B, readings: u64, stream: fn(u64) -> S) -> BackendParityReport
where
    B: DetectorBackend,
    S: DataStream + Send + 'static,
{
    let report = run_backend_parity(
        backend,
        4,
        &[2, 2],
        SimConfig::default().with_reliability(RetryPolicy::default()),
        readings,
        &[1, 42, 0xFEED],
        |seed, leaf| {
            stream(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(leaf as u64 * 131),
            )
        },
    );
    assert_eq!(report.cases.len(), 6);
    assert!(
        report.all_identical(),
        "{} pooled replay diverged on (seed, faulted) cases {:?}",
        backend.kind(),
        report.divergent()
    );
    // Detections exist somewhere, or the equivalence claim is hollow.
    assert!(report
        .cases
        .iter()
        .any(|c| c.reference.detections.iter().any(|d| !d.is_empty())));
    report
}

fn spikes(salt: u64) -> SeededSpikes {
    SeededSpikes { salt, n: 0 }
}

#[test]
fn d3_pooled_replay_is_bit_identical_across_seeds_and_faults() {
    let backend = D3Backend(D3Config {
        estimator: estimator(),
        rule: DistanceOutlierConfig::new(8.0, 0.02),
        sample_fraction: 0.5,
    });
    let report = parity_matrix(&backend, 700, spikes);
    // The matrix is not vacuous: every case ingested data, and the
    // faulted runs actually exercised the fault layer.
    for case in &report.cases {
        assert!(case.trace_len > 0, "seed {} recorded no readings", case.seed);
        if case.faulted {
            let s = &case.reference.stats;
            assert!(
                s.dropped > 0 || s.lost_to_crash > 0 || s.duplicates > 0,
                "seed {}: severe plan produced no observable faults",
                case.seed
            );
        }
    }
}

#[test]
fn mgdd_pooled_replay_is_bit_identical_across_seeds_and_faults() {
    let backend = MgddBackend {
        cfg: MgddConfig {
            estimator: estimator(),
            rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
            sample_fraction: 0.5,
            updates: UpdateStrategy::EveryAcceptance,
            staleness_bound_ns: None,
        },
        broadcast_levels: vec![],
    };
    parity_matrix(&backend, 700, spikes);
}

#[test]
fn fqn_pooled_replay_is_bit_identical_across_seeds_and_faults() {
    let backend = FqnBackend(FqnConfig {
        dimensions: 1,
        window: 128,
        k_scale: 4.0,
        warmup: 32,
        sample_fraction: 0.5,
        seed: 9,
    });
    parity_matrix(&backend, 700, spikes);
}

#[test]
fn centralized_pooled_replay_is_bit_identical_across_seeds_and_faults() {
    let backend = CentralizedBackend {
        rule: DistanceOutlierConfig::new(8.0, 0.02),
        window_per_leaf: 100,
    };
    parity_matrix(&backend, 700, spikes);
}

/// Deterministic per-(seed, leaf) piecewise-stationary stream: the mean
/// jumps between 0.2 and 0.8 every 250 readings (MMDEW's workload).
struct SeededShifts {
    salt: u64,
    n: u64,
}

impl DataStream for SeededShifts {
    fn dims(&self) -> usize {
        1
    }
    fn next_reading(&mut self) -> Vec<f64> {
        let n = self.n;
        self.n += 1;
        let base = if (n / 250).is_multiple_of(2) { 0.2 } else { 0.8 };
        vec![base + 0.01 * ((n.wrapping_mul(7) + self.salt) % 5) as f64]
    }
}

#[test]
fn mmdew_pooled_replay_is_bit_identical_across_seeds_and_faults() {
    let mut cfg = MmdewNodeConfig::default();
    cfg.detector.bucket_cap = 16;
    cfg.detector.min_per_side = 8;
    parity_matrix(&MmdewBackend(cfg), 700, |salt| SeededShifts { salt, n: 0 });
}
