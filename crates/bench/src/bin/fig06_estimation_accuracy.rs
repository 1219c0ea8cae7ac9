//! **Figure 6**: JS-divergence between the true and the estimated data
//! distribution over time, at a leaf sensor and at a parent sensor with
//! sample fractions `f = 0.5` and `f = 0.75`.
//!
//! Paper setup (§10.1): `|W| = 10,240`, `|R| = 1,024`, Gaussian readings
//! whose distribution flips between `(μ=0.3, σ=0.05)` and
//! `(μ=0.5, σ=0.05)` every 4,096 measurements. Reported behaviour:
//! steady-state distance ≤ ~0.004–0.005, re-convergence below 0.1 within
//! ~2,500 measurements, parent latency decreasing with `f`.
//!
//! **Reproduction note.** With a *uniform* sliding-window sample and
//! `|W| = 10,240 > 4,096`, the window always contains a mixture of both
//! regimes, so no estimator can re-converge below 0.1 before the next
//! shift — the paper's recovery curve is only achievable if the
//! effective window is at most the shift period. This binary therefore
//! runs the experiment twice: once with the verbatim parameters (the
//! plateau is the honest outcome) and once with `|W| = 4,096`, which
//! reproduces the published curve shape and latency.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use snod_bench::report::{num, Table};
use snod_core::{EstimatorConfig, SensorEstimator};
use snod_data::{DataStream, DriftingGaussianStream, DRIFT_PERIOD};
use snod_density::js_divergence_models;

const GRID: usize = 128;
const LEAVES: usize = 4;

fn estimator(window: usize, sample: usize, seed: u64) -> SensorEstimator {
    SensorEstimator::new(
        EstimatorConfig::builder()
            .window(window)
            .sample_size(sample)
            .seed(seed)
            .build()
            .expect("valid config"),
    )
}

struct Outcome {
    table: Table,
    max_stable_leaf: f64,
    recovery: Vec<(u64, u64, f64, f64)>, // (shift, leaf latency, p50 js@+2500, p75 js@+2500)
}

fn run(window: usize, sample: usize) -> Outcome {
    let total = 3 * DRIFT_PERIOD;
    let mut streams: Vec<DriftingGaussianStream> = (0..LEAVES)
        .map(|i| DriftingGaussianStream::new(10 + i as u64))
        .collect();
    let mut leaf_ests: Vec<SensorEstimator> = (0..LEAVES)
        .map(|i| estimator(window, sample, 100 + i as u64))
        .collect();
    // Parent windows sized to their arrival rate (≈ 2·l·|R|·f arrivals
    // cover the same time horizon the leaf windows do).
    let arrivals = |f: f64| ((2.0 * LEAVES as f64 * sample as f64 * f) as usize).max(sample);
    let mut parent_f50 = estimator(arrivals(0.50), sample, 777);
    let mut parent_f75 = estimator(arrivals(0.75), sample, 778);
    let mut rng = StdRng::seed_from_u64(42);

    let mut table = Table::new([
        "reading",
        "truth μ",
        "leaf JS",
        "parent f=0.50",
        "parent f=0.75",
    ]);
    let mut max_stable_leaf = 0.0f64;
    let mut recovery = Vec::new();
    let mut pending: Option<u64> = None;

    let js = |est: &SensorEstimator, truth: &snod_data::TrueDistribution| -> f64 {
        est.model()
            .ok()
            .and_then(|m| js_divergence_models(&m, truth, GRID).ok())
            .unwrap_or(f64::NAN)
    };

    for i in 0..total {
        for s in 0..LEAVES {
            let v = streams[s].next_reading();
            let accepted = leaf_ests[s].observe(&v).expect("1-d reading");
            if accepted {
                if rng.gen::<f64>() < 0.50 {
                    parent_f50.observe(&v).expect("1-d reading");
                }
                if rng.gen::<f64>() < 0.75 {
                    parent_f75.observe(&v).expect("1-d reading");
                }
            }
        }
        if i > 0 && i % DRIFT_PERIOD == 0 {
            pending = Some(i);
        }
        if i % 128 == 127 || i + 1 == total {
            // Truth for the regime that produced reading i (computing it
            // from the stream position would flip one reading early at
            // period boundaries).
            let (mu, sigma) = DriftingGaussianStream::regime_at(i);
            let truth = snod_data::TrueDistribution::gaussian_1d(mu, sigma);
            let leaf_js = js(&leaf_ests[0], &truth);
            if i % 512 == 511 || i + 1 == total {
                table.row([
                    (i + 1).to_string(),
                    num(DriftingGaussianStream::regime_at(i).0, 2),
                    num(leaf_js, 4),
                    num(js(&parent_f50, &truth), 4),
                    num(js(&parent_f75, &truth), 4),
                ]);
            }
            if let Some(shift) = pending {
                if leaf_js < 0.1 {
                    recovery.push((
                        shift,
                        i - shift,
                        js(&parent_f50, &truth),
                        js(&parent_f75, &truth),
                    ));
                    pending = None;
                }
            } else if i >= 2_048 && leaf_js.is_finite() {
                max_stable_leaf = max_stable_leaf.max(leaf_js);
            }
        }
    }
    Outcome {
        table,
        max_stable_leaf,
        recovery,
    }
}

fn main() {
    let mut phases: Vec<(String, snod_obs::MetricsSnapshot)> = Vec::new();
    for (label, window, sample) in [
        ("paper-verbatim |W|=10,240", 10_240usize, 1_024usize),
        ("shift-consistent |W|=4,096", 4_096, 1_024),
    ] {
        let (o, metrics) = snod_bench::obs_report::phase(|| run(window, sample));
        phases.push((format!("window_{window}"), metrics));
        println!("== Figure 6 ({label}), |R|={sample}, shift every {DRIFT_PERIOD} ==\n");
        println!("{}", o.table.render());
        println!(
            "max leaf JS while distribution stable: {:.4}",
            o.max_stable_leaf
        );
        if o.recovery.is_empty() {
            println!(
                "no re-convergence below 0.1 before the next shift \
                 (window spans {:.1} shift periods)",
                window as f64 / DRIFT_PERIOD as f64
            );
        }
        for (at, lat, p50, p75) in &o.recovery {
            println!(
                "shift at {at}: leaf below 0.1 after ~{lat} readings \
                 (parents at that instant: f=0.50 → {p50:.3}, f=0.75 → {p75:.3})"
            );
        }
        println!();
    }
    // Per-phase observability breakdown: sketch ingest counters, KDE
    // build spans and scalar-query kernel counts per window setting.
    snod_bench::obs_report::write_phases("FIG06_metrics.json", &phases)
        .expect("write FIG06_metrics.json");
    println!(
        "per-phase metrics: FIG06_metrics.json ({} phases)",
        phases.len()
    );
}
