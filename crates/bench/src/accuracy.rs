//! Shared machinery for the precision/recall experiments
//! (Figures 7, 8, 9 and 10 of the paper).
//!
//! One *run* of an accuracy experiment:
//!
//! 1. builds the §10.2 hierarchy (32 leaves under 3 leader tiers by
//!    default),
//! 2. replays per-sensor streams through **D3** and **MGDD** (separate
//!    simulations over identical streams),
//! 3. maintains exact ground truth for every hierarchy level via
//!    [`crate::harness::RecordingSource`],
//! 4. additionally evaluates the offline **histogram** estimator of the
//!    paper's comparison (equi-depth over the exact union windows,
//!    periodically rebuilt — deliberately favoured, as in the paper),
//! 5. scores precision and recall per `(algorithm, estimator, level)`.
//!
//! Runs are farmed out to scoped threads; results are pooled
//! micro-averages over runs, as in the paper's 12-run averages.

use std::collections::HashMap;

use snod_core::pipeline::{Algorithm, OutlierPipeline};
use snod_core::{
    run_backend, D3Config, EstimatorConfig, FqnBackend, FqnConfig, MgddConfig, MmdewBackend,
    MmdewNodeConfig, UpdateStrategy,
};
use snod_data::{DataStream, SensorStreams};
use snod_density::{DensityModel, EquiDepthHistogram, GridHistogram};
use snod_outlier::{DistanceOutlierConfig, MdefConfig, MdefDetector, PrecisionRecall};
use snod_simnet::{Hierarchy, NodeId, SimConfig};

use crate::harness::{score_level, value_key, ReadingRecord, RecordingSource};

/// Which estimator produced a score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// The paper's kernel density models (online).
    Kernel,
    /// Equi-depth histograms over the exact windows (offline baseline).
    Histogram,
}

/// Which detection algorithm produced a score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Distance-based distributed detection.
    D3,
    /// MDEF-based multi-granular detection.
    Mgdd,
}

/// Key of one result series: algorithm × estimator × hierarchy level.
pub type SeriesKey = (AlgorithmKind, EstimatorKind, u8);

/// Configuration of one accuracy experiment.
pub struct AccuracyConfig {
    /// Leaf sensors (paper: 32).
    pub leaves: usize,
    /// Leader fan-outs above the leaves (paper reconstruction: 4/2/4).
    pub fanouts: Vec<usize>,
    /// Data dimensionality.
    pub dims: usize,
    /// Sliding window `|W|`.
    pub window: usize,
    /// Kernel sample size `|R|` (= histogram buckets `|B|`).
    pub sample_size: usize,
    /// Sample-propagation fraction `f`.
    pub sample_fraction: f64,
    /// Distance rule for D3 and its truth.
    pub dist_rule: DistanceOutlierConfig,
    /// MDEF rule for MGDD and its truth.
    pub mdef_rule: MdefConfig,
    /// Readings per leaf before scoring starts.
    pub warmup: u64,
    /// Scored readings per leaf.
    pub eval: u64,
    /// Rebuild period (in scored readings per leaf) of the offline
    /// histograms.
    pub hist_refresh: u64,
    /// Independent runs to average over (paper: 12).
    pub runs: u64,
    /// Base RNG seed; run `i` uses `seed + i`.
    pub seed: u64,
    /// Run the histogram baseline too (1-d only).
    pub with_histograms: bool,
    /// Run the D3 pass.
    pub with_d3: bool,
    /// Run the MGDD pass.
    pub with_mgdd: bool,
}

impl AccuracyConfig {
    /// The paper's §10.2 defaults for the 1-d synthetic experiment.
    pub fn paper_defaults_1d() -> Self {
        Self {
            leaves: 32,
            fanouts: vec![4, 2, 4],
            dims: 1,
            window: 10_000,
            sample_size: 500,
            sample_fraction: 0.5,
            dist_rule: DistanceOutlierConfig::new(45.0, 0.01),
            mdef_rule: MdefConfig::new(0.08, 0.01, 3.0).expect("paper parameters are valid"),
            warmup: 10_000,
            eval: 1_000,
            hist_refresh: 100,
            runs: 3,
            seed: 1,
            with_histograms: false,
            with_d3: true,
            with_mgdd: true,
        }
    }
}

/// Pooled results of an accuracy experiment.
#[derive(Debug, Default)]
pub struct AccuracyResults {
    /// Micro-averaged confusion counts per series.
    pub series: HashMap<SeriesKey, PrecisionRecall>,
    /// Total true distance outliers per level (diagnostics).
    pub true_dist: Vec<u64>,
    /// Total true MDEF outliers per level (diagnostics).
    pub true_mdef: Vec<u64>,
    /// Scored readings.
    pub scored: u64,
}

impl AccuracyResults {
    fn merge(&mut self, other: AccuracyResults) {
        for (k, v) in other.series {
            self.series.entry(k).or_default().merge(&v);
        }
        if self.true_dist.len() < other.true_dist.len() {
            self.true_dist.resize(other.true_dist.len(), 0);
            self.true_mdef.resize(other.true_mdef.len(), 0);
        }
        for (a, b) in self.true_dist.iter_mut().zip(other.true_dist.iter()) {
            *a += b;
        }
        for (a, b) in self.true_mdef.iter_mut().zip(other.true_mdef.iter()) {
            *a += b;
        }
        self.scored += other.scored;
    }
}

/// Runs the experiment, parallelising independent runs across threads.
/// `make_stream(run, sensor)` builds sensor `sensor`'s stream for run
/// `run` (must be deterministic in its arguments).
pub fn run_accuracy<F, S>(cfg: &AccuracyConfig, make_stream: F) -> AccuracyResults
where
    F: Fn(u64, usize) -> S + Sync,
    S: DataStream + Send + 'static,
{
    let mut total = AccuracyResults::default();
    let results: Vec<AccuracyResults> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.runs)
            .map(|run| {
                let make_stream = &make_stream;
                scope.spawn(move || single_run(cfg, run, make_stream))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("run panicked"))
            .collect()
    });
    for r in results {
        total.merge(r);
    }
    total
}

fn estimator_config(cfg: &AccuracyConfig, seed: u64) -> EstimatorConfig {
    EstimatorConfig::builder()
        .window(cfg.window)
        .sample_size(cfg.sample_size)
        .dimensions(cfg.dims)
        .seed(seed)
        .build()
        .expect("accuracy config is valid")
}

fn single_run<F, S>(cfg: &AccuracyConfig, run: u64, make_stream: &F) -> AccuracyResults
where
    F: Fn(u64, usize) -> S,
    S: DataStream + Send + 'static,
{
    let topo = Hierarchy::balanced(cfg.leaves, &cfg.fanouts).expect("valid hierarchy");
    let sim = SimConfig::default();
    let levels = topo.level_count();
    let readings = cfg.warmup + cfg.eval;
    let mut results = AccuracyResults {
        true_dist: vec![0; levels],
        true_mdef: vec![0; levels],
        ..Default::default()
    };

    let mut diagnostic_records: Option<Vec<ReadingRecord>> = None;

    // ---- D3 over the kernel estimators --------------------------------
    if cfg.with_d3 {
        let d3_cfg = D3Config {
            estimator: estimator_config(cfg, cfg.seed + run * 1_000 + 7),
            rule: cfg.dist_rule,
            sample_fraction: cfg.sample_fraction,
        };
        let mut streams = SensorStreams::generate(cfg.leaves, |i| make_stream(run, i));
        let mut source = RecordingSource::new(
            &mut streams,
            &topo,
            cfg.window,
            cfg.dist_rule,
            cfg.mdef_rule,
            cfg.warmup,
        );
        let pipeline = OutlierPipeline::new(topo.clone(), sim, Algorithm::D3(d3_cfg));
        let report = pipeline.run(&mut source, readings).expect("d3 run");
        let records = std::mem::take(&mut source.records);
        for level in 1..=levels as u8 {
            let detections = report
                .detections_by_level
                .get(&level)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let pr = score_level(&records, detections, level, |r| {
                r.dist_truth[(level - 1) as usize]
            });
            results
                .series
                .entry((AlgorithmKind::D3, EstimatorKind::Kernel, level))
                .or_default()
                .merge(&pr);
        }
        diagnostic_records = Some(records);
    }

    // ---- MGDD over the kernel estimators (fresh identical streams) ----
    if cfg.with_mgdd {
        let mgdd_cfg = MgddConfig {
            estimator: estimator_config(cfg, cfg.seed + run * 1_000 + 13),
            rule: cfg.mdef_rule,
            sample_fraction: cfg.sample_fraction,
            updates: UpdateStrategy::EveryAcceptance,
            staleness_bound_ns: None,
        };
        let broadcast_levels: Vec<u8> = (2..=levels as u8).collect();
        let mut streams2 = SensorStreams::generate(cfg.leaves, |i| make_stream(run, i));
        let mut source2 = RecordingSource::new(
            &mut streams2,
            &topo,
            cfg.window,
            cfg.dist_rule,
            cfg.mdef_rule,
            cfg.warmup,
        );
        let pipeline2 = OutlierPipeline::new(
            topo.clone(),
            sim,
            Algorithm::Mgdd(mgdd_cfg, broadcast_levels.clone()),
        );
        let report2 = pipeline2.run(&mut source2, readings).expect("mgdd run");
        let records2 = std::mem::take(&mut source2.records);
        for &level in &broadcast_levels {
            let detections = report2
                .detections_by_level
                .get(&level)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let pr = score_level(&records2, detections, level, |r| {
                r.mdef_truth[(level - 1) as usize]
            });
            results
                .series
                .entry((AlgorithmKind::Mgdd, EstimatorKind::Kernel, level))
                .or_default()
                .merge(&pr);
        }
        if diagnostic_records.is_none() {
            diagnostic_records = Some(records2);
        }
    }

    // Truth diagnostics from whichever pass ran first.
    if let Some(records) = &diagnostic_records {
        for r in records {
            for level0 in 0..levels {
                results.true_dist[level0] += r.dist_truth[level0] as u64;
                results.true_mdef[level0] += r.mdef_truth[level0] as u64;
            }
        }
        results.scored = records.len() as u64;
    }

    // ---- Offline histogram baseline ------------------------------------
    if cfg.with_histograms {
        let hist = histogram_pass(cfg, run, make_stream, &topo);
        for (k, v) in hist {
            results.series.entry(k).or_default().merge(&v);
        }
    }
    results
}

/// The paper's histogram comparison: equi-depth histograms with
/// `|B| = |R|` buckets built *offline* over the exact union windows,
/// refreshed every `hist_refresh` readings per leaf, and used to answer
/// the same `N(p, r)` / MDEF queries.
fn histogram_pass<F, S>(
    cfg: &AccuracyConfig,
    run: u64,
    make_stream: &F,
    topo: &Hierarchy,
) -> HashMap<SeriesKey, PrecisionRecall>
where
    F: Fn(u64, usize) -> S,
    S: DataStream + Send + 'static,
{
    let levels = topo.level_count();
    // Exact per-leaf ring windows.
    let mut windows: Vec<std::collections::VecDeque<Vec<f64>>> =
        vec![std::collections::VecDeque::new(); cfg.leaves];
    let mut streams = SensorStreams::generate(cfg.leaves, |i| make_stream(run, i));

    // Ancestors per leaf, as node indices, one per level.
    let ancestors: Vec<Vec<usize>> = topo
        .leaves()
        .iter()
        .map(|&leaf| {
            let mut path = vec![leaf.index()];
            let mut n = leaf;
            while let Some(p) = topo.parent(n) {
                path.push(p.index());
                n = p;
            }
            path
        })
        .collect();
    // Members per node (leaf positions under it).
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); topo.node_count()];
    for (pos, path) in ancestors.iter().enumerate() {
        for &node in path {
            members[node].push(pos);
        }
    }

    enum HistModel {
        One(EquiDepthHistogram),
        Multi(GridHistogram),
    }
    impl HistModel {
        fn as_model(&self) -> &dyn DensityModel {
            match self {
                HistModel::One(h) => h,
                HistModel::Multi(h) => h,
            }
        }
    }
    let mut models: Vec<Option<HistModel>> = (0..topo.node_count()).map(|_| None).collect();
    let rebuild = |windows: &[std::collections::VecDeque<Vec<f64>>],
                   members: &[usize]|
     -> Option<HistModel> {
        if cfg.dims == 1 {
            let mut values: Vec<f64> = Vec::new();
            for &m in members {
                values.extend(windows[m].iter().map(|v| v[0]));
            }
            EquiDepthHistogram::from_window(&values, cfg.sample_size)
                .ok()
                .map(HistModel::One)
        } else {
            let mut pts: Vec<Vec<f64>> = Vec::new();
            for &m in members {
                pts.extend(windows[m].iter().cloned());
            }
            // bins per dim so that total cells ≈ |B| (comparable memory)
            let bins =
                ((cfg.sample_size as f64).powf(1.0 / cfg.dims as f64).round() as usize).max(2);
            GridHistogram::from_window(&pts, cfg.dims, bins)
                .ok()
                .map(HistModel::Multi)
        }
    };

    let detector = MdefDetector::new(cfg.mdef_rule);
    let mut truth =
        crate::harness::TruthTracker::new(topo, cfg.window, cfg.dist_rule, cfg.mdef_rule);
    let mut prs: HashMap<SeriesKey, PrecisionRecall> = HashMap::new();
    let total = cfg.warmup + cfg.eval;
    for seq in 0..total {
        if seq >= cfg.warmup && (seq - cfg.warmup).is_multiple_of(cfg.hist_refresh) {
            // Periodic offline rebuild of every node's histogram from the
            // exact union windows (once per instant, not per leaf).
            for node in 0..topo.node_count() {
                models[node] = rebuild(&windows, &members[node]);
            }
        }
        for leaf in 0..cfg.leaves {
            let v = streams.next_for(leaf);
            let (dist_t, mdef_t) = truth.ingest(leaf, &v);
            if windows[leaf].len() == cfg.window {
                windows[leaf].pop_front();
            }
            windows[leaf].push_back(v.clone());
            if seq < cfg.warmup {
                continue;
            }
            for (level0, &node) in ancestors[leaf].iter().enumerate() {
                let Some(model) = models[node].as_ref() else {
                    continue;
                };
                let level = (level0 + 1) as u8;
                // D3-Histogram: same (D, r) rule on the histogram model,
                // with the threshold density-scaled to the union window
                // (as everywhere else in the hierarchy).
                let n = model
                    .as_model()
                    .neighborhood_count(&v, cfg.dist_rule.radius)
                    .unwrap_or(f64::INFINITY);
                let t_eff =
                    cfg.dist_rule.min_neighbors * model.as_model().window_len() / cfg.window as f64;
                let d_pred = n < t_eff;
                prs.entry((AlgorithmKind::D3, EstimatorKind::Histogram, level))
                    .or_default()
                    .record(d_pred, dist_t[level0]);
                // MGDD-Histogram: MDEF test on the histogram model
                // (leaders only, matching MGDD's granularity levels).
                if level >= 2 {
                    let m_pred = detector
                        .evaluate(model.as_model(), &v)
                        .map(|e| e.is_outlier)
                        .unwrap_or(false);
                    prs.entry((AlgorithmKind::Mgdd, EstimatorKind::Histogram, level))
                        .or_default()
                        .record(m_pred, mdef_t[level0]);
                }
            }
        }
    }
    let _ = levels;
    prs
}

/// One point of a parameter sweep: the swept parameter value and the
/// pooled confusion counts measured there.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// The swept threshold (FQN `k_scale`, MMDEW `threshold_scale`).
    pub parameter: f64,
    /// Micro-averaged precision/recall at that threshold.
    pub pr: PrecisionRecall,
}

/// Configuration of the FQN labeled-contamination experiment: a
/// stationary base stream with **known** injected gross outliers, so
/// ground truth is exact by construction (every injected value is
/// bit-unique and far outside the base band).
pub struct FqnAccuracyConfig {
    /// Leaf sensors.
    pub leaves: usize,
    /// Leader fan-outs above the leaves.
    pub fanouts: Vec<usize>,
    /// Base FQN recipe; `k_scale` is overridden per sweep point.
    pub fqn: FqnConfig,
    /// Readings per leaf before injection starts (window training).
    pub warmup: u64,
    /// Scored readings per leaf.
    pub eval: u64,
    /// One outlier per leaf every this many scored readings.
    pub outlier_every: u64,
    /// The `k_scale` thresholds to sweep.
    pub k_scales: Vec<f64>,
    /// Stream seed.
    pub seed: u64,
}

/// The injected value for `(leaf, seq)`: far above the base band and
/// bit-unique, so detections can be matched back to labels exactly.
fn fqn_injected_value(leaf: u32, seq: u64) -> f64 {
    0.95 + 1e-9 * (leaf as f64 * 131_071.0 + seq as f64)
}

fn fqn_base_value(leaf: u32, seq: u64, seed: u64) -> f64 {
    let h = (leaf as u64 * 1_000_003) ^ seq.wrapping_mul(7_919 + seed);
    0.35 + 0.2 * ((h % 1_009) as f64 / 1_009.0)
}

/// Sweeps `k_scale` and scores leaf-level FQN detections against the
/// injected-contamination labels: a true positive is an injected value
/// flagged by its leaf, a false positive any flagged base value, a
/// false negative an injection that went unflagged.
pub fn fqn_accuracy_sweep(cfg: &FqnAccuracyConfig) -> Vec<OperatingPoint> {
    let topo = Hierarchy::balanced(cfg.leaves, &cfg.fanouts).expect("valid accuracy hierarchy");
    let readings = cfg.warmup + cfg.eval;
    let warmup = cfg.warmup;
    let outlier_every = cfg.outlier_every;
    let injected = move |seq: u64| seq >= warmup && (seq - warmup).is_multiple_of(outlier_every);
    let mut truth: std::collections::HashSet<Vec<u64>> = std::collections::HashSet::new();
    for &leaf in topo.leaves() {
        for seq in 0..readings {
            if injected(seq) {
                truth.insert(value_key(&[fqn_injected_value(leaf.0, seq)]));
            }
        }
    }

    let seed = cfg.seed;
    cfg.k_scales
        .iter()
        .map(|&k| {
            let fqn = FqnConfig {
                k_scale: k,
                ..cfg.fqn
            };
            let mut source = move |node: NodeId, seq: u64| {
                Some(vec![if injected(seq) {
                    fqn_injected_value(node.0, seq)
                } else {
                    fqn_base_value(node.0, seq, seed)
                }])
            };
            let backend = FqnBackend(fqn);
            let net = run_backend(&backend, topo.clone(), SimConfig::default(), &mut source, readings)
                .expect("fqn accuracy recipe is valid");
            let mut pr = PrecisionRecall::new();
            let mut hit: std::collections::HashSet<Vec<u64>> = std::collections::HashSet::new();
            for (_, app) in net.apps() {
                for d in app.detections.iter().filter(|d| d.level == 1) {
                    let key = value_key(&d.value);
                    if truth.contains(&key) {
                        hit.insert(key);
                    } else {
                        pr.false_positives += 1;
                    }
                }
            }
            pr.true_positives = hit.len() as u64;
            pr.false_negatives = truth.len() as u64 - pr.true_positives;
            OperatingPoint { parameter: k, pr }
        })
        .collect()
}

/// Configuration of the MMDEW change-point experiment: a
/// piecewise-stationary stream whose mean jumps at **known** change
/// points every `segment` readings, scored event-wise — a change is
/// detected if some alarm lands within `tolerance` readings after it.
pub struct MmdewAccuracyConfig {
    /// Leaf sensors.
    pub leaves: usize,
    /// Leader fan-outs above the leaves.
    pub fanouts: Vec<usize>,
    /// Base MMDEW recipe; `threshold_scale` is overridden per point.
    pub node: MmdewNodeConfig,
    /// Segment length: the mean jumps every `segment` readings.
    pub segment: u64,
    /// Readings per leaf.
    pub readings: u64,
    /// Detection window after each change point, in readings.
    pub tolerance: u64,
    /// The `threshold_scale` values to sweep.
    pub threshold_scales: Vec<f64>,
    /// Stream seed.
    pub seed: u64,
}

/// Sweeps `threshold_scale` and scores leaf-level MMDEW alarms against
/// the planted change points, event-wise per leaf: each change point is
/// a true positive if any alarm on that leaf lands in
/// `[cp, cp + tolerance]` (extra alarms inside the window fold into the
/// same event), a false negative otherwise; alarms outside every window
/// are false positives.
pub fn mmdew_accuracy_sweep(cfg: &MmdewAccuracyConfig) -> Vec<OperatingPoint> {
    let topo = Hierarchy::balanced(cfg.leaves, &cfg.fanouts).expect("valid accuracy hierarchy");
    let sim = SimConfig::default();
    let period = sim.reading_period_ns;
    let change_points: Vec<u64> = (1..)
        .map(|k| k * cfg.segment)
        .take_while(|&cp| cp < cfg.readings)
        .collect();
    let seed = cfg.seed;
    let segment = cfg.segment;

    cfg.threshold_scales
        .iter()
        .map(|&ts| {
            let mut node_cfg = cfg.node;
            node_cfg.detector.threshold_scale = ts;
            let mut source = move |node: NodeId, seq: u64| {
                let h = (node.0 as u64 * 1_000_003) ^ seq.wrapping_mul(7_919 + seed);
                let base = if (seq / segment).is_multiple_of(2) { 0.2 } else { 0.8 };
                Some(vec![base + 0.02 * ((h % 1_009) as f64 / 1_009.0)])
            };
            let backend = MmdewBackend(node_cfg);
            let net = run_backend(&backend, topo.clone(), sim, &mut source, cfg.readings)
                .expect("mmdew accuracy recipe is valid");
            let mut pr = PrecisionRecall::new();
            for &leaf in topo.leaves() {
                let alarm_seqs: Vec<u64> = net
                    .app(leaf)
                    .detections
                    .iter()
                    .map(|d| d.time_ns / period)
                    .collect();
                for &cp in &change_points {
                    let hit = alarm_seqs
                        .iter()
                        .any(|&s| s >= cp && s <= cp + cfg.tolerance);
                    if hit {
                        pr.true_positives += 1;
                    } else {
                        pr.false_negatives += 1;
                    }
                }
                pr.false_positives += alarm_seqs
                    .iter()
                    .filter(|&&s| {
                        !change_points
                            .iter()
                            .any(|&cp| s >= cp && s <= cp + cfg.tolerance)
                    })
                    .count() as u64;
            }
            OperatingPoint { parameter: ts, pr }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snod_data::GaussianMixtureStream;

    /// A miniature end-to-end accuracy run: small windows, few readings —
    /// checks plumbing, not paper-scale numbers.
    #[test]
    fn miniature_accuracy_run_produces_all_series() {
        let cfg = AccuracyConfig {
            leaves: 4,
            fanouts: vec![2, 2],
            dims: 1,
            window: 300,
            sample_size: 40,
            sample_fraction: 0.5,
            dist_rule: DistanceOutlierConfig::new(5.0, 0.01),
            mdef_rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
            warmup: 300,
            eval: 150,
            hist_refresh: 50,
            runs: 2,
            seed: 9,
            with_histograms: true,
            with_d3: true,
            with_mgdd: true,
        };
        let results = run_accuracy(&cfg, |run, sensor| {
            GaussianMixtureStream::new(1, run * 100 + sensor as u64)
        });
        check_miniature(results);
    }

    #[test]
    fn fqn_sweep_traces_the_precision_recall_tradeoff() {
        let cfg = FqnAccuracyConfig {
            leaves: 4,
            fanouts: vec![2, 2],
            fqn: FqnConfig {
                dimensions: 1,
                window: 128,
                k_scale: 4.0, // overridden per sweep point
                warmup: 32,
                sample_fraction: 0.5,
                seed: 11,
            },
            warmup: 128,
            eval: 400,
            outlier_every: 50,
            k_scales: vec![2.0, 4.0, 12.0],
            seed: 5,
        };
        let points = fqn_accuracy_sweep(&cfg);
        assert_eq!(points.len(), 3);
        let planted = 4 * (400u64).div_ceil(50);
        for p in &points {
            assert_eq!(
                p.pr.true_positives + p.pr.false_negatives,
                planted,
                "k={}: label accounting drifted",
                p.parameter
            );
        }
        // Loosening the threshold can only add detections: recall is
        // monotone non-increasing in k.
        assert!(points[0].pr.recall() >= points[1].pr.recall());
        assert!(points[1].pr.recall() >= points[2].pr.recall());
        // The operating point the CLI defaults to actually works: the
        // gross injections are far outside the base band.
        let at4 = &points[1].pr;
        assert!(at4.recall() > 0.8, "k=4 recall {:.3}", at4.recall());
        assert!(at4.precision() > 0.8, "k=4 precision {:.3}", at4.precision());
    }

    #[test]
    fn mmdew_sweep_finds_the_planted_changes() {
        let mut node = MmdewNodeConfig::default();
        node.detector.bucket_cap = 16;
        node.detector.min_per_side = 8;
        node.detector.seed = 11;
        let cfg = MmdewAccuracyConfig {
            leaves: 4,
            fanouts: vec![2, 2],
            node,
            segment: 250,
            readings: 1_000,
            tolerance: 100,
            threshold_scales: vec![0.6, 5.0],
            seed: 5,
        };
        let points = mmdew_accuracy_sweep(&cfg);
        assert_eq!(points.len(), 2);
        let events = 4 * 3; // 4 leaves × change points at 250/500/750
        for p in &points {
            assert_eq!(
                p.pr.true_positives + p.pr.false_negatives,
                events,
                "ts={}: event accounting drifted",
                p.parameter
            );
        }
        // At the default threshold the detector catches the jumps…
        assert!(
            points[0].pr.recall() > 0.6,
            "ts=0.6 recall {:.3}",
            points[0].pr.recall()
        );
        // …and a much stricter threshold can only suppress alarms.
        assert!(points[1].pr.recall() <= points[0].pr.recall());
        assert!(
            points[1].pr.false_positives <= points[0].pr.false_positives,
            "a stricter threshold invented alarms"
        );
    }

    fn check_miniature(results: AccuracyResults) {
        assert_eq!(results.scored, 2 * 4 * 150);
        // All series exist: D3 kernel levels 1–3, MGDD kernel levels 2–3,
        // histogram variants.
        for level in 1..=3u8 {
            assert!(results.series.contains_key(&(
                AlgorithmKind::D3,
                EstimatorKind::Kernel,
                level
            )));
            assert!(results.series.contains_key(&(
                AlgorithmKind::D3,
                EstimatorKind::Histogram,
                level
            )));
        }
        for level in 2..=3u8 {
            assert!(results.series.contains_key(&(
                AlgorithmKind::Mgdd,
                EstimatorKind::Kernel,
                level
            )));
            assert!(results.series.contains_key(&(
                AlgorithmKind::Mgdd,
                EstimatorKind::Histogram,
                level
            )));
        }
    }
}
