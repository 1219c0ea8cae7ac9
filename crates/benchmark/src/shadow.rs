//! Shadow pipelines: one leaf's step replayed call by call through each
//! layer's public functions, on the workload's own readings, with a
//! span per call. The engines make the same calls in the same order
//! (`SensorEstimator::observe` / `cached_model` /
//! `is_distance_outlier_scaled`, `MgddNode::check` / `absorb`,
//! `FqnNode::ingest`); replaying them from outside is what lets the
//! benchmark time a layer without instrumenting the program.
//!
//! The shadow runs hot in cache on a single leaf, so its per-call times
//! are lower bounds for the same calls inside an 85-node network; the
//! in-situ `core.leaf_step_ns` says by how much.

use std::time::Instant;

use snod_core::{EstimatorConfig, FqnConfig, IncrementalReplica, MgddConfig, SensorEstimator};
use snod_density::{DensityModel, Kde1d};
use snod_outlier::{DistanceOutlierConfig, DistanceOutlierDetector, MdefDetector};
use snod_robust::QnWindow;
use snod_sketch::{ChainSampler, WindowedVariance};

use crate::inputs::ReadingTable;
use crate::report::Outcome;
use crate::trace::{Counter, Span, Tracer, SAMPLE_EVERY};

/// Times calls and, for sampled readings, records them as child spans
/// of the reading's `core.leaf_step.shadow` span.
struct Recorder<'a> {
    tracer: &'a mut Tracer,
    parent: Option<usize>,
    request: u64,
}

impl Recorder<'_> {
    fn begin(&mut self, request: u64) {
        self.request = request;
        self.parent = request.is_multiple_of(SAMPLE_EVERY).then(|| {
            let now = self.tracer.now_ns();
            self.tracer.push(Span {
                name: "core.leaf_step.shadow",
                request,
                start_ns: now,
                end_ns: now,
                parent: None,
            })
        });
    }

    fn end(&mut self) {
        if let Some(p) = self.parent.take() {
            self.tracer.spans[p].end_ns = self.tracer.now_ns();
        }
    }

    fn time<T>(&mut self, name: &'static str, counter: &mut Counter, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let t1 = Instant::now();
        counter.add((t1 - t0).as_nanos() as u64);
        if let Some(p) = self.parent {
            let (start_ns, end_ns) = (self.tracer.at(t0), self.tracer.at(t1));
            self.tracer.push(Span {
                name,
                request: self.request,
                start_ns,
                end_ns,
                parent: Some(p),
            });
        }
        out
    }
}

/// Call counters of one shadow leaf; a counter nobody touched belongs
/// to a layer that idles in the workload.
#[derive(Debug, Default)]
pub struct LeafLayers {
    timer_ns: u64,
    chain_push: Counter,
    variance_push: Counter,
    accepted: u64,
    build: Counter,
    query: Counter,
    kernels: u64,
    batch_counts: Counter,
    distance_check: Counter,
    mdef_eval: Counter,
    qn_push: Counter,
    qn_query: Counter,
}

impl LeafLayers {
    pub fn builds_per_kreading(&self, readings: usize) -> f64 {
        self.build.calls as f64 * 1e3 / readings as f64
    }

    pub fn report(&self, o: &mut Outcome) {
        let ns = |c: &Counter| (c.mean_ns() - self.timer_ns as f64).max(0.0);
        let mut set = |name: &'static str, c: &Counter, scale: f64| {
            if c.calls > 0 {
                o.set_exact(name, ns(c) / scale);
            }
        };
        set("sketch.chain_push_ns", &self.chain_push, 1.0);
        set("sketch.variance_push_ns", &self.variance_push, 1.0);
        set("density.build_us", &self.build, 1e3);
        set("density.query_ns", &self.query, 1.0);
        set("density.batch_counts_us", &self.batch_counts, 1e3);
        set("outlier.distance_check_ns", &self.distance_check, 1.0);
        set("outlier.mdef_eval_us", &self.mdef_eval, 1e3);
        set("robust.qn_push_ns", &self.qn_push, 1.0);
        set("robust.qn_query_us", &self.qn_query, 1e3);
        if self.chain_push.calls > 0 {
            o.set_exact(
                "sketch.sample_turnover",
                self.accepted as f64 / self.chain_push.calls as f64,
            );
        }
        if self.query.calls > 0 {
            o.set_exact(
                "density.kernels_per_query",
                self.kernels as f64 / self.query.calls as f64,
            );
        }
    }
}

/// D3 leaf: variance push, chain push, epoch-cached `Kde1d` build,
/// range query, distance rule — on leaf `leaf` of `table`.
pub fn d3_leaf(
    table: &ReadingTable,
    leaf: usize,
    cfg: &EstimatorConfig,
    rule: &DistanceOutlierConfig,
    tracer: &mut Tracer,
) -> LeafLayers {
    let mut l = LeafLayers {
        timer_ns: tracer.timer_ns,
        ..LeafLayers::default()
    };
    let mut rec = Recorder {
        tracer,
        parent: None,
        request: 0,
    };
    let mut sampler = ChainSampler::<Vec<f64>>::new(cfg.window, cfg.sample_size, cfg.seed)
        .expect("valid sampler");
    let mut variance =
        WindowedVariance::new(cfg.window, cfg.variance_epsilon).expect("valid sketch");
    // (sample version, σ at build, model): the estimator's epoch cache.
    let mut cached: Option<(u64, f64, Kde1d)> = None;
    for seq in 0..table.per_leaf {
        let p = table.value(leaf, seq);
        rec.begin(seq as u64);
        rec.time("sketch.variance_push", &mut l.variance_push, || {
            variance.push(p[0])
        });
        if rec.time("sketch.chain_push", &mut l.chain_push, || {
            sampler.push(p.to_vec())
        }) {
            l.accepted += 1;
        }
        if seq + 1 >= cfg.sample_size {
            let window_len = ((seq + 1) as f64).min(cfg.window as f64);
            let sigma = variance.std_dev();
            let version = sampler.version();
            let stale = cached.as_ref().is_none_or(|(v, built, _)| {
                cfg.rebuild
                    .should_rebuild(version.wrapping_sub(*v), &[*built], &[sigma])
            });
            if stale {
                let model = rec.time("density.build", &mut l.build, || {
                    let sample = sampler.sample();
                    Kde1d::from_sample_iter(sample.iter().map(|v| v[0]), sigma, window_len)
                });
                cached = model.ok().map(|model| (version, sigma, model));
            }
            if let Some((_, _, model)) = &cached {
                let scaled = DistanceOutlierConfig {
                    radius: rule.radius,
                    min_neighbors: rule.min_neighbors * window_len / cfg.window as f64,
                };
                let det = DistanceOutlierDetector::new(scaled);
                let _ = rec.time("outlier.distance_check", &mut l.distance_check, || {
                    det.check(model, p)
                });
                // The same query the rule just made, replayed on its own.
                let _ = rec.time("density.range_query", &mut l.query, || {
                    model.neighborhood_count(p, rule.radius)
                });
                l.kernels +=
                    model.kernels_intersecting(p[0] - rule.radius, p[0] + rule.radius) as u64;
            }
        }
        rec.end();
    }
    l
}

/// MGDD leaf: MDEF check against a replica of a leader's model, then
/// absorb (variance pushes, chain push). The replica is fed by a stand-in
/// leader estimator over leaf 1's stream at `deltas_per_reading`, the
/// rate the real run's broadcasts reached each leaf.
pub fn mgdd_leaf(
    table: &ReadingTable,
    cfg: &MgddConfig,
    deltas_per_reading: f64,
    tracer: &mut Tracer,
) -> LeafLayers {
    let mut l = LeafLayers {
        timer_ns: tracer.timer_ns,
        ..LeafLayers::default()
    };
    let mut rec = Recorder {
        tracer,
        parent: None,
        request: 0,
    };
    let est = cfg.estimator;
    let mut sampler = ChainSampler::<Vec<f64>>::new(est.window, est.sample_size, est.seed)
        .expect("valid sampler");
    let mut variances: Vec<WindowedVariance> = (0..est.dimensions)
        .map(|_| WindowedVariance::new(est.window, est.variance_epsilon).expect("valid sketch"))
        .collect();
    let mut leader = SensorEstimator::new(est);
    let mut replica = IncrementalReplica::new(est.sample_size, est.rebuild);
    let detector = MdefDetector::new(cfg.rule);
    let ar = cfg.rule.counting_radius;
    let mut owed = 0.0f64;
    let mut leader_seq = 0usize;
    for seq in 0..table.per_leaf {
        owed += deltas_per_reading;
        while owed >= 1.0 {
            owed -= 1.0;
            let v = table.value(1 % table.leaves, leader_seq % table.per_leaf);
            leader_seq += 1;
            let _ = leader.observe(v);
            replica.push(v.to_vec(), leader.sigmas(), leader.window_len());
        }
        let p = table.value(0, seq);
        rec.begin(seq as u64);
        if replica.is_warm() {
            let epochs = replica.epochs();
            let t0 = Instant::now();
            let built = replica.model().is_ok();
            if built && replica.epochs() != epochs {
                l.build.add(t0.elapsed().as_nanos() as u64);
            }
            if let Ok(model) = replica.model() {
                let _ = rec.time("outlier.mdef_eval", &mut l.mdef_eval, || {
                    detector.evaluate(model, p)
                });
                // A batch of the shape MDEF sends: p and a 9×9 grid of
                // cell centres, one radius.
                let mut batch = p.to_vec();
                for i in -4..=4 {
                    for j in -4..=4 {
                        batch.push(p[0] + f64::from(i) * 2.0 * ar);
                        batch.push(p[1] + f64::from(j) * 2.0 * ar);
                    }
                }
                let _ = rec.time("density.batch_counts", &mut l.batch_counts, || {
                    model.neighborhood_counts(&batch, ar)
                });
            }
        }
        for (v, wv) in p.iter().zip(variances.iter_mut()) {
            rec.time("sketch.variance_push", &mut l.variance_push, || wv.push(*v));
        }
        if rec.time("sketch.chain_push", &mut l.chain_push, || {
            sampler.push(p.to_vec())
        }) {
            l.accepted += 1;
        }
        rec.end();
    }
    l
}

/// FQN leaf: verdict against the window (median + Q_n), then push.
pub fn fqn_leaf(
    table: &ReadingTable,
    leaf: usize,
    cfg: &FqnConfig,
    tracer: &mut Tracer,
) -> LeafLayers {
    let mut l = LeafLayers {
        timer_ns: tracer.timer_ns,
        ..LeafLayers::default()
    };
    let mut rec = Recorder {
        tracer,
        parent: None,
        request: 0,
    };
    let mut window = QnWindow::new(cfg.window).expect("valid window");
    for seq in 0..table.per_leaf {
        let x = table.value(leaf, seq)[0];
        rec.begin(seq as u64);
        if window.len() >= cfg.warmup {
            rec.time("robust.qn_query", &mut l.qn_query, || {
                window.is_outlier(x, cfg.k_scale)
            });
        }
        let _ = rec.time("robust.qn_push", &mut l.qn_push, || window.push(x));
        rec.end();
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Stream;
    use crate::sim;

    #[test]
    fn each_shadow_touches_only_its_own_layers() {
        let mut tracer = Tracer::new();
        let t1 = ReadingTable::generate(Stream::Mixture1d, 1, 2, 600);
        let cfg = sim::d3_config();
        let d3 = d3_leaf(&t1, 0, &cfg.estimator, &cfg.rule, &mut tracer);
        assert!(d3.chain_push.calls == 600 && d3.build.calls > 0 && d3.query.calls > 0);
        assert!(d3.qn_push.calls == 0 && d3.mdef_eval.calls == 0);

        let t2 = ReadingTable::generate(Stream::Correlated2d, 1, 2, 600);
        let mgdd = mgdd_leaf(&t2, &sim::mgdd_config(), 0.5, &mut tracer);
        assert!(
            mgdd.mdef_eval.calls > 0
                && mgdd.batch_counts.calls > 0
                && mgdd.variance_push.calls == 1200
        );
        assert!(mgdd.query.calls == 0 && mgdd.qn_query.calls == 0);

        let t3 = ReadingTable::generate(Stream::SkewedEngine, 1, 1, 600);
        let fqn = fqn_leaf(&t3, 0, &sim::fqn_config(), &mut tracer);
        assert!(fqn.qn_push.calls == 600 && fqn.qn_query.calls > 0);
        assert!(fqn.chain_push.calls == 0 && fqn.build.calls == 0);

        let by = tracer.self_times();
        assert!(by.contains_key("core.leaf_step.shadow") && by.contains_key("robust.qn_push"));
    }
}
