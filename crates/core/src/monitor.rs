//! Distributed faulty-sensor detection (paper Section 9, run as a
//! network application rather than a local computation).
//!
//! *"Give a warning when the values of a given sensor are significantly
//! different from the values of its neighbors over the most recent time
//! window W … a parent sensor can compute the difference between the
//! estimator models received from its children, to determine if any of
//! them is faulty."*
//!
//! Leaves periodically report their estimator model (sample + σ) to
//! their leader; the leader keeps the latest model per child and, on
//! every update, compares each child against its siblings with the
//! JS-divergence of Section 6, raising a [`FaultAlarm`] whenever a
//! child's mean divergence crosses the threshold. Needs at least three
//! children to attribute the fault.

//! ## Faults and graceful degradation
//!
//! Model reports ride the simulator's reliable channel (ack/retry under
//! a [`SimConfig::with_reliability`] policy). A leader judges a child
//! only while its model is younger than
//! [`MonitorConfig::staleness_bound_ns`]; children whose reports went
//! silent are held at their last verdict and excluded from the sibling
//! comparison, each exclusion counted as a degraded score in
//! `NetStats::degraded_scores`. [`run_monitor_with_faults`] wires a
//! [`FaultPlan`] into the run.

use std::collections::HashMap;

use snod_density::js_divergence_models;
use snod_persist::{ByteReader, ByteWriter, Persist, PersistError};
use snod_simnet::{
    Ctx, DetectorEngine, FaultPlan, Hierarchy, Network, NodeId, SimConfig, StreamSource, Wire,
};

use crate::config::{CoreError, EstimatorConfig};
use crate::estimator::{SensorEstimator, SensorModel};

/// Monitor wire messages: periodic model reports from children.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// The reporting child's kernel sample.
    pub sample: Vec<Vec<f64>>,
    /// Its per-dimension σ estimates.
    pub sigmas: Vec<f64>,
    /// Its conceptual window length.
    pub window_len: f64,
}

impl Wire for ModelReport {
    fn size_bytes(&self) -> usize {
        self.sample.iter().map(|v| v.len() * 2).sum::<usize>() + self.sigmas.len() * 2 + 2
    }
}

impl Persist for ModelReport {
    fn save(&self, w: &mut ByteWriter) {
        self.sample.save(w);
        self.sigmas.save(w);
        self.window_len.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            sample: Vec::load(r)?,
            sigmas: Vec::load(r)?,
            window_len: f64::load(r)?,
        })
    }
}

/// One raised fault alarm.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAlarm {
    /// When the alarm fired.
    pub time_ns: u64,
    /// The child judged faulty.
    pub child: NodeId,
    /// Its mean JS-divergence from the siblings at that instant.
    pub divergence: f64,
}

/// Configuration of the monitor application.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Per-leaf estimator parameters.
    pub estimator: EstimatorConfig,
    /// Readings between model reports.
    pub report_every: u64,
    /// Mean sibling JS-divergence above which a child is flagged.
    pub threshold: f64,
    /// Grid resolution for the divergence computation.
    pub grid_k: usize,
    /// Maximum age (simulated ns) of a child's model before the leader
    /// stops judging it against its siblings: a silent child is held at
    /// its last verdict rather than blamed on stale evidence, and every
    /// stale exclusion during a reassessment is surfaced in
    /// `NetStats::degraded_scores`. `None` trusts models forever (the
    /// pre-fault-layer behaviour).
    pub staleness_bound_ns: Option<u64>,
}

/// A leader's view of one child: the materialised model plus the epoch
/// state that decides when a fresh report warrants rebuilding it.
struct ChildModel {
    model: SensorModel,
    /// σ snapshot the model was built from.
    built_sigmas: Vec<f64>,
    /// Reports absorbed (skipped) since the model was last rebuilt.
    reports_since_rebuild: u64,
    /// Simulated time the child last reported (any report counts, even
    /// epoch-skipped ones — the child proved it is alive).
    updated_ns: u64,
}

/// Per-node monitor state.
pub struct MonitorNode {
    cfg: MonitorConfig,
    level: u8,
    est: SensorEstimator,
    since_report: u64,
    /// Leader: latest model per child, rebuilt per the epoch policy in
    /// `cfg.estimator.rebuild` (statistically unchanged reports keep the
    /// existing model and skip the `O(children²·grid)` reassessment).
    child_models: HashMap<NodeId, ChildModel>,
    /// Children currently considered faulty (for edge-triggered alarms).
    currently_flagged: HashMap<NodeId, bool>,
    /// Alarms raised by this leader, in order.
    pub alarms: Vec<FaultAlarm>,
}

impl Persist for FaultAlarm {
    fn save(&self, w: &mut ByteWriter) {
        self.time_ns.save(w);
        self.child.save(w);
        self.divergence.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            time_ns: u64::load(r)?,
            child: NodeId::load(r)?,
            divergence: f64::load(r)?,
        })
    }
}

impl Persist for MonitorConfig {
    fn save(&self, w: &mut ByteWriter) {
        self.estimator.save(w);
        self.report_every.save(w);
        self.threshold.save(w);
        self.grid_k.save(w);
        self.staleness_bound_ns.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let cfg = Self {
            estimator: EstimatorConfig::load(r)?,
            report_every: u64::load(r)?,
            threshold: f64::load(r)?,
            grid_k: usize::load(r)?,
            staleness_bound_ns: Option::load(r)?,
        };
        if cfg.report_every == 0 || cfg.grid_k == 0 || cfg.staleness_bound_ns == Some(0) {
            return Err(PersistError::Corrupt("invalid monitor config"));
        }
        Ok(cfg)
    }
}

impl Persist for ChildModel {
    fn save(&self, w: &mut ByteWriter) {
        self.model.save(w);
        self.built_sigmas.save(w);
        self.reports_since_rebuild.save(w);
        self.updated_ns.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            model: SensorModel::load(r)?,
            built_sigmas: Vec::load(r)?,
            reports_since_rebuild: u64::load(r)?,
            updated_ns: u64::load(r)?,
        })
    }
}

impl Persist for MonitorNode {
    fn save(&self, w: &mut ByteWriter) {
        self.cfg.save(w);
        w.put_u8(self.level);
        self.est.save(w);
        self.since_report.save(w);
        self.child_models.save(w);
        self.currently_flagged.save(w);
        self.alarms.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            cfg: MonitorConfig::load(r)?,
            level: r.get_u8()?,
            est: SensorEstimator::load(r)?,
            since_report: u64::load(r)?,
            child_models: HashMap::load(r)?,
            currently_flagged: HashMap::load(r)?,
            alarms: Vec::load(r)?,
        })
    }
}

impl MonitorNode {
    /// Builds the node for `node` in `topo`.
    pub fn new(node: NodeId, topo: &Hierarchy, cfg: &MonitorConfig) -> Self {
        let mut est_cfg = cfg.estimator;
        est_cfg.seed = est_cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (node.0 as u64);
        Self {
            cfg: *cfg,
            level: topo.level_of(node),
            est: SensorEstimator::new(est_cfg),
            since_report: 0,
            child_models: HashMap::new(),
            currently_flagged: HashMap::new(),
            alarms: Vec::new(),
        }
    }

    /// Re-evaluates sibling divergences after a model update.
    ///
    /// The attribution statistic is each child's **minimum** divergence
    /// to any sibling: a healthy child always has at least one healthy
    /// sibling nearby, while a faulty child disagrees with *everyone*.
    /// (A mean would be polluted: one stuck sensor inflates every
    /// healthy sibling's mean by `d_stuck / (l−1)`. The min is robust to
    /// any number of *distinct* simultaneous faults; two sensors failing
    /// identically would still cover for each other — an inherent limit
    /// of purely mutual comparison.)
    ///
    /// Children whose model is older than the staleness bound are
    /// excluded — neither judged nor used as a sibling reference — and
    /// held at their last verdict. Returns the number of such stale
    /// exclusions when the comparison still ran (degraded scoring).
    fn reassess(&mut self, time_ns: u64) -> u64 {
        let bound = self.cfg.staleness_bound_ns;
        let mut fresh: Vec<NodeId> = self
            .child_models
            .iter()
            .filter(|(_, cm)| bound.is_none_or(|b| time_ns.saturating_sub(cm.updated_ns) <= b))
            .map(|(&c, _)| c)
            .collect();
        fresh.sort_unstable_by_key(|c| c.0);
        let stale = (self.child_models.len() - fresh.len()) as u64;
        if fresh.len() < 3 {
            return 0; // cannot attribute a fault among fewer than 3
        }
        for &child in &fresh {
            let mine = &self.child_models[&child].model;
            let mut min_div = f64::INFINITY;
            for &other in &fresh {
                if other != child {
                    let cm = &self.child_models[&other];
                    if let Ok(d) = js_divergence_models(mine, &cm.model, self.cfg.grid_k) {
                        min_div = min_div.min(d);
                    }
                }
            }
            if !min_div.is_finite() {
                continue;
            }
            let above = min_div > self.cfg.threshold;
            let was_above = self.currently_flagged.get(&child).copied().unwrap_or(false);
            if above && !was_above {
                snod_obs::counter!("core.monitor.alarms").incr();
                self.alarms.push(FaultAlarm {
                    time_ns,
                    child,
                    divergence: min_div,
                });
            }
            self.currently_flagged.insert(child, above);
        }
        stale
    }
}

impl DetectorEngine<ModelReport> for MonitorNode {
    fn ingest(&mut self, ctx: &mut Ctx<'_, ModelReport>, value: &[f64]) {
        // A reading of the wrong dimensionality or a non-finite one is
        // dropped and counted rather than panicking the whole simulation.
        if self.est.observe(value).is_err() {
            snod_obs::counter!("core.bad_readings").incr();
            return;
        }
        self.since_report += 1;
        if self.since_report >= self.cfg.report_every
            && self.est.observed() >= self.est.config().sample_size as u64
        {
            self.since_report = 0;
            // Reports are model updates: retried under a retry policy.
            snod_obs::counter!("core.monitor.reports").incr();
            ctx.send_parent_reliable(ModelReport {
                sample: self.est.sample(),
                sigmas: self.est.sigmas(),
                window_len: self.est.window_len(),
            });
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ModelReport>, from: NodeId, report: ModelReport) {
        debug_assert!(self.level > 1, "leaves receive no reports");
        // Epoch gate: a report from a statistically unchanged child (σ
        // within tolerance, rebuild budget not yet spent) keeps the
        // existing model — no KDE rebuild, no sibling reassessment. A
        // drifting child trips the σ tolerance immediately, so faults
        // are still caught on the report that shows them.
        let policy = self.cfg.estimator.rebuild;
        if let Some(cm) = self.child_models.get_mut(&from) {
            cm.reports_since_rebuild += 1;
            // Even a skipped report proves the child is alive: refresh
            // its staleness clock.
            cm.updated_ns = ctx.time_ns;
            if !policy.should_rebuild(cm.reports_since_rebuild, &cm.built_sigmas, &report.sigmas) {
                return;
            }
        }
        // (Re)build the child's model from its report.
        let model = if report.sigmas.len() == 1 {
            snod_density::Kde1d::from_sample_iter(
                report.sample.iter().map(|v| v[0]),
                report.sigmas[0],
                report.window_len.max(1.0),
            )
            .map(SensorModel::One)
        } else {
            snod_density::Kde::from_sample_iter(
                report.sample.iter().map(Vec::as_slice),
                &report.sigmas,
                report.window_len.max(1.0),
            )
            .map(SensorModel::Multi)
        };
        if let Ok(model) = model {
            self.child_models.insert(
                from,
                ChildModel {
                    model,
                    built_sigmas: report.sigmas,
                    reports_since_rebuild: 0,
                    updated_ns: ctx.time_ns,
                },
            );
            let stale_exclusions = self.reassess(ctx.time_ns);
            for _ in 0..stale_exclusions {
                ctx.note_degraded_score();
            }
        }
    }
}

/// Runs the monitor over `topo`; returns the network for alarm
/// harvesting.
pub fn run_monitor<S: StreamSource>(
    topo: Hierarchy,
    cfg: &MonitorConfig,
    sim: SimConfig,
    source: &mut S,
    readings_per_leaf: u64,
) -> Result<Network<ModelReport, MonitorNode>, CoreError> {
    run_monitor_with_faults(topo, cfg, sim, FaultPlan::none(), source, readings_per_leaf)
}

/// Runs the monitor under a fault schedule. With [`FaultPlan::none()`]
/// this is bit-identical to [`run_monitor`].
pub fn run_monitor_with_faults<S: StreamSource>(
    topo: Hierarchy,
    cfg: &MonitorConfig,
    sim: SimConfig,
    plan: FaultPlan,
    source: &mut S,
    readings_per_leaf: u64,
) -> Result<Network<ModelReport, MonitorNode>, CoreError> {
    if cfg.report_every == 0 {
        return Err(CoreError::Config("report interval must be positive"));
    }
    if cfg.grid_k == 0 {
        return Err(CoreError::Config("grid resolution must be positive"));
    }
    if cfg.staleness_bound_ns == Some(0) {
        return Err(CoreError::Config("staleness bound must be positive"));
    }
    let mut net =
        Network::new(topo, sim, |node, topo| MonitorNode::new(node, topo, cfg)).with_fault_plan(plan);
    net.run(source, readings_per_leaf);
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MonitorConfig {
        MonitorConfig {
            estimator: EstimatorConfig::builder()
                .window(400)
                .sample_size(60)
                .seed(12)
                .build()
                .unwrap(),
            report_every: 100,
            threshold: 0.35,
            grid_k: 32,
            staleness_bound_ns: None,
        }
    }

    /// 4 siblings around 0.5; leaf 2 drifts to 0.8 after `fault_at`.
    fn source(fault_at: u64) -> impl FnMut(NodeId, u64) -> Option<Vec<f64>> {
        move |node: NodeId, seq: u64| {
            let base = if node.0 == 2 && seq >= fault_at {
                0.8
            } else {
                0.5
            };
            let jitter = (((seq * 31 + node.0 as u64 * 7) % 100) as f64 / 100.0 - 0.5) * 0.03;
            Some(vec![base + jitter])
        }
    }

    #[test]
    fn drifting_child_raises_exactly_one_edge_alarm() {
        let topo = Hierarchy::balanced(4, &[4]).unwrap();
        let mut src = source(1_000);
        let net = run_monitor(topo, &cfg(), SimConfig::default(), &mut src, 2_400).unwrap();
        let root = net.topology().root();
        let alarms = &net.app(root).alarms;
        assert!(!alarms.is_empty(), "no alarm raised");
        assert!(
            alarms.iter().all(|a| a.child == NodeId(2)),
            "wrong child blamed: {alarms:?}"
        );
        assert_eq!(alarms.len(), 1, "alarm not edge-triggered: {alarms:?}");
        assert!(alarms[0].divergence > 0.35);
        // The alarm fires only after the fault plus a window of drift.
        assert!(alarms[0].time_ns > 1_000 * 1_000_000_000);
    }

    #[test]
    fn healthy_siblings_raise_no_alarm() {
        let topo = Hierarchy::balanced(4, &[4]).unwrap();
        let mut src = source(u64::MAX);
        let net = run_monitor(topo, &cfg(), SimConfig::default(), &mut src, 2_000).unwrap();
        let root = net.topology().root();
        assert!(net.app(root).alarms.is_empty());
    }

    #[test]
    fn two_children_are_never_blamed() {
        // With 2 children the divergence is symmetric: no attribution.
        let topo = Hierarchy::balanced(2, &[2]).unwrap();
        let mut src = source(500);
        let net = run_monitor(topo, &cfg(), SimConfig::default(), &mut src, 1_500).unwrap();
        let root = net.topology().root();
        assert!(net.app(root).alarms.is_empty());
    }

    #[test]
    fn fault_free_plan_is_identical_to_plain_run() {
        let topo = Hierarchy::balanced(4, &[4]).unwrap();
        let mut a = source(1_000);
        let plain = run_monitor(topo.clone(), &cfg(), SimConfig::default(), &mut a, 2_000).unwrap();
        let mut b = source(1_000);
        let faulty = run_monitor_with_faults(
            topo,
            &cfg(),
            SimConfig::default(),
            FaultPlan::none(),
            &mut b,
            2_000,
        )
        .unwrap();
        assert_eq!(plain.stats(), faulty.stats());
        let root = plain.topology().root();
        assert_eq!(plain.app(root).alarms, faulty.app(root).alarms);
    }

    #[test]
    fn silent_child_is_excluded_and_counted_as_degraded() {
        // Leaf 2 crashes at t = 500 s and never reports again. With a
        // staleness bound its frozen model must drop out of the sibling
        // comparison (each exclusion = one degraded score) instead of
        // being judged on stale evidence; the remaining three healthy
        // children raise no alarm.
        let topo = Hierarchy::balanced(4, &[4]).unwrap();
        let mut c = cfg();
        c.staleness_bound_ns = Some(150 * 1_000_000_000);
        // Rebuild (and hence reassess) on every report so exclusions
        // are visible without waiting out the epoch budget.
        c.estimator.rebuild = crate::config::RebuildPolicy::always();
        let plan = FaultPlan::none().crash(NodeId(2), 500 * 1_000_000_000, None);
        let mut src = source(u64::MAX);
        let net =
            run_monitor_with_faults(topo, &c, SimConfig::default(), plan, &mut src, 2_000).unwrap();
        assert!(net.stats().degraded_scores > 0, "no stale exclusions");
        let root = net.topology().root();
        assert!(
            net.app(root).alarms.is_empty(),
            "healthy siblings raised alarms: {:?}",
            net.app(root).alarms
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let topo = Hierarchy::balanced(4, &[4]).unwrap();
        let mut bad = cfg();
        bad.report_every = 0;
        let mut src = source(u64::MAX);
        assert!(run_monitor(topo, &bad, SimConfig::default(), &mut src, 10).is_err());
    }

    #[test]
    fn report_traffic_is_periodic() {
        let topo = Hierarchy::balanced(4, &[4]).unwrap();
        let mut src = source(u64::MAX);
        let net = run_monitor(topo, &cfg(), SimConfig::default(), &mut src, 1_000).unwrap();
        // Each leaf reports every 100 readings once the sample is warm
        // (first report at reading 100 > |R| = 60): 10 per leaf.
        assert_eq!(net.stats().messages, 4 * 10);
    }
}
