//! Algorithm MGDD — Multi-Granular Deviation Detection (paper Section 8,
//! Figure 4).
//!
//! MDEF-based outliers are *non-decomposable* (a union-window outlier
//! need not be an outlier in any child window), so Theorem 3 does not
//! apply and detection happens **only at the leaf sensors**, against a
//! replica of a leader's *global* estimator model:
//!
//! * Upward: leaves (and intermediate leaders) forward chain-sample
//!   acceptances with probability `f`, exactly as in D3.
//! * Downward: when a broadcasting leader's sample accepts a value, the
//!   update is relayed down the tree to every descendant leaf, which
//!   maintains a FIFO replica `R_g` plus the leader's current `σ_g`
//!   (Section 8.1 — `(f·l)^n` update messages per observation).
//! * Optimised: with [`UpdateStrategy::OnModelChange`], the leader
//!   instead re-broadcasts its full model only when the JS-divergence
//!   from the last broadcast exceeds a threshold.
//!
//! By default only the top-level leader broadcasts (the paper's MGDD);
//! [`MgddConfig`]-driven runs can additionally enable intermediate
//! levels, giving the multi-granularity flexibility of Section 3's
//! example (outliers "with respect to an entire region").
//!
//! ## Faults and graceful degradation
//!
//! Global-model updates (both deltas and full models) travel with the
//! simulator's ack/retry protocol when [`SimConfig::with_reliability`]
//! is set, so transient loss delays rather than silences the downward
//! stream. When a leaf's replica nonetheless goes stale — its leader
//! crashed, or the retry budget ran out — the
//! [`MgddConfig::staleness_bound_ns`] bound kicks in: the leaf scores
//! against the last-known model only while nothing fresher exists
//! (surfaced as `NetStats::degraded_scores`) and, once fully orphaned,
//! falls back to MDEF over its *own* estimator, tagging those
//! detections with its leaf level (surfaced as
//! `NetStats::local_fallbacks`).

use rand::Rng;

use snod_density::js_divergence_models;
use snod_outlier::MdefDetector;
use snod_persist::{ByteReader, ByteWriter, Persist, PersistError, SeededRng};
use snod_simnet::{Ctx, DetectorEngine, Hierarchy, NodeId, Wire};

use crate::config::{MgddConfig, UpdateStrategy};
use crate::containment::Detection;
use crate::estimator::{SensorEstimator, SensorModel};
use crate::replica::IncrementalReplica;

/// MGDD wire messages.
#[derive(Debug, Clone)]
pub enum MgddPayload {
    /// A chain-sample acceptance forwarded upward with probability `f`.
    SampleValue(Vec<f64>),
    /// Incremental global-model update flowing down from a broadcasting
    /// leader at `origin_level`: one new sample value plus the leader's
    /// current σ estimate and conceptual window length.
    GlobalDelta {
        /// Tier of the broadcasting leader.
        origin_level: u8,
        /// The newly accepted sample value.
        value: Vec<f64>,
        /// The leader's per-dimension σ estimates.
        sigmas: Vec<f64>,
        /// The leader's conceptual window `|W_g|`.
        window_len: f64,
    },
    /// Full-model replacement used by the model-change update strategy.
    GlobalModel {
        /// Tier of the broadcasting leader.
        origin_level: u8,
        /// The leader's full current sample.
        sample: Vec<Vec<f64>>,
        /// The leader's per-dimension σ estimates.
        sigmas: Vec<f64>,
        /// The leader's conceptual window `|W_g|`.
        window_len: f64,
    },
}

impl Wire for MgddPayload {
    fn size_bytes(&self) -> usize {
        // 2 bytes per number (paper's 16-bit accounting) + 1-byte tag.
        match self {
            MgddPayload::SampleValue(v) => v.len() * 2 + 1,
            MgddPayload::GlobalDelta { value, sigmas, .. } => {
                value.len() * 2 + sigmas.len() * 2 + 2 + 1
            }
            MgddPayload::GlobalModel { sample, sigmas, .. } => {
                sample.iter().map(|v| v.len() * 2).sum::<usize>() + sigmas.len() * 2 + 2 + 1
            }
        }
    }
}

/// Per-node MGDD state (leaf and leader behaviour in one type; the role
/// decides which paths run).
pub struct MgddNode {
    est: SensorEstimator,
    cfg: MgddConfig,
    rng: SeededRng,
    level: u8,
    /// Does this leader broadcast global updates?
    broadcasts: bool,
    /// Leaf replicas of broadcasting leaders' models, by origin level —
    /// maintained incrementally under `cfg.estimator.rebuild`.
    replicas: Vec<(u8, IncrementalReplica)>,
    /// Model snapshot at the last full broadcast (model-change strategy).
    last_broadcast: Option<SensorModel>,
    /// Accepted values since the last model-change check.
    since_check: u64,
    /// Outliers detected at this leaf, tagged with the granularity level
    /// of the global model that flagged them.
    pub detections: Vec<Detection>,
}

impl MgddNode {
    /// Builds the node for `node` in `topo`. `broadcast_levels` lists the
    /// leader tiers that maintain a global model (the paper's MGDD uses
    /// only the top tier).
    pub fn new(node: NodeId, topo: &Hierarchy, cfg: &MgddConfig, broadcast_levels: &[u8]) -> Self {
        let level = topo.level_of(node);
        let mut est_cfg = cfg.estimator;
        est_cfg.seed = est_cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (node.0 as u64);
        // Leaders run the same estimator over their own arrival stream
        // (a uniform random sample of the subtree's readings); MDEF is a
        // ratio of counts, so the sub-sampling cancels out.
        let est = SensorEstimator::new(est_cfg);
        let replicas = if level == 1 {
            broadcast_levels
                .iter()
                .map(|&l| {
                    (
                        l,
                        IncrementalReplica::new(cfg.estimator.sample_size, cfg.estimator.rebuild),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            est,
            cfg: *cfg,
            rng: SeededRng::seed_from_u64(est_cfg.seed ^ 0x16DD),
            level,
            broadcasts: level > 1 && broadcast_levels.contains(&level),
            replicas,
            last_broadcast: None,
            since_check: 0,
            detections: Vec::new(),
        }
    }

    /// The node's estimator.
    pub fn estimator(&self) -> &SensorEstimator {
        &self.est
    }

    /// Handles a value entering this node's estimator (a reading at a
    /// leaf, a forwarded sample value at a leader).
    fn absorb(&mut self, ctx: &mut Ctx<'_, MgddPayload>, value: &[f64]) {
        // A mis-dimensioned or non-finite value (miswired source, a
        // broken sensor, a peer on a different configuration) is
        // dropped and counted, not fatal.
        let Ok(accepted) = self.est.observe(value) else {
            snod_obs::counter!("core.bad_readings").incr();
            return;
        };
        if !accepted {
            return;
        }
        if self.rng.gen::<f64>() < self.cfg.sample_fraction {
            ctx.send_parent(MgddPayload::SampleValue(value.to_vec()));
        }
        if self.broadcasts {
            self.broadcast(ctx, value);
        }
    }

    /// Pushes a global-model update downward according to the strategy.
    /// Updates ride the reliable channel: under a retry policy a lost
    /// frame is retransmitted instead of silently thinning the replicas.
    fn broadcast(&mut self, ctx: &mut Ctx<'_, MgddPayload>, value: &[f64]) {
        match self.cfg.updates {
            UpdateStrategy::EveryAcceptance => {
                snod_obs::counter!("core.mgdd.broadcasts").incr();
                ctx.send_children_reliable(MgddPayload::GlobalDelta {
                    origin_level: self.level,
                    value: value.to_vec(),
                    sigmas: self.est.sigmas(),
                    window_len: self.est.window_len(),
                });
            }
            UpdateStrategy::OnModelChange {
                js_threshold,
                check_every,
            } => {
                self.since_check += 1;
                if self.since_check < check_every {
                    return;
                }
                self.since_check = 0;
                let Ok(current) = self.est.model() else {
                    return;
                };
                let changed = match &self.last_broadcast {
                    None => true,
                    Some(prev) => js_divergence_models(prev, &current, 32)
                        .map(|d| d > js_threshold)
                        .unwrap_or(true),
                };
                if changed {
                    snod_obs::counter!("core.mgdd.broadcasts").incr();
                    ctx.send_children_reliable(MgddPayload::GlobalModel {
                        origin_level: self.level,
                        sample: self.est.sample(),
                        sigmas: self.est.sigmas(),
                        window_len: self.est.window_len(),
                    });
                    self.last_broadcast = Some(current);
                }
            }
        }
    }

    /// Leaf-side MDEF check of a new observation against every warm
    /// global replica (paper Figure 4, MGDD `IsOutlier`), with the
    /// graceful-degradation ladder of `cfg.staleness_bound_ns`:
    ///
    /// 1. fresh replicas (updated within the bound) score normally;
    /// 2. with *only* stale replicas, the leaf scores against the
    ///    last-known models and notes a degraded score per verdict;
    /// 3. orphaned entirely (no warm replica at all), a warm leaf falls
    ///    back to MDEF over its own estimator, tagging the detection
    ///    with its own (leaf) level.
    fn check(&mut self, ctx: &mut Ctx<'_, MgddPayload>, p: &[f64]) {
        let time_ns = ctx.time_ns;
        let bound = self.cfg.staleness_bound_ns;
        let stale = move |r: &IncrementalReplica| bound.is_some_and(|b| r.is_stale(time_ns, b));
        let (mut any_fresh, mut any_stale) = (false, false);
        for (_, replica) in self.replicas.iter().filter(|(_, r)| r.is_warm()) {
            if stale(replica) {
                any_stale = true;
            } else {
                any_fresh = true;
            }
        }
        // Score the fresh replicas, or the stale ones when no fresh one
        // exists, in replica order.
        let degraded = !any_fresh && any_stale;
        let detector = MdefDetector::new(self.cfg.rule);
        for (origin, replica) in &mut self.replicas {
            if !replica.is_warm() || stale(replica) != degraded {
                continue;
            }
            let Ok((model, memo)) = replica.model_with_memo() else {
                continue;
            };
            snod_obs::counter!("core.mgdd.scored").incr();
            if let Ok(eval) = detector.evaluate_memoized(model, p, memo) {
                if degraded {
                    ctx.note_degraded_score();
                }
                if eval.is_outlier {
                    record(&mut self.detections, time_ns, p, *origin);
                }
            }
        }
        if bound.is_some()
            && !any_fresh
            && !any_stale
            && !self.replicas.is_empty()
            && self.est.observed() >= self.est.config().sample_size as u64
        {
            ctx.note_local_fallback();
            if let Ok(eval) = self.est.evaluate_mdef(p, &self.cfg.rule) {
                if eval.is_outlier {
                    record(&mut self.detections, time_ns, p, self.level);
                }
            }
        }
    }
}

fn record(detections: &mut Vec<Detection>, time_ns: u64, p: &[f64], level: u8) {
    snod_obs::counter!("core.mgdd.detections").incr();
    detections.push(Detection {
        time_ns,
        value: p.to_vec(),
        level,
    });
}

impl DetectorEngine<MgddPayload> for MgddNode {
    fn ingest(&mut self, ctx: &mut Ctx<'_, MgddPayload>, value: &[f64]) {
        self.check(ctx, value);
        self.absorb(ctx, value);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, MgddPayload>, _from: NodeId, payload: MgddPayload) {
        match payload {
            MgddPayload::SampleValue(v) => self.absorb(ctx, &v),
            MgddPayload::GlobalDelta {
                origin_level,
                value,
                sigmas,
                window_len,
            } => {
                if self.level == 1 {
                    if let Some((_, replica)) =
                        self.replicas.iter_mut().find(|(l, _)| *l == origin_level)
                    {
                        replica.push(value, sigmas, window_len);
                        replica.touch(ctx.time_ns);
                    }
                } else {
                    // Intermediate leader: relay downward (Section 8.1,
                    // "via the intermediate leaders"), keeping the
                    // reliable channel hop by hop.
                    ctx.send_children_reliable(MgddPayload::GlobalDelta {
                        origin_level,
                        value,
                        sigmas,
                        window_len,
                    });
                }
            }
            MgddPayload::GlobalModel {
                origin_level,
                sample,
                sigmas,
                window_len,
            } => {
                if self.level == 1 {
                    if let Some((_, replica)) =
                        self.replicas.iter_mut().find(|(l, _)| *l == origin_level)
                    {
                        replica.replace(sample, sigmas, window_len);
                        replica.touch(ctx.time_ns);
                    }
                } else {
                    ctx.send_children_reliable(MgddPayload::GlobalModel {
                        origin_level,
                        sample,
                        sigmas,
                        window_len,
                    });
                }
            }
        }
    }
}

impl Persist for MgddPayload {
    fn save(&self, w: &mut ByteWriter) {
        match self {
            MgddPayload::SampleValue(v) => {
                w.put_u8(0);
                v.save(w);
            }
            MgddPayload::GlobalDelta {
                origin_level,
                value,
                sigmas,
                window_len,
            } => {
                w.put_u8(1);
                origin_level.save(w);
                value.save(w);
                sigmas.save(w);
                window_len.save(w);
            }
            MgddPayload::GlobalModel {
                origin_level,
                sample,
                sigmas,
                window_len,
            } => {
                w.put_u8(2);
                origin_level.save(w);
                sample.save(w);
                sigmas.save(w);
                window_len.save(w);
            }
        }
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(MgddPayload::SampleValue(Vec::<f64>::load(r)?)),
            1 => Ok(MgddPayload::GlobalDelta {
                origin_level: u8::load(r)?,
                value: Vec::<f64>::load(r)?,
                sigmas: Vec::<f64>::load(r)?,
                window_len: f64::load(r)?,
            }),
            2 => Ok(MgddPayload::GlobalModel {
                origin_level: u8::load(r)?,
                sample: Vec::<Vec<f64>>::load(r)?,
                sigmas: Vec::<f64>::load(r)?,
                window_len: f64::load(r)?,
            }),
            _ => Err(PersistError::Corrupt("unknown mgdd payload tag")),
        }
    }
}

snod_persist::persist_struct! {
    MgddNode {
        est,
        cfg,
        rng,
        level,
        broadcasts,
        replicas,
        last_broadcast,
        since_check,
        detections,
    }
    check: none
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{run_backend_with_faults, MgddBackend};
    use snod_outlier::MdefConfig;
    use snod_simnet::{FaultPlan, Network, SimConfig};

    fn test_config() -> MgddConfig {
        MgddConfig {
            estimator: crate::config::EstimatorConfig::builder()
                .window(400)
                .sample_size(64)
                .seed(5)
                .build()
                .unwrap(),
            rule: MdefConfig::new(0.08, 0.01, 3.0).unwrap(),
            sample_fraction: 0.75,
            updates: UpdateStrategy::EveryAcceptance,
            staleness_bound_ns: None,
        }
    }

    /// Uniform dense block on [0.40, 0.50] across all leaves; leaf 0
    /// occasionally emits a skirt value at 0.55.
    fn block_source() -> impl FnMut(NodeId, u64) -> Option<Vec<f64>> {
        |node: NodeId, seq: u64| {
            if node.0 == 0 && seq % 150 == 149 {
                Some(vec![0.55])
            } else {
                Some(vec![
                    0.40 + 0.10 * (((seq * 7 + node.0 as u64 * 13) % 100) as f64) / 100.0,
                ])
            }
        }
    }

    /// Four leaves under a 2×2 hierarchy consume `readings` block-source
    /// readings each.
    fn run(
        cfg: &MgddConfig,
        broadcast_levels: &[u8],
        plan: FaultPlan,
        readings: u64,
    ) -> Network<MgddPayload, MgddNode> {
        let backend = MgddBackend {
            cfg: *cfg,
            broadcast_levels: broadcast_levels.to_vec(),
        };
        run_backend_with_faults(
            &backend,
            Hierarchy::balanced(4, &[2, 2]).unwrap(),
            SimConfig::default(),
            plan,
            &mut block_source(),
            readings,
        )
        .unwrap()
    }

    #[test]
    fn global_replicas_fill_at_the_leaves() {
        let net = run(&test_config(), &[], FaultPlan::none(), 800);
        for &leaf in net.topology().leaves() {
            let node = net.app(leaf);
            assert_eq!(node.replicas.len(), 1);
            assert!(
                node.replicas[0].1.is_warm(),
                "replica at {leaf} never warmed up ({} values)",
                node.replicas[0].1.sample_len()
            );
        }
    }

    #[test]
    fn skirt_values_are_detected_at_the_leaf() {
        let net = run(&test_config(), &[], FaultPlan::none(), 1_200);
        let leaf0 = net.app(NodeId(0));
        assert!(
            leaf0
                .detections
                .iter()
                .any(|d| (d.value[0] - 0.55).abs() < 1e-9),
            "skirt value never flagged ({} detections)",
            leaf0.detections.len()
        );
    }

    #[test]
    fn core_values_are_not_flagged_in_steady_state() {
        // The global replica needs time to mature (the root only sees a
        // thin sub-sampled arrival stream in this miniature setup), so
        // only steady-state detections — second half of the run — count.
        let net = run(&test_config(), &[], FaultPlan::none(), 1_200);
        let half = net.now_ns() / 2;
        for &leaf in net.topology().leaves() {
            let false_hits = net
                .app(leaf)
                .detections
                .iter()
                .filter(|d| d.time_ns > half && d.value[0] < 0.52)
                .count();
            // ~600 core readings per leaf in the second half; the tiny
            // |R| = 64 sample makes per-reading counts noisy, so allow a
            // modest false-flag rate — the discriminative power is the
            // skirt test above.
            assert!(
                false_hits <= 90,
                "leaf {leaf}: {false_hits} core values flagged"
            );
        }
    }

    #[test]
    fn only_leaves_detect() {
        let net = run(&test_config(), &[], FaultPlan::none(), 600);
        for level in 2..=net.topology().level_count() {
            for &leader in net.topology().level(level) {
                assert!(net.app(leader).detections.is_empty());
            }
        }
    }

    #[test]
    fn model_change_strategy_sends_fewer_updates() {
        let mut cfg = test_config();
        let every = run(&cfg, &[], FaultPlan::none(), 800);
        cfg.updates = UpdateStrategy::OnModelChange {
            js_threshold: 0.05,
            check_every: 8,
        };
        let lazy = run(&cfg, &[], FaultPlan::none(), 800);
        assert!(
            lazy.stats().messages < every.stats().messages,
            "model-change updates ({}) not cheaper than per-acceptance ({})",
            lazy.stats().messages,
            every.stats().messages
        );
    }

    #[test]
    fn empty_broadcast_levels_mean_the_top_tier() {
        let default = run(&test_config(), &[], FaultPlan::none(), 600);
        let explicit = run(&test_config(), &[3], FaultPlan::none(), 600);
        assert_eq!(default.stats(), explicit.stats());
        assert_eq!(default.checkpoint(), explicit.checkpoint());
    }

    #[test]
    fn stale_replicas_score_degraded_but_still_detect() {
        // A 1 ns staleness bound makes every warm replica permanently
        // stale (updates always arrive at least a latency earlier than
        // the next reading tick): scoring proceeds against the
        // last-known models and every verdict is counted as degraded.
        let mut cfg = test_config();
        cfg.staleness_bound_ns = Some(1);
        let net = run(&cfg, &[], FaultPlan::none(), 1_200);
        assert!(net.stats().degraded_scores > 0, "no degraded scores");
        let leaf0 = net.app(NodeId(0));
        assert!(
            leaf0
                .detections
                .iter()
                .any(|d| (d.value[0] - 0.55).abs() < 1e-9),
            "skirt value lost despite last-known-model scoring"
        );
    }

    #[test]
    fn orphaned_leaves_fall_back_to_local_detection() {
        // The sole broadcaster is dead from t = 0: replicas never warm,
        // so leaves must detect with their own models, tagged level 1.
        let root = Hierarchy::balanced(4, &[2, 2]).unwrap().root();
        let mut cfg = test_config();
        cfg.staleness_bound_ns = Some(5_000_000_000);
        let net = run(&cfg, &[], FaultPlan::none().crash(root, 0, None), 800);
        assert!(net.stats().local_fallbacks > 0, "no local fallbacks");
        for &leaf in net.topology().leaves() {
            assert!(
                net.app(leaf).detections.iter().all(|d| d.level == 1),
                "non-local detection without any global model"
            );
        }
    }

    #[test]
    fn multi_level_broadcast_tags_detections_by_origin() {
        let net = run(&test_config(), &[2, 3], FaultPlan::none(), 1_200);
        let leaf0 = net.app(NodeId(0));
        assert_eq!(leaf0.replicas.len(), 2);
        let levels: std::collections::HashSet<u8> =
            leaf0.detections.iter().map(|d| d.level).collect();
        assert!(
            levels.iter().all(|&l| l == 2 || l == 3),
            "unexpected origin levels {levels:?}"
        );
    }
}
