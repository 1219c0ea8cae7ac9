//! MMDEW — distributed distribution-shift detection on exponential
//! windows.
//!
//! Each node runs an [`snod_robust::Mmdew`] change detector (Kalinke et
//! al., *Maximum Mean Discrepancy on Exponential Windows for Online
//! Change Detection*) over its arrival stream: leaves over their raw
//! readings, leaders over the sample traffic forwarded by their
//! children. When the maximal-margin MMD² split exceeds the kernel-bound
//! threshold `τ = c·√(1/n + 1/m)`, the node records a [`Detection`]
//! carrying the triggering reading, prunes its pre-change history, and
//! escalates a `ChangeAlarm` to its parent on the reliable channel.
//!
//! Unlike D3/FQN, leaders do *not* re-check child alarms against their
//! own model — a distribution shift visible at a leaf may be invisible
//! in the regional mixture and vice versa. Child alarms are tallied
//! (`child_alarms`) as corroborating evidence; a leader's own detections
//! come only from its own MMD statistic over the sample stream.

use rand::Rng;

use snod_persist::{ByteReader, ByteWriter, Persist, PersistError, SeededRng};
use snod_robust::{Mmdew, MmdewConfig, RobustError};
use snod_simnet::{Ctx, DetectorEngine, Hierarchy, NodeId, Wire};

use crate::config::CoreError;
use crate::containment::Detection;

/// Configuration for the distributed MMDEW detector: the per-node change
/// detector plus the sample-forwarding fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmdewNodeConfig {
    /// The per-node change-detector parameters.
    pub detector: MmdewConfig,
    /// Probability that an ingested reading is forwarded to the parent.
    pub sample_fraction: f64,
}

impl Default for MmdewNodeConfig {
    fn default() -> Self {
        Self {
            detector: MmdewConfig {
                dimensions: 1,
                gamma: 8.0,
                bucket_cap: 32,
                threshold_scale: 0.6,
                min_per_side: 16,
                test_every: 4,
                seed: 0x33D,
            },
            sample_fraction: 0.5,
        }
    }
}

impl MmdewNodeConfig {
    /// Validates the parameter ranges.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.detector
            .validate()
            .map_err(|_| CoreError::Config("invalid mmdew detector config"))?;
        if !(0.0..=1.0).contains(&self.sample_fraction) {
            return Err(CoreError::Config("mmdew sample_fraction must be in [0, 1]"));
        }
        Ok(())
    }
}

snod_persist::persist_struct! {
    MmdewNodeConfig {
        detector,
        sample_fraction,
    }
    check: |c| c.validate().map_err(|_| PersistError::Corrupt("invalid mmdew node config"))
}

/// MMDEW wire messages.
#[derive(Debug, Clone)]
pub enum MmdewPayload {
    /// A reading forwarded upward so leaders observe the regional
    /// mixture.
    SampleValue(Vec<f64>),
    /// A distribution-shift alarm, carrying the reading that triggered
    /// it.
    ChangeAlarm(Vec<f64>),
}

impl Wire for MmdewPayload {
    fn size_bytes(&self) -> usize {
        match self {
            MmdewPayload::SampleValue(v) | MmdewPayload::ChangeAlarm(v) => v.len() * 2 + 1,
        }
    }
}

impl Persist for MmdewPayload {
    fn save(&self, w: &mut ByteWriter) {
        match self {
            MmdewPayload::SampleValue(v) => {
                w.put_u8(0);
                v.save(w);
            }
            MmdewPayload::ChangeAlarm(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(MmdewPayload::SampleValue(Vec::<f64>::load(r)?)),
            1 => Ok(MmdewPayload::ChangeAlarm(Vec::<f64>::load(r)?)),
            _ => Err(PersistError::Corrupt("unknown mmdew payload tag")),
        }
    }
}

/// Per-node MMDEW state.
pub struct MmdewNode {
    det: Mmdew,
    cfg: MmdewNodeConfig,
    rng: SeededRng,
    /// Distribution shifts this node has flagged.
    pub detections: Vec<Detection>,
    child_alarms: u64,
    level: u8,
}

impl MmdewNode {
    /// Builds the node for `node` within `topo`.
    pub fn new(node: NodeId, topo: &Hierarchy, cfg: &MmdewNodeConfig) -> Self {
        let level = topo.level_of(node);
        let mut det_cfg = cfg.detector;
        // Decorrelate subsampling RNGs across nodes (same scheme as D3).
        det_cfg.seed = det_cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (node.0 as u64);
        Self {
            det: Mmdew::new(det_cfg).expect("validated detector config"),
            cfg: *cfg,
            rng: SeededRng::seed_from_u64(det_cfg.seed ^ 0x33D),
            detections: Vec::new(),
            child_alarms: 0,
            level,
        }
    }

    /// The node's change detector (for post-run inspection).
    pub fn detector(&self) -> &Mmdew {
        &self.det
    }

    /// Alarms received from children (corroborating evidence, not
    /// re-checked — see the module docs).
    pub fn child_alarms(&self) -> u64 {
        self.child_alarms
    }

    /// Feeds `value` to the change detector; on an alarm, records a
    /// detection and escalates on the reliable channel.
    fn observe(&mut self, ctx: &mut Ctx<'_, MmdewPayload>, value: &[f64]) {
        snod_obs::counter!("core.mmdew.scored").incr();
        match self.det.insert(value) {
            Ok(Some(_event)) => {
                snod_obs::counter!("core.mmdew.detections").incr();
                self.detections.push(Detection {
                    time_ns: ctx.time_ns,
                    value: value.to_vec(),
                    level: self.level,
                });
                snod_obs::counter!("core.mmdew.escalations").incr();
                ctx.send_parent_reliable(MmdewPayload::ChangeAlarm(value.to_vec()));
            }
            Ok(None) => {}
            // Mis-dimensioned or non-finite readings are dropped and
            // counted rather than crashing the node mid-simulation.
            Err(RobustError::Dimension { .. }) | Err(RobustError::NonFinite) => {
                snod_obs::counter!("core.bad_readings").incr();
            }
            Err(RobustError::BadConfig(_)) => unreachable!("config validated at build"),
        }
    }
}

impl DetectorEngine<MmdewPayload> for MmdewNode {
    fn ingest(&mut self, ctx: &mut Ctx<'_, MmdewPayload>, value: &[f64]) {
        self.observe(ctx, value);
        if self.rng.gen::<f64>() < self.cfg.sample_fraction {
            ctx.send_parent(MmdewPayload::SampleValue(value.to_vec()));
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, MmdewPayload>,
        _from: NodeId,
        payload: MmdewPayload,
    ) {
        match payload {
            MmdewPayload::SampleValue(v) => {
                self.observe(ctx, &v);
                if self.rng.gen::<f64>() < self.cfg.sample_fraction {
                    ctx.send_parent(MmdewPayload::SampleValue(v));
                }
            }
            MmdewPayload::ChangeAlarm(_) => {
                snod_obs::counter!("core.mmdew.child_alarms").incr();
                self.child_alarms += 1;
            }
        }
    }
}

snod_persist::persist_struct! {
    MmdewNode {
        det,
        cfg,
        rng,
        detections,
        child_alarms,
        level,
    }
    check: none
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{build_backend_network, run_backend, MmdewBackend};
    use snod_simnet::{FaultPlan, Network, SimConfig, StreamSource};

    fn topo() -> Hierarchy {
        Hierarchy::balanced(4, &[2, 2]).unwrap()
    }

    fn run<S: StreamSource>(source: &mut S, readings: u64) -> Network<MmdewPayload, MmdewNode> {
        let backend = MmdewBackend(test_config());
        run_backend(&backend, topo(), SimConfig::default(), source, readings).unwrap()
    }

    fn test_config() -> MmdewNodeConfig {
        MmdewNodeConfig {
            detector: MmdewConfig {
                dimensions: 1,
                gamma: 8.0,
                bucket_cap: 16,
                threshold_scale: 0.6,
                min_per_side: 8,
                test_every: 4,
                seed: 7,
            },
            sample_fraction: 0.5,
        }
    }

    /// All leaves shift their mean at reading 300.
    fn shifting_source() -> impl FnMut(NodeId, u64) -> Option<Vec<f64>> {
        |node: NodeId, seq: u64| {
            let base = if seq < 300 { 0.2 } else { 0.8 };
            Some(vec![
                base + 0.01 * ((seq.wrapping_mul(7) + node.0 as u64) % 5) as f64,
            ])
        }
    }

    #[test]
    fn leaves_alarm_after_the_shift() {
        let net = run(&mut shifting_source(), 600);
        for &leaf in net.topology().leaves() {
            let hits = &net.app(leaf).detections;
            assert!(!hits.is_empty(), "leaf {leaf:?} missed the mean shift");
            // All alarms fire on post-shift readings.
            assert!(hits.iter().all(|d| d.value[0] > 0.5), "{hits:?}");
        }
    }

    #[test]
    fn stationary_stream_stays_quiet() {
        let mut source = |node: NodeId, seq: u64| {
            Some(vec![
                0.5 + 0.01 * ((seq.wrapping_mul(11) + node.0 as u64) % 7) as f64,
            ])
        };
        let net = run(&mut source, 800);
        let total: usize = net.apps().map(|(_, a)| a.detections.len()).sum();
        assert_eq!(total, 0, "false alarms on a stationary stream");
    }

    #[test]
    fn alarms_reach_the_parent_tally() {
        let net = run(&mut shifting_source(), 600);
        let tally: u64 = net
            .topology()
            .level(2)
            .iter()
            .map(|&n| net.app(n).child_alarms())
            .sum();
        assert!(tally > 0, "no leaf alarm reached a leader");
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let build = || {
            let backend = MmdewBackend(test_config());
            build_backend_network(&backend, topo(), SimConfig::default(), FaultPlan::none())
                .unwrap()
        };
        let straight = run(&mut shifting_source(), 600);

        let mut b = shifting_source();
        let mut first = build();
        first.run_until(&mut b, 600, 200_000_000_000);
        let bytes = first.checkpoint();
        let mut resumed = build();
        resumed.restore(&bytes).unwrap();
        resumed.run(&mut b, 600);

        assert_eq!(straight.stats(), resumed.stats());
        for (node, app) in straight.apps() {
            assert_eq!(app.detections, resumed.app(node).detections);
            assert_eq!(app.child_alarms(), resumed.app(node).child_alarms());
        }
        assert_eq!(straight.checkpoint(), resumed.checkpoint());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut source = |_: NodeId, _: u64| Some(vec![0.5]);
        let mut bad_gamma = test_config();
        bad_gamma.detector.gamma = 0.0;
        let mut bad_fraction = test_config();
        bad_fraction.sample_fraction = 1.5;
        for cfg in [bad_gamma, bad_fraction] {
            let topo = Hierarchy::balanced(2, &[2]).unwrap();
            assert!(run_backend(
                &MmdewBackend(cfg),
                topo,
                SimConfig::default(),
                &mut source,
                10
            )
            .is_err());
        }
    }
}
