//! Algorithm D3 — Distributed Deviation Detection (paper Section 7,
//! Figure 4): the containment engine (`containment.rs`) under the
//! kernel-density distance rule.
//!
//! Because a leader's arrival stream is a uniform random sample of its
//! subtree's readings, `N(p, r) < t` at a leader is a *density* test
//! over the region: it scales the conceptual union-window threshold
//! `t·Σ|Wᵢ|/|W|` down to the arrival window, with the same `|W|`, `|R|`
//! and threshold `t` at every tier.

use crate::config::{CoreError, D3Config};
use crate::containment::{ContainmentNode, ContainmentPayload, LeafRule};
use crate::estimator::SensorEstimator;

/// D3 wire messages.
pub type D3Payload = ContainmentPayload;

/// Per-node D3 state.
pub type D3Node = ContainmentNode<DistanceRule>;

/// The `(D, r)`-outlier rule over a [`SensorEstimator`]: `p` is an
/// outlier when the model counts fewer than `t` neighbours within `r`.
pub struct DistanceRule {
    est: SensorEstimator,
    cfg: D3Config,
}

impl LeafRule for DistanceRule {
    type Config = D3Config;

    const SCORE_BEFORE_ADMIT: bool = false;
    const FORWARD_SALT: u64 = 0xD3;

    fn base_seed(cfg: &D3Config) -> u64 {
        cfg.estimator.seed
    }

    fn new(cfg: &D3Config, node_seed: u64) -> Self {
        let mut est_cfg = cfg.estimator;
        est_cfg.seed = node_seed;
        Self {
            est: SensorEstimator::new(est_cfg),
            cfg: *cfg,
        }
    }

    fn sample_fraction(&self) -> f64 {
        self.cfg.sample_fraction
    }

    /// Forwardable when the chain sample accepted the value. A reading
    /// whose dimensionality does not match the configuration (a miswired
    /// stream source) or that is not finite is dropped and counted
    /// instead of panicking mid-simulation or poisoning σ.
    fn admit(&mut self, value: &[f64]) -> Option<bool> {
        let accepted = self.est.observe(value);
        if accepted.is_err() {
            snod_obs::counter!("core.bad_readings").incr();
        }
        accepted.ok()
    }

    /// Warm-up guard: no verdicts until the estimator has seen at least
    /// a sample's worth of data.
    fn verdict(&mut self, p: &[f64]) -> Option<bool> {
        if self.est.observed() < self.est.config().sample_size as u64 {
            return None;
        }
        snod_obs::counter!("core.d3.scored").incr();
        match self.est.is_distance_outlier_scaled(p, &self.cfg.rule) {
            Ok(true) => {
                snod_obs::counter!("core.d3.detections").incr();
                snod_obs::counter!("core.d3.escalations").incr();
                Some(true)
            }
            Ok(false) => Some(false),
            Err(CoreError::NoData) => None,
            // A mis-dimensioned escalation (a peer running a different
            // configuration) is dropped rather than crashing the node.
            Err(_) => {
                snod_obs::counter!("core.bad_readings").incr();
                None
            }
        }
    }
}

impl D3Node {
    /// The node's estimator (for post-run inspection).
    pub fn estimator(&self) -> &SensorEstimator {
        &self.rule.est
    }
}

snod_persist::persist_struct! {
    DistanceRule {
        est,
        cfg,
    }
    check: none
}
