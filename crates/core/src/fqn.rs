//! FQN — distributed streaming-Q_n outlier detection.
//!
//! The D3 protocol with the kernel-density distance rule swapped for the
//! robust-scale rule of Cafaro et al. (*Fast Detection of Outliers in
//! Data Streams with the Q_n Estimator*): a reading is an outlier when
//! any coordinate lands further than `k · Q_n` from the window median,
//! where `Q_n` is the 50%-breakdown pairwise-difference scale maintained
//! by [`snod_robust::QnWindow`]. Because Q_n ignores both tails, a
//! contamination burst cannot inflate the threshold the way it inflates
//! a σ-scaled rule — the detector keeps flagging through the burst.
//!
//! Message protocol, escalation and sample forwarding are the
//! containment engine's (`containment.rs`), with one difference from D3
//! in the leaf step: leaves test every reading against their local
//! window *before* admitting it.

use snod_persist::PersistError;
use snod_robust::QnWindow;

use crate::config::CoreError;
use crate::containment::{ContainmentNode, ContainmentPayload, LeafRule};

/// Configuration for the FQN detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FqnConfig {
    /// Dimensionality of the readings.
    pub dimensions: usize,
    /// Sliding-window capacity per dimension.
    pub window: usize,
    /// Threshold scale `k`: flag when `|x − median| > k · Q_n`.
    pub k_scale: f64,
    /// No verdicts until the window holds at least this many values.
    pub warmup: usize,
    /// Probability that an admitted reading is forwarded to the parent.
    pub sample_fraction: f64,
    /// Base RNG seed (decorrelated per node).
    pub seed: u64,
}

impl Default for FqnConfig {
    fn default() -> Self {
        Self {
            dimensions: 1,
            window: 256,
            k_scale: 3.0,
            warmup: 64,
            sample_fraction: 0.5,
            seed: 0xF9,
        }
    }
}

impl FqnConfig {
    /// Validates the parameter ranges.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.dimensions == 0 {
            return Err(CoreError::Config("fqn dimensions must be positive"));
        }
        if self.window < 2 {
            return Err(CoreError::Config("fqn window must hold at least 2 values"));
        }
        if !(self.k_scale > 0.0) || !self.k_scale.is_finite() {
            return Err(CoreError::Config("fqn k_scale must be positive and finite"));
        }
        if self.warmup < 2 || self.warmup > self.window {
            return Err(CoreError::Config("fqn warmup must be in [2, window]"));
        }
        if !(0.0..=1.0).contains(&self.sample_fraction) {
            return Err(CoreError::Config("fqn sample_fraction must be in [0, 1]"));
        }
        Ok(())
    }
}

snod_persist::persist_struct! {
    FqnConfig {
        dimensions,
        window,
        k_scale,
        warmup,
        sample_fraction,
        seed,
    }
    check: |c| c.validate().map_err(|_| PersistError::Corrupt("invalid fqn config"))
}

/// FQN wire messages — the same two-message shape as D3.
pub type FqnPayload = ContainmentPayload;

/// Per-node FQN state.
pub type FqnNode = ContainmentNode<QnRule>;

/// The `median ± k·Q_n` rule: one [`QnWindow`] per dimension.
pub struct QnRule {
    windows: Vec<QnWindow>,
    cfg: FqnConfig,
}

impl QnRule {
    fn check(&self, p: &[f64]) -> Option<bool> {
        if p.len() != self.cfg.dimensions {
            return None;
        }
        if self.windows[0].len() < self.cfg.warmup {
            return None;
        }
        let mut hit = false;
        for (w, &x) in self.windows.iter().zip(p.iter()) {
            if w.is_outlier(x, self.cfg.k_scale) == Some(true) {
                hit = true;
            }
        }
        Some(hit)
    }
}

impl LeafRule for QnRule {
    type Config = FqnConfig;

    const SCORE_BEFORE_ADMIT: bool = true;
    const FORWARD_SALT: u64 = 0xF9;

    fn base_seed(cfg: &FqnConfig) -> u64 {
        cfg.seed
    }

    fn new(cfg: &FqnConfig, _node_seed: u64) -> Self {
        let windows = (0..cfg.dimensions)
            .map(|_| QnWindow::new(cfg.window).expect("validated window"))
            .collect();
        Self { windows, cfg: *cfg }
    }

    fn sample_fraction(&self) -> f64 {
        self.cfg.sample_fraction
    }

    /// Every admitted value is forwardable. A mis-dimensioned or
    /// non-finite reading is counted instead of panicking.
    fn admit(&mut self, p: &[f64]) -> Option<bool> {
        if p.len() != self.cfg.dimensions || p.iter().any(|x| !x.is_finite()) {
            snod_obs::counter!("core.bad_readings").incr();
            return None;
        }
        for (w, &x) in self.windows.iter_mut().zip(p.iter()) {
            w.push(x).expect("finite scalar push");
        }
        Some(true)
    }

    fn verdict(&mut self, p: &[f64]) -> Option<bool> {
        let verdict = self.check(p)?;
        snod_obs::counter!("core.fqn.scored").incr();
        if verdict {
            snod_obs::counter!("core.fqn.detections").incr();
            snod_obs::counter!("core.fqn.escalations").incr();
        }
        Some(verdict)
    }
}

impl FqnNode {
    /// The per-dimension windows (for post-run inspection).
    pub fn windows(&self) -> &[QnWindow] {
        &self.rule.windows
    }

    /// Verdict for `p` against the current windows: `Some(true)` when any
    /// coordinate is further than `k·Q_n` from its window median. `None`
    /// until warm-up completes.
    pub fn verdict(&self, p: &[f64]) -> Option<bool> {
        self.rule.check(p)
    }
}

snod_persist::persist_struct! {
    QnRule {
        windows,
        cfg,
    }
    check: QnRule::check_loaded
}

impl QnRule {
    fn check_loaded(&self) -> Result<(), PersistError> {
        if self.windows.len() != self.cfg.dimensions {
            return Err(PersistError::Corrupt("fqn window/dimension mismatch"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{run_backend, FqnBackend};
    use snod_simnet::{Hierarchy, NodeId, SimConfig};

    #[test]
    fn contamination_burst_does_not_silence_the_detector() {
        // The robust-scale headline: a 10%-contaminated stretch inflates
        // σ enough to hide later outliers from a mean±kσ rule, but Q_n
        // (50% breakdown) holds its threshold and keeps flagging.
        let topo = Hierarchy::balanced(1, &[]).unwrap();
        let mut source = |_n: NodeId, seq: u64| {
            if (200..260).contains(&seq) && seq.is_multiple_of(6) {
                Some(vec![5.0 + 0.01 * (seq % 7) as f64]) // the burst
            } else if seq % 100 == 99 && seq > 300 {
                Some(vec![2.0]) // post-burst outliers, milder than the burst
            } else {
                Some(vec![0.5 + 0.002 * ((seq % 31) as f64)])
            }
        };
        let backend = FqnBackend(FqnConfig {
            dimensions: 1,
            window: 128,
            k_scale: 4.0,
            warmup: 32,
            sample_fraction: 0.5,
            seed: 7,
        });
        let net = run_backend(&backend, topo, SimConfig::default(), &mut source, 800).unwrap();
        let leaf = net.app(NodeId(0));
        let post_burst_hits = leaf
            .detections
            .iter()
            .filter(|d| (1.5..3.0).contains(&d.value[0]))
            .count();
        assert!(
            post_burst_hits >= 3,
            "burst inflated the threshold: only {post_burst_hits} post-burst detections"
        );
    }
}
