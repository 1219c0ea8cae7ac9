//! Incrementally maintained FIFO replica of a remote estimator model.
//!
//! MGDD leaves replicate a broadcasting leader's sample (paper Section
//! 8.1): every accepted leader value is relayed down and pushed into a
//! FIFO of capacity `|R|`. The seed implementation invalidated the
//! materialised kernel model on *every* push, paying a full
//! `O(|R| log|R|)` sort-and-rebuild per update. [`IncrementalReplica`]
//! instead keeps the model's sorted centres in lockstep with the FIFO —
//! each push merges the new value and removes the evicted one in
//! `O(log|R| + shift)` — while the *bandwidths* stay at their
//! last-rebuild values until the [`RebuildPolicy`] epoch budget is spent
//! or the leader's σ drifts beyond tolerance (the stale-bandwidth error
//! bound is documented on [`RebuildPolicy`]). At every epoch boundary the
//! model is rebuilt from scratch and therefore agrees exactly with a
//! non-incremental implementation.

use std::collections::VecDeque;

use snod_density::{Kde, Kde1d};
use snod_outlier::CellMemo;
use snod_persist::PersistError;

use crate::config::{CoreError, RebuildPolicy};
use crate::estimator::SensorModel;

/// A FIFO replica of a remote (leader) estimator: the latest `cap`
/// relayed sample values plus the leader's current σ and conceptual
/// window, materialising an epoch-maintained kernel model on demand.
#[derive(Debug, Clone)]
pub struct IncrementalReplica {
    values: VecDeque<Vec<f64>>,
    cap: usize,
    sigmas: Vec<f64>,
    window_len: f64,
    policy: RebuildPolicy,
    /// Cached model; when present its centres exactly mirror `values`.
    cached: Option<SensorModel>,
    /// σ snapshot the cached model's bandwidths were derived from.
    built_sigmas: Vec<f64>,
    /// Pushes since the cached model was last fully rebuilt.
    pushes_since_rebuild: u64,
    /// Completed full rebuilds.
    epochs: u64,
    /// Simulated time of the latest upstream update ([`Self::touch`]).
    last_update_ns: u64,
    /// MDEF cell counts of the cached model, never persisted. Cleared by
    /// every push and replace; a rebuild always follows one of those or
    /// a fresh start, so it finds the memo empty.
    memo: CellMemo,
}

impl IncrementalReplica {
    /// Creates an empty replica holding at most `cap` values.
    pub fn new(cap: usize, policy: RebuildPolicy) -> Self {
        Self {
            values: VecDeque::with_capacity(cap),
            cap,
            sigmas: Vec::new(),
            window_len: 1.0,
            policy,
            cached: None,
            built_sigmas: Vec::new(),
            pushes_since_rebuild: 0,
            epochs: 0,
            last_update_ns: 0,
            memo: CellMemo::default(),
        }
    }

    /// Records the simulated time at which an upstream update (a relayed
    /// delta or a full-model broadcast) last reached this replica. Under
    /// message loss or a crashed leader the replica keeps serving its
    /// last-known model, and this timestamp is what a staleness bound is
    /// checked against.
    pub fn touch(&mut self, now_ns: u64) {
        self.last_update_ns = self.last_update_ns.max(now_ns);
    }

    /// Simulated time of the latest upstream update (`0` before any).
    pub fn last_update_ns(&self) -> u64 {
        self.last_update_ns
    }

    /// Whether the replica has gone stale: no upstream update within the
    /// last `bound_ns` of simulated time.
    pub fn is_stale(&self, now_ns: u64, bound_ns: u64) -> bool {
        now_ns.saturating_sub(self.last_update_ns) > bound_ns
    }

    /// Applies one relayed sample value (evicting the oldest when full)
    /// and refreshes the leader's σ/window metadata. The cached model is
    /// updated incrementally unless the policy demands a rebuild, in
    /// which case it is dropped and rebuilt lazily on the next
    /// [`Self::model`] call.
    pub fn push(&mut self, value: Vec<f64>, sigmas: Vec<f64>, window_len: f64) {
        snod_obs::counter!("core.replica.pushes").incr();
        self.memo.clear();
        let evicted = if self.values.len() == self.cap {
            self.values.pop_front()
        } else {
            None
        };
        self.sigmas = sigmas;
        self.window_len = window_len;
        self.pushes_since_rebuild += 1;
        let mut keep = false;
        if let Some(model) = self.cached.as_mut() {
            if !self.policy.should_rebuild(
                self.pushes_since_rebuild,
                &self.built_sigmas,
                &self.sigmas,
            ) {
                // In-place maintenance: merge the new centre, drop the
                // evicted one, track the window length. Any failure
                // (dimension change, desync) falls back to a full
                // rebuild.
                keep = model.insert_value(&value).is_ok()
                    && evicted
                        .as_ref()
                        .is_none_or(|old| model.remove_value(old).unwrap_or(false))
                    && model.set_window_len(self.window_len.max(1.0)).is_ok();
            }
        }
        if !keep {
            self.cached = None;
        }
        self.values.push_back(value);
    }

    /// Replaces the whole replica content (the full-model broadcast of
    /// the model-change update strategy). Always invalidates the cache.
    pub fn replace(&mut self, sample: Vec<Vec<f64>>, sigmas: Vec<f64>, window_len: f64) {
        self.values = sample.into_iter().collect();
        while self.values.len() > self.cap {
            self.values.pop_front();
        }
        self.sigmas = sigmas;
        self.window_len = window_len;
        self.cached = None;
        self.memo.clear();
    }

    /// Enough data to make statistical judgements (half the capacity).
    pub fn is_warm(&self) -> bool {
        self.values.len() >= (self.cap / 2).max(1)
    }

    /// Number of values currently replicated.
    pub fn sample_len(&self) -> usize {
        self.values.len()
    }

    /// The replicated values, oldest first.
    pub fn values(&self) -> impl Iterator<Item = &[f64]> {
        self.values.iter().map(Vec::as_slice)
    }

    /// The leader's latest per-dimension σ estimates.
    pub fn sigmas(&self) -> &[f64] {
        &self.sigmas
    }

    /// Completed full rebuilds (epoch counter; a boundary has just been
    /// crossed when this increments across a [`Self::model`] call).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Pushes absorbed since the last full rebuild.
    pub fn pushes_since_rebuild(&self) -> u64 {
        self.pushes_since_rebuild
    }

    /// The current model. Between epoch boundaries the cached model is
    /// maintained incrementally (exact centres, bandwidths from the last
    /// rebuild); at boundaries it is rebuilt from scratch, so the result
    /// is then identical to a rebuild-on-every-push implementation.
    pub fn model(&mut self) -> Result<&SensorModel, CoreError> {
        if self.cached.is_none() {
            if self.values.is_empty() || self.sigmas.is_empty() {
                return Err(CoreError::NoData);
            }
            let _rebuild = snod_obs::span!("core.replica.rebuild");
            snod_obs::counter!("core.replica.rebuilds").incr();
            let dims = self.sigmas.len();
            let window_len = self.window_len.max(1.0);
            let model = if dims == 1 {
                SensorModel::One(
                    Kde1d::from_sample_iter(
                        self.values.iter().map(|v| v[0]),
                        self.sigmas[0],
                        window_len,
                    )
                    .map_err(CoreError::Density)?,
                )
            } else {
                SensorModel::Multi(
                    Kde::from_sample_iter(
                        self.values.iter().map(Vec::as_slice),
                        &self.sigmas,
                        window_len,
                    )
                    .map_err(CoreError::Density)?,
                )
            };
            self.cached = Some(model);
            self.built_sigmas = self.sigmas.clone();
            self.pushes_since_rebuild = 0;
            self.epochs += 1;
        }
        Ok(self.cached.as_ref().expect("cache just filled"))
    }

    /// The current model ([`Self::model`]) with its cell-count memo, for
    /// [`snod_outlier::MdefDetector::evaluate_memoized`].
    pub fn model_with_memo(&mut self) -> Result<(&SensorModel, &mut CellMemo), CoreError> {
        self.model()?;
        let model = self.cached.as_ref().expect("model() filled the cache");
        Ok((model, &mut self.memo))
    }
}

snod_persist::persist_struct! {
    IncrementalReplica {
        values,
        cap,
        sigmas,
        window_len,
        policy,
        cached,
        built_sigmas,
        pushes_since_rebuild,
        epochs,
        last_update_ns,
    }
    derived {
        memo: CellMemo::default(),
    }
    check: IncrementalReplica::check_loaded
}

impl IncrementalReplica {
    fn check_loaded(&self) -> Result<(), PersistError> {
        if self.cap == 0 {
            return Err(PersistError::Corrupt("replica capacity must be positive"));
        }
        if self.values.len() > self.cap {
            return Err(PersistError::Corrupt(
                "replica holds more than its capacity",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snod_density::DensityModel as _;

    fn policy(every: u64, tol: f64) -> RebuildPolicy {
        RebuildPolicy {
            rebuild_every: every,
            sigma_tolerance: tol,
        }
    }

    fn value_at(i: u64) -> f64 {
        ((i * 37) % 101) as f64 / 101.0
    }

    /// A from-scratch model over the same FIFO content, with the
    /// bandwidth σ the incremental replica last rebuilt with.
    fn scratch_model(replica: &IncrementalReplica, sigma: f64) -> SensorModel {
        let xs: Vec<f64> = replica.values().map(|v| v[0]).collect();
        SensorModel::One(Kde1d::from_sample(&xs, sigma, 64.0).unwrap())
    }

    #[test]
    fn incremental_model_tracks_fifo_between_epochs() {
        // Constant σ: only the push budget can trigger rebuilds, so
        // between boundaries the model is maintained purely in place.
        let mut replica = IncrementalReplica::new(32, policy(16, 0.5));
        for i in 0..200u64 {
            replica.push(vec![value_at(i)], vec![0.1], 64.0);
            if i < 8 {
                continue;
            }
            // Centres always mirror the FIFO exactly, rebuild or not.
            let (got, bandwidth) = match replica.model().unwrap() {
                SensorModel::One(m) => (m.centers().to_vec(), m.bandwidth()),
                SensorModel::Multi(_) => unreachable!(),
            };
            let mut want: Vec<f64> = replica.values().map(|v| v[0]).collect();
            want.sort_by(f64::total_cmp);
            assert_eq!(got, want, "centres diverged at push {i}");
            // Same centres + same bandwidth ⇒ the incremental model
            // *equals* a from-scratch build (the bandwidth is pinned to
            // the cached model's because |R| still grows mid-epoch here).
            let scratch = SensorModel::One(
                Kde1d::new(want, bandwidth, 64.0, snod_density::EpanechnikovKernel).unwrap(),
            );
            for q in [0.1, 0.5, 0.9] {
                assert_eq!(
                    replica
                        .model()
                        .unwrap()
                        .neighborhood_count(&[q], 0.1)
                        .unwrap(),
                    scratch.neighborhood_count(&[q], 0.1).unwrap(),
                    "count mismatch at push {i} query {q}"
                );
            }
        }
        assert!(replica.epochs() >= 2, "push budget never cycled");
    }

    #[test]
    fn epoch_boundary_rebuild_is_exact_under_sigma_drift() {
        // Drifting σ: between boundaries the bandwidth is stale, but a
        // boundary rebuild must agree exactly with from-scratch.
        let mut replica = IncrementalReplica::new(24, policy(8, 0.2));
        let mut last_epochs = 0;
        let mut boundaries = 0;
        for i in 0..200u64 {
            let sigma = 0.1 + 0.01 * ((i / 10) % 7) as f64;
            replica.push(vec![value_at(i)], vec![sigma], 64.0);
            if i < 12 {
                continue;
            }
            replica.model().unwrap();
            if replica.epochs() > last_epochs {
                last_epochs = replica.epochs();
                boundaries += 1;
                // Fresh epoch: bandwidths derived from the current σ —
                // identical to a full rebuild over the same data.
                let scratch = scratch_model(&replica, sigma);
                for q in [0.2, 0.45, 0.7] {
                    assert_eq!(
                        replica
                            .model()
                            .unwrap()
                            .neighborhood_count(&[q], 0.08)
                            .unwrap(),
                        scratch.neighborhood_count(&[q], 0.08).unwrap()
                    );
                }
            }
            assert!(
                replica.pushes_since_rebuild() <= 8,
                "push budget exceeded at {i}"
            );
        }
        assert!(boundaries >= 3, "too few epoch boundaries: {boundaries}");
    }

    #[test]
    fn sigma_drift_forces_early_rebuild() {
        let mut replica = IncrementalReplica::new(16, policy(1_000, 0.1));
        for i in 0..40u64 {
            replica.push(vec![value_at(i)], vec![0.1], 32.0);
        }
        replica.model().unwrap();
        assert_eq!(replica.epochs(), 1);
        // Within tolerance: no new epoch.
        replica.push(vec![0.5], vec![0.105], 32.0);
        replica.model().unwrap();
        assert_eq!(replica.epochs(), 1);
        // Past tolerance: the next model() call rebuilds.
        replica.push(vec![0.6], vec![0.2], 32.0);
        replica.model().unwrap();
        assert_eq!(replica.epochs(), 2);
    }

    #[test]
    fn replace_invalidates_and_rebuilds() {
        let mut replica = IncrementalReplica::new(8, policy(64, 0.5));
        for i in 0..8u64 {
            replica.push(vec![value_at(i)], vec![0.1], 16.0);
        }
        replica.model().unwrap();
        replica.replace(vec![vec![0.4], vec![0.5], vec![0.6]], vec![0.05], 16.0);
        assert_eq!(replica.sample_len(), 3);
        let model = replica.model().unwrap();
        match model {
            SensorModel::One(m) => assert_eq!(m.centers(), &[0.4, 0.5, 0.6]),
            SensorModel::Multi(_) => unreachable!(),
        }
        assert_eq!(replica.epochs(), 2);
    }

    #[test]
    fn staleness_tracks_the_latest_touch() {
        let mut replica = IncrementalReplica::new(8, RebuildPolicy::default());
        // Untouched: stale relative to any positive age.
        assert!(replica.is_stale(1_000, 999));
        assert!(!replica.is_stale(1_000, 1_000));
        replica.touch(5_000);
        assert_eq!(replica.last_update_ns(), 5_000);
        assert!(!replica.is_stale(5_500, 500));
        assert!(replica.is_stale(5_501, 500));
        // Touches never move backwards (duplicate deliveries may arrive
        // out of order under link faults).
        replica.touch(4_000);
        assert_eq!(replica.last_update_ns(), 5_000);
    }

    #[test]
    fn empty_replica_reports_no_data() {
        let mut replica = IncrementalReplica::new(8, RebuildPolicy::default());
        assert!(matches!(replica.model(), Err(CoreError::NoData)));
        assert!(!replica.is_warm());
    }

    #[test]
    fn multidimensional_replica_maintains_model() {
        let mut replica = IncrementalReplica::new(16, policy(8, 0.5));
        for i in 0..60u64 {
            let v = vec![value_at(i), value_at(i + 7)];
            replica.push(v, vec![0.1, 0.12], 32.0);
            if i >= 16 {
                let model = replica.model().unwrap();
                assert_eq!(model.dims(), 2);
                assert_eq!(model.sample_size(), replica.sample_len());
            }
        }
    }
}
