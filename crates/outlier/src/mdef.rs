//! MDEF / aLOCI local-metrics outliers (paper Sections 3 and 8, Figure 3).
//!
//! The Multi-Granularity Deviation Factor compares the *counting
//! neighborhood* of `p` (radius `αr`) against the counting neighborhoods
//! of the points in its *sampling neighborhood* (radius `r`):
//!
//! ```text
//! MDEF(p, r, α)   = 1 − n(p, αr) / n̂(p, r, α)
//! σ_MDEF(p, r, α) = σ_n̂(p, r, α) / n̂(p, r, α)
//! outlier ⇔ MDEF > k_σ · σ_MDEF          (paper Equation 9, k_σ = 3)
//! ```
//!
//! where `n̂` is the (point-weighted) average of `n(q, αr)` over
//! `q ∈ N(p, r)` and `σ_n̂` its standard deviation. Following Figure 3 of
//! the paper, the average is estimated from a density model by dividing
//! the domain into cells of width `2αr` and issuing one range query
//! `N(center_i, αr)` per cell that intersects `[p − r, p + r]` — the
//! aLOCI discretisation. This costs `1/(2αr)` range queries per dimension
//! (Theorem 4).

use snod_density::{DensityError, DensityModel};
use snod_persist::{ByteReader, ByteWriter, Persist, PersistError};

/// How `σ_MDEF` is estimated from the per-cell counts.
///
/// The paper specifies `k_σ = 3` and cites aLOCI for the machinery, but
/// with the LOCI-orthodox count-weighted *population* deviation, `σ_MDEF`
/// on any Gaussian-slope or Poisson-sparse region exceeds `MDEF/k_σ ≤ 1/3`
/// and the flagged set on the paper's own synthetic workload is **empty**
/// — incompatible with the reported "40–80 outliers" and ≈94% precision.
/// Interpreting the deviation as the uncertainty *of the local average*
/// (`σ/√#cells`, a standard error) reproduces the paper's observable
/// behaviour; it is therefore the default, with the orthodox estimator
/// kept for comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SigmaMode {
    /// Count-weighted population deviation of the cell counts
    /// (LOCI/aLOCI as published).
    Weighted,
    /// Standard error of the count-weighted mean: `σ_weighted / √m`
    /// over the `m` non-empty cells (reproduces the paper's numbers).
    #[default]
    StandardError,
}

/// Parameters of the MDEF-based outlier rule. The paper's synthetic
/// experiments use `r = 0.08`, `αr = 0.01`, `k_σ = 3`; the real-data
/// experiments use `r = 0.05`, `αr = 0.003`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdefConfig {
    /// Sampling-neighborhood radius `r`.
    pub sampling_radius: f64,
    /// Counting-neighborhood radius `αr` (so `α = αr / r`).
    pub counting_radius: f64,
    /// Significance factor `k_σ`.
    pub k_sigma: f64,
    /// The σ_MDEF estimator (see [`SigmaMode`]).
    pub sigma_mode: SigmaMode,
    /// Minimum MDEF for a flag regardless of σ_MDEF. Guards against the
    /// degenerate σ → 0 of perfectly homogeneous neighborhoods, where
    /// self-exclusion alone yields `MDEF = 1/n̂ > 0 = k_σ·σ_MDEF`.
    pub min_deviation: f64,
}

impl MdefConfig {
    /// Creates a configuration, validating `0 < αr ≤ r` and `k_σ > 0`.
    pub fn new(sampling_radius: f64, counting_radius: f64, k_sigma: f64) -> Option<Self> {
        (counting_radius > 0.0 && counting_radius <= sampling_radius && k_sigma > 0.0).then_some(
            Self {
                sampling_radius,
                counting_radius,
                k_sigma,
                sigma_mode: SigmaMode::default(),
                min_deviation: 0.05,
            },
        )
    }

    /// Switches the σ_MDEF estimator.
    pub fn with_sigma_mode(mut self, mode: SigmaMode) -> Self {
        self.sigma_mode = mode;
        self
    }

    /// The ratio `α = αr / r`.
    pub fn alpha(&self) -> f64 {
        self.counting_radius / self.sampling_radius
    }

    /// Applies the configured mode to the weighted deviation over `m`
    /// non-empty cells.
    pub fn effective_sigma(&self, weighted_sigma: f64, cells: usize) -> f64 {
        match self.sigma_mode {
            SigmaMode::Weighted => weighted_sigma,
            SigmaMode::StandardError => weighted_sigma / (cells.max(1) as f64).sqrt(),
        }
    }

    /// The flagging rule (Equation 9 plus the degeneracy margin):
    /// `MDEF > k_σ·σ_MDEF` **and** `MDEF > min_deviation`.
    pub fn flags(&self, mdef: f64, sigma_mdef: f64) -> bool {
        mdef > self.k_sigma * sigma_mdef && mdef > self.min_deviation
    }
}

/// The full MDEF diagnostics for one observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdefEvaluation {
    /// `n(p, αr)` — estimated count in the counting neighborhood of `p`.
    pub count: f64,
    /// `n̂(p, r, α)` — point-weighted average counting-neighborhood count
    /// over the sampling neighborhood.
    pub avg_count: f64,
    /// `MDEF(p, r, α)`.
    pub mdef: f64,
    /// `σ_MDEF(p, r, α)`.
    pub sigma_mdef: f64,
    /// Whether Equation 9 flags `p`.
    pub is_outlier: bool,
}

/// Most cells a [`CellMemo`] holds (128 KiB of counts). A finer grid is
/// not memoized at all.
const MEMO_MAX_CELLS: usize = 1 << 14;

/// Memoized cell counts of one density model: `n(centre, αr)` of every
/// aLOCI cell an evaluation needed, over the grid of `2αr` cells that
/// covers `[0, 1]^d`. A cell count is a pure function of the model and
/// the cell index, so it is served from here until the model changes;
/// the memo's owner must [`clear`](Self::clear) it on every change.
/// Cells outside the grid are counted afresh each time. Derived state:
/// never persisted.
#[derive(Debug, Clone, Default)]
pub struct CellMemo {
    /// Counts by row-major cell index; NaN marks a cell not yet counted.
    counts: Vec<f64>,
    /// Cells per dimension (0 when the grid would exceed the cap).
    side: usize,
    /// Dimensionality and counting radius the grid is laid out for.
    dims: usize,
    radius_bits: u64,
}

impl CellMemo {
    /// Forgets every count (the model changed), keeping the allocation.
    pub fn clear(&mut self) {
        self.counts.clear();
    }

    /// Lays the grid out for `dims` dimensions and counting radius `ar`,
    /// allocating it on the first evaluation after a [`Self::clear`].
    fn prepare(&mut self, dims: usize, ar: f64) {
        if self.dims != dims || self.radius_bits != ar.to_bits() {
            self.counts.clear();
            self.dims = dims;
            self.radius_bits = ar.to_bits();
            let side = (1.0 / (2.0 * ar)).ceil() as usize;
            self.side = match u32::try_from(dims).ok().and_then(|d| side.checked_pow(d)) {
                Some(n) if n <= MEMO_MAX_CELLS => side,
                _ => 0,
            };
        }
        if self.counts.is_empty() && self.side > 0 {
            self.counts.resize(self.side.pow(dims as u32), f64::NAN);
        }
    }

    /// Row-major slot of the cell with per-dimension indices `cell`, or
    /// `None` outside the grid.
    fn slot(&self, cell: &[i64]) -> Option<usize> {
        cell.iter().try_fold(0, |slot, &i| {
            let i = usize::try_from(i).ok().filter(|&i| i < self.side)?;
            Some(slot * self.side + i)
        })
    }

    fn get(&self, cell: &[i64]) -> Option<f64> {
        let slot = self.slot(cell)?;
        self.counts.get(slot).copied().filter(|c| !c.is_nan())
    }

    fn put(&mut self, cell: &[i64], count: f64) {
        if let Some(c) = self.slot(cell).and_then(|s| self.counts.get_mut(s)) {
            *c = count;
        }
    }
}

/// Steps `cell` to the next cell of the box `lo..=hi` in flat-index order
/// (last dimension fastest).
fn next_cell(cell: &mut [i64], lo: &[i64], hi: &[i64]) {
    for j in (0..cell.len()).rev() {
        if cell[j] < hi[j] {
            cell[j] += 1;
            return;
        }
        cell[j] = lo[j];
    }
}

/// MDEF detector evaluating observations against any density model.
#[derive(Debug, Clone, Copy)]
pub struct MdefDetector {
    cfg: MdefConfig,
}

impl MdefDetector {
    /// Creates a detector.
    pub fn new(cfg: MdefConfig) -> Self {
        Self { cfg }
    }

    /// The bound configuration.
    pub fn config(&self) -> &MdefConfig {
        &self.cfg
    }

    /// Evaluates observation `p` against `model` (the *global* model in
    /// the MGDD algorithm). Implements the `isMDEFOutlier()` check of the
    /// paper's Figure 4 (MGDD, line 27).
    pub fn evaluate<M: DensityModel + ?Sized>(
        &self,
        model: &M,
        p: &[f64],
    ) -> Result<MdefEvaluation, DensityError> {
        self.evaluate_with(model, p, None)
    }

    /// [`Self::evaluate`], serving cell counts from `memo` and recording
    /// the ones it had to count. The result has the same bits as
    /// `evaluate` as long as `memo` holds counts of `model` only: a
    /// count does not depend on the batch it was computed in (DESIGN
    /// §11.3).
    pub fn evaluate_memoized<M: DensityModel + ?Sized>(
        &self,
        model: &M,
        p: &[f64],
        memo: &mut CellMemo,
    ) -> Result<MdefEvaluation, DensityError> {
        self.evaluate_with(model, p, Some(memo))
    }

    fn evaluate_with<M: DensityModel + ?Sized>(
        &self,
        model: &M,
        p: &[f64],
        mut memo: Option<&mut CellMemo>,
    ) -> Result<MdefEvaluation, DensityError> {
        snod_obs::counter!("outlier.mdef.evals").incr();
        let d = model.dims();
        if p.len() != d {
            return Err(DensityError::DimensionMismatch {
                expected: d,
                got: p.len(),
            });
        }
        let ar = self.cfg.counting_radius;
        let r = self.cfg.sampling_radius;
        let cell = 2.0 * ar;

        // Cells of width 2αr (per dimension, aligned to the domain origin)
        // that intersect the sampling box [p − r, p + r]: indices lo..=hi.
        let mut lo_idx = Vec::with_capacity(d);
        let mut hi_idx = Vec::with_capacity(d);
        for &c in p.iter().take(d) {
            let lo = ((c - r) / cell).floor().max(0.0) as i64;
            let hi = ((c + r) / cell).floor() as i64;
            lo_idx.push(lo);
            hi_idx.push(hi.max(lo));
        }
        let total_cells: usize = lo_idx
            .iter()
            .zip(&hi_idx)
            .map(|(lo, hi)| (hi - lo + 1) as usize)
            .product();
        if let Some(m) = memo.as_deref_mut() {
            m.prepare(d, ar);
        }

        // All counting queries of one evaluation share the radius αr, so
        // the ones the memo cannot serve go to the model as a single
        // batch: the counting neighborhood of p itself, then one query
        // per missing cell centre (the flat-index order emits centres
        // ascending in dimension 0, which the sorted-sweep
        // implementations exploit).
        let mut queries = Vec::with_capacity((1 + total_cells) * d);
        queries.extend_from_slice(p);
        let mut at = lo_idx.clone();
        for _ in 0..total_cells {
            if memo.as_deref().and_then(|m| m.get(&at)).is_none() {
                queries.extend(at.iter().map(|&i| i as f64 * cell + ar));
            }
            next_cell(&mut at, &lo_idx, &hi_idx);
        }
        let counts = model.neighborhood_counts(&queries, ar)?;
        if memo.is_some() {
            let misses = counts.len() - 1;
            snod_obs::counter!("outlier.mdef.cell_hits").add((total_cells - misses) as u64);
            snod_obs::counter!("outlier.mdef.cell_misses").add(misses as u64);
        }

        // Counting neighborhood of p itself.
        let count = counts[0];

        // Weighted first and second moments of the per-cell counts c_i,
        // weighting each cell by its own count (each of the ~c_i points in
        // cell i has counting-neighborhood count ≈ c_i), in flat order.
        let mut fresh = counts[1..].iter();
        let mut w_sum = 0.0;
        let mut w_mean = 0.0;
        let mut w_sq = 0.0;
        let mut nonempty = 0usize;
        at.copy_from_slice(&lo_idx);
        for _ in 0..total_cells {
            let c = match memo.as_deref().and_then(|m| m.get(&at)) {
                Some(c) => c,
                None => {
                    let c = *fresh.next().expect("one count per unmemoized cell");
                    if let Some(m) = memo.as_deref_mut() {
                        m.put(&at, c);
                    }
                    c
                }
            };
            next_cell(&mut at, &lo_idx, &hi_idx);
            // Estimated fractional counts below one reading are noise
            // floor, not population: skip them like empty cells.
            if c >= 0.5 {
                w_sum += c;
                w_mean += c * c;
                w_sq += c * c * c;
                nonempty += 1;
            }
        }
        if w_sum <= f64::EPSILON {
            // Empty sampling neighborhood: the point is maximally deviant.
            return Ok(MdefEvaluation {
                count,
                avg_count: 0.0,
                mdef: 1.0,
                sigma_mdef: 0.0,
                is_outlier: true,
            });
        }
        let avg = w_mean / w_sum;
        let var = (w_sq / w_sum - avg * avg).max(0.0);
        let sigma_mdef = self.cfg.effective_sigma(var.sqrt(), nonempty) / avg;
        let mdef = 1.0 - count / avg;
        let is_outlier = self.cfg.flags(mdef, sigma_mdef);
        Ok(MdefEvaluation {
            count,
            avg_count: avg,
            mdef,
            sigma_mdef,
            is_outlier,
        })
    }

    /// Convenience: just the boolean verdict.
    pub fn check<M: DensityModel + ?Sized>(
        &self,
        model: &M,
        p: &[f64],
    ) -> Result<bool, DensityError> {
        Ok(self.evaluate(model, p)?.is_outlier)
    }
}

impl Persist for SigmaMode {
    fn save(&self, w: &mut ByteWriter) {
        w.put_u8(match self {
            SigmaMode::Weighted => 0,
            SigmaMode::StandardError => 1,
        });
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(SigmaMode::Weighted),
            1 => Ok(SigmaMode::StandardError),
            _ => Err(PersistError::Corrupt("unknown sigma-mode tag")),
        }
    }
}

snod_persist::persist_struct! {
    MdefConfig {
        sampling_radius,
        counting_radius,
        k_sigma,
        sigma_mode,
        min_deviation,
    }
    check: MdefConfig::check_loaded
}

impl MdefConfig {
    fn check_loaded(&self) -> Result<(), PersistError> {
        let (r, ar) = (self.sampling_radius, self.counting_radius);
        if !(ar > 0.0 && ar <= r && self.k_sigma > 0.0) {
            return Err(PersistError::Corrupt("mdef radii violate 0 < ar <= r"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snod_density::Kde1d;

    fn cfg() -> MdefConfig {
        MdefConfig::new(0.08, 0.01, 3.0).expect("valid config")
    }

    fn cluster_model() -> Kde1d {
        // Dense *uniform* block on [0.40, 0.50]: with k_σ = 3 and
        // MDEF ≤ 1, flagging requires σ_MDEF < 1/3, i.e. a sampling
        // neighborhood dominated by homogeneous density. A uniform core
        // is the clean geometry for that (a Gaussian core spanning
        // several 2αr cells is too heterogeneous to flag — see the
        // brute-force tests for that documented behavior).
        let xs: Vec<f64> = (0..500)
            .map(|i| 0.40 + 0.10 * (i as f64 + 0.5) / 500.0)
            .collect();
        // Small bandwidth so the block's edges stay sharp.
        Kde1d::new(xs, 0.004, 10_000.0, snod_density::EpanechnikovKernel).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(MdefConfig::new(0.08, 0.0, 3.0).is_none());
        assert!(MdefConfig::new(0.01, 0.08, 3.0).is_none()); // αr > r
        assert!(MdefConfig::new(0.08, 0.01, 0.0).is_none());
        assert!((cfg().alpha() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn cluster_core_is_not_mdef_outlier() {
        let det = MdefDetector::new(cfg());
        let model = cluster_model();
        let e = det.evaluate(&model, &[0.45]).unwrap();
        assert!(e.mdef < 0.5, "core mdef too high: {e:?}");
        assert!(!e.is_outlier, "cluster core flagged: {e:?}");
    }

    #[test]
    fn cluster_skirt_point_is_mdef_outlier() {
        // A point just outside the cluster whose sampling neighborhood is
        // dominated by the homogeneous dense core: the canonical MDEF
        // outlier (its own count is far below the local average).
        let det = MdefDetector::new(cfg());
        let model = cluster_model();
        let e = det.evaluate(&model, &[0.55]).unwrap();
        assert!(e.mdef > 0.8, "skirt point mdef {e:?}");
        assert!(e.is_outlier, "skirt point not flagged: {e:?}");
    }

    #[test]
    fn empty_neighborhood_flags_outlier() {
        let det = MdefDetector::new(cfg());
        let model = cluster_model();
        let e = det.evaluate(&model, &[0.95]).unwrap();
        assert!(e.is_outlier);
        assert_eq!(e.mdef, 1.0);
        assert_eq!(e.avg_count, 0.0);
    }

    #[test]
    fn denser_than_neighbors_never_flagged() {
        // The densest point has a count above the local average: MDEF < 0.
        let det = MdefDetector::new(cfg());
        let model = cluster_model();
        let e = det.evaluate(&model, &[0.45]).unwrap();
        assert!(
            e.count >= e.avg_count * 0.8,
            "core unexpectedly thin: {e:?}"
        );
        assert!(!e.is_outlier);
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let det = MdefDetector::new(cfg());
        let model = cluster_model();
        assert!(det.evaluate(&model, &[0.5, 0.5]).is_err());
    }

    #[test]
    fn local_density_awareness_spares_sparse_but_uniform_regions() {
        // A uniformly sparse region is locally *normal*: every counting
        // neighborhood holds roughly the same small count, so MDEF ≈ 0.
        // (This is exactly where MDEF is more robust than a single global
        // distance threshold — paper Section 3.)
        let xs: Vec<f64> = (0..100).map(|i| 0.2 + 0.006 * i as f64).collect();
        let model = Kde1d::from_sample(&xs, 0.17, 10_000.0).unwrap();
        let det = MdefDetector::new(cfg());
        let e = det.evaluate(&model, &[0.5]).unwrap();
        assert!(!e.is_outlier, "uniform-region point flagged: {e:?}");
    }

    #[test]
    fn memoized_cell_count_is_the_single_query_count() {
        // DESIGN §11.3: a count has the same bits whichever batch it was
        // computed in, so a count memoized from one evaluation's batch
        // equals a one-query batch at that cell centre.
        let sample: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                vec![
                    0.3 + 0.002 * i as f64,
                    0.5 + 0.1 * ((i * 37 % 17) as f64 / 17.0),
                ]
            })
            .collect();
        let model = snod_density::Kde::from_sample(&sample, &[0.1, 0.05], 5_000.0).unwrap();
        let det = MdefDetector::new(cfg());
        let mut memo = CellMemo::default();
        let p = [0.45, 0.55];
        let first = det.evaluate_memoized(&model, &p, &mut memo).unwrap();
        let (ar, cell) = (cfg().counting_radius, 2.0 * cfg().counting_radius);
        let mut served = 0;
        for (i, j) in (0..=60).flat_map(|i| (0..=60).map(move |j| (i, j))) {
            if let Some(c) = memo.get(&[i, j]) {
                let centre = [i as f64 * cell + ar, j as f64 * cell + ar];
                let single = model.neighborhood_counts(&centre, ar).unwrap()[0];
                assert_eq!(c.to_bits(), single.to_bits(), "cell ({i}, {j})");
                served += 1;
            }
        }
        assert_eq!(served, 81, "a 9×9 sampling box");
        let again = det.evaluate_memoized(&model, &p, &mut memo).unwrap();
        assert_eq!(first, det.evaluate(&model, &p).unwrap());
        assert_eq!(again, first);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let det = MdefDetector::new(cfg());
        let model = cluster_model();
        let a = det.evaluate(&model, &[0.52]).unwrap();
        let b = det.evaluate(&model, &[0.52]).unwrap();
        assert_eq!(a, b);
    }
}
