//! The structure-of-arrays kernel-evaluation engine.
//!
//! Every Epanechnikov box-probability query in this crate — scalar
//! [`crate::Kde::box_prob`], the batched sweeps, and the 1-d fast path —
//! funnels through this module, so "batched equals scalar bit-for-bit"
//! holds by construction: both paths run the same code over the same
//! centre range in the same order.
//!
//! Layout and loop shape are chosen for vectorisation:
//!
//! * centres live in per-dimension contiguous columns (`cols[j][i]` is
//!   coordinate `j` of centre `i`), so the inner loop streams over one
//!   cache-friendly `&[f64]` per dimension instead of striding through
//!   row-major points;
//! * bandwidth divisions are hoisted into reciprocal multiplies;
//! * the per-kernel interval mass is evaluated branch-free in *factored*
//!   form ([`epan_mass_clamped`]): with `ta`, `tb` the clamped
//!   standardised edges,
//!   `cdf(tb) − cdf(ta) = (tb − ta) · (0.75 − 0.25·(ta² + ta·tb + tb²))`.
//!   This is cheaper than two CDF evaluations plus a subtraction (one
//!   clamp pair, four multiplies, three adds) and it never subtracts two
//!   nearly-equal CDF values — narrow MDEF cells get the difference
//!   computed directly, and kernels entirely left or right of the box
//!   yield an *exact* zero because `tb − ta` is exactly zero;
//! * accumulation is chunked [`LANES`]-wide with a fixed pairwise
//!   reduction tree `(acc0 + acc2) + (acc1 + acc3)`, giving the
//!   auto-vectoriser independent accumulators while keeping the
//!   summation order — and so every result bit — fixed. Rust never
//!   contracts `a * b + c` into an FMA on its own.
//!
//! All sums are *weighted*: compression (see `Kde::compress_to_budget`)
//! merges near-duplicate centres into one centre carrying the group's
//! total weight, and uncompressed models simply carry weight 1.0
//! everywhere (multiplying by 1.0 is bit-exact, so enabling the weighted
//! engine costs uncompressed queries nothing, numerically or otherwise).

use crate::kernel::Kernel1d;

/// Chunk width of the blocked accumulation (4 × f64 = one 256-bit vector).
pub(crate) const LANES: usize = 4;

/// Branch-free Epanechnikov CDF: clamping the standardised coordinate to
/// `[-1, 1]` makes the cubic exact at both support edges
/// (`t = ±1 ⇒ (0.75 − 0.25)·(±1) + 0.5 ∈ {0, 1}`), so no range branch is
/// needed. The hot loops use the factored difference
/// [`epan_mass_clamped`] instead; this form remains the test reference.
// Not `f64::clamp`: the max-then-min chain maps NaN to -1.0, while
// `clamp` would propagate NaN and change which inputs score zero.
#[allow(clippy::manual_clamp)]
#[cfg_attr(not(test), allow(dead_code))]
#[inline(always)]
pub(crate) fn epan_cdf_clamped(u: f64) -> f64 {
    let t = u.max(-1.0).min(1.0);
    let t2 = t * t;
    (0.75 - 0.25 * t2) * t + 0.5
}

/// Branch-free Epanechnikov interval mass in factored form. With
/// `ta = clamp(ua)`, `tb = clamp(ub)`:
///
/// ```text
/// cdf(tb) − cdf(ta) = 0.75·(tb − ta) − 0.25·(tb³ − ta³)
///                   = (tb − ta) · (0.75 − 0.25·(ta² + ta·tb + tb²))
/// ```
///
/// Two exactness properties fall out of the factoring (and are pinned by
/// tests):
///
/// * a kernel entirely left or right of the box clamps both edges to the
///   same endpoint, so `tb − ta` — and hence the mass — is *exactly*
///   zero (the old two-CDF form relied on `1.0 − 1.0`);
/// * a box covering the whole support gives `ta = −1`, `tb = 1`, where
///   `ta² + ta·tb + tb² = 1` and the mass is exactly
///   `2 · (0.75 − 0.25) = 1`.
///
/// The association `(ta·ta + ta·tb) + tb·tb` is fixed: results are
/// bit-stable only while it is.
// Same NaN rationale as `epan_cdf_clamped` for avoiding `f64::clamp`.
#[allow(clippy::manual_clamp)]
#[inline(always)]
pub(crate) fn epan_mass_clamped(ua: f64, ub: f64) -> f64 {
    let ta = ua.max(-1.0).min(1.0);
    let tb = ub.max(-1.0).min(1.0);
    let s = (ta * ta + ta * tb) + tb * tb;
    (tb - ta) * (0.75 - 0.25 * s)
}

/// Weighted product-Epanechnikov box mass `Σᵢ wᵢ·Πⱼ massⱼ(i)` over the
/// centre range `[s, e)` (un-normalised; the caller divides by the total
/// weight). `lo`/`hi` are the box edges per dimension and `inv_b` the
/// per-dimension bandwidth reciprocals.
///
/// The caller guarantees `hi[j] > lo[j]` for every dimension (degenerate
/// boxes short-circuit to zero mass before reaching the engine, matching
/// [`Kernel1d::mass`] on empty intervals).
pub(crate) fn epan_box_weighted(
    cols: &[Vec<f64>],
    weights: &[f64],
    s: usize,
    e: usize,
    lo: &[f64],
    hi: &[f64],
    inv_b: &[f64],
) -> f64 {
    let n = e - s;
    let chunks = n / LANES;
    let mut acc = [0.0f64; LANES];
    for c in 0..chunks {
        let base = s + c * LANES;
        let mut prod = [0.0f64; LANES];
        prod.copy_from_slice(&weights[base..base + LANES]);
        for (j, col) in cols.iter().enumerate() {
            let (ib, l, h) = (inv_b[j], lo[j], hi[j]);
            let cs = &col[base..base + LANES];
            for lane in 0..LANES {
                prod[lane] *= epan_mass_clamped((l - cs[lane]) * ib, (h - cs[lane]) * ib);
            }
        }
        for lane in 0..LANES {
            acc[lane] += prod[lane];
        }
    }
    let mut tail = 0.0;
    for i in (s + chunks * LANES)..e {
        let mut p = weights[i];
        for (j, col) in cols.iter().enumerate() {
            p *= epan_mass_clamped((lo[j] - col[i]) * inv_b[j], (hi[j] - col[i]) * inv_b[j]);
        }
        tail += p;
    }
    // Fixed pairwise reduction tree: the summation order is part of the
    // result.
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// One-dimensional specialisation of [`epan_box_weighted`] for
/// [`crate::Kde1d`]: same chunking, same reduction tree, single column.
///
/// The standardised query width `w = (b − a)·inv_b` is hoisted out of
/// the loop: each lane computes only the lower edge `ua = (a − c)·inv_b`
/// and derives `ub = ua + w`. (The box evaluator cannot hoist the width
/// without a per-dimension scratch buffer, so its 1-d results differ
/// from this path by final-rounding ULPs — the two are never mixed for
/// the same model.)
pub(crate) fn epan_interval_weighted(
    centers: &[f64],
    weights: &[f64],
    s: usize,
    e: usize,
    a: f64,
    b: f64,
    inv_b: f64,
) -> f64 {
    let w = (b - a) * inv_b;
    let n = e - s;
    let chunks = n / LANES;
    let mut acc = [0.0f64; LANES];
    for c in 0..chunks {
        let base = s + c * LANES;
        let cs = &centers[base..base + LANES];
        let ws = &weights[base..base + LANES];
        for lane in 0..LANES {
            let ua = (a - cs[lane]) * inv_b;
            acc[lane] += ws[lane] * epan_mass_clamped(ua, ua + w);
        }
    }
    let mut tail = 0.0;
    for i in (s + chunks * LANES)..e {
        let ua = (a - centers[i]) * inv_b;
        tail += weights[i] * epan_mass_clamped(ua, ua + w);
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// Unit-weight specialisation of [`epan_interval_weighted`]: identical
/// arithmetic with the `wᵢ·` multiply dropped. Because `1.0 · m == m`
/// exactly in IEEE-754, dispatching here for all-ones weight vectors is
/// invisible in the results — it only halves the memory traffic of the
/// 1-d hot loop (centres stream through L1 without the weight column).
/// Callers are responsible for checking the weights really are all 1.0.
pub(crate) fn epan_interval_unweighted(
    centers: &[f64],
    s: usize,
    e: usize,
    a: f64,
    b: f64,
    inv_b: f64,
) -> f64 {
    let w = (b - a) * inv_b;
    let n = e - s;
    let chunks = n / LANES;
    let mut acc = [0.0f64; LANES];
    for c in 0..chunks {
        let base = s + c * LANES;
        let cs = &centers[base..base + LANES];
        for lane in 0..LANES {
            let ua = (a - cs[lane]) * inv_b;
            acc[lane] += epan_mass_clamped(ua, ua + w);
        }
    }
    let mut tail = 0.0;
    for &c in &centers[s + chunks * LANES..e] {
        let ua = (a - c) * inv_b;
        tail += epan_mass_clamped(ua, ua + w);
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// Decides whether a batched query set should use the shared-frontier
/// sweep (sort queries, advance two monotone cursors) or per-query
/// binary search. Sweep costs `q·log q` for the sort plus an `O(n)`
/// frontier walk; per-query search costs `2·q·log n` — but not in equal
/// units: a frontier step is a predictable compare-increment while a
/// binary-search iteration is a data-dependent load whose branch
/// mispredicts half the time, worth roughly 8 frontier steps (DESIGN.md
/// §11.4). The weight below bakes that ratio in.
///
/// Both paths feed the same evaluator with the same centre ranges, so
/// the choice is purely a latency decision — results are bit-identical
/// either way.
///
/// This is what fixes the old always-sweep regression: small batches
/// against large models (e.g. a handful of queries × 10⁵ kernels) paid
/// the `O(n)` frontier walk for nothing and ran slower than scalar
/// queries in a loop.
pub(crate) fn sweep_beats_per_query(queries: usize, kernels: usize) -> bool {
    let q = queries as f64;
    let sort_cost = q * (queries.max(2) as f64).log2() + kernels as f64;
    let search_cost = 8.0 * q * (kernels.max(2) as f64).log2();
    sort_cost <= search_cost
}

/// Weighted box mass for arbitrary kernels (Gaussian, uniform): the
/// straightforward per-point loop with the early exit on zero-mass
/// dimensions the pre-SoA code had. Kept generic rather than fast: the
/// non-Epanechnikov kernels exist for ablation, not for the hot path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn generic_box_weighted<K: Kernel1d>(
    kernel: &K,
    cols: &[Vec<f64>],
    weights: &[f64],
    s: usize,
    e: usize,
    lo: &[f64],
    hi: &[f64],
    bandwidths: &[f64],
) -> f64 {
    let mut sum = 0.0;
    'points: for i in s..e {
        let mut prod = weights[i];
        for (j, col) in cols.iter().enumerate() {
            let m = kernel.mass(
                (lo[j] - col[i]) / bandwidths[j],
                (hi[j] - col[i]) / bandwidths[j],
            );
            if m == 0.0 {
                continue 'points;
            }
            prod *= m;
        }
        sum += prod;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::EpanechnikovKernel;

    #[test]
    fn clamped_cdf_matches_branchy_cdf_at_and_beyond_edges() {
        let k = EpanechnikovKernel;
        assert_eq!(epan_cdf_clamped(-1.0), 0.0);
        assert_eq!(epan_cdf_clamped(1.0), 1.0);
        assert_eq!(epan_cdf_clamped(-5.0), 0.0);
        assert_eq!(epan_cdf_clamped(7.5), 1.0);
        assert_eq!(epan_cdf_clamped(0.0), 0.5);
        for i in -40..=40 {
            let u = i as f64 / 20.0;
            let diff = (epan_cdf_clamped(u) - k.cdf(u)).abs();
            // Same cubic, different association: agreement to a few ULP.
            assert!(diff <= 4.0 * f64::EPSILON, "u={u}: diff {diff:e}");
        }
    }

    #[test]
    fn factored_mass_matches_cdf_difference() {
        // Exact at and beyond the support edges…
        assert_eq!(epan_mass_clamped(-3.0, -1.0), 0.0);
        assert_eq!(epan_mass_clamped(-7.0, -2.5), 0.0);
        assert_eq!(epan_mass_clamped(1.0, 5.0), 0.0);
        assert_eq!(epan_mass_clamped(2.0, 2.0), 0.0);
        assert_eq!(epan_mass_clamped(-1.0, 1.0), 1.0);
        assert_eq!(epan_mass_clamped(-9.0, 4.0), 1.0);
        // …and within ULP noise of the two-CDF form everywhere else.
        for i in -30..=30 {
            for j in i..=30 {
                let (ua, ub) = (i as f64 / 20.0, j as f64 / 20.0);
                let factored = epan_mass_clamped(ua, ub);
                let two_cdf = epan_cdf_clamped(ub) - epan_cdf_clamped(ua);
                assert!(
                    (factored - two_cdf).abs() <= 4.0 * f64::EPSILON,
                    "[{ua}, {ub}]: {factored} vs {two_cdf}"
                );
            }
        }
    }

    #[test]
    fn chunked_sum_matches_naive_weighted_sum() {
        // 11 centres exercises 2 full chunks + a 3-long tail.
        let centers: Vec<f64> = (0..11).map(|i| 0.05 + 0.09 * i as f64).collect();
        let weights: Vec<f64> = (0..11).map(|i| 1.0 + (i % 3) as f64).collect();
        let inv_b = 1.0 / 0.21;
        let (a, b) = (0.3, 0.62);
        let naive: f64 = centers
            .iter()
            .zip(&weights)
            .map(|(&c, &w)| {
                w * (epan_cdf_clamped((b - c) * inv_b) - epan_cdf_clamped((a - c) * inv_b))
            })
            .sum();
        let chunked = epan_interval_weighted(&centers, &weights, 0, 11, a, b, inv_b);
        assert!((chunked - naive).abs() < 1e-14, "{chunked} vs {naive}");
        // The box path computes `ub` directly instead of via the hoisted
        // width, so 1-d box and interval agree to rounding, not bits.
        let cols = vec![centers.clone()];
        let boxed = epan_box_weighted(&cols, &weights, 0, 11, &[a], &[b], &[inv_b]);
        assert!((boxed - chunked).abs() < 1e-14, "{boxed} vs {chunked}");
    }

    #[test]
    fn unweighted_interval_is_bit_identical_to_unit_weighted() {
        let centers: Vec<f64> = (0..23).map(|i| (i as f64 * 0.113) % 1.0).collect();
        let mut sorted = centers;
        sorted.sort_by(f64::total_cmp);
        let ones = vec![1.0; 23];
        for (s, e) in [(0, 23), (2, 21), (9, 10)] {
            let unweighted = epan_interval_unweighted(&sorted, s, e, 0.2, 0.7, 6.0);
            let weighted = epan_interval_weighted(&sorted, &ones, s, e, 0.2, 0.7, 6.0);
            assert_eq!(unweighted.to_bits(), weighted.to_bits(), "range [{s}, {e})");
        }
    }

    #[test]
    fn subrange_evaluation_respects_offsets() {
        let centers: Vec<f64> = (0..40).map(|i| i as f64 / 40.0).collect();
        let weights = vec![1.0; 40];
        let full = epan_interval_weighted(&centers, &weights, 7, 29, 0.2, 0.8, 4.0);
        let shifted =
            epan_interval_weighted(&centers[7..29], &weights[7..29], 0, 22, 0.2, 0.8, 4.0);
        assert_eq!(full.to_bits(), shifted.to_bits());
    }

    #[test]
    fn generic_matches_fast_path_within_ulp_noise() {
        let k = EpanechnikovKernel;
        let cols = vec![
            (0..17)
                .map(|i| (i as f64 * 0.055) % 1.0)
                .collect::<Vec<_>>(),
            (0..17)
                .map(|i| (i as f64 * 0.083) % 1.0)
                .collect::<Vec<_>>(),
        ];
        let weights = vec![1.0; 17];
        let b = [0.2, 0.3];
        let inv = [1.0 / 0.2, 1.0 / 0.3];
        let (lo, hi) = ([0.3, 0.25], [0.7, 0.8]);
        let fast = epan_box_weighted(&cols, &weights, 0, 17, &lo, &hi, &inv);
        let slow = generic_box_weighted(&k, &cols, &weights, 0, 17, &lo, &hi, &b);
        assert!((fast - slow).abs() < 1e-13, "{fast} vs {slow}");
    }
}
