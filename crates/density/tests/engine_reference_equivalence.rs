//! Property tests: the SoA evaluation engine agrees with a textbook
//! row-major reference implementation across every dimensionality the
//! detectors use (d ∈ {1, 2, 3, 4}).
//!
//! The reference below is deliberately the *old* shape of the hot path —
//! row-major point storage, the branchy piecewise CDF, a division by the
//! bandwidth per coordinate — so this file pins the equivalence contract
//! of the rewrite (DESIGN.md §11):
//!
//! * The engine may reassociate the CDF polynomial, clamp instead of
//!   branch, and multiply by a precomputed reciprocal bandwidth. Each
//!   per-dimension factor therefore differs from the reference by a few
//!   ULP, never more.
//! * Accumulated over the product of `d ≤ 4` factors and the sum over
//!   `|R|` non-negative terms, the documented bound is `1e-9` relative
//!   (observed ≤ ~1e-12); there is no cancellation because every term is
//!   non-negative.

use proptest::prelude::*;

use snod_density::{DensityModel, EpanechnikovKernel, Kde, Kde1d, Kernel1d};

fn unit_rows(d: usize, n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, d..=d), 8..n)
}

/// Textbook Equation 5: row-major loop, branchy CDF, per-coordinate
/// division by the bandwidth.
fn reference_count(
    centers_row_major: &[f64],
    dims: usize,
    bandwidths: &[f64],
    window_len: f64,
    q: &[f64],
    r: f64,
) -> f64 {
    let k = EpanechnikovKernel;
    let n = centers_row_major.len() / dims;
    let mut sum = 0.0;
    for i in 0..n {
        let row = &centers_row_major[i * dims..(i + 1) * dims];
        let mut prod = 1.0;
        for j in 0..dims {
            let a = (q[j] - r - row[j]) / bandwidths[j];
            let b = (q[j] + r - row[j]) / bandwidths[j];
            prod *= k.cdf(b) - k.cdf(a);
        }
        sum += prod;
    }
    sum / n as f64 * window_len
}

fn assert_close(got: f64, want: f64, q: &[f64], r: f64) -> Result<(), TestCaseError> {
    prop_assert!(
        (got - want).abs() <= 1e-9 * want.abs().max(1.0),
        "engine {} vs reference {} at {:?} (r = {})",
        got,
        want,
        q,
        r
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// d = 1: the sorted-centre fast path.
    #[test]
    fn kde1d_matches_reference(
        sample in prop::collection::vec(0.0f64..1.0, 8..150),
        queries in prop::collection::vec(0.0f64..1.0, 1..16),
        r in 0.001f64..0.4,
        sigma in 0.02f64..0.3,
    ) {
        let kde = Kde1d::from_sample(&sample, sigma, 1_000.0).unwrap();
        let b = [kde.bandwidth()];
        for &q in &queries {
            let got = kde.neighborhood_count(&[q], r).unwrap();
            let want = reference_count(kde.centers(), 1, &b, 1_000.0, &[q], r);
            assert_close(got, want, &[q], r)?;
        }
    }

    /// d ∈ {2, 3, 4}: the product-kernel engine.
    #[test]
    fn kde_matches_reference(
        d in 2usize..=4,
        rows in unit_rows(4, 100),
        queries in unit_rows(4, 12),
        r in 0.001f64..0.4,
    ) {
        let rows: Vec<Vec<f64>> = rows.iter().map(|p| p[..d].to_vec()).collect();
        let sigmas = vec![0.12; d];
        let kde = Kde::from_sample(&rows, &sigmas, 1_000.0).unwrap();
        let centers = kde.centers();
        let bandwidths = kde.bandwidths().to_vec();
        for q in &queries {
            let q = &q[..d];
            let got = kde.neighborhood_count(q, r).unwrap();
            let want = reference_count(&centers, d, &bandwidths, 1_000.0, q, r);
            assert_close(got, want, q, r)?;
        }
    }

    /// The batched sweep obeys the same contract (it shares the engine
    /// bit-for-bit with the scalar path, so this can only fail if the
    /// scalar path itself drifts from the reference).
    #[test]
    fn batched_sweep_matches_reference(
        rows in unit_rows(2, 80),
        queries in unit_rows(2, 30),
        r in 0.001f64..0.3,
    ) {
        let kde = Kde::from_sample(&rows, &[0.1, 0.15], 1_000.0).unwrap();
        let centers = kde.centers();
        let bandwidths = kde.bandwidths().to_vec();
        let flat: Vec<f64> = queries.iter().flat_map(|q| q.iter().copied()).collect();
        let batched = kde.neighborhood_counts(&flat, r).unwrap();
        for (q, &got) in queries.iter().zip(&batched) {
            let want = reference_count(&centers, 2, &bandwidths, 1_000.0, q, r);
            assert_close(got, want, q, r)?;
        }
    }
}

/// Support-edge queries hit the CDF clamp exactly; the engine must still
/// reproduce the reference's exact-zero contributions.
#[test]
fn support_edges_are_exact() {
    let kde = Kde1d::new(vec![0.5], 0.1, 100.0, EpanechnikovKernel).unwrap();
    // Query box exactly abutting the kernel support: [0.7, 0.9] with the
    // kernel living on [0.4, 0.6].
    assert_eq!(kde.neighborhood_count(&[0.8], 0.1).unwrap(), 0.0);
    // Box exactly covering the support gets the full mass.
    let full = kde.neighborhood_count(&[0.5], 0.1).unwrap();
    assert!((full - 100.0).abs() < 1e-9, "{full}");
}
