//! Property-based invariants across the workspace (proptest).

use proptest::prelude::*;

use sensor_outliers::density::{
    js_divergence, js_divergence_models, DensityModel, EquiDepthHistogram, Kde1d,
};
use sensor_outliers::outlier::brute_force::{distance_outliers, linf_distance};
use sensor_outliers::outlier::DistanceOutlierConfig;
use sensor_outliers::sketch::{ChainSampler, SlidingWindow, WindowedVariance};

fn unit_values(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, 2..n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chain sample only ever contains values currently in the window.
    #[test]
    fn chain_sample_respects_window(values in unit_values(400), window in 4usize..64) {
        let mut s = ChainSampler::new(window, 8, 42).unwrap();
        let mut recent: std::collections::VecDeque<u64> = Default::default();
        for &v in &values {
            s.push(v.to_bits());
            recent.push_back(v.to_bits());
            if recent.len() > window {
                recent.pop_front();
            }
            for sampled in s.sample() {
                prop_assert!(recent.contains(&sampled));
            }
        }
    }

    /// The windowed variance tracks the exact window variance within a
    /// generous multiple of ε on arbitrary data.
    #[test]
    fn windowed_variance_tracks_truth(values in unit_values(600)) {
        let window = 128usize;
        let mut wv = WindowedVariance::new(window, 0.2).unwrap();
        let mut exact = SlidingWindow::new(window).unwrap();
        for &v in &values {
            wv.push(v);
            exact.push(v);
        }
        let xs: Vec<f64> = exact.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let truth = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let est = wv.variance();
        prop_assert!(
            (est - truth).abs() <= 0.5 * truth + 1e-6,
            "est {est} truth {truth}"
        );
    }

    /// KDE box probabilities are monotone in the box and live in [0, 1];
    /// the pdf is non-negative.
    #[test]
    fn kde_probability_axioms(sample in unit_values(200), a in 0.0f64..1.0, w in 0.0f64..0.5) {
        let kde = Kde1d::from_sample(&sample, 0.1, 1_000.0).unwrap();
        let small = kde.box_prob(&[a], &[a + w]).unwrap();
        let large = kde.box_prob(&[a - 0.1], &[a + w + 0.1]).unwrap();
        prop_assert!((0.0..=1.0).contains(&small));
        prop_assert!((0.0..=1.0).contains(&large));
        prop_assert!(large >= small - 1e-12);
        prop_assert!(kde.pdf(&[a]).unwrap() >= 0.0);
    }

    /// JS-divergence: symmetric, bounded, zero on identical inputs.
    #[test]
    fn js_divergence_axioms(p in unit_values(64), q in unit_values(64)) {
        let n = p.len().min(q.len());
        let (p, q) = (&p[..n], &q[..n]);
        let d = js_divergence(p, q);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d), "JS {d}");
        prop_assert!((d - js_divergence(q, p)).abs() < 1e-12);
        prop_assert!(js_divergence(p, p) < 1e-12);
    }

    /// KDE and equi-depth histogram built on the same data are close in
    /// JS-divergence (both approximate the same distribution).
    #[test]
    fn kde_and_histogram_approximate_same_distribution(sample in unit_values(300)) {
        prop_assume!(sample.len() >= 50);
        let kde = Kde1d::from_sample(&sample, 0.15, 1_000.0).unwrap();
        let hist = EquiDepthHistogram::from_window(&sample, 25).unwrap();
        let d = js_divergence_models(&kde, &hist, 32).unwrap();
        prop_assert!(d < 0.35, "same-data models diverge by {d}");
    }

    /// Brute-force distance outliers: a point far (in L∞) from every
    /// other point is always flagged when t ≥ 1, and flags are invariant
    /// under permutation of the dataset.
    #[test]
    fn brute_force_flags_are_permutation_invariant(mut points in unit_values(60)) {
        prop_assume!(points.len() >= 4);
        let pts: Vec<Vec<f64>> = points.iter().map(|&x| vec![x]).collect();
        let rule = DistanceOutlierConfig::new(2.0, 0.05);
        let flags = distance_outliers(&pts, &rule);
        points.reverse();
        let rev: Vec<Vec<f64>> = points.iter().map(|&x| vec![x]).collect();
        let rev_flags = distance_outliers(&rev, &rule);
        for (i, p) in pts.iter().enumerate() {
            let j = rev.iter().position(|q| q == p).unwrap();
            prop_assert_eq!(flags[i], rev_flags[j]);
        }
    }

    /// The L∞ metric is a metric.
    #[test]
    fn linf_is_a_metric(a in unit_values(4), b in unit_values(4), c in unit_values(4)) {
        let n = a.len().min(b.len()).min(c.len());
        let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
        prop_assert_eq!(linf_distance(a, a), 0.0);
        prop_assert!((linf_distance(a, b) - linf_distance(b, a)).abs() < 1e-15);
        prop_assert!(linf_distance(a, c) <= linf_distance(a, b) + linf_distance(b, c) + 1e-15);
    }

    /// Wavelet synopses are valid distributions regardless of input and
    /// budget, and tightening the budget never breaks the axioms.
    #[test]
    fn wavelet_probability_axioms(sample in unit_values(300), budget in 1usize..64) {
        use sensor_outliers::density::WaveletHistogram;
        let w = WaveletHistogram::from_window(&sample, 7, budget).unwrap();
        let total = w.box_prob(&[0.0], &[1.0]).unwrap();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        let half = w.box_prob(&[0.0], &[0.5]).unwrap();
        let quarter = w.box_prob(&[0.0], &[0.25]).unwrap();
        prop_assert!(quarter <= half + 1e-12);
        prop_assert!(w.pdf(&[0.3]).unwrap() >= 0.0);
    }

}
