//! Snapshot/restore round-trip properties (proptest): for every sketch
//! and density model, `to_bytes` → `from_bytes` → an arbitrary suffix
//! stream must leave the restored instance answering **every** query —
//! variance, Q_n scale, density, range probability, neighborhood counts —
//! bit-identically to a twin that was never snapshotted. A restored
//! sketch is not "approximately equal": its internal RNG position,
//! bucket boundaries and eviction clocks must all survive, or the
//! divergence shows up a few pushes after the restore.

use proptest::prelude::*;

use sensor_outliers::density::{
    DensityModel, EquiDepthHistogram, GridHistogram, Kde, Kde1d, WaveletHistogram,
};
use sensor_outliers::persist::Persist;
use sensor_outliers::robust::{Mmdew, MmdewConfig, QnWindow};
use sensor_outliers::sketch::{ChainSampler, ExpHistogram, SlidingWindow, WindowedVariance};

fn unit_values(max: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, 8..max)
}

/// Snapshot, restore, and return the restored twin.
fn round_trip<T: Persist>(sketch: &T) -> T {
    let bytes = sketch.to_bytes();
    T::from_bytes(&bytes).expect("round trip decodes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chain sampler: the sample set, its window indices, the stream
    /// clock and the *future* sampling decisions all survive a restore.
    #[test]
    fn chain_sampler_round_trips(
        prefix in unit_values(200),
        suffix in unit_values(200),
        window in 8usize..64,
        seed in 0u64..1_000,
    ) {
        let mut live = ChainSampler::new(window, 8, seed).unwrap();
        for &v in &prefix {
            live.push(v.to_bits());
        }
        let mut restored = round_trip(&live);
        prop_assert_eq!(live.sample_with_indices(), restored.sample_with_indices());
        for &v in &suffix {
            // The RNG position must survive: identical accept decisions.
            prop_assert_eq!(live.push(v.to_bits()), restored.push(v.to_bits()));
        }
        prop_assert_eq!(live.sample_with_indices(), restored.sample_with_indices());
        prop_assert_eq!(live.stream_len(), restored.stream_len());
        prop_assert_eq!(live.version(), restored.version());
    }

    /// Windowed variance: mean/variance/σ stay bit-identical through an
    /// arbitrary suffix (bucket merges included).
    #[test]
    fn windowed_variance_round_trips(
        prefix in unit_values(300),
        suffix in unit_values(300),
        window in 16usize..128,
    ) {
        let mut live = WindowedVariance::new(window, 0.1).unwrap();
        for &v in &prefix {
            live.push(v);
        }
        let mut restored = round_trip(&live);
        for &v in &suffix {
            live.push(v);
            restored.push(v);
        }
        prop_assert_eq!(live.variance().to_bits(), restored.variance().to_bits());
        prop_assert_eq!(live.mean().to_bits(), restored.mean().to_bits());
        prop_assert_eq!(live.std_dev().to_bits(), restored.std_dev().to_bits());
        prop_assert_eq!(live.live_count(), restored.live_count());
        prop_assert_eq!(live.bucket_count(), restored.bucket_count());
    }

    /// Exponential histogram: the windowed count estimate and the bucket
    /// cascade survive.
    #[test]
    fn exp_histogram_round_trips(
        prefix in prop::collection::vec(0.0f64..1.0, 8..400),
        suffix in prop::collection::vec(0.0f64..1.0, 8..400),
        window in 16usize..256,
    ) {
        let mut live = ExpHistogram::new(window, 0.1).unwrap();
        for &v in &prefix {
            live.push(v > 0.7);
        }
        let mut restored = round_trip(&live);
        for &v in &suffix {
            live.push(v > 0.7);
            restored.push(v > 0.7);
        }
        prop_assert_eq!(live.estimate(), restored.estimate());
        prop_assert_eq!(live.bucket_count(), restored.bucket_count());
        prop_assert_eq!(live.stream_len(), restored.stream_len());
    }

    /// Sliding window: contents, order and eviction clock survive.
    #[test]
    fn sliding_window_round_trips(
        prefix in unit_values(200),
        suffix in unit_values(200),
        capacity in 4usize..64,
    ) {
        let mut live = SlidingWindow::new(capacity).unwrap();
        for &v in &prefix {
            live.push(v.to_bits());
        }
        let mut restored = round_trip(&live);
        for &v in &suffix {
            prop_assert_eq!(live.push(v.to_bits()), restored.push(v.to_bits()));
        }
        prop_assert_eq!(live.to_vec(), restored.to_vec());
        prop_assert_eq!(live.stream_len(), restored.stream_len());
    }

    /// Multi-dimensional KDE: pdf, box mass, range probability and the
    /// batch neighborhood counts are bit-identical after a restore and
    /// further incremental maintenance on both twins.
    #[test]
    fn kde_round_trips(
        xs in unit_values(80),
        updates in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..20),
        q in (0.0f64..1.0, 0.0f64..1.0),
        r in 0.01f64..0.3,
    ) {
        let sample: Vec<Vec<f64>> = xs.chunks(2).filter(|c| c.len() == 2).map(<[f64]>::to_vec).collect();
        prop_assume!(!sample.is_empty());
        let mut live = Kde::from_sample(&sample, &[0.1, 0.1], 500.0).unwrap();
        let mut restored = round_trip(&live);
        for (a, b) in &updates {
            live.insert_point(&[*a, *b]).unwrap();
            restored.insert_point(&[*a, *b]).unwrap();
            live.remove_point(&sample[0]).unwrap();
            restored.remove_point(&sample[0]).unwrap();
        }
        let q = [q.0, q.1];
        prop_assert_eq!(live.pdf(&q).unwrap().to_bits(), restored.pdf(&q).unwrap().to_bits());
        prop_assert_eq!(
            live.range_prob(&q, r).unwrap().to_bits(),
            restored.range_prob(&q, r).unwrap().to_bits()
        );
        let queries: Vec<f64> = updates.iter().flat_map(|&(a, b)| [a, b]).collect();
        let a = live.neighborhood_counts(&queries, r).unwrap();
        let b = restored.neighborhood_counts(&queries, r).unwrap();
        prop_assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// 1-d KDE: same contract as the multi-dimensional estimator.
    #[test]
    fn kde1d_round_trips(
        xs in unit_values(100),
        updates in unit_values(40),
        q in 0.0f64..1.0,
        r in 0.01f64..0.3,
    ) {
        let mut live = Kde1d::from_sample(&xs, 0.05, 300.0).unwrap();
        let mut restored = round_trip(&live);
        for &u in &updates {
            live.insert_center(u).unwrap();
            restored.insert_center(u).unwrap();
            prop_assert_eq!(live.remove_center(xs[0]), restored.remove_center(xs[0]));
        }
        prop_assert_eq!(live.pdf(&[q]).unwrap().to_bits(), restored.pdf(&[q]).unwrap().to_bits());
        prop_assert_eq!(
            live.range_prob(&[q], r).unwrap().to_bits(),
            restored.range_prob(&[q], r).unwrap().to_bits()
        );
        prop_assert_eq!(
            live.neighborhood_count(&[q], r).unwrap().to_bits(),
            restored.neighborhood_count(&[q], r).unwrap().to_bits()
        );
    }

    /// Streaming Q_n window: the median, the Q_n scale and every
    /// outlier verdict stay bit-identical through an arbitrary suffix
    /// (evictions included).
    #[test]
    fn qn_window_round_trips(
        prefix in unit_values(200),
        suffix in unit_values(200),
        capacity in 4usize..64,
        k in 1.0f64..6.0,
    ) {
        let mut live = QnWindow::new(capacity).unwrap();
        for &v in &prefix {
            live.push(v).unwrap();
        }
        let mut restored = round_trip(&live);
        prop_assert_eq!(live.values().collect::<Vec<_>>(), restored.values().collect::<Vec<_>>());
        for &v in &suffix {
            live.push(v).unwrap();
            restored.push(v).unwrap();
            prop_assert_eq!(live.is_outlier(v * 3.0, k), restored.is_outlier(v * 3.0, k));
        }
        prop_assert_eq!(live.median().map(f64::to_bits), restored.median().map(f64::to_bits));
        prop_assert_eq!(live.qn().map(f64::to_bits), restored.qn().map(f64::to_bits));
        prop_assert_eq!(live.len(), restored.len());
    }

    /// MMDEW change detector: the bucket cascade, the RNG-derived
    /// kernel state and future alarm decisions survive a restore.
    #[test]
    fn mmdew_round_trips(
        prefix in unit_values(200),
        suffix in unit_values(200),
        seed in 0u64..1_000,
    ) {
        let cfg = MmdewConfig {
            dimensions: 1,
            gamma: 8.0,
            bucket_cap: 16,
            threshold_scale: 0.6,
            min_per_side: 8,
            test_every: 4,
            seed,
        };
        let mut live = Mmdew::new(cfg).unwrap();
        for &v in &prefix {
            live.insert(&[v]).unwrap();
        }
        let mut restored = round_trip(&live);
        prop_assert_eq!(live.buckets(), restored.buckets());
        prop_assert_eq!(live.evaluate(), restored.evaluate());
        for &v in &suffix {
            // Future split decisions (and hence alarms) must agree.
            prop_assert_eq!(live.insert(&[v]).unwrap(), restored.insert(&[v]).unwrap());
        }
        prop_assert_eq!(live.inserts(), restored.inserts());
        prop_assert_eq!(live.alarms(), restored.alarms());
        prop_assert_eq!(live.retained(), restored.retained());
        prop_assert_eq!(live.evaluate(), restored.evaluate());
    }

    /// Histogram baselines and the wavelet synopsis: every query
    /// bit-identical after restore.
    #[test]
    fn histograms_round_trip(
        xs in unit_values(200),
        q in 0.0f64..1.0,
        r in 0.01f64..0.3,
    ) {
        let eq = EquiDepthHistogram::from_window(&xs, 8).unwrap();
        let eq2 = round_trip(&eq);
        prop_assert_eq!(eq.pdf(&[q]).unwrap().to_bits(), eq2.pdf(&[q]).unwrap().to_bits());
        prop_assert_eq!(
            eq.range_prob(&[q], r).unwrap().to_bits(),
            eq2.range_prob(&[q], r).unwrap().to_bits()
        );

        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let grid = GridHistogram::from_window(&points, 1, 16).unwrap();
        let grid2 = round_trip(&grid);
        prop_assert_eq!(grid.pdf(&[q]).unwrap().to_bits(), grid2.pdf(&[q]).unwrap().to_bits());
        prop_assert_eq!(
            grid.neighborhood_count(&[q], r).unwrap().to_bits(),
            grid2.neighborhood_count(&[q], r).unwrap().to_bits()
        );

        let wav = WaveletHistogram::from_window(&xs, 5, 12).unwrap();
        let wav2 = round_trip(&wav);
        prop_assert_eq!(wav.pdf(&[q]).unwrap().to_bits(), wav2.pdf(&[q]).unwrap().to_bits());
        prop_assert_eq!(
            wav.range_prob(&[q], r).unwrap().to_bits(),
            wav2.range_prob(&[q], r).unwrap().to_bits()
        );
        prop_assert_eq!(wav.coefficients_kept(), wav2.coefficients_kept());
    }
}
