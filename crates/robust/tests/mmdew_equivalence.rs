//! MMDEW equivalence (proptest): the incrementally maintained
//! exponential-window MMD statistic must agree with the naive O(n²)
//! MMD recomputed from scratch on the same retained samples.
//!
//! The incremental path accumulates within-bucket kernel sums across
//! merges (`self_sum_ab = self_sum_a + self_sum_b + 2·cross(a, b)`)
//! and only recomputes on a capacity subsample; the naive reference
//! evaluates every kernel pair with fresh double loops. Both are sums
//! of the same `T²` bounded terms in different association orders, so
//! the documented tolerance is **1e-9 relative** (f64 resummation
//! error is ≤ T·ε per sum, with T ≤ a few hundred here — comfortably
//! inside 1e-9 of slack).

use proptest::prelude::*;

use snod_robust::{Mmdew, MmdewConfig, RetainedBucket, SplitStat};

/// Documented agreement bound between the maintained and recomputed
/// statistics.
const RELATIVE_TOLERANCE: f64 = 1e-9;

fn rbf(x: &[f64], y: &[f64], gamma: f64) -> f64 {
    let d2: f64 = x
        .iter()
        .zip(y)
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum();
    (-gamma * d2).exp()
}

/// Naive biased-MMD evaluation of every admissible bucket split,
/// entirely from the retained samples (no maintained sums), mirroring
/// `Mmdew::evaluate`'s split-selection rule.
fn naive_best_split(
    buckets: &[RetainedBucket],
    gamma: f64,
    threshold_scale: f64,
    min_per_side: usize,
) -> Option<SplitStat> {
    let b = buckets.len();
    let mut best: Option<SplitStat> = None;
    for split in 0..b.saturating_sub(1) {
        let older: Vec<&Vec<f64>> = buckets[..=split]
            .iter()
            .flat_map(|bk| &bk.samples)
            .collect();
        let newer: Vec<&Vec<f64>> = buckets[(split + 1)..]
            .iter()
            .flat_map(|bk| &bk.samples)
            .collect();
        if older.len() < min_per_side || newer.len() < min_per_side {
            continue;
        }
        let n = older.len() as f64;
        let m = newer.len() as f64;
        let mut xx = 0.0;
        for a in &older {
            for b in &older {
                xx += rbf(a, b, gamma);
            }
        }
        let mut yy = 0.0;
        for a in &newer {
            for b in &newer {
                yy += rbf(a, b, gamma);
            }
        }
        let mut xy = 0.0;
        for a in &older {
            for b in &newer {
                xy += rbf(a, b, gamma);
            }
        }
        let mmd2 = xx / (n * n) + yy / (m * m) - 2.0 * xy / (n * m);
        let cand = SplitStat {
            mmd: mmd2.max(0.0).sqrt(),
            threshold: threshold_scale * (1.0 / n + 1.0 / m).sqrt(),
            older: older.len(),
            newer: newer.len(),
        };
        let better = match &best {
            None => true,
            Some(cur) => cand.mmd - cand.threshold > cur.mmd - cur.threshold,
        };
        if better {
            best = Some(cand);
        }
    }
    best
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= RELATIVE_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

fn stream() -> impl Strategy<Value = Vec<f64>> {
    // Mixed regimes: a drifting base plus occasional level shifts, so
    // merges, subsampling and pruning all get exercised.
    prop::collection::vec(0.0f64..1.0, 24..220)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: after every insert, the maintained
    /// statistic of the best split agrees with the naive recompute on
    /// the retained samples within the documented tolerance.
    #[test]
    fn merged_statistic_matches_naive_recompute(
        values in stream(),
        gamma in 0.5f64..24.0,
        cap in 4usize..24,
        shift in 0u32..2,
    ) {
        let shift = shift == 1;
        let cfg = MmdewConfig {
            dimensions: 1,
            gamma,
            bucket_cap: cap,
            // Generous threshold: keep pruning rare so large bucket
            // cascades accumulate (pruning resets are covered below).
            threshold_scale: 2.5,
            min_per_side: 2,
            test_every: 1,
            seed: 11,
        };
        let mut det = Mmdew::new(cfg).unwrap();
        for (i, &v) in values.iter().enumerate() {
            let x = if shift && i > values.len() / 2 { v + 3.0 } else { v };
            det.insert(&[x]).unwrap();
            let incremental = det.evaluate();
            let naive = naive_best_split(
                det.buckets(),
                cfg.gamma,
                cfg.threshold_scale,
                cfg.min_per_side,
            );
            match (incremental, naive) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    if a.older == b.older {
                        prop_assert_eq!(a.newer, b.newer);
                        prop_assert!(
                            close(a.mmd, b.mmd),
                            "mmd diverged at insert {i}: maintained {} vs naive {}", a.mmd, b.mmd
                        );
                        prop_assert!(close(a.threshold, b.threshold));
                    } else {
                        // Resummation order may flip the argmax between
                        // two splits whose margins tie to within the
                        // tolerance — but only then.
                        prop_assert!(
                            close(a.mmd - a.threshold, b.mmd - b.threshold),
                            "split choice diverged at insert {i} with distinct margins: \
                             {a:?} vs {b:?}"
                        );
                    }
                }
                (a, b) => {
                    prop_assert!(false, "presence diverged at insert {i}: {a:?} vs {b:?}");
                }
            }
        }
    }

    /// Structural invariants under arbitrary streams: bucket count stays
    /// logarithmic, levels strictly decrease toward the fresh end, true
    /// counts are conserved, and no bucket exceeds its cap.
    #[test]
    fn exponential_bucket_invariants(values in stream(), cap in 4usize..16) {
        let cfg = MmdewConfig {
            dimensions: 1,
            gamma: 4.0,
            bucket_cap: cap,
            threshold_scale: 1.0,
            min_per_side: 4,
            test_every: 4,
            seed: 3,
        };
        let mut det = Mmdew::new(cfg).unwrap();
        let mut dropped_total = 0u64;
        for v in &values {
            if let Some(ev) = det.insert(&[*v]).unwrap() {
                dropped_total += ev.dropped_count;
                prop_assert!(ev.split.mmd > ev.split.threshold);
            }
            let levels: Vec<u32> = det.buckets().iter().map(|b| b.level).collect();
            prop_assert!(levels.windows(2).all(|w| w[0] > w[1]), "levels {:?}", levels);
            prop_assert!(det.buckets().iter().all(|b| b.samples.len() <= cap));
            let held: u64 = det.buckets().iter().map(|b| b.count).sum();
            prop_assert_eq!(held + dropped_total, det.inserts());
        }
    }

    /// Checkpoint round-trip mid-stream: the restored detector replays
    /// the identical future (subsampling RNG position included).
    #[test]
    fn snapshot_resumes_identically(
        prefix in stream(),
        suffix in prop::collection::vec(0.0f64..4.0, 8..120),
    ) {
        use snod_persist::Persist;
        let cfg = MmdewConfig {
            dimensions: 1,
            gamma: 6.0,
            bucket_cap: 8,
            threshold_scale: 0.8,
            min_per_side: 4,
            test_every: 2,
            seed: 5,
        };
        let mut live = Mmdew::new(cfg).unwrap();
        for v in &prefix {
            live.insert(&[*v]).unwrap();
        }
        let mut restored = Mmdew::from_bytes(&live.to_bytes()).unwrap();
        prop_assert_eq!(&restored, &live);
        for v in &suffix {
            prop_assert_eq!(live.insert(&[*v]).unwrap(), restored.insert(&[*v]).unwrap());
        }
        prop_assert_eq!(restored, live);
    }
}
