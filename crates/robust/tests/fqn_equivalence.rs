//! FQN equivalence (proptest): the streaming Q_n — sorted buffer kept
//! incrementally, rank-select by value-space bisection — must equal,
//! **bit for bit**, the offline Q_n recomputed from scratch on the same
//! window contents, across arbitrary insert/evict sequences. The
//! offline reference materialises all C(n,2) pairwise differences,
//! sorts them and indexes the k-th: any drift in the incremental sorted
//! buffer or any off-by-one in the bisection shows up as a bit
//! mismatch. At the window sizes the detectors use (64–600), where the
//! O(n² log n) reference is too slow, the warm-started query is pinned
//! against the hint-free search instead: a `from_bytes(to_bytes())`
//! twin starts with no hint, so its query is the cold bisection.

use proptest::prelude::*;

use snod_robust::QnWindow;

/// The O(n² log n) reference on an explicit window.
fn offline_qn(window: &[f64]) -> Option<f64> {
    let n = window.len();
    if n < 2 {
        return None;
    }
    let mut sorted = window.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut diffs = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            diffs.push((sorted[j] - sorted[i]).abs());
        }
    }
    diffs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let h = n / 2 + 1;
    let k = h * (h - 1) / 2;
    let d_n = match n {
        0 | 1 => 1.0,
        2 => 0.399,
        3 => 0.994,
        4 => 0.512,
        5 => 0.844,
        6 => 0.611,
        7 => 0.857,
        8 => 0.669,
        9 => 0.872,
        _ if n % 2 == 1 => n as f64 / (n as f64 + 1.4),
        _ => n as f64 / (n as f64 + 3.8),
    };
    Some(2.219_144_465_985_076 * d_n * diffs[k - 1])
}

fn offline_median(window: &[f64]) -> Option<f64> {
    let n = window.len();
    if n == 0 {
        return None;
    }
    let mut sorted = window.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let m = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    Some(if m == 0.0 { 0.0 } else { m })
}

/// Value pools deliberately heavy on ties and near-ties — the regime
/// where rank-select off-by-ones hide.
fn stream_values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        (0u32..10, -100.0f64..100.0).prop_map(|(tag, v)| match tag {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => 2.5,
            _ => v,
        }),
        2..160,
    )
}

/// Long streams in the four shapes the warm start must survive: a
/// drifting level, five heavily tied values, ±0.0 mixed into a tight
/// cluster, and a tight level broken by wide bursts.
fn shaped_stream(shape: u32, seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed | 1;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..len)
        .map(|i| {
            let u = unit();
            match shape {
                0 => 0.01 * i as f64 + u,
                1 => [0.0, 1.0, 1.0, 2.5, 7.0][(u * 5.0) as usize],
                2 if u < 0.3 => 0.0,
                2 if u < 0.6 => -0.0,
                2 => 1e-3 * (u - 0.6),
                _ if (i / 50) % 4 == 3 => 100.0 * u - 50.0,
                _ => 0.43 + 0.01 * u,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline property: after EVERY push (insert + possible
    /// evict), streaming Q_n and median equal the offline recompute on
    /// the explicit arrival window, bit for bit.
    #[test]
    fn streaming_qn_equals_offline_recompute(
        values in stream_values(),
        capacity in 2usize..40,
    ) {
        let mut win = QnWindow::new(capacity).unwrap();
        let mut explicit: Vec<f64> = Vec::new();
        for &x in &values {
            win.push(x).unwrap();
            explicit.push(x);
            if explicit.len() > capacity {
                explicit.remove(0);
            }
            prop_assert_eq!(
                win.qn().map(f64::to_bits),
                offline_qn(&explicit).map(f64::to_bits),
                "window {:?}", explicit
            );
            prop_assert_eq!(
                win.median().map(f64::to_bits),
                offline_median(&explicit).map(f64::to_bits)
            );
        }
    }

    /// Checkpoint round-trip mid-stream: the restored window answers
    /// every later query identically to the never-snapshotted twin.
    #[test]
    fn snapshot_does_not_perturb_the_stream(
        prefix in stream_values(),
        suffix in stream_values(),
        capacity in 2usize..32,
    ) {
        use snod_persist::Persist;
        let mut live = QnWindow::new(capacity).unwrap();
        for &x in &prefix {
            live.push(x).unwrap();
        }
        let mut restored = QnWindow::from_bytes(&live.to_bytes()).unwrap();
        for &x in &suffix {
            live.push(x).unwrap();
            restored.push(x).unwrap();
            prop_assert_eq!(
                live.qn().map(f64::to_bits),
                restored.qn().map(f64::to_bits)
            );
        }
        prop_assert_eq!(live, restored);
    }

    /// The verdict rule is consistent with its ingredients: a value is
    /// flagged iff it sits outside median ± k·Q_n of the *current*
    /// window.
    #[test]
    fn verdict_matches_median_and_qn(
        values in stream_values(),
        probe in -150.0f64..150.0,
        k in 0.5f64..5.0,
    ) {
        let mut win = QnWindow::new(24).unwrap();
        for &x in &values {
            win.push(x).unwrap();
        }
        if win.len() >= 2 {
            let expected = (probe - win.median().unwrap()).abs() > k * win.qn().unwrap();
            prop_assert_eq!(win.is_outlier(probe, k), Some(expected));
        }
    }
}

proptest! {
    // Each case runs one cold search per push over a detector-sized
    // window; 24 cases keep the suite under 5 s in a debug build.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Detector-sized windows through full turnover: after every push
    /// the warm-started Q_n equals, bit for bit, the cold search of a
    /// restored twin (no hint) on the same window.
    #[test]
    fn warm_qn_equals_the_hint_free_search(
        capacity in 64usize..600,
        shape in 0u32..4,
        seed in 0u64..u64::MAX,
        extra in 50usize..300,
    ) {
        use snod_persist::Persist;
        let mut win = QnWindow::new(capacity).unwrap();
        for x in shaped_stream(shape, seed, capacity + extra) {
            win.push(x).unwrap();
            let cold = QnWindow::from_bytes(&win.to_bytes()).unwrap();
            prop_assert_eq!(
                win.qn().map(f64::to_bits),
                cold.qn().map(f64::to_bits),
                "shape {} at fill {}", shape, win.len()
            );
        }
    }
}
