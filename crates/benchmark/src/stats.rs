//! Slice arithmetic: the timing rule every timed metric goes through.
//!
//! A timed phase is fixed work cut into consecutive slices. Interference
//! on a shared host is one-sided (it only ever slows a slice) and bursty
//! over seconds, so the median of the slices drifts between runs while
//! the mean of the best quarter does not. A metric's `value` is that
//! best-quartile mean; median and quartiles are printed beside it.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric as measured over the slices of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Best-quartile mean (or the single exact value when `n == 1`).
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A metric that is computed once per run (counts, sizes, ratios).
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// The median of repeated measurements (set-up time).
    pub fn of_median(values: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(values);
        Self {
            value: median,
            median,
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Applies the timing rule to per-slice values.
    pub fn of_slices(values: &[f64], better: Better) -> Self {
        let (q1, median, q3) = quartiles(values);
        Self {
            value: best_quartile_mean(values, better),
            median,
            q1,
            q3,
            n: values.len(),
        }
    }
}

/// Mean of the best `max(1, n/4)` values: the highest for rates, the
/// lowest for latencies and costs. `NaN` on an empty slice.
pub fn best_quartile_mean(values: &[f64], better: Better) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    let k = (v.len() / 4).max(1);
    v[..k].iter().sum::<f64>() / k as f64
}

/// Nearest-rank percentile of an ascending slice, `p` in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them, so the `noise` self-check and the
/// driver compute the same spread. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Cuts a cumulative event series into fixed-work slices: given
/// `(time_ns, units_done_at_this_event)` events sorted by time, returns
/// the time at which the running total first reached `k * per_slice`
/// for `k = 1..=n`. `None` when the series ends short of `n` slices.
pub fn slice_crossings(events: &[(u64, u32)], per_slice: u64, n: usize) -> Option<Vec<u64>> {
    let mut out = Vec::with_capacity(n);
    let mut total = 0u64;
    for &(t, units) in events {
        total += u64::from(units);
        while out.len() < n && total >= (out.len() as u64 + 1) * per_slice {
            out.push(t);
        }
    }
    (out.len() == n).then_some(out)
}

/// Linear interpolation of a sampled monotone series `(time_ns, value)`
/// at `t` (clamped to the ends).
pub fn interpolate(samples: &[(u64, f64)], t: u64) -> f64 {
    let i = samples.partition_point(|&(ts, _)| ts < t);
    if i == 0 {
        return samples.first().map_or(f64::NAN, |s| s.1);
    }
    if i == samples.len() {
        return samples[i - 1].1;
    }
    let (t0, v0) = samples[i - 1];
    let (t1, v1) = samples[i];
    v0 + (v1 - v0) * (t - t0) as f64 / (t1 - t0).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_quartile_mean_takes_the_best_quarter() {
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(
            best_quartile_mean(&v, Better::Higher),
            (13.0 + 14.0 + 15.0 + 16.0) / 4.0
        );
        assert_eq!(
            best_quartile_mean(&v, Better::Lower),
            (1.0 + 2.0 + 3.0 + 4.0) / 4.0
        );
        assert_eq!(best_quartile_mean(&[7.0, 3.0], Better::Lower), 3.0);
        assert!(best_quartile_mean(&[], Better::Lower).is_nan());
    }

    #[test]
    fn one_slow_slice_moves_the_median_side_not_the_value() {
        let mut v = vec![100.0; 16];
        let clean = Summary::of_slices(&v, Better::Higher);
        for x in v.iter_mut().take(9) {
            *x = 80.0;
        }
        let noisy = Summary::of_slices(&v, Better::Higher);
        assert_eq!(clean.value, noisy.value);
        assert!(noisy.median < clean.median);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[4.0], 0.99), 4.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn slices_are_cut_where_the_running_total_crosses() {
        let events = [(10, 3), (20, 3), (30, 3), (40, 3)];
        assert_eq!(slice_crossings(&events, 4, 3), Some(vec![20, 30, 40]));
        assert_eq!(slice_crossings(&events, 6, 2), Some(vec![20, 40]));
        assert_eq!(slice_crossings(&events, 7, 2), None);
    }

    #[test]
    fn interpolation_is_linear_and_clamped() {
        let s = [(100, 1.0), (200, 3.0)];
        assert_eq!(interpolate(&s, 150), 2.0);
        assert_eq!(interpolate(&s, 50), 1.0);
        assert_eq!(interpolate(&s, 500), 3.0);
    }
}
