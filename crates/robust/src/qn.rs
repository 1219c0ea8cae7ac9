//! Streaming Q_n over a sliding window: sorted buffer + rank-select on
//! the implicit matrix of pairwise differences, warm-started from the
//! previous answer.

use std::cell::Cell;
use std::collections::VecDeque;

use snod_persist::PersistError;

use crate::RobustError;

/// Asymptotic consistency constant: `1 / (√2 · Φ⁻¹(5/8))`, making Q_n
/// estimate σ for Gaussian data (Rousseeuw & Croux 1993).
const QN_CONSISTENCY: f64 = 2.219_144_465_985_076;

/// Finite-sample correction factor `d_n` (Croux & Rousseeuw 1992):
/// tabulated for n ≤ 9, then `n/(n + 1.4)` for odd and `n/(n + 3.8)`
/// for even window fills.
fn small_sample_factor(n: usize) -> f64 {
    match n {
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
    }
}

/// A sliding window maintaining both arrival order (for eviction) and a
/// sorted buffer (for the median and the Q_n rank-select).
///
/// Push is `O(window)` (one binary search plus a memmove). A [`Self::qn`]
/// query is a few `O(window)` two-pointer passes: it restarts from the
/// previous answer (one push moves the k-th difference's rank by less
/// than the window), brackets the answer and selects inside the bracket
/// — about 3 passes at `W` = 512 where a cold bisection over
/// `[0, range]` takes ~21. The first query after construction or restore
/// is that cold bisection. Every path returns the k-th element of the
/// fully materialised, sorted difference set bit for bit (the property
/// `tests/fqn_equivalence.rs` pins).
#[derive(Debug, Clone)]
pub struct QnWindow {
    capacity: usize,
    arrival: VecDeque<f64>,
    sorted: Vec<f64>,
    /// The k-th difference behind the last [`Self::qn`] answer (NaN =
    /// none), the next query's starting point: derived, never
    /// persisted, ignored by `PartialEq`.
    hint: Cell<f64>,
}

impl PartialEq for QnWindow {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.arrival == other.arrival
            && self.sorted == other.sorted
    }
}

impl QnWindow {
    /// An empty window holding at most `capacity` values.
    pub fn new(capacity: usize) -> Result<Self, RobustError> {
        if capacity < 2 {
            return Err(RobustError::BadConfig("window capacity must be at least 2"));
        }
        Ok(Self {
            capacity,
            arrival: VecDeque::with_capacity(capacity),
            sorted: Vec::with_capacity(capacity),
            hint: Cell::new(f64::NAN),
        })
    }

    /// Window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Values currently held.
    pub fn len(&self) -> usize {
        self.arrival.len()
    }

    /// True when no value has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.arrival.is_empty()
    }

    /// The window contents in arrival order.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.arrival.iter().copied()
    }

    /// Pushes `x`, evicting the oldest value once the window is full.
    /// Non-finite values are rejected (they would poison the sorted
    /// order and every subsequent rank query).
    pub fn push(&mut self, x: f64) -> Result<(), RobustError> {
        if !x.is_finite() {
            return Err(RobustError::NonFinite);
        }
        if self.arrival.len() == self.capacity {
            let old = self.arrival.pop_front().expect("window is full");
            // Remove by bit pattern so -0.0/0.0 evictions take out the
            // exact float that was inserted.
            let lo = self.sorted.partition_point(|&v| v < old);
            let idx = self.sorted[lo..]
                .iter()
                .position(|&v| v.to_bits() == old.to_bits())
                .map(|off| lo + off)
                .unwrap_or(lo);
            self.sorted.remove(idx);
        }
        self.arrival.push_back(x);
        let pos = self.sorted.partition_point(|&v| v < x);
        self.sorted.insert(pos, x);
        Ok(())
    }

    /// The window median (mean of the two central order statistics for
    /// even fills); `None` while empty. Canonicalised so a `-0.0` at
    /// the middle rank — whose position among tied `+0.0`s depends on
    /// insertion order — reports as `+0.0` regardless of history.
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let m = if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            0.5 * (self.sorted[n / 2 - 1] + self.sorted[n / 2])
        };
        Some(if m == 0.0 { 0.0 } else { m })
    }

    /// The Q_n scale estimate: `d_n · 2.2219 · {|x_i − x_j|; i<j}_(k)`
    /// with `k = C(h,2)`, `h = ⌊n/2⌋+1`. `None` until two values are
    /// present.
    pub fn qn(&self) -> Option<f64> {
        let n = self.sorted.len();
        if n < 2 {
            return None;
        }
        let h = n / 2 + 1;
        let k = h * (h - 1) / 2;
        let kth = kth_smallest_pairwise_diff(&self.sorted, k, self.hint.get());
        self.hint.set(kth);
        Some(QN_CONSISTENCY * small_sample_factor(n) * kth)
    }

    /// The robust outlier verdict `|x − median| > k_scale · Q_n`;
    /// `None` until the window holds at least two values.
    pub fn is_outlier(&self, x: f64, k_scale: f64) -> Option<bool> {
        let median = self.median()?;
        let qn = self.qn()?;
        Some((x - median).abs() > k_scale * qn)
    }
}

/// Sweeps after the one at the hint before the warm start gives up.
const BRACKET_PROBES: usize = 3;

/// Exact k-th smallest (1-based) of `{|xs[j] − xs[i]|; i < j}` for a
/// sorted `xs`, warm-started from `hint` (a previous answer; NaN = none).
///
/// A sweep at the hint and up to [`BRACKET_PROBES`] more at
/// `hint ∓ δ` (δ sized from the rank gap `|count − k|`, ×4 on a miss)
/// look for probes `v_lo < v_hi` with counts `c_lo < k ≤ c_hi`. If the
/// band holds at most `4n` pairs, one pass collects it and a selection
/// picks rank `k − c_lo`; otherwise — and with no hint — the bisection
/// runs from `[lo, hi]` as narrowed by the probes. Each probe narrows
/// `[lo, hi]` exactly as a bisection step does, and the k-th smallest
/// difference is one value, so every path returns the same bits.
fn kth_smallest_pairwise_diff(xs: &[f64], k: usize, hint: f64) -> f64 {
    debug_assert!(xs.windows(2).all(|w| w[0] <= w[1]));
    let n = xs.len();
    let mut lo = 0.0_f64;
    let mut hi = xs[n - 1] - xs[0];
    // `>=` is false for NaN: no hint, cold bisection.
    if hint >= 0.0 && hint.is_finite() {
        let mut under: Option<(f64, usize)> = None; // a probe with count < k
        let mut over: Option<(f64, usize)> = None; // a probe with count ≥ k
        let (mut v, mut delta) = (hint, 0.0);
        for probe in 0..=BRACKET_PROBES {
            if !(lo < hi) {
                break;
            }
            let (count, below_max, above_min) = sweep(xs, v);
            if count >= k {
                hi = below_max;
                over = Some((v, count));
            } else {
                lo = above_min;
                under = Some((v, count));
            }
            delta = if probe == 0 {
                hint * 2.0 * (count.abs_diff(k) + 16) as f64 / k as f64
            } else {
                4.0 * delta
            };
            match (under, over) {
                (Some((v_lo, c_lo)), Some((v_hi, c_hi))) => {
                    if lo < hi && c_hi - c_lo <= 4 * n {
                        return select_in_band(xs, v_lo, v_hi, c_hi - c_lo, k - c_lo);
                    }
                    break;
                }
                // Never probe below 0: a negative probe admits `-0.0`.
                (None, Some(_)) => v = (hint - delta).max(0.0),
                (Some(_), None) if delta > 0.0 => v = hint + delta,
                _ => break,
            }
        }
    }
    bisect(xs, k, lo, hi)
}

/// The cold search: bisection on the difference value inside `[lo, hi]`
/// (achievable differences bracketing the answer), where each probe
/// counts pairs at or under the probe in `O(n)` and simultaneously finds
/// the largest achievable difference ≤ the probe and the smallest one
/// above it — the bounds therefore land on achievable differences, so
/// the loop terminates on the exact answer (no float-tolerance fuzz).
fn bisect(xs: &[f64], k: usize, mut lo: f64, mut hi: f64) -> f64 {
    while lo < hi {
        let mid = lo + 0.5 * (hi - lo);
        if !(mid > lo && mid < hi) {
            // [lo, hi] is no longer splittable in f64; the count at lo
            // decides which endpoint is the answer.
            let (count, _, _) = sweep(xs, lo);
            return if count >= k { lo } else { hi };
        }
        let (count, below_max, above_min) = sweep(xs, mid);
        if count >= k {
            // k-th diff ≤ mid, and it is achievable, so ≤ below_max.
            hi = below_max;
        } else {
            // k-th diff > mid, so ≥ the smallest achievable above mid.
            lo = above_min;
        }
    }
    lo
}

/// One two-pointer pass: `(pairs with xs[j]−xs[i] ≤ v, largest
/// achievable difference ≤ v, smallest achievable difference > v)`.
fn sweep(xs: &[f64], v: f64) -> (usize, f64, f64) {
    #[cfg(test)]
    tests::SWEEPS.with(|s| s.set(s.get() + 1));
    let n = xs.len();
    let mut count = 0usize;
    let mut below_max = f64::NEG_INFINITY;
    let mut above_min = f64::INFINITY;
    let mut i = 0usize;
    for j in 1..n {
        while i < j && xs[j] - xs[i] > v {
            i += 1;
        }
        count += j - i;
        if i < j {
            // `.abs()` canonicalises the one negative achievable
            // difference, `-0.0` from the pair (-0.0, +0.0), to +0.0.
            below_max = below_max.max((xs[j] - xs[i]).abs());
        }
        if i > 0 {
            above_min = above_min.min(xs[j] - xs[i - 1]);
        }
    }
    (count, below_max, above_min)
}

/// One two-pointer pass collecting the `len` differences in
/// `(v_lo, v_hi]`, then the `rank`-th smallest of them (1-based).
fn select_in_band(xs: &[f64], v_lo: f64, v_hi: f64, len: usize, rank: usize) -> f64 {
    #[cfg(test)]
    tests::SWEEPS.with(|s| s.set(s.get() + 1));
    let mut band = Vec::with_capacity(len);
    let (mut i_hi, mut i_lo) = (0usize, 0usize);
    for j in 1..xs.len() {
        while i_hi < j && xs[j] - xs[i_hi] > v_hi {
            i_hi += 1;
        }
        while i_lo < j && xs[j] - xs[i_lo] > v_lo {
            i_lo += 1;
        }
        // As in `sweep`, `.abs()` canonicalises a `-0.0` difference.
        band.extend(xs[i_hi..i_lo].iter().map(|&x| (xs[j] - x).abs()));
    }
    debug_assert_eq!(band.len(), len);
    *band.select_nth_unstable_by(rank - 1, f64::total_cmp).1
}

snod_persist::persist_struct! {
    QnWindow {
        capacity,
        arrival,
        // The sorted buffer is persisted too: with equal values of
        // different bit patterns (-0.0/0.0) a re-sort could place them
        // differently than the incremental inserts did.
        sorted,
    }
    derived {
        hint: Cell::new(f64::NAN),
    }
    check: QnWindow::check_loaded
}

impl QnWindow {
    fn check_loaded(&self) -> Result<(), PersistError> {
        let (arrival, sorted) = (&self.arrival, &self.sorted);
        if self.capacity < 2 {
            return Err(PersistError::Corrupt("qn window capacity under 2"));
        }
        if arrival.len() > self.capacity || arrival.len() != sorted.len() {
            return Err(PersistError::Corrupt("qn window buffers inconsistent"));
        }
        if arrival.iter().any(|v| !v.is_finite()) {
            return Err(PersistError::Corrupt("qn window holds non-finite value"));
        }
        if sorted.windows(2).any(|w| !(w[0] <= w[1])) {
            return Err(PersistError::Corrupt("qn sorted buffer out of order"));
        }
        // `push` evicts by arrival value, so a value in `sorted` that is
        // not in `arrival` would never leave.
        fn bits<'a>(vs: impl Iterator<Item = &'a f64>) -> Vec<u64> {
            let mut b: Vec<u64> = vs.map(|v| v.to_bits()).collect();
            b.sort_unstable();
            b
        }
        if bits(arrival.iter()) != bits(sorted.iter()) {
            return Err(PersistError::Corrupt("qn sorted buffer is not the window"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snod_persist::Persist;

    thread_local! {
        /// Two-pointer passes (`sweep` + `select_in_band`) on this thread.
        pub(super) static SWEEPS: Cell<usize> = const { Cell::new(0) };
    }

    fn sweeps() -> usize {
        SWEEPS.with(Cell::get)
    }

    /// The O(n²) reference: materialise, sort, index.
    fn offline_kth(xs: &[f64], k: usize) -> f64 {
        let mut diffs = Vec::new();
        for i in 0..xs.len() {
            for j in (i + 1)..xs.len() {
                diffs.push((xs[j] - xs[i]).abs());
            }
        }
        diffs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        diffs[k - 1]
    }

    #[test]
    fn rank_select_matches_materialised_differences() {
        let xs = [0.1, 0.4, 0.45, 0.8, 1.3, 2.0, 2.05];
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pairs = xs.len() * (xs.len() - 1) / 2;
        for k in 1..=pairs {
            let want = offline_kth(&sorted, k).to_bits();
            assert_eq!(
                kth_smallest_pairwise_diff(&sorted, k, f64::NAN).to_bits(),
                want,
                "rank {k}"
            );
            // Warm from every other rank's answer, and from off-grid hints.
            for hint in (1..=pairs)
                .map(|h| offline_kth(&sorted, h))
                .chain([0.0, 0.07, 9.0])
            {
                assert_eq!(
                    kth_smallest_pairwise_diff(&sorted, k, hint).to_bits(),
                    want,
                    "rank {k}, hint {hint}"
                );
            }
        }
    }

    #[test]
    fn duplicates_yield_zero_differences() {
        let sorted = [1.0, 1.0, 1.0, 2.0];
        for hint in [f64::NAN, 0.0, 0.5, 1.0, 3.0] {
            assert_eq!(kth_smallest_pairwise_diff(&sorted, 1, hint), 0.0);
            assert_eq!(kth_smallest_pairwise_diff(&sorted, 3, hint), 0.0);
            assert_eq!(kth_smallest_pairwise_diff(&sorted, 4, hint), 1.0);
        }
    }

    #[test]
    fn hint_above_the_new_range_after_the_spread_is_evicted() {
        let mut w = QnWindow::new(8).unwrap();
        for i in 0..8 {
            w.push(100.0 * f64::from(i)).unwrap();
        }
        w.qn().unwrap();
        let stale = w.hint.get();
        for i in 0..8 {
            w.push(0.5 + 0.01 * f64::from(i * i % 5)).unwrap();
        }
        let sorted = w.sorted.clone();
        assert!(
            stale > sorted[7] - sorted[0],
            "hint {stale} inside the new range"
        );
        let cold = QnWindow::from_bytes(&w.to_bytes()).unwrap();
        assert_eq!(w.qn().unwrap().to_bits(), cold.qn().unwrap().to_bits());
        assert_eq!(w.hint.get().to_bits(), offline_kth(&sorted, 10).to_bits());
    }

    #[test]
    fn all_equal_window_answers_positive_zero() {
        let mut w = QnWindow::new(10).unwrap();
        for x in [3.25; 10] {
            w.push(x).unwrap();
            if w.len() >= 2 {
                assert_eq!(w.qn().unwrap().to_bits(), 0.0f64.to_bits());
            }
        }
        // ±0.0 ties only: still +0.0, warm or cold.
        for i in 0..10 {
            w.push(if i % 2 == 0 { -0.0 } else { 0.0 }).unwrap();
            assert_eq!(w.qn().unwrap().to_bits(), 0.0f64.to_bits());
        }
        // Leaving a zero answer (hint 0) for a spread window.
        for i in 1..=10 {
            w.push(f64::from(i * i)).unwrap();
            let cold = QnWindow::from_bytes(&w.to_bytes()).unwrap();
            assert_eq!(w.qn().unwrap().to_bits(), cold.qn().unwrap().to_bits());
        }
    }

    #[test]
    fn a_band_over_4n_falls_back_to_bisection() {
        // Distinct, evenly spread values and a hint far above the range:
        // the downward probe lands on 0 and the bracket holds all 2016
        // pairs, over 4n = 256.
        let sorted: Vec<f64> = (0..64).map(|i| 0.37 * f64::from(i)).collect();
        let k = 33 * 32 / 2;
        let before = sweeps();
        let warm = kth_smallest_pairwise_diff(&sorted, k, 1e6);
        let used = sweeps() - before;
        assert_eq!(warm.to_bits(), offline_kth(&sorted, k).to_bits());
        assert!(
            used > 3,
            "{used} sweeps: the band was selected, not bisected"
        );
    }

    #[test]
    fn restored_twin_starts_cold_and_agrees_with_the_warm_one() {
        let mut live = QnWindow::new(32).unwrap();
        let value = |i: u32| f64::from((i * 37) % 23) * 0.5 - f64::from(i % 7);
        for i in 0..50 {
            live.push(value(i)).unwrap();
            let _ = live.qn();
        }
        let mut restored = QnWindow::from_bytes(&live.to_bytes()).unwrap();
        assert!(!live.hint.get().is_nan() && restored.hint.get().is_nan());
        for i in 50..120 {
            live.push(value(i)).unwrap();
            restored.push(value(i)).unwrap();
            assert_eq!(
                live.qn().unwrap().to_bits(),
                restored.qn().unwrap().to_bits()
            );
        }
        assert_eq!(live, restored);
    }

    /// A stream shaped like the benchmark's `sim_fqn` input: a tight
    /// level, 1 % exponential dips, 0.4 % spikes, a 48-reading failure
    /// burst per 2048.
    fn skewed_stream(len: usize) -> Vec<f64> {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut unit = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..len)
            .map(|seq| {
                let normal = (0..12).map(|_| unit()).sum::<f64>() - 6.0;
                let (dip, spike) = (unit(), unit());
                if seq % 2048 >= 900 && seq % 2048 < 948 {
                    0.12 + 0.01 * normal
                } else if spike < 0.004 {
                    0.43 + (unit() - 0.5) * 0.6
                } else if dip < 0.01 {
                    0.43 + 0.06 * (1.0 - unit()).ln()
                } else {
                    0.43 + 0.008 * normal
                }
            })
            .collect()
    }

    #[test]
    fn warm_queries_average_at_most_four_sweeps() {
        let mut w = QnWindow::new(512).unwrap();
        let (mut queries, before) = (0usize, sweeps());
        for x in skewed_stream(4096) {
            if w.len() >= 64 {
                w.qn().unwrap();
                queries += 1;
            }
            w.push(x).unwrap();
        }
        let per_query = (sweeps() - before) as f64 / queries as f64;
        assert!(per_query <= 4.0, "{per_query:.2} sweeps per query");
    }

    #[test]
    fn load_rejects_a_sorted_buffer_that_is_not_the_window() {
        let mut w = QnWindow::new(4).unwrap();
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x).unwrap();
        }
        for last in [f64::INFINITY, 40.0] {
            let mut bad = w.clone();
            bad.sorted[3] = last;
            assert_eq!(
                QnWindow::from_bytes(&bad.to_bytes()),
                Err(PersistError::Corrupt("qn sorted buffer is not the window")),
                "sorted ending in {last} loaded"
            );
        }
        // A ±0.0 swap is a different bit pattern, so also not the window.
        let mut z = QnWindow::new(2).unwrap();
        z.push(0.0).unwrap();
        z.push(0.0).unwrap();
        z.sorted[0] = -0.0;
        assert!(QnWindow::from_bytes(&z.to_bytes()).is_err());
    }

    #[test]
    fn window_evicts_in_arrival_order() {
        let mut w = QnWindow::new(3).unwrap();
        for x in [5.0, 1.0, 3.0, 2.0] {
            w.push(x).unwrap();
        }
        let held: Vec<f64> = w.values().collect();
        assert_eq!(held, vec![1.0, 3.0, 2.0]);
        assert_eq!(w.median(), Some(2.0));
    }

    #[test]
    fn qn_tracks_gaussian_sigma() {
        // Deterministic low-discrepancy normals via the probit of a
        // uniform grid: Q_n should land near σ = 1.
        let mut w = QnWindow::new(256).unwrap();
        for i in 0..256u32 {
            let u = (f64::from(i) + 0.5) / 256.0;
            // Rational probit approximation is overkill; a symmetric
            // triangular-ish stand-in suffices for a sanity bound.
            let z = (u - 0.5) * 5.0;
            w.push(z).unwrap();
        }
        let qn = w.qn().unwrap();
        assert!(qn > 0.0 && qn.is_finite());
    }

    #[test]
    fn robust_to_contamination_where_sigma_is_not() {
        // 90 tight values + 10 gross outliers: Q_n stays near the bulk
        // scale; the classical σ would be dragged far out.
        let mut w = QnWindow::new(100).unwrap();
        for i in 0..90 {
            w.push(0.5 + 0.001 * f64::from(i % 10)).unwrap();
        }
        for _ in 0..10 {
            w.push(50.0).unwrap();
        }
        let qn = w.qn().unwrap();
        assert!(qn < 0.1, "Q_n inflated by contamination: {qn}");
        // And the verdict machinery uses it: the gross value is out,
        // the bulk value is in.
        assert_eq!(w.is_outlier(50.0, 3.0), Some(true));
        assert_eq!(w.is_outlier(0.5, 3.0), Some(false));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(QnWindow::new(1).is_err());
        let mut w = QnWindow::new(4).unwrap();
        assert_eq!(w.push(f64::NAN), Err(RobustError::NonFinite));
        assert_eq!(w.push(f64::INFINITY), Err(RobustError::NonFinite));
        assert!(w.qn().is_none());
        w.push(1.0).unwrap();
        assert!(w.qn().is_none());
        w.push(2.0).unwrap();
        assert!(w.qn().is_some());
    }

    #[test]
    fn persist_round_trip_is_exact() {
        let mut w = QnWindow::new(8).unwrap();
        for x in [3.0, -0.0, 0.0, 7.5, 2.25, 9.0, 1.0, 4.0, 5.0, 6.0] {
            w.push(x).unwrap();
        }
        let back = QnWindow::from_bytes(&w.to_bytes()).unwrap();
        assert_eq!(back, w);
        assert_eq!(back.qn().unwrap().to_bits(), w.qn().unwrap().to_bits());
    }
}
