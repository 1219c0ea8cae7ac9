//! ε-approximate variance over a sliding window
//! (Babcock, Datar, Motwani, O'Callaghan — PODS 2003).
//!
//! The paper's kernel bandwidth rule `Bᵢ = √5·σᵢ·|R|^(−1/(d+4))` needs the
//! standard deviation σ of the values currently in the window. Keeping the
//! whole window just for σ would defeat the memory budget, so each sensor
//! maintains this bucket sketch instead: Theorem 1 of the paper charges it
//! `O((1/ε²)·log|W|)` memory per dimension.
//!
//! Each bucket stores the triple `(n, μ, V)` — count, mean and sum of
//! squared deviations — for a contiguous run of stream elements. Two
//! buckets combine exactly:
//!
//! ```text
//! n  = n₁ + n₂
//! μ  = (n₁μ₁ + n₂μ₂) / n
//! V  = V₁ + V₂ + n₁n₂/(n₁+n₂) · (μ₁ − μ₂)²
//! ```
//!
//! Adjacent buckets are merged greedily (oldest first) whenever the merged
//! bucket's `V` stays small relative to the combined `V` of all newer
//! buckets (`9·V_merged ≤ ε²·V_newer`), which keeps the error contributed
//! by the single straddling bucket at query time below `ε·V`. The struct
//! tracks its high-water bucket count so the §10.3 memory experiment can
//! compare actual usage against the theoretical bound.
//!
//! The merge pass settles most of those tests in O(1) from running sums
//! of shifted moments and falls back to the exact newest→oldest fold only
//! when the sums' error bound cannot decide (DESIGN §7.4), so it makes
//! exactly the merges the fold makes. The same sums give
//! [`WindowedVariance::variance_interval`], an O(1) interval around
//! `variance()` for callers that need a decision rather than the bits.

use std::collections::VecDeque;

use snod_persist::{ByteReader, ByteWriter, Persist, PersistError};

use crate::SketchError;

/// Exact summary `(μ, V)` of a contiguous run of elements. The run starts
/// right after the previous bucket's, so only its end is stored; the
/// sketch keeps the first bucket's start.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Stream index (1-based) of the newest element in the bucket.
    newest: u64,
    mean: f64,
    /// Sum of squared deviations from the bucket mean.
    v: f64,
}

impl Bucket {
    /// Bucket `a` of `na` elements merged with the next bucket `b` of `nb`.
    fn combine(a: &Bucket, na: u64, b: &Bucket, nb: u64) -> Bucket {
        let n = na + nb;
        let mean = (na as f64 * a.mean + nb as f64 * b.mean) / n as f64;
        let d = a.mean - b.mean;
        let v = a.v + b.v + (na as f64 * nb as f64 / n as f64) * d * d;
        Bucket {
            newest: b.newest,
            mean,
            v,
        }
    }
}

/// Running statistics combined across several buckets.
#[derive(Debug, Clone, Copy)]
struct Combined {
    n: f64,
    mean: f64,
    v: f64,
}

impl Combined {
    const EMPTY: Combined = Combined {
        n: 0.0,
        mean: 0.0,
        v: 0.0,
    };

    fn add(self, n: f64, mean: f64, v: f64) -> Combined {
        if n == 0.0 {
            return self;
        }
        if self.n == 0.0 {
            return Combined { n, mean, v };
        }
        let total = self.n + n;
        let m = (self.n * self.mean + n * mean) / total;
        let d = self.mean - mean;
        Combined {
            n: total,
            mean: m,
            v: self.v + v + (self.n * n / total) * d * d,
        }
    }
}

/// ε-approximate variance and standard deviation over the last `|W|`
/// stream values.
///
/// ```
/// use snod_sketch::WindowedVariance;
/// let mut wv = WindowedVariance::new(1_000, 0.2).unwrap();
/// for i in 0..20_000 {
///     wv.push((i % 100) as f64);
/// }
/// // true variance of 0..=99 repeated is (100²−1)/12 ≈ 833.25
/// let sigma = wv.std_dev();
/// assert!((sigma - 833.25f64.sqrt()).abs() / 833.25f64.sqrt() < 0.25);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedVariance {
    buckets: VecDeque<Bucket>,
    /// Stream index of the first bucket's oldest element.
    oldest: u64,
    window: u64,
    eps: f64,
    time: u64,
    max_buckets_seen: usize,
    /// Derived state of the merge pass; not persisted.
    filter: MergeFilter,
}

impl WindowedVariance {
    /// Creates an estimator over `window` elements with error parameter
    /// `eps ∈ (0, 1]` (the paper's experiments use ε up to 0.2).
    pub fn new(window: usize, eps: f64) -> Result<Self, SketchError> {
        if window == 0 {
            return Err(SketchError::ZeroSize("window capacity"));
        }
        if !(eps > 0.0 && eps <= 1.0) {
            return Err(SketchError::InvalidEpsilon);
        }
        Ok(Self {
            buckets: VecDeque::new(),
            oldest: 1,
            window: window as u64,
            eps,
            time: 0,
            max_buckets_seen: 0,
            filter: MergeFilter::stale(),
        })
    }

    /// Feeds one value into the sketch.
    pub fn push(&mut self, x: f64) {
        snod_obs::counter!("sketch.variance.pushes").incr();
        self.time += 1;
        self.expire();
        self.buckets.push_back(Bucket {
            newest: self.time,
            mean: x,
            v: 0.0,
        });
        self.update_filter();
        self.merge_pass();
        self.max_buckets_seen = self.max_buckets_seen.max(self.buckets.len());
        snod_obs::gauge!("sketch.variance.max_buckets").record_max(self.max_buckets_seen as u64);
    }

    fn expire(&mut self) {
        let horizon = self.time.saturating_sub(self.window);
        while let Some(front) = self.buckets.front() {
            if front.newest <= horizon {
                self.oldest = front.newest + 1;
                self.buckets.pop_front();
                self.filter.rows.pop_front();
            } else {
                break;
            }
        }
    }

    /// Each bucket with the stream index of its oldest element.
    fn spans(&self) -> impl Iterator<Item = (u64, &Bucket)> {
        let firsts = std::iter::once(self.oldest).chain(self.buckets.iter().map(|b| b.newest + 1));
        firsts.zip(&self.buckets)
    }

    /// Element count of bucket `i`.
    fn count(&self, i: usize) -> u64 {
        let first = match i.checked_sub(1) {
            Some(prev) => self.buckets[prev].newest + 1,
            None => self.oldest,
        };
        self.buckets[i].newest - first + 1
    }

    /// Bucket `i` merged with bucket `i + 1`.
    fn pair(&self, i: usize) -> Bucket {
        Bucket::combine(
            &self.buckets[i],
            self.count(i),
            &self.buckets[i + 1],
            self.count(i + 1),
        )
    }

    fn set_pair_v(&mut self, i: usize) {
        let v = self.pair(i).v;
        self.filter.rows[i].pair_v = v;
    }

    /// Brings the filter up to the bucket just pushed: one more row, or a
    /// rebuild on the first push after construction or `load` and then
    /// every `|W|` pushes.
    fn update_filter(&mut self) {
        let m = self.buckets.len();
        self.filter.age = self.filter.age.saturating_add(1);
        let from = if self.filter.age >= self.window {
            self.filter.reset(self.mean());
            0
        } else {
            m - 1
        };
        for i in from..m {
            let (b, n) = (self.buckets[i], self.count(i));
            self.filter.push_row(&b, n);
        }
        for i in from.saturating_sub(1)..m - 1 {
            self.set_pair_v(i);
        }
    }

    /// Greedy oldest-first merge pass maintaining
    /// `9·V_merged ≤ ε²·V_newer-suffix` for every merge performed.
    ///
    /// Filter-then-verify (DESIGN §7.4): a test is settled from the
    /// [`MergeFilter`]'s running sums when their error bound allows, and
    /// otherwise from the newest→oldest `Combined::add` fold the test is
    /// defined by, so the merges — and the buckets — are bit-identical to
    /// running that fold for every test.
    fn merge_pass(&mut self) {
        // exact[r] folds the newest r + 1 buckets, extended only as far as
        // undecided tests need it.
        let mut exact: Vec<Combined> = Vec::new();
        // Tests before `start` were settled with `bound` and read nothing a
        // later merge changed; they stand while the new bound fits.
        let (mut start, mut bound) = (0, f64::NAN);
        loop {
            let m = self.buckets.len();
            if m < 3 {
                return;
            }
            let e = self
                .filter
                .error_bound(m - 2, self.time - self.buckets[1].newest);
            // False for NaN, and so on the first scan.
            let fits = e <= bound;
            if !fits {
                (start, bound) = (0, 2.0 * e);
            }
            let Some((i, first_fold)) = self.first_merge(start, bound, &mut exact) else {
                return;
            };
            let (a, na, b, nb) = (
                self.buckets[i],
                self.count(i),
                self.buckets[i + 1],
                self.count(i + 1),
            );
            self.buckets[i] = Bucket::combine(&a, na, &b, nb);
            self.buckets.remove(i + 1);
            self.filter.merged(i, (&a, na), (&b, nb), &self.buckets[i]);
            self.set_pair_v(i);
            if i > 0 {
                self.set_pair_v(i - 1);
            }
            // Folds over buckets newer than the pair are unchanged; tests
            // from i − 1 on, or settled by a fold, read the merged bucket.
            exact.truncate(m - 2 - i);
            start = i.saturating_sub(1).min(first_fold);
        }
    }

    /// The oldest `i ≥ start` whose pair `(i, i+1)` passes the merge test
    /// against buckets `i+2..`, and the first test the exact fold settled.
    /// Never the newest bucket: it must stay a singleton candidate so the
    /// straddling-bucket analysis applies.
    fn first_merge(
        &self,
        start: usize,
        bound: f64,
        exact: &mut Vec<Combined>,
    ) -> Option<(usize, usize)> {
        let m = self.buckets.len();
        let threshold = self.eps * self.eps / 9.0;
        let rows = &self.filter.rows;
        let last = rows.back()?;
        let slack = threshold * bound;
        let mut first_fold = usize::MAX;
        let next = rows
            .iter()
            .skip(start + 1)
            .zip(self.buckets.iter().skip(start + 1));
        for (i, (row, (before, b))) in (start..m - 2).zip(rows.iter().skip(start).zip(next)) {
            // The test `pair_v ≤ threshold·V` scaled by the suffix count n,
            // with n·V̂ = n·q − s²: settled when the gap exceeds n·slack plus
            // the rounding of the two scaled sides.
            let n = (self.time - b.newest) as f64;
            let (s, q) = (last.s - before.s, last.q - before.q);
            let (lhs, rhs) = (row.pair_v * n, threshold * (n * q - s * s));
            let margin = n * slack + 4.0 * U * (lhs.abs() + rhs.abs());
            let gap = lhs - rhs;
            let merge = if margin.is_finite() && gap.abs() > margin {
                gap < 0.0
            } else {
                snod_obs::counter!("sketch.variance.exact_folds").incr();
                first_fold = first_fold.min(i);
                let r = m - 3 - i;
                while exact.len() <= r {
                    let j = m - 1 - exact.len();
                    let (b, acc) = (
                        &self.buckets[j],
                        exact.last().copied().unwrap_or(Combined::EMPTY),
                    );
                    exact.push(acc.add(self.count(j) as f64, b.mean, b.v));
                }
                row.pair_v <= threshold * exact[r].v
            };
            if merge {
                return Some((i, first_fold));
            }
        }
        None
    }

    /// Estimated *population* variance of the current window. The oldest
    /// bucket may straddle the window boundary; its live share is estimated
    /// proportionally, which is exactly where the ε error enters.
    pub fn variance(&self) -> f64 {
        snod_obs::counter!("sketch.variance.exact_queries").incr();
        let horizon = self.time.saturating_sub(self.window);
        let mut acc = Combined::EMPTY;
        for (oldest, b) in self.spans() {
            let n = (b.newest - oldest + 1) as f64;
            if oldest > horizon {
                acc = acc.add(n, b.mean, b.v);
            } else {
                // Straddling bucket: `live` of its `n` elements remain.
                let live = b.newest.saturating_sub(horizon) as f64;
                if live > 0.0 {
                    let share = live / n;
                    acc = acc.add(live, b.mean, b.v * share);
                }
            }
        }
        if acc.n <= 1.0 {
            0.0
        } else {
            acc.v / acc.n
        }
    }

    /// An interval `(lo, hi)` that contains the bits [`Self::variance`]
    /// returns, in O(1) from the merge filter's rows (DESIGN §7.4):
    /// buckets `1..` from the first and last rows, the straddling front
    /// bucket's live share added directly. `None` before the first push
    /// after `new` or `load`, or when the bound is not finite.
    pub fn variance_interval(&self) -> Option<(f64, f64)> {
        let f = &self.filter;
        let (first, last, front) = (f.rows.front()?, f.rows.back()?, self.buckets.front()?);
        let horizon = self.time.saturating_sub(self.window);
        let count = front.newest - self.oldest + 1;
        // The front bucket's terms exactly as `variance` forms them.
        let (live, v0) = if self.oldest > horizon {
            (count as f64, front.v)
        } else {
            let live = (front.newest - horizon) as f64;
            (live, front.v * (live / count as f64))
        };
        let n = live + (self.time - front.newest) as f64;
        if n <= 1.0 {
            return Some((0.0, 0.0));
        }
        let e0 = front.mean - f.pivot;
        let (ds0, dq0) = (live * e0, v0 + live * e0 * e0);
        let (s_rows, q_rows) = (last.s - first.s, last.q - first.q);
        let (s, q) = (s_rows + ds0, q_rows + dq0);
        let m = f.max_abs_mean;
        if !(16.0 * n * m * m <= f64::MAX && 16.0 * q <= f64::MAX) {
            return None;
        }
        // The rows' bounds, the front's terms (as in `push_row`), and the
        // rounding of the row differences and of the two sums.
        let es = f.err_s + 3.0 * U * ds0.abs() + 2.0 * U * (s_rows.abs() + s.abs()) + f.tiny(n);
        let eq = f.err_q + 5.0 * U * dq0 + 2.0 * U * (q_rows + q) + f.tiny(n);
        let q_up = q + eq;
        let e = f.margin(self.buckets.len() as f64, n, q_up, q_up.sqrt() + es, es, eq);
        let v_hat = q - s * s / n;
        (e.is_finite() && v_hat.is_finite()).then(|| ((v_hat - e) / n, (v_hat + e) / n))
    }

    /// Estimated standard deviation σ of the window.
    pub fn std_dev(&self) -> f64 {
        self.variance().max(0.0).sqrt()
    }

    /// Estimated mean of the window values.
    pub fn mean(&self) -> f64 {
        let horizon = self.time.saturating_sub(self.window);
        let mut acc = Combined::EMPTY;
        for (oldest, b) in self.spans() {
            let live = if oldest > horizon {
                (b.newest - oldest + 1) as f64
            } else {
                b.newest.saturating_sub(horizon) as f64
            };
            if live > 0.0 {
                acc = acc.add(live, b.mean, 0.0);
            }
        }
        acc.mean
    }

    /// Number of elements currently covered (exact up to the straddling
    /// bucket's proportional estimate).
    pub fn live_count(&self) -> u64 {
        self.time.min(self.window)
    }

    /// Values observed so far.
    pub fn stream_len(&self) -> u64 {
        self.time
    }

    /// Buckets currently stored.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// High-water mark of [`Self::bucket_count`] over the sketch lifetime.
    pub fn max_buckets_seen(&self) -> usize {
        self.max_buckets_seen
    }

    /// Bucket memory in bytes under §10.3's accounting: five numbers per
    /// bucket (`oldest`, `newest`, `n`, `μ`, `V`, as checkpointed) of
    /// `value_bytes` bytes each (the paper assumes a 16-bit architecture,
    /// 2 bytes/number).
    pub fn memory_bytes(&self, value_bytes: usize) -> usize {
        self.bucket_count() * 5 * value_bytes
    }

    /// High-water memory in bytes under the same accounting.
    pub fn max_memory_bytes(&self, value_bytes: usize) -> usize {
        self.max_buckets_seen * 5 * value_bytes
    }

    /// Theoretical bucket bound `(9/ε²)·log₂(|W|)` against which §10.3
    /// compares actual usage.
    pub fn theoretical_bucket_bound(&self) -> usize {
        let w = self.window as f64;
        ((9.0 / (self.eps * self.eps)) * w.log2()).ceil() as usize
    }

    /// Theoretical memory bound in bytes (same per-bucket accounting as
    /// [`Self::memory_bytes`]).
    pub fn theoretical_memory_bound(&self, value_bytes: usize) -> usize {
        self.theoretical_bucket_bound() * 5 * value_bytes
    }
}

/// Unit roundoff of `f64`.
const U: f64 = f64::EPSILON / 2.0;

/// Derived state that settles most merge tests in O(1) (DESIGN §7.4).
///
/// Row `i` belongs to bucket `i`: the merged `V` of the pair `(i, i+1)`
/// and running sums of the bucket moments shifted by a pivot `c`, so the
/// combined `V` of any run of newer buckets is estimated from a
/// difference of two rows as `q − s²/n`. Beside them it carries bounds on
/// the rounding error of those differences.
#[derive(Debug, Clone)]
struct MergeFilter {
    rows: VecDeque<Row>,
    /// Shift `c` of the moments: the window mean at the last rebuild.
    pivot: f64,
    /// Upper bound on `|μ|` of every bucket since the last rebuild.
    max_abs_mean: f64,
    /// Upper bounds on the error of any difference of two `Row::s`
    /// (`Row::q`) against the exact moments of the buckets between them.
    err_s: f64,
    err_q: f64,
    /// Pushes since the last rebuild (saturated when there was none).
    age: u64,
}

#[derive(Debug, Clone, Copy)]
struct Row {
    /// `V` of bucket `i` merged with bucket `i + 1`, computed exactly as
    /// the merge computes it; NaN for the newest bucket.
    pair_v: f64,
    /// `Σ_{j≤i} n_j(μ_j − c)`.
    s: f64,
    /// `Σ_{j≤i} V_j + n_j(μ_j − c)²`.
    q: f64,
}

impl MergeFilter {
    fn stale() -> Self {
        Self {
            rows: VecDeque::new(),
            pivot: 0.0,
            max_abs_mean: 0.0,
            err_s: 0.0,
            err_q: 0.0,
            age: u64::MAX,
        }
    }

    fn reset(&mut self, pivot: f64) {
        self.rows.clear();
        self.pivot = pivot;
        self.max_abs_mean = 0.0;
        self.err_s = 0.0;
        self.err_q = 0.0;
        self.age = 0;
    }

    /// Absolute slack for underflow in the operations on `n` elements
    /// (`MIN_POSITIVE` is 2⁵² times a subnormal rounding error).
    fn tiny(&self, n: f64) -> f64 {
        (n + 1.0) * (self.max_abs_mean + 1.0) * f64::MIN_POSITIVE
    }

    /// Appends the row of the newest bucket `b`, of `n` elements.
    fn push_row(&mut self, b: &Bucket, n: u64) {
        let (s0, q0) = self.rows.back().map_or((0.0, 0.0), |r| (r.s, r.q));
        let n = n as f64;
        let e = b.mean - self.pivot;
        let ds = n * e;
        let dq = b.v + ds * e;
        let (s, q) = (s0 + ds, q0 + dq);
        self.max_abs_mean = self.max_abs_mean.max(b.mean.abs());
        // The terms' rounding (2 and 4 operations) plus the running sum's.
        self.err_s += 3.0 * U * ds.abs() + 2.0 * U * s.abs() + self.tiny(n);
        self.err_q += 5.0 * U * dq.abs() + 2.0 * U * q.abs() + self.tiny(n);
        self.rows.push_back(Row {
            pair_v: f64::NAN,
            s,
            q,
        });
    }

    /// Buckets `a` and `b` (with their counts) have just been merged into
    /// `c` at position `i`. The running sums keep `a`'s and `b`'s terms in
    /// place of `c`'s; the bounds absorb the difference, which is the
    /// rounding of `Bucket::combine`. The caller refreshes `pair_v`.
    fn merged(&mut self, i: usize, (a, na): (&Bucket, u64), (b, nb): (&Bucket, u64), c: &Bucket) {
        self.rows.remove(i);
        let n = (na + nb) as f64;
        self.max_abs_mean = self.max_abs_mean.max(c.mean.abs());
        // n·|μ_c − exact mean| (three roundings), and V_c's own rounding.
        let mean_err = 4.0 * U * (na as f64 * a.mean.abs() + nb as f64 * b.mean.abs());
        let shift = 2.0 * (c.mean - self.pivot).abs() + mean_err / n;
        self.err_s += mean_err + self.tiny(n);
        self.err_q += 8.0 * U * c.v + mean_err * shift + self.tiny(n);
    }

    /// Bound `E ≥ |V̂ − V|` for every suffix of at most `k` buckets and
    /// `n` elements within buckets `1..`: `V` is the newest→oldest
    /// `Combined::add` fold over the suffix and `V̂ = q − s²/n` its
    /// estimate from the rows; infinite when the fold could overflow.
    ///
    /// Both sides are bounded against the exact combined `V` of the
    /// buckets. `V̂`: the rows' bounds `err_s`/`err_q` and the rounding of
    /// `q − s²/n`, with `|s| ≤ √(n·q)` by Cauchy–Schwarz. The fold:
    /// `(2k+7)u·V` from its sums, `7k·u·M·√(n·V)` from its k-step rounded
    /// running mean entering `(μ_a − μ_b)²`, and that error squared. `M`
    /// bounds `|μ|`; the subnormal slack covers underflow. The bound is
    /// first order in `u`; the factor 4 absorbs the higher-order terms
    /// and the rounding of the bound itself.
    fn error_bound(&self, k: usize, n: u64) -> f64 {
        let (Some(first), Some(last)) = (self.rows.front(), self.rows.back()) else {
            return f64::INFINITY;
        };
        let (k, n, m) = (k as f64, n as f64, self.max_abs_mean);
        // ≥ every such suffix's q: the running sums only add terms ≥ 0.
        let q = last.q - first.q + self.err_q;
        // Negated so that NaN also gives up.
        if !(16.0 * n * m * m <= f64::MAX && 16.0 * q <= f64::MAX) {
            return f64::INFINITY;
        }
        // |s| / √n' ≤ root_q for a suffix of n' elements.
        let root_q = q.sqrt() + self.err_s;
        let es = self.err_s + 2.0 * U * n.sqrt() * root_q;
        let eq = self.err_q + 2.0 * U * q;
        self.margin(k, n, q, root_q, es, eq)
    }

    /// `E` for a `Combined::add` fold, in either direction, of `k` buckets
    /// and `n` elements whose moments `s`, `q` the rows give within `es`,
    /// `eq`: `q ≥` their exact `q` and `root_q ≥ |s|/√n`.
    fn margin(&self, k: f64, n: f64, q: f64, root_q: f64, es: f64, eq: f64) -> f64 {
        let e_hat = eq + es * (2.0 * root_q + es) + 8.0 * U * (q + root_q * root_q);
        let v_up = q + e_hat;
        let kum = k * U * self.max_abs_mean;
        let e_fold =
            (2.0 * k + 7.0) * U * v_up + 7.0 * kum * (n * v_up).sqrt() + 40.0 * n * kum * kum;
        let e_tiny = 64.0 * (k + 1.0) * (k + 1.0) * self.tiny(n);
        4.0 * (e_hat + e_fold + e_tiny)
    }
}

/// Checkpointed as the buckets (each with its `oldest`, `newest`, `n`,
/// `μ`, `V`), then `window`, `eps`, `time` and the high-water count.
impl Persist for WindowedVariance {
    fn save(&self, w: &mut ByteWriter) {
        w.put_usize(self.buckets.len());
        for (oldest, b) in self.spans() {
            w.put_u64(oldest);
            w.put_u64(b.newest);
            w.put_u64(b.newest - oldest + 1);
            w.put_f64(b.mean);
            w.put_f64(b.v);
        }
        w.put_u64(self.window);
        w.put_f64(self.eps);
        w.put_u64(self.time);
        w.put_usize(self.max_buckets_seen);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let len = r.get_len()?;
        let mut buckets = VecDeque::with_capacity(len);
        let mut oldest = None;
        for _ in 0..len {
            let (first, newest, n) = (r.get_u64()?, r.get_u64()?, r.get_u64()?);
            let (mean, v) = (r.get_f64()?, r.get_f64()?);
            if newest.checked_sub(first).and_then(|d| d.checked_add(1)) != Some(n) {
                return Err(PersistError::Corrupt(
                    "variance bucket count must match its span",
                ));
            }
            let prev = buckets.back().map(|b: &Bucket| b.newest);
            if prev.is_some_and(|p| p.checked_add(1) != Some(first)) {
                return Err(PersistError::Corrupt(
                    "variance buckets must be contiguous and ordered",
                ));
            }
            if !(mean.is_finite() && v.is_finite() && v >= 0.0) {
                return Err(PersistError::Corrupt(
                    "variance bucket moments must be finite, V ≥ 0",
                ));
            }
            oldest.get_or_insert(first);
            buckets.push_back(Bucket { newest, mean, v });
        }
        let wv = Self {
            oldest: oldest.unwrap_or(1),
            buckets,
            window: r.get_u64()?,
            eps: r.get_f64()?,
            time: r.get_u64()?,
            max_buckets_seen: r.get_usize()?,
            filter: MergeFilter::stale(),
        };
        if wv.window == 0 {
            return Err(PersistError::Corrupt("variance window must be positive"));
        }
        if !(wv.eps > 0.0 && wv.eps <= 1.0) {
            return Err(PersistError::Corrupt("variance epsilon must lie in (0, 1]"));
        }
        if wv.buckets.back().map_or(0, |b| b.newest) != wv.time {
            return Err(PersistError::Corrupt(
                "newest variance bucket must end at the stream time",
            ));
        }
        // Buckets are ordered, so the first one is the oldest.
        if wv
            .buckets
            .front()
            .is_some_and(|b| b.newest <= wv.time.saturating_sub(wv.window))
        {
            return Err(PersistError::Corrupt(
                "variance bucket lies outside the window",
            ));
        }
        Ok(wv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_window_variance(xs: &[f64], window: usize, upto: usize) -> f64 {
        let lo = upto.saturating_sub(window);
        let w = &xs[lo..upto];
        let n = w.len() as f64;
        let mean = w.iter().sum::<f64>() / n;
        w.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n
    }

    impl WindowedVariance {
        /// `push` with the merge pass the filter replaced.
        fn push_reference(&mut self, x: f64) {
            self.time += 1;
            self.expire();
            self.buckets.push_back(Bucket {
                newest: self.time,
                mean: x,
                v: 0.0,
            });
            self.merge_pass_reference();
            self.max_buckets_seen = self.max_buckets_seen.max(self.buckets.len());
        }

        /// The merge pass the filter replaced: every test recomputes the
        /// whole suffix fold.
        fn merge_pass_reference(&mut self) {
            loop {
                let m = self.buckets.len();
                if m < 3 {
                    return;
                }
                let mut suffix = vec![Combined::EMPTY; m + 1];
                for i in (0..m).rev() {
                    let b = &self.buckets[i];
                    suffix[i] = suffix[i + 1].add(self.count(i) as f64, b.mean, b.v);
                }
                let threshold = self.eps * self.eps / 9.0;
                let Some(i) = (0..m - 2).find(|&i| self.pair(i).v <= threshold * suffix[i + 2].v)
                else {
                    return;
                };
                self.buckets[i] = self.pair(i);
                self.buckets.remove(i + 1);
            }
        }
    }

    #[test]
    fn filter_keeps_reference_merges_and_fresh_pair_variances() {
        let mut state = 7u64;
        for (window, eps) in [(64, 0.2), (300, 0.05)] {
            let mut wv = WindowedVariance::new(window, eps).unwrap();
            let mut reference = wv.clone();
            for t in 0..2_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let x = (state % 1_000) as f64 / 7.0 + if t % 500 < 250 { 0.0 } else { 1e4 };
                wv.push(x);
                reference.push_reference(x);
                assert_eq!(wv.to_bytes(), reference.to_bytes(), "push {t}");
                assert_eq!(wv.filter.rows.len(), wv.buckets.len());
                for i in 0..wv.buckets.len() - 1 {
                    assert_eq!(wv.filter.rows[i].pair_v.to_bits(), wv.pair(i).v.to_bits());
                }
            }
        }
    }

    /// Checkpoint bytes of a sketch with the given `(oldest, newest, n,
    /// μ, V)` buckets.
    fn encoded(buckets: &[(u64, u64, u64, f64, f64)], window: u64, time: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_usize(buckets.len());
        for &(oldest, newest, n, mean, v) in buckets {
            w.put_u64(oldest);
            w.put_u64(newest);
            w.put_u64(n);
            w.put_f64(mean);
            w.put_f64(v);
        }
        w.put_u64(window);
        w.put_f64(0.2);
        w.put_u64(time);
        w.put_usize(buckets.len());
        w.into_bytes()
    }

    fn rejection(buckets: &[(u64, u64, u64, f64, f64)], window: u64, time: u64) -> &'static str {
        match WindowedVariance::from_bytes(&encoded(buckets, window, time)) {
            Err(PersistError::Corrupt(why)) => why,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    const VALID: [(u64, u64, u64, f64, f64); 2] = [(3, 6, 4, 1.0, 2.0), (7, 8, 2, 0.5, 0.5)];

    #[test]
    fn load_accepts_a_consistent_state_and_keeps_pushing() {
        let mut wv = WindowedVariance::from_bytes(&encoded(&VALID, 6, 8)).unwrap();
        assert_eq!(wv.to_bytes(), encoded(&VALID, 6, 8));
        wv.push(1.0);
        assert_eq!(wv.stream_len(), 9);
    }

    #[test]
    fn load_rejects_a_count_that_is_not_the_span() {
        let b = [(3, 6, 5, 1.0, 2.0), VALID[1]];
        assert_eq!(
            rejection(&b, 6, 8),
            "variance bucket count must match its span"
        );
    }

    #[test]
    fn load_rejects_gapped_or_unordered_buckets() {
        let gap = [VALID[0], (8, 8, 1, 0.5, 0.0)];
        assert_eq!(
            rejection(&gap, 6, 8),
            "variance buckets must be contiguous and ordered"
        );
        let swapped = [VALID[1], VALID[0]];
        assert_eq!(
            rejection(&swapped, 6, 8),
            "variance buckets must be contiguous and ordered"
        );
    }

    #[test]
    fn load_rejects_a_newest_bucket_not_at_the_stream_time() {
        assert_eq!(
            rejection(&VALID, 6, 9),
            "newest variance bucket must end at the stream time"
        );
        assert_eq!(
            rejection(&[], 6, 3),
            "newest variance bucket must end at the stream time"
        );
    }

    #[test]
    fn load_rejects_non_finite_or_negative_moments() {
        for (mean, v) in [
            (f64::NAN, 0.5),
            (f64::INFINITY, 0.5),
            (0.5, f64::INFINITY),
            (0.5, -1.0),
        ] {
            let b = [VALID[0], (7, 8, 2, mean, v)];
            assert_eq!(
                rejection(&b, 6, 8),
                "variance bucket moments must be finite, V ≥ 0"
            );
        }
    }

    #[test]
    fn load_rejects_a_bucket_wholly_outside_the_window() {
        assert_eq!(
            rejection(&VALID, 2, 8),
            "variance bucket lies outside the window"
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(WindowedVariance::new(0, 0.1).is_err());
        assert!(WindowedVariance::new(10, 0.0).is_err());
        assert!(WindowedVariance::new(10, 2.0).is_err());
    }

    #[test]
    fn exact_before_window_fills_with_small_input() {
        let mut wv = WindowedVariance::new(100, 0.1).unwrap();
        for &x in &[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            wv.push(x);
        }
        // Classic example: population variance 4, σ = 2.
        assert!((wv.variance() - 4.0).abs() < 0.6, "var {}", wv.variance());
    }

    #[test]
    fn tracks_uniform_ramp_within_tolerance() {
        let w = 500;
        let xs: Vec<f64> = (0..5_000).map(|i| (i % 250) as f64 / 250.0).collect();
        let mut wv = WindowedVariance::new(w, 0.2).unwrap();
        for (i, &x) in xs.iter().enumerate() {
            wv.push(x);
            if i > w {
                let truth = exact_window_variance(&xs, w, i + 1);
                let est = wv.variance();
                assert!(
                    (est - truth).abs() <= 0.25 * truth + 1e-9,
                    "at {i}: est {est} truth {truth}"
                );
            }
        }
    }

    #[test]
    fn adapts_after_distribution_shift() {
        // Constant 0.0 then constant-amplitude alternation; variance must
        // converge to the new regime once the window slides past the shift.
        let w = 200;
        let mut wv = WindowedVariance::new(w, 0.1).unwrap();
        for _ in 0..1_000 {
            wv.push(0.0);
        }
        for i in 0..1_000u32 {
            wv.push(if i % 2 == 0 { -1.0 } else { 1.0 });
        }
        // After the window is entirely past the shift, variance ≈ 1.
        assert!((wv.variance() - 1.0).abs() < 0.15, "var {}", wv.variance());
    }

    #[test]
    fn memory_stays_below_theoretical_bound() {
        let mut wv = WindowedVariance::new(10_000, 0.2).unwrap();
        let mut state = 1u64;
        for _ in 0..50_000 {
            // xorshift pseudo-random values in [0,1)
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            wv.push((state % 10_000) as f64 / 10_000.0);
        }
        assert!(
            wv.max_buckets_seen() <= wv.theoretical_bucket_bound(),
            "buckets {} exceed bound {}",
            wv.max_buckets_seen(),
            wv.theoretical_bucket_bound()
        );
    }

    #[test]
    fn zero_variance_stream() {
        let mut wv = WindowedVariance::new(64, 0.1).unwrap();
        for _ in 0..1_000 {
            wv.push(3.5);
        }
        assert!(wv.variance().abs() < 1e-12);
        assert!((wv.mean() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn mean_tracks_window() {
        let mut wv = WindowedVariance::new(100, 0.1).unwrap();
        for _ in 0..500 {
            wv.push(1.0);
        }
        for _ in 0..500 {
            wv.push(5.0);
        }
        assert!((wv.mean() - 5.0).abs() < 0.3, "mean {}", wv.mean());
    }
}
