//! Exponential histogram for windowed counting (Datar–Gionis–Indyk–Motwani).
//!
//! Counts how many of the last `|W|` stream events satisfied a predicate
//! (how many "1" bits arrived), with relative error ε and
//! `O((1/ε)·log|W|)` buckets. This is the classic building block behind
//! windowed aggregates; the paper's variance estimator (see
//! [`crate::WindowedVariance`]) uses the same bucket discipline with richer
//! per-bucket statistics. We also use it directly to track windowed outlier
//! counts for the §9 application *"warn when the number of outliers in a
//! region exceeds T over the most recent window W"*.

use std::collections::VecDeque;

use snod_persist::PersistError;

use crate::SketchError;

/// One bucket: `size` ones whose newest arrival was at time `newest`.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    newest: u64,
    size: u64,
}

/// ε-approximate count of ones over a sliding window.
///
/// ```
/// use snod_sketch::ExpHistogram;
/// let mut eh = ExpHistogram::new(1_000, 0.1).unwrap();
/// for i in 0..10_000u64 {
///     eh.push(i % 3 == 0);
/// }
/// let est = eh.estimate() as f64;
/// let truth = 1_000.0 / 3.0;
/// assert!((est - truth).abs() / truth < 0.1 + 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct ExpHistogram {
    /// Buckets ordered oldest → newest.
    buckets: VecDeque<Bucket>,
    window: u64,
    /// Maximum buckets allowed per size class before the two oldest merge.
    max_per_size: usize,
    time: u64,
}

impl ExpHistogram {
    /// Creates a histogram over a window of `window` events with relative
    /// counting error at most `eps`.
    pub fn new(window: usize, eps: f64) -> Result<Self, SketchError> {
        if window == 0 {
            return Err(SketchError::ZeroSize("window capacity"));
        }
        if !(eps > 0.0 && eps <= 1.0) {
            return Err(SketchError::InvalidEpsilon);
        }
        let max_per_size = ((1.0 / eps).ceil() as usize).max(2);
        Ok(Self {
            buckets: VecDeque::new(),
            window: window as u64,
            max_per_size,
            time: 0,
        })
    }

    /// Advances the clock by one event; records a one when `bit` is true.
    pub fn push(&mut self, bit: bool) {
        self.time += 1;
        self.expire();
        if !bit {
            return;
        }
        self.buckets.push_back(Bucket {
            newest: self.time,
            size: 1,
        });
        self.cascade();
    }

    fn expire(&mut self) {
        let horizon = self.time.saturating_sub(self.window);
        while let Some(front) = self.buckets.front() {
            if front.newest <= horizon {
                self.buckets.pop_front();
            } else {
                break;
            }
        }
    }

    /// Merges the two oldest buckets of any size class that exceeds the
    /// per-size budget, cascading upward through size classes.
    fn cascade(&mut self) {
        let mut size = 1u64;
        loop {
            // Indices of buckets with exactly this size, oldest first.
            let idxs: Vec<usize> = self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, b)| b.size == size)
                .map(|(i, _)| i)
                .collect();
            if idxs.len() <= self.max_per_size {
                break;
            }
            let (a, b) = (idxs[0], idxs[1]);
            let merged = Bucket {
                newest: self.buckets[b].newest,
                size: 2 * size,
            };
            self.buckets[b] = merged;
            self.buckets.remove(a);
            size *= 2;
        }
    }

    /// Estimated number of ones in the current window: all full buckets
    /// plus half the (possibly straddling) oldest bucket.
    pub fn estimate(&self) -> u64 {
        let mut it = self.buckets.iter();
        let Some(oldest) = it.next() else {
            return 0;
        };
        let rest: u64 = it.map(|b| b.size).sum();
        rest + oldest.size.div_ceil(2)
    }

    /// Number of buckets currently stored.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Events observed so far.
    pub fn stream_len(&self) -> u64 {
        self.time
    }
}

snod_persist::persist_struct! {
    Bucket {
        newest,
        size,
    }
    check: none
}

snod_persist::persist_struct! {
    ExpHistogram {
        buckets,
        window,
        max_per_size,
        time,
    }
    check: ExpHistogram::check_loaded
}

impl ExpHistogram {
    fn check_loaded(&self) -> Result<(), PersistError> {
        if self.window == 0 {
            return Err(PersistError::Corrupt("histogram window must be positive"));
        }
        if self.max_per_size < 2 {
            return Err(PersistError::Corrupt("histogram per-size budget below 2"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_count(bits: &[bool], window: usize, upto: usize) -> u64 {
        let lo = upto.saturating_sub(window);
        bits[lo..upto].iter().filter(|&&b| b).count() as u64
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ExpHistogram::new(0, 0.1).is_err());
        assert!(ExpHistogram::new(10, 0.0).is_err());
        assert!(ExpHistogram::new(10, 1.5).is_err());
    }

    #[test]
    fn exact_when_few_ones() {
        let mut eh = ExpHistogram::new(100, 0.5).unwrap();
        eh.push(true);
        eh.push(false);
        eh.push(true);
        assert_eq!(eh.estimate(), 2);
    }

    #[test]
    fn all_ones_within_relative_error() {
        let w = 512;
        let eps = 0.1;
        let mut eh = ExpHistogram::new(w, eps).unwrap();
        let bits: Vec<bool> = (0..5_000).map(|_| true).collect();
        for (i, &b) in bits.iter().enumerate() {
            eh.push(b);
            let truth = exact_count(&bits, w, i + 1);
            let est = eh.estimate();
            let err = (est as f64 - truth as f64).abs() / truth as f64;
            assert!(err <= eps + 0.02, "at {i}: est {est} truth {truth}");
        }
    }

    #[test]
    fn periodic_pattern_within_relative_error() {
        let w = 300;
        let eps = 0.2;
        let mut eh = ExpHistogram::new(w, eps).unwrap();
        let bits: Vec<bool> = (0..4_000u64).map(|i| i % 7 < 3).collect();
        for (i, &b) in bits.iter().enumerate() {
            eh.push(b);
            if i < w {
                continue;
            }
            let truth = exact_count(&bits, w, i + 1) as f64;
            let est = eh.estimate() as f64;
            assert!(
                (est - truth).abs() / truth <= eps + 0.05,
                "at {i}: est {est} truth {truth}"
            );
        }
    }

    #[test]
    fn buckets_stay_logarithmic() {
        let mut eh = ExpHistogram::new(10_000, 0.1).unwrap();
        let mut max_buckets = 0;
        for _ in 0..100_000 {
            eh.push(true);
            max_buckets = max_buckets.max(eh.bucket_count());
        }
        // (1/eps) * log2(W) ≈ 10 * 13.3; allow slack for the straddling class.
        assert!(max_buckets <= 160, "bucket count {max_buckets} too large");
    }

    #[test]
    fn window_slides_old_ones_out() {
        let mut eh = ExpHistogram::new(10, 0.25).unwrap();
        for _ in 0..10 {
            eh.push(true);
        }
        for _ in 0..50 {
            eh.push(false);
        }
        assert_eq!(eh.estimate(), 0);
    }
}
