//! Exact sliding-window distance-outlier detection with a grid index.
//!
//! The approximate detectors exist because sensors cannot afford
//! `O(|W|)` memory — but the *root of the hierarchy* (the paper's
//! centralized baseline) and any downstream user on real hardware can.
//! [`ExactWindowDetector`] maintains the exact window in a uniform grid
//! of cell width `r`, so an L∞ neighbor count probes at most `3^d`
//! cells and stops early at the decision threshold: `O(t)` amortised
//! per verdict instead of the naive `O(|W|)`.

use std::collections::{HashMap, VecDeque};

use snod_persist::{ByteReader, ByteWriter, Persist, PersistError};

use crate::distance::DistanceOutlierConfig;

/// Exact `(D, r)`-outlier detection over the last `capacity` readings.
///
/// ```
/// use snod_outlier::exact::ExactWindowDetector;
/// use snod_outlier::DistanceOutlierConfig;
///
/// let rule = DistanceOutlierConfig::new(3.0, 0.05);
/// let mut det = ExactWindowDetector::new(rule.radius, 100);
/// for i in 0..100 {
///     det.push(vec![0.5 + 0.0001 * i as f64]);
/// }
/// assert!(!det.is_outlier(&[0.5], &rule));  // dense region
/// assert!(det.is_outlier(&[0.9], &rule));   // empty region
/// ```
#[derive(Debug, Clone)]
pub struct ExactWindowDetector {
    radius: f64,
    capacity: usize,
    order: VecDeque<Vec<f64>>,
    cells: HashMap<Vec<i64>, Vec<Vec<f64>>>,
}

impl ExactWindowDetector {
    /// A detector with grid cell width `radius` holding at most
    /// `capacity` readings.
    ///
    /// # Panics
    /// Panics when `radius ≤ 0` or `capacity == 0` (construction-time
    /// programming errors).
    pub fn new(radius: f64, capacity: usize) -> Self {
        assert!(radius > 0.0, "radius must be positive");
        assert!(capacity > 0, "capacity must be positive");
        Self {
            radius,
            capacity,
            order: VecDeque::with_capacity(capacity),
            cells: HashMap::new(),
        }
    }

    fn key(&self, p: &[f64]) -> Vec<i64> {
        p.iter()
            .map(|&c| (c / self.radius).floor() as i64)
            .collect()
    }

    /// Appends a reading, evicting (and returning) the oldest when full.
    pub fn push(&mut self, p: Vec<f64>) -> Option<Vec<f64>> {
        let evicted = if self.order.len() == self.capacity {
            let old = self.order.pop_front().expect("non-empty at capacity");
            let k = self.key(&old);
            if let Some(bucket) = self.cells.get_mut(&k) {
                if let Some(pos) = bucket.iter().position(|q| *q == old) {
                    bucket.swap_remove(pos);
                }
                if bucket.is_empty() {
                    self.cells.remove(&k);
                }
            }
            Some(old)
        } else {
            None
        };
        self.cells.entry(self.key(&p)).or_default().push(p.clone());
        self.order.push_back(p);
        evicted
    }

    /// Readings currently held.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no reading is held.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Exact number of window readings within L∞ `radius` of `p`,
    /// stopping early once `stop_at` is reached (the verdict is fixed
    /// past the threshold).
    pub fn count_neighbors(&self, p: &[f64], stop_at: usize) -> usize {
        let d = p.len();
        let base = self.key(p);
        let mut count = 0usize;
        let total = 3usize.pow(d as u32);
        let mut probe = vec![0i64; d];
        for flat in 0..total {
            let mut rem = flat;
            for j in 0..d {
                probe[j] = base[j] + (rem % 3) as i64 - 1;
                rem /= 3;
            }
            if let Some(bucket) = self.cells.get(&probe) {
                for q in bucket {
                    let within = p
                        .iter()
                        .zip(q.iter())
                        .all(|(a, b)| (a - b).abs() <= self.radius);
                    if within {
                        count += 1;
                        if count >= stop_at {
                            return count;
                        }
                    }
                }
            }
        }
        count
    }

    /// `(D, r)`-outlier verdict for a *new observation* `p` against the
    /// current window (exact, `p` not counted even if a bit-identical
    /// reading is indexed — pass readings through [`Self::push`]
    /// *after* testing them).
    ///
    /// `rule.radius` must equal the detector's grid radius.
    pub fn is_outlier(&self, p: &[f64], rule: &DistanceOutlierConfig) -> bool {
        debug_assert!(
            (rule.radius - self.radius).abs() < 1e-12,
            "rule radius must match the index radius"
        );
        let stop = rule.min_neighbors.ceil() as usize;
        (self.count_neighbors(p, stop) as f64) < rule.min_neighbors
    }

    /// Like [`Self::is_outlier`] for a reading already pushed into the
    /// window: one occurrence (itself) is discounted.
    pub fn is_outlier_indexed(&self, p: &[f64], rule: &DistanceOutlierConfig) -> bool {
        let stop = rule.min_neighbors.ceil() as usize + 1;
        let n = self.count_neighbors(p, stop).saturating_sub(1);
        (n as f64) < rule.min_neighbors
    }

    /// Grid cells currently occupied (memory diagnostic).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }
}

/// Only the window itself is saved; the grid index is rebuilt on load by
/// re-pushing it. A neighbour count does not depend on the order of the
/// readings inside a cell, so the rebuilt detector answers identically.
impl Persist for ExactWindowDetector {
    fn save(&self, w: &mut ByteWriter) {
        self.radius.save(w);
        self.capacity.save(w);
        self.order.save(w);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let radius = f64::load(r)?;
        let capacity = usize::load(r)?;
        let order = VecDeque::<Vec<f64>>::load(r)?;
        let corrupt = |why| Err(PersistError::Corrupt(why));
        if !(radius > 0.0 && radius.is_finite()) {
            return corrupt("exact window radius must be positive and finite");
        }
        if capacity == 0 {
            return corrupt("exact window capacity must be positive");
        }
        if order.len() > capacity {
            return corrupt("exact window holds more readings than its capacity");
        }
        if order.iter().flatten().any(|c| !c.is_finite()) {
            return corrupt("exact window readings must be finite");
        }
        let mut det = Self::new(radius, capacity);
        for p in order {
            det.push(p);
        }
        Ok(det)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::distance_outliers;

    #[test]
    fn matches_brute_force_on_random_data() {
        let rule = DistanceOutlierConfig::new(4.0, 0.03);
        let pts: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![((i * 37) % 173) as f64 / 173.0])
            .collect();
        let mut det = ExactWindowDetector::new(rule.radius, pts.len());
        for p in &pts {
            det.push(p.clone());
        }
        let flags = distance_outliers(&pts, &rule);
        for (p, &expected) in pts.iter().zip(flags.iter()) {
            assert_eq!(det.is_outlier_indexed(p, &rule), expected, "at {p:?}");
        }
    }

    #[test]
    fn window_slides_exactly() {
        let rule = DistanceOutlierConfig::new(1.0, 0.1);
        let mut det = ExactWindowDetector::new(rule.radius, 5);
        for i in 0..10 {
            let evicted = det.push(vec![i as f64]);
            assert_eq!(evicted.is_some(), i >= 5);
        }
        assert_eq!(det.len(), 5);
        // Values 0..=4 are gone.
        assert_eq!(det.count_neighbors(&[0.0], usize::MAX), 0);
        assert_eq!(det.count_neighbors(&[7.0], usize::MAX), 1);
    }

    #[test]
    fn early_exit_matches_full_count_verdicts() {
        let rule = DistanceOutlierConfig::new(10.0, 0.05);
        let mut det = ExactWindowDetector::new(rule.radius, 1_000);
        for i in 0..1_000 {
            det.push(vec![0.5 + 0.00005 * (i % 100) as f64]);
        }
        // The early-exit count saturates at the threshold…
        assert_eq!(det.count_neighbors(&[0.5], 10), 10);
        // …and the verdict agrees with an unbounded count.
        assert!(!det.is_outlier(&[0.5], &rule));
        assert_eq!(det.count_neighbors(&[0.5], usize::MAX), 1_000);
    }

    #[test]
    fn two_dimensional_boxes() {
        let rule = DistanceOutlierConfig::new(2.0, 0.1);
        let mut det = ExactWindowDetector::new(rule.radius, 100);
        det.push(vec![0.5, 0.5]);
        det.push(vec![0.58, 0.58]);
        // Both within L∞ 0.1 of (0.54, 0.54).
        assert_eq!(det.count_neighbors(&[0.54, 0.54], usize::MAX), 2);
        // (0.58, 0.38) is within 0.1 of neither in both coordinates.
        assert_eq!(det.count_neighbors(&[0.58, 0.38], usize::MAX), 0);
        assert!(det.is_outlier(&[0.58, 0.38], &rule));
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_panics() {
        let _ = ExactWindowDetector::new(0.0, 10);
    }

    #[test]
    fn save_load_keeps_verdicts_and_keeps_sliding() {
        let rule = DistanceOutlierConfig::new(3.0, 0.05);
        let mut det = ExactWindowDetector::new(rule.radius, 50);
        for i in 0..80 {
            det.push(vec![((i * 37) % 23) as f64 / 23.0]);
        }
        let mut restored = ExactWindowDetector::from_bytes(&det.to_bytes()).unwrap();
        assert_eq!(restored.to_bytes(), det.to_bytes());
        for i in 0..40 {
            let p = vec![((i * 11) % 19) as f64 / 19.0];
            assert_eq!(restored.push(p.clone()), det.push(p.clone()));
            assert_eq!(
                restored.is_outlier_indexed(&p, &rule),
                det.is_outlier_indexed(&p, &rule)
            );
            assert_eq!(restored.cell_count(), det.cell_count());
        }
    }

    /// Why `load` rejects a checkpoint with the given fields.
    fn rejection(radius: f64, capacity: usize, order: &[Vec<f64>]) -> &'static str {
        let mut w = ByteWriter::new();
        (radius, capacity, order.to_vec()).save(&mut w);
        match ExactWindowDetector::from_bytes(&w.into_bytes()) {
            Err(PersistError::Corrupt(why)) => why,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_a_bad_radius() {
        for radius in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            assert_eq!(
                rejection(radius, 4, &[vec![0.5]]),
                "exact window radius must be positive and finite"
            );
        }
    }

    #[test]
    fn load_rejects_a_zero_capacity() {
        assert_eq!(
            rejection(0.1, 0, &[]),
            "exact window capacity must be positive"
        );
    }

    #[test]
    fn load_rejects_more_readings_than_capacity() {
        assert_eq!(
            rejection(0.1, 2, &[vec![0.1], vec![0.2], vec![0.3]]),
            "exact window holds more readings than its capacity"
        );
    }

    #[test]
    fn load_rejects_a_non_finite_coordinate() {
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(
                rejection(0.1, 4, &[vec![0.1, 0.2], vec![0.3, bad]]),
                "exact window readings must be finite"
            );
        }
    }

    #[test]
    fn duplicate_values_evict_one_at_a_time() {
        let rule = DistanceOutlierConfig::new(5.0, 0.1);
        let mut det = ExactWindowDetector::new(rule.radius, 3);
        for _ in 0..3 {
            det.push(vec![0.5]);
        }
        det.push(vec![0.9]); // evicts one 0.5, two remain
        assert_eq!(det.count_neighbors(&[0.5], usize::MAX), 2);
        assert_eq!(det.len(), 3);
    }
}
