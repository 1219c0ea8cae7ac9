//! The Section 9 applications of the estimation framework.
//!
//! *"An accurate online approximation of the probability density function
//! allows us to solve a number of problems in a sensor network."* Two
//! of them are implemented here:
//!
//! * [`detect_faulty_sensors`] — *"a parent sensor can compute the
//!   difference between the estimator models received from its children,
//!   to determine if any of them is faulty"*, using the JS-divergence of
//!   Section 6.
//! * [`OutlierCountAlarm`] — *"Give a warning if the number of outliers
//!   in a given region exceeds a given threshold T over the most recent
//!   time window W"*, built on the exponential histogram so the alarm
//!   itself stays within sketch memory.

use snod_density::{js_divergence_models, DensityModel, GridDiscretization};
use snod_persist::{ByteReader, ByteWriter, Persist, PersistError};
use snod_sketch::ExpHistogram;

use crate::config::CoreError;

/// Flags children whose estimator model diverges from their siblings.
///
/// For each model, the **minimum** JS-divergence to any sibling is
/// computed on a `grid_k` grid; indices whose minimum exceeds
/// `threshold` are reported. The minimum (rather than the mean) makes
/// the attribution robust: one genuinely faulty sensor would inflate
/// every healthy sibling's *mean* by `d/(l−1)`, while each healthy
/// sensor always has a healthy sibling at small minimum distance. Needs
/// at least three children to be meaningful (with two you cannot tell
/// which one is faulty); with fewer, returns empty.
pub fn detect_faulty_sensors<M: DensityModel>(
    models: &[M],
    grid_k: usize,
    threshold: f64,
) -> Result<Vec<usize>, CoreError> {
    if models.len() < 3 {
        return Ok(Vec::new());
    }
    let dims = models[0].dims();
    let grid = GridDiscretization::new(dims, grid_k).map_err(CoreError::Density)?;
    let probs: Vec<Vec<f64>> = models
        .iter()
        .map(|m| grid.cell_probs(m).map_err(CoreError::Density))
        .collect::<Result<_, _>>()?;
    let n = models.len();
    let mut flagged = Vec::new();
    for i in 0..n {
        let mut min_div = f64::INFINITY;
        for (j, q) in probs.iter().enumerate() {
            if i != j {
                min_div = min_div.min(snod_density::js_divergence(&probs[i], q));
            }
        }
        if min_div > threshold {
            flagged.push(i);
        }
    }
    Ok(flagged)
}

/// Mean pairwise JS-divergence between two concrete models — the §9
/// primitive exposed directly (e.g. for dashboards).
pub fn model_distance<A: DensityModel + ?Sized, B: DensityModel + ?Sized>(
    a: &A,
    b: &B,
    grid_k: usize,
) -> Result<f64, CoreError> {
    js_divergence_models(a, b, grid_k).map_err(CoreError::Density)
}

/// Windowed outlier-count alarm: *"warn if the number of outliers in a
/// given region exceeds T over the most recent window W"*.
#[derive(Debug, Clone)]
pub struct OutlierCountAlarm {
    counter: ExpHistogram,
    threshold: u64,
}

impl OutlierCountAlarm {
    /// Alarm over the last `window` readings with trigger `threshold`,
    /// counting with relative error `eps`.
    pub fn new(window: usize, threshold: u64, eps: f64) -> Result<Self, CoreError> {
        Ok(Self {
            counter: ExpHistogram::new(window, eps).map_err(CoreError::Sketch)?,
            threshold,
        })
    }

    /// Records one reading's verdict.
    pub fn record(&mut self, is_outlier: bool) {
        self.counter.push(is_outlier);
    }

    /// Estimated outliers in the window.
    pub fn estimate(&self) -> u64 {
        self.counter.estimate()
    }

    /// True when the estimated count exceeds the threshold.
    pub fn alarmed(&self) -> bool {
        self.counter.estimate() > self.threshold
    }
}

impl Persist for OutlierCountAlarm {
    fn save(&self, w: &mut ByteWriter) {
        self.counter.save(w);
        self.threshold.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            counter: ExpHistogram::load(r)?,
            threshold: u64::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snod_density::Kde1d;

    fn model_at(center: f64, n: usize) -> Kde1d {
        let xs: Vec<f64> = (0..n).map(|i| center + 0.002 * ((i % 25) as f64)).collect();
        Kde1d::from_sample(&xs, 0.02, 1_000.0).unwrap()
    }

    #[test]
    fn faulty_sensor_stands_out() {
        let healthy: Vec<Kde1d> = (0..4).map(|_| model_at(0.5, 100)).collect();
        let mut models = healthy;
        models.push(model_at(0.9, 100)); // the faulty one
        let flagged = detect_faulty_sensors(&models, 64, 0.5).unwrap();
        assert_eq!(flagged, vec![4]);
    }

    #[test]
    fn no_faults_when_siblings_agree() {
        let models: Vec<Kde1d> = (0..4)
            .map(|i| model_at(0.5 + 0.001 * i as f64, 100))
            .collect();
        assert!(detect_faulty_sensors(&models, 64, 0.5).unwrap().is_empty());
    }

    #[test]
    fn too_few_siblings_yield_no_verdict() {
        let models = vec![model_at(0.2, 50), model_at(0.8, 50)];
        assert!(detect_faulty_sensors(&models, 32, 0.1).unwrap().is_empty());
    }

    #[test]
    fn outlier_alarm_trips_and_recovers() {
        let mut alarm = OutlierCountAlarm::new(100, 5, 0.1).unwrap();
        for _ in 0..50 {
            alarm.record(false);
        }
        assert!(!alarm.alarmed());
        for _ in 0..10 {
            alarm.record(true);
        }
        assert!(alarm.alarmed(), "estimate {}", alarm.estimate());
        for _ in 0..200 {
            alarm.record(false);
        }
        assert!(!alarm.alarmed());
    }

    #[test]
    fn model_distance_is_symmetric_enough() {
        let a = model_at(0.3, 100);
        let b = model_at(0.7, 100);
        let ab = model_distance(&a, &b, 64).unwrap();
        let ba = model_distance(&b, &a, 64).unwrap();
        assert!((ab - ba).abs() < 1e-12);
        assert!(ab > 0.8);
    }
}
