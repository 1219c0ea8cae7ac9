//! A Section 9 application of the estimation framework.
//!
//! *"An accurate online approximation of the probability density function
//! allows us to solve a number of problems in a sensor network."* The
//! faulty-sensor one runs in-network as [`crate::MonitorNode`]; this
//! module holds the other:
//!
//! * [`OutlierCountAlarm`] — *"Give a warning if the number of outliers
//!   in a given region exceeds a given threshold T over the most recent
//!   time window W"*, built on the exponential histogram so the alarm
//!   itself stays within sketch memory.

use snod_sketch::ExpHistogram;

use crate::config::CoreError;

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

snod_persist::persist_struct! {
    OutlierCountAlarm {
        counter,
        threshold,
    }
    check: none
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
