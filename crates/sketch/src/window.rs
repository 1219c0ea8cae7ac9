//! Exact sliding window over a stream.
//!
//! The brute-force baselines of the paper (`BruteForce-D`, `BruteForce-M`,
//! the offline equi-depth histogram) are defined over the *exact* content of
//! the sliding window `W`. A plain ring buffer is the honest implementation
//! of that: `O(|W|)` memory, `O(1)` amortised insert.

use std::collections::VecDeque;

use snod_persist::{Persist, PersistError};

use crate::SketchError;

/// A fixed-capacity sliding window holding the most recent `capacity`
/// elements of a stream.
///
/// ```
/// use snod_sketch::SlidingWindow;
/// let mut w = SlidingWindow::new(3).unwrap();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     w.push(x);
/// }
/// assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![2.0, 3.0, 4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow<T> {
    buf: VecDeque<T>,
    capacity: usize,
    /// Total number of elements ever pushed (stream position).
    pushed: u64,
}

impl<T> SlidingWindow<T> {
    /// Creates a window holding at most `capacity` elements.
    pub fn new(capacity: usize) -> Result<Self, SketchError> {
        if capacity == 0 {
            return Err(SketchError::ZeroSize("window capacity"));
        }
        Ok(Self {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            pushed: 0,
        })
    }

    /// Appends `value`, evicting the oldest element if the window is full.
    /// Returns the evicted element, if any.
    pub fn push(&mut self, value: T) -> Option<T> {
        self.pushed += 1;
        let evicted = if self.buf.len() == self.capacity {
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(value);
        evicted
    }

    /// Number of elements currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no element has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured maximum window length `|W|`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True once the window has reached its full length.
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.capacity
    }

    /// Total number of elements ever pushed through the window.
    pub fn stream_len(&self) -> u64 {
        self.pushed
    }

    /// Iterates oldest-to-newest over the current content.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// The most recently pushed element.
    pub fn newest(&self) -> Option<&T> {
        self.buf.back()
    }

    /// The oldest element still in the window.
    pub fn oldest(&self) -> Option<&T> {
        self.buf.front()
    }
}

impl<T: Clone> SlidingWindow<T> {
    /// Copies the window content (oldest first) into a `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.buf.iter().cloned().collect()
    }
}

snod_persist::persist_struct! {
    impl[T: Persist] SlidingWindow<T> {
        buf,
        capacity,
        pushed,
    }
    check: SlidingWindow::check_loaded
}

impl<T> SlidingWindow<T> {
    fn check_loaded(&self) -> Result<(), PersistError> {
        if self.capacity == 0 {
            return Err(PersistError::Corrupt("window capacity must be positive"));
        }
        if self.buf.len() > self.capacity {
            return Err(PersistError::Corrupt("window holds more than its capacity"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_rejected() {
        assert!(matches!(
            SlidingWindow::<f64>::new(0),
            Err(SketchError::ZeroSize(_))
        ));
    }

    #[test]
    fn fills_then_slides() {
        let mut w = SlidingWindow::new(4).unwrap();
        assert!(w.is_empty());
        for i in 0..4 {
            assert_eq!(w.push(i), None);
        }
        assert!(w.is_full());
        assert_eq!(w.push(4), Some(0));
        assert_eq!(w.push(5), Some(1));
        assert_eq!(w.to_vec(), vec![2, 3, 4, 5]);
        assert_eq!(w.stream_len(), 6);
    }

    #[test]
    fn newest_and_oldest_track_ends() {
        let mut w = SlidingWindow::new(2).unwrap();
        assert_eq!(w.newest(), None);
        w.push(10);
        assert_eq!((w.oldest(), w.newest()), (Some(&10), Some(&10)));
        w.push(20);
        w.push(30);
        assert_eq!((w.oldest(), w.newest()), (Some(&20), Some(&30)));
    }

    #[test]
    fn len_never_exceeds_capacity() {
        let mut w = SlidingWindow::new(3).unwrap();
        for i in 0..100 {
            w.push(i);
            assert!(w.len() <= 3);
        }
        assert_eq!(w.len(), 3);
    }
}
