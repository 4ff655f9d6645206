//! Count-Min sketch.

use super::mix64;
use crate::error::AnalyticsError;

/// A Count-Min sketch over `u64` items.
///
/// Width `w = ⌈e/ε⌉` and depth `d = ⌈ln(1/δ)⌉` give estimates with
/// `estimate ≤ true + εN` with probability at least `1 − δ` (N = total
/// count). Estimates never undercount.
///
/// # Example
///
/// ```
/// use augur_analytics::CountMinSketch;
///
/// let mut cm = CountMinSketch::with_error(0.01, 0.01)?;
/// for _ in 0..1000 { cm.add(7, 1); }
/// cm.add(8, 5);
/// assert!(cm.estimate(7) >= 1000);
/// assert!(cm.estimate(8) >= 5);
/// # Ok::<(), augur_analytics::AnalyticsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMinSketch {
    width: usize,
    depth: usize,
    counts: Vec<u64>, // depth × width, row-major
    total: u64,
}

impl CountMinSketch {
    /// Creates a sketch with explicit dimensions.
    ///
    /// # Errors
    ///
    /// [`AnalyticsError::InvalidParameter`] if either dimension is zero.
    pub fn new(width: usize, depth: usize) -> Result<Self, AnalyticsError> {
        if width == 0 {
            return Err(AnalyticsError::InvalidParameter("width"));
        }
        if depth == 0 {
            return Err(AnalyticsError::InvalidParameter("depth"));
        }
        Ok(CountMinSketch {
            width,
            depth,
            counts: vec![0; width * depth],
            total: 0,
        })
    }

    /// Creates a sketch sized for additive error `epsilon·N` with failure
    /// probability `delta`.
    ///
    /// # Errors
    ///
    /// [`AnalyticsError::InvalidParameter`] unless both are in `(0, 1)`.
    pub fn with_error(epsilon: f64, delta: f64) -> Result<Self, AnalyticsError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(AnalyticsError::InvalidParameter("epsilon"));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(AnalyticsError::InvalidParameter("delta"));
        }
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil() as usize;
        Self::new(width.max(1), depth.max(1))
    }

    fn index(&self, row: usize, item: u64) -> usize {
        let h = mix64(item ^ mix64(row as u64 + 1));
        row * self.width + (h % self.width as u64) as usize
    }

    /// Adds `count` occurrences of `item`.
    pub fn add(&mut self, item: u64, count: u64) {
        for row in 0..self.depth {
            let i = self.index(row, item);
            self.counts[i] += count;
        }
        self.total += count;
    }

    /// Point estimate of `item`'s frequency (never undercounts).
    pub fn estimate(&self, item: u64) -> u64 {
        (0..self.depth)
            .map(|row| self.counts[self.index(row, item)])
            .min()
            .unwrap_or(0)
    }

    /// Total count added.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Memory footprint in counter cells.
    pub fn cells(&self) -> usize {
        self.counts.len()
    }

    /// Merges another sketch of identical dimensions.
    ///
    /// # Errors
    ///
    /// [`AnalyticsError::InvalidParameter`] if dimensions differ.
    pub fn merge(&mut self, other: &CountMinSketch) -> Result<(), AnalyticsError> {
        if self.width != other.width || self.depth != other.depth {
            return Err(AnalyticsError::InvalidParameter("sketch dimensions"));
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_undercounts() {
        let mut cm = CountMinSketch::new(64, 4).unwrap();
        for i in 0..1000u64 {
            cm.add(i % 50, 1);
        }
        for i in 0..50u64 {
            assert!(cm.estimate(i) >= 20, "item {i}: {}", cm.estimate(i));
        }
    }

    #[test]
    fn error_bound_holds_statistically() {
        let mut cm = CountMinSketch::with_error(0.01, 0.01).unwrap();
        let n = 100_000u64;
        for i in 0..n {
            cm.add(mix64(i), 1);
        }
        // Check 100 untouched items: overestimate must be ≤ εN for the
        // vast majority.
        let bound = (0.01 * n as f64) as u64;
        let bad = (0..100u64)
            .filter(|i| cm.estimate(mix64(i + n)) > bound)
            .count();
        assert!(bad <= 3, "{bad} items exceeded the εN bound");
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(CountMinSketch::new(0, 1).is_err());
        assert!(CountMinSketch::new(1, 0).is_err());
        assert!(CountMinSketch::with_error(0.0, 0.5).is_err());
        assert!(CountMinSketch::with_error(0.5, 1.0).is_err());
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = CountMinSketch::new(32, 3).unwrap();
        let mut b = CountMinSketch::new(32, 3).unwrap();
        a.add(1, 10);
        b.add(1, 5);
        b.add(2, 7);
        a.merge(&b).unwrap();
        assert!(a.estimate(1) >= 15);
        assert!(a.estimate(2) >= 7);
        assert_eq!(a.total(), 22);
        let c = CountMinSketch::new(16, 3).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let cm = CountMinSketch::new(8, 2).unwrap();
        assert_eq!(cm.estimate(42), 0);
        assert_eq!(cm.total(), 0);
    }
}
