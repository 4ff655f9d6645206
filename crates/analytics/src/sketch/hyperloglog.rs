//! HyperLogLog cardinality estimation.

use super::mix64;
use crate::error::AnalyticsError;

/// A HyperLogLog estimator over `u64` items.
///
/// With `2^precision` registers, the relative standard error is about
/// `1.04 / sqrt(2^precision)` (~1.6 % at precision 12). Includes the
/// standard small-range (linear counting) correction.
///
/// # Example
///
/// ```
/// use augur_analytics::HyperLogLog;
///
/// let mut hll = HyperLogLog::new(12)?;
/// for i in 0..10_000u64 { hll.add(i); }
/// let est = hll.estimate();
/// assert!((est - 10_000.0).abs() / 10_000.0 < 0.05);
/// # Ok::<(), augur_analytics::AnalyticsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    precision: u8,
    registers: Vec<u8>,
}

impl HyperLogLog {
    /// Creates an estimator with `2^precision` registers, 4 ≤ precision ≤ 16.
    ///
    /// # Errors
    ///
    /// [`AnalyticsError::InvalidParameter`] outside that range.
    pub fn new(precision: u8) -> Result<Self, AnalyticsError> {
        if !(4..=16).contains(&precision) {
            return Err(AnalyticsError::InvalidParameter("precision"));
        }
        Ok(HyperLogLog {
            precision,
            registers: vec![0; 1 << precision],
        })
    }

    /// Adds an item.
    pub fn add(&mut self, item: u64) {
        let h = mix64(item);
        let idx = (h >> (64 - self.precision)) as usize;
        let rest = h << self.precision;
        // Rank: position of the leftmost 1 in the remaining bits, 1-based;
        // all-zero rest gets the maximum rank.
        let rank = (rest.leading_zeros() + 1).min(64 - self.precision as u32 + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// The cardinality estimate.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            n => 0.7213 / (1.0 + 1.079 / n as f64),
        };
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2.0f64.powi(-(r as i32)))
            .sum();
        let raw = alpha * m * m / sum;
        // Small-range correction: linear counting when registers are
        // mostly empty.
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// Merges another estimator of identical precision (register-wise max).
    ///
    /// # Errors
    ///
    /// [`AnalyticsError::InvalidParameter`] if precisions differ.
    pub fn merge(&mut self, other: &HyperLogLog) -> Result<(), AnalyticsError> {
        if self.precision != other.precision {
            return Err(AnalyticsError::InvalidParameter("precision"));
        }
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
        Ok(())
    }

    /// Number of registers.
    pub fn registers(&self) -> usize {
        self.registers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_within_expected_error() {
        for &n in &[100u64, 1_000, 50_000, 500_000] {
            let mut hll = HyperLogLog::new(12).unwrap();
            for i in 0..n {
                hll.add(i.wrapping_mul(0x9e37_79b9));
            }
            let est = hll.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            assert!(rel < 0.08, "n={n}: estimate {est}, rel error {rel}");
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut hll = HyperLogLog::new(10).unwrap();
        for _ in 0..100 {
            for i in 0..500u64 {
                hll.add(i);
            }
        }
        let est = hll.estimate();
        assert!((est - 500.0).abs() / 500.0 < 0.1, "estimate {est}");
    }

    #[test]
    fn small_range_correction_is_accurate() {
        let mut hll = HyperLogLog::new(12).unwrap();
        for i in 0..10u64 {
            hll.add(i);
        }
        let est = hll.estimate();
        assert!((est - 10.0).abs() < 2.0, "estimate {est}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(12).unwrap();
        let mut b = HyperLogLog::new(12).unwrap();
        let mut u = HyperLogLog::new(12).unwrap();
        for i in 0..5_000u64 {
            a.add(i);
            u.add(i);
        }
        for i in 2_500..7_500u64 {
            b.add(i);
            u.add(i);
        }
        a.merge(&b).unwrap();
        assert!((a.estimate() - u.estimate()).abs() < 1e-9);
    }

    #[test]
    fn precision_validation() {
        assert!(HyperLogLog::new(3).is_err());
        assert!(HyperLogLog::new(17).is_err());
        assert!(HyperLogLog::new(4).is_ok());
        let a = HyperLogLog::new(10).unwrap();
        let mut b = HyperLogLog::new(12).unwrap();
        assert!(b.merge(&a).is_err());
    }

    #[test]
    fn empty_estimates_zero() {
        let hll = HyperLogLog::new(8).unwrap();
        assert_eq!(hll.estimate(), 0.0);
    }
}
