//! P² single-quantile estimation (Jain & Chlamtac, 1985).

use crate::error::AnalyticsError;

/// Streaming estimate of one quantile using five markers and parabolic
/// interpolation — O(1) memory, no stored samples.
///
/// # Example
///
/// ```
/// use augur_analytics::P2Quantile;
///
/// let mut p99 = P2Quantile::new(0.99)?;
/// for i in 0..10_000 { p99.observe(i as f64); }
/// let est = p99.estimate().unwrap();
/// assert!((est - 9_900.0).abs() < 200.0);
/// # Ok::<(), augur_analytics::AnalyticsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    p: f64,
    count: u64,
    // Marker heights and positions (1-based as in the paper).
    q: [f64; 5],
    n: [f64; 5],
    np: [f64; 5],
    dn: [f64; 5],
    initial: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for quantile `p` in `(0, 1)`.
    ///
    /// # Errors
    ///
    /// [`AnalyticsError::InvalidParameter`] outside that range.
    pub fn new(p: f64) -> Result<Self, AnalyticsError> {
        if !(p > 0.0 && p < 1.0) {
            return Err(AnalyticsError::InvalidParameter("quantile"));
        }
        Ok(P2Quantile {
            p,
            count: 0,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            initial: Vec::with_capacity(5),
        })
    }

    /// The tracked quantile.
    pub fn quantile(&self) -> f64 {
        self.p
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial
                    .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                for i in 0..5 {
                    self.q[i] = self.initial[i];
                }
            }
            return;
        }
        // Find cell k.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            // Total for finite x in [q0, q4); 0 is a safe seat for the
            // pathological (NaN-tainted) case.
            (0..4)
                .find(|&i| x >= self.q[i] && x < self.q[i + 1])
                .unwrap_or(0)
        };
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }
        // Adjust the interior markers.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let sign = d.signum();
                let parabolic = self.parabolic(i, sign);
                if self.q[i - 1] < parabolic && parabolic < self.q[i + 1] {
                    self.q[i] = parabolic;
                } else {
                    self.q[i] = self.linear(i, sign);
                }
                self.n[i] += sign;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (qm, q0, qp) = (self.q[i - 1], self.q[i], self.q[i + 1]);
        let (nm, n0, np) = (self.n[i - 1], self.n[i], self.n[i + 1]);
        q0 + d / (np - nm)
            * ((n0 - nm + d) * (qp - q0) / (np - n0) + (np - n0 - d) * (q0 - qm) / (n0 - nm))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// The current estimate, or `None` with fewer than one observation.
    /// With fewer than five observations the exact sample quantile is
    /// returned.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.initial.len() < 5 {
            let mut v = self.initial.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let idx = ((v.len() as f64 - 1.0) * self.p).round() as usize;
            return Some(v[idx]);
        }
        Some(self.q[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn validates_quantile() {
        assert!(P2Quantile::new(0.0).is_err());
        assert!(P2Quantile::new(1.0).is_err());
        assert!(P2Quantile::new(0.5).is_ok());
    }

    #[test]
    fn median_of_uniform() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut est = P2Quantile::new(0.5).unwrap();
        for _ in 0..50_000 {
            est.observe(rng.gen_range(0.0..100.0));
        }
        let m = est.estimate().unwrap();
        assert!((m - 50.0).abs() < 2.0, "median {m}");
    }

    #[test]
    fn p99_of_exponential_like() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut est = P2Quantile::new(0.99).unwrap();
        let mut all = Vec::new();
        for _ in 0..50_000 {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let x = -u.ln(); // Exp(1)
            est.observe(x);
            all.push(x);
        }
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let true_p99 = all[(all.len() as f64 * 0.99) as usize];
        let got = est.estimate().unwrap();
        assert!(
            (got - true_p99).abs() / true_p99 < 0.15,
            "p99 {got} vs true {true_p99}"
        );
    }

    #[test]
    fn small_samples_are_exact() {
        let mut est = P2Quantile::new(0.5).unwrap();
        assert_eq!(est.estimate(), None);
        est.observe(3.0);
        assert_eq!(est.estimate(), Some(3.0));
        est.observe(1.0);
        est.observe(2.0);
        // Median of {1, 2, 3} = 2.
        assert_eq!(est.estimate(), Some(2.0));
    }

    #[test]
    fn count_tracks_observations() {
        let mut est = P2Quantile::new(0.9).unwrap();
        for i in 0..42 {
            est.observe(i as f64);
        }
        assert_eq!(est.count(), 42);
        assert_eq!(est.quantile(), 0.9);
    }
}
