//! Streaming anomaly detection for the healthcare scenario (§3.3, E9).
//!
//! Two detectors with different sensitivity/latency profiles:
//!
//! - [`ThresholdDetector`]: fires when `m` of the last `n` samples breach
//!   a static range — what a clinician would configure, robust to single
//!   noisy samples.
//! - [`EwmaDetector`]: fires when a sample deviates more than `k` sigma
//!   from an exponentially weighted moving baseline — adapts per patient
//!   without configuration.

use crate::error::AnalyticsError;

/// A raised alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyAlert {
    /// Sample time (caller's clock, microseconds).
    pub t_us: u64,
    /// The offending value.
    pub value: f64,
    /// How far outside the expected range, in detector-specific units
    /// (threshold distance or sigmas).
    pub severity: f64,
}

/// `m`-of-`n` static-range detector; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdDetector {
    lo: f64,
    hi: f64,
    m: usize,
    n: usize,
    recent_breaches: Vec<bool>,
    active: bool,
}

impl ThresholdDetector {
    /// Creates a detector firing when `m` of the last `n` samples fall
    /// outside `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// [`AnalyticsError::InvalidParameter`] if `lo >= hi`, `m == 0`,
    /// `n == 0`, or `m > n`.
    pub fn new(lo: f64, hi: f64, m: usize, n: usize) -> Result<Self, AnalyticsError> {
        if lo >= hi {
            return Err(AnalyticsError::InvalidParameter("lo >= hi"));
        }
        if m == 0 || n == 0 || m > n {
            return Err(AnalyticsError::InvalidParameter("m-of-n"));
        }
        Ok(ThresholdDetector {
            lo,
            hi,
            m,
            n,
            recent_breaches: Vec::new(),
            active: false,
        })
    }

    /// Feeds a sample; returns an alert on the rising edge (the detector
    /// re-arms once values return in range).
    pub fn observe(&mut self, t_us: u64, value: f64) -> Option<AnomalyAlert> {
        let breach = value < self.lo || value > self.hi;
        self.recent_breaches.push(breach);
        if self.recent_breaches.len() > self.n {
            self.recent_breaches.remove(0);
        }
        let breaches = self.recent_breaches.iter().filter(|b| **b).count();
        if breaches >= self.m {
            if !self.active {
                self.active = true;
                let severity = if value > self.hi {
                    value - self.hi
                } else if value < self.lo {
                    self.lo - value
                } else {
                    0.0
                };
                return Some(AnomalyAlert {
                    t_us,
                    value,
                    severity,
                });
            }
        } else if breaches == 0 {
            self.active = false;
        }
        None
    }

    /// Whether the detector is currently in the alerted state.
    pub fn is_active(&self) -> bool {
        self.active
    }
}

/// EWMA baseline detector; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct EwmaDetector {
    alpha: f64,
    k_sigma: f64,
    warmup: usize,
    seen: usize,
    mean: f64,
    var: f64,
    active: bool,
}

impl EwmaDetector {
    /// Creates a detector: baseline EWMA with smoothing `alpha`, alerting
    /// past `k_sigma` deviations, after `warmup` samples.
    ///
    /// # Errors
    ///
    /// [`AnalyticsError::InvalidParameter`] if `alpha` outside `(0, 1)`,
    /// `k_sigma <= 0`, or `warmup == 0`.
    pub fn new(alpha: f64, k_sigma: f64, warmup: usize) -> Result<Self, AnalyticsError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(AnalyticsError::InvalidParameter("alpha"));
        }
        if k_sigma <= 0.0 {
            return Err(AnalyticsError::InvalidParameter("k_sigma"));
        }
        if warmup == 0 {
            return Err(AnalyticsError::InvalidParameter("warmup"));
        }
        Ok(EwmaDetector {
            alpha,
            k_sigma,
            warmup,
            seen: 0,
            mean: 0.0,
            var: 0.0,
            active: false,
        })
    }

    /// Feeds a sample; alerts on the rising edge of a deviation.
    ///
    /// Deviant samples do not update the baseline (otherwise a sustained
    /// episode would be absorbed and the alert would self-cancel).
    pub fn observe(&mut self, t_us: u64, value: f64) -> Option<AnomalyAlert> {
        self.seen += 1;
        if self.seen <= self.warmup {
            // Initialise the baseline from the warmup prefix.
            let n = self.seen as f64;
            let delta = value - self.mean;
            self.mean += delta / n;
            self.var += delta * (value - self.mean);
            return None;
        }
        let sigma = (self.var / self.warmup as f64).sqrt().max(1e-9);
        let dev = (value - self.mean).abs() / sigma;
        if dev > self.k_sigma {
            if !self.active {
                self.active = true;
                return Some(AnomalyAlert {
                    t_us,
                    value,
                    severity: dev,
                });
            }
            return None;
        }
        self.active = false;
        // In-range samples keep adapting the baseline.
        self.mean = self.alpha * value + (1.0 - self.alpha) * self.mean;
        None
    }

    /// Whether the detector is currently in the alerted state.
    pub fn is_active(&self) -> bool {
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn threshold_validates() {
        assert!(ThresholdDetector::new(5.0, 5.0, 1, 1).is_err());
        assert!(ThresholdDetector::new(0.0, 1.0, 0, 1).is_err());
        assert!(ThresholdDetector::new(0.0, 1.0, 3, 2).is_err());
    }

    #[test]
    fn threshold_ignores_single_spike_with_m2() {
        let mut d = ThresholdDetector::new(50.0, 100.0, 2, 3).unwrap();
        assert!(d.observe(0, 70.0).is_none());
        assert!(d.observe(1, 150.0).is_none(), "one spike is not enough");
        assert!(d.observe(2, 70.0).is_none());
        assert!(!d.is_active());
    }

    #[test]
    fn threshold_fires_on_sustained_breach_and_rearms() {
        let mut d = ThresholdDetector::new(50.0, 100.0, 2, 3).unwrap();
        d.observe(0, 120.0);
        let alert = d.observe(1, 130.0).expect("2 of 3 breached");
        assert_eq!(alert.t_us, 1);
        assert!((alert.severity - 30.0).abs() < 1e-9);
        // Still breaching: no duplicate alert.
        assert!(d.observe(2, 140.0).is_none());
        assert!(d.is_active());
        // Recover fully, then breach again: a fresh alert.
        for t in 3..6 {
            assert!(d.observe(t, 75.0).is_none());
        }
        assert!(!d.is_active());
        d.observe(6, 120.0);
        assert!(d.observe(7, 125.0).is_some());
    }

    #[test]
    fn threshold_low_side_severity() {
        let mut d = ThresholdDetector::new(90.0, 100.5, 1, 1).unwrap();
        let a = d.observe(0, 85.0).unwrap();
        assert!((a.severity - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_validates() {
        assert!(EwmaDetector::new(0.0, 3.0, 10).is_err());
        assert!(EwmaDetector::new(1.0, 3.0, 10).is_err());
        assert!(EwmaDetector::new(0.1, 0.0, 10).is_err());
        assert!(EwmaDetector::new(0.1, 3.0, 0).is_err());
    }

    #[test]
    fn ewma_learns_baseline_then_detects_shift() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut d = EwmaDetector::new(0.05, 4.0, 60).unwrap();
        let mut false_alarms = 0;
        for t in 0..600u64 {
            let v = 70.0 + rng.gen_range(-2.0..2.0);
            if d.observe(t, v).is_some() {
                false_alarms += 1;
            }
        }
        assert_eq!(false_alarms, 0, "stable signal must not alert");
        // Step change: should alert promptly.
        let mut alert_at = None;
        for t in 600..650u64 {
            if let Some(a) = d.observe(t, 120.0) {
                alert_at = Some((t, a.severity));
                break;
            }
        }
        let (t, sev) = alert_at.expect("shift must be detected");
        assert!(t <= 601, "detected at {t}");
        assert!(sev > 4.0);
    }

    #[test]
    fn ewma_does_not_absorb_sustained_episode() {
        let mut d = EwmaDetector::new(0.2, 3.0, 20).unwrap();
        for t in 0..20u64 {
            d.observe(t, 10.0 + (t % 3) as f64 * 0.1);
        }
        assert!(d.observe(20, 50.0).is_some());
        // A long episode: detector stays active (no baseline drift).
        for t in 21..100u64 {
            assert!(d.observe(t, 50.0).is_none());
            assert!(d.is_active(), "t={t}");
        }
        // Recovery re-arms.
        assert!(d.observe(100, 10.0).is_none());
        assert!(!d.is_active());
    }
}
