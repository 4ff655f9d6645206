//! Noisy GPS position fixes.
//!
//! Consumer GPS under open sky shows ~3–5 m horizontal error (1σ), rising
//! to 10–30 m in urban canyons from multipath; fixes also drop out
//! entirely indoors. [`GpsSensor`] reproduces those characteristics on
//! top of a ground-truth trajectory, producing the degraded positioning
//! that motivates the tracking-fusion experiment (E6) and the location
//! privacy mechanisms (E11).

use rand::Rng;

use augur_geo::Enu;

use crate::clock::Timestamp;
use crate::trajectory::MotionState;

/// One GPS fix in the local ENU frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsFix {
    /// Fix time.
    pub time: Timestamp,
    /// Measured position (metres ENU).
    pub position: Enu,
    /// Reported speed over ground, m/s (noisy).
    pub speed_mps: f64,
    /// Estimated horizontal accuracy the receiver would report, metres (1σ).
    pub accuracy_m: f64,
}

/// GPS noise and availability model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpsParams {
    /// Horizontal error standard deviation under open sky, metres.
    pub sigma_m: f64,
    /// Multiplier applied in urban-canyon conditions.
    pub urban_multiplier: f64,
    /// Probability a fix is in urban-canyon conditions.
    pub urban_probability: f64,
    /// Probability any individual fix is dropped.
    pub dropout_probability: f64,
    /// Fix rate in Hz (receivers typically deliver 1 Hz).
    pub rate_hz: f64,
}

impl Default for GpsParams {
    fn default() -> Self {
        GpsParams {
            sigma_m: 4.0,
            urban_multiplier: 4.0,
            urban_probability: 0.2,
            dropout_probability: 0.02,
            rate_hz: 1.0,
        }
    }
}

/// Samples noisy fixes from ground truth.
///
/// # Example
///
/// ```
/// use augur_sensor::{GpsParams, GpsSensor, MotionState};
/// use rand::SeedableRng;
///
/// let mut gps = GpsSensor::new(GpsParams::default(), rand::rngs::StdRng::seed_from_u64(1));
/// let truth = MotionState::default();
/// if let Some(fix) = gps.measure(&truth) {
///     assert!(fix.accuracy_m > 0.0);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct GpsSensor<R: Rng> {
    params: GpsParams,
    rng: R,
}

impl<R: Rng> GpsSensor<R> {
    /// Creates a sensor with the given noise model.
    pub fn new(params: GpsParams, rng: R) -> Self {
        GpsSensor { params, rng }
    }

    /// The configured parameters.
    pub fn params(&self) -> &GpsParams {
        &self.params
    }

    /// Produces a fix for the given ground truth, or `None` on drop-out.
    pub fn measure(&mut self, truth: &MotionState) -> Option<GpsFix> {
        if self.rng.gen_bool(self.params.dropout_probability) {
            return None;
        }
        let urban = self.rng.gen_bool(self.params.urban_probability);
        let sigma = if urban {
            self.params.sigma_m * self.params.urban_multiplier
        } else {
            self.params.sigma_m
        };
        let (ne, nn) = (self.normal() * sigma, self.normal() * sigma);
        let speed_noise = self.normal() * 0.2;
        Some(GpsFix {
            time: truth.time,
            position: Enu::new(
                truth.position.east + ne,
                truth.position.north + nn,
                truth.position.up,
            ),
            speed_mps: (truth.velocity.horizontal_norm() + speed_noise).max(0.0),
            accuracy_m: sigma,
        })
    }

    /// Samples a whole trajectory at the configured rate, keeping only
    /// non-dropped fixes.
    pub fn track(&mut self, truth: &[MotionState]) -> Vec<GpsFix> {
        if truth.is_empty() {
            return Vec::new();
        }
        let period = std::time::Duration::from_secs_f64(1.0 / self.params.rate_hz);
        let mut out = Vec::new();
        let mut next = truth[0].time;
        for s in truth {
            if s.time >= next {
                if let Some(fix) = self.measure(s) {
                    out.push(fix);
                }
                next = next + period;
            }
        }
        out
    }

    fn normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::{RandomWaypoint, Trajectory, TrajectoryParams};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn noise_magnitude_matches_sigma() {
        let params = GpsParams {
            sigma_m: 5.0,
            urban_probability: 0.0,
            dropout_probability: 0.0,
            ..Default::default()
        };
        let mut gps = GpsSensor::new(params, rng(2));
        let truth = MotionState::default();
        let n = 5000;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let fix = gps.measure(&truth).unwrap();
            sum2 += fix.position.east.powi(2);
        }
        let est_sigma = (sum2 / n as f64).sqrt();
        assert!(
            (est_sigma - 5.0).abs() < 0.3,
            "estimated sigma {est_sigma} != 5.0"
        );
    }

    #[test]
    fn dropout_rate_is_respected() {
        let params = GpsParams {
            dropout_probability: 0.5,
            ..Default::default()
        };
        let mut gps = GpsSensor::new(params, rng(3));
        let truth = MotionState::default();
        let delivered = (0..2000).filter(|_| gps.measure(&truth).is_some()).count();
        assert!((800..1200).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn urban_fixes_report_larger_accuracy() {
        let params = GpsParams {
            sigma_m: 3.0,
            urban_multiplier: 5.0,
            urban_probability: 1.0,
            dropout_probability: 0.0,
            ..Default::default()
        };
        let mut gps = GpsSensor::new(params, rng(4));
        let fix = gps.measure(&MotionState::default()).unwrap();
        assert_eq!(fix.accuracy_m, 15.0);
    }

    #[test]
    fn track_downsamples_to_rate() {
        let mut walker = RandomWaypoint::new(TrajectoryParams::default(), rng(5));
        let truth = walker.sample(30.0, 60.0); // 30 Hz for 60 s
        let params = GpsParams {
            rate_hz: 1.0,
            dropout_probability: 0.0,
            ..Default::default()
        };
        let mut gps = GpsSensor::new(params, rng(6));
        let fixes = gps.track(&truth);
        assert!(
            (58..=61).contains(&fixes.len()),
            "expected ~60 fixes, got {}",
            fixes.len()
        );
    }

    #[test]
    fn speed_is_never_negative() {
        let mut gps = GpsSensor::new(GpsParams::default(), rng(7));
        for _ in 0..500 {
            if let Some(fix) = gps.measure(&MotionState::default()) {
                assert!(fix.speed_mps >= 0.0);
            }
        }
    }

    #[test]
    fn empty_track() {
        let mut gps = GpsSensor::new(GpsParams::default(), rng(8));
        assert!(gps.track(&[]).is_empty());
    }
}
