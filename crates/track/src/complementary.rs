//! Complementary filter: IMU dead-reckoning exponentially blended
//! towards GPS fixes.
//!
//! Cheaper than the Kalman filter (no covariance) and a common choice on
//! power-constrained AR devices — the middle point of experiment E6
//! between raw GPS and full fusion.

use augur_geo::Enu;
use augur_sensor::{GpsFix, ImuReading, Timestamp};

use crate::error::TrackError;
use crate::pose::{Pose, Tracker};

/// Tuning for [`ComplementaryTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplementaryParams {
    /// Blend factor towards a GPS fix per update, in `(0, 1]`.
    pub gps_alpha: f64,
    /// Velocity damping per second (suppresses IMU integration drift).
    pub velocity_damping: f64,
    /// Heading correction gain towards the GPS track, per fix.
    pub heading_alpha: f64,
}

impl Default for ComplementaryParams {
    fn default() -> Self {
        ComplementaryParams {
            gps_alpha: 0.3,
            velocity_damping: 0.2,
            heading_alpha: 0.2,
        }
    }
}

impl ComplementaryParams {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`TrackError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), TrackError> {
        if !(0.0..=1.0).contains(&self.gps_alpha) || self.gps_alpha == 0.0 {
            return Err(TrackError::InvalidParameter("gps_alpha"));
        }
        if !self.velocity_damping.is_finite() || self.velocity_damping < 0.0 {
            return Err(TrackError::InvalidParameter("velocity_damping"));
        }
        if !(0.0..=1.0).contains(&self.heading_alpha) {
            return Err(TrackError::InvalidParameter("heading_alpha"));
        }
        Ok(())
    }
}

/// Complementary filter tracker; see the module docs.
#[derive(Debug, Clone)]
pub struct ComplementaryTracker {
    params: ComplementaryParams,
    position: Enu,
    velocity: Enu,
    heading_deg: f64,
    last_time: Option<Timestamp>,
    last_gps_pos: Option<Enu>,
    initialized: bool,
}

impl ComplementaryTracker {
    /// Creates an uninitialised tracker.
    pub fn new(params: ComplementaryParams) -> Self {
        debug_assert!(params.validate().is_ok());
        ComplementaryTracker {
            params,
            position: Enu::default(),
            velocity: Enu::default(),
            heading_deg: 0.0,
            last_time: None,
            last_gps_pos: None,
            initialized: false,
        }
    }

    fn advance(&mut self, t: Timestamp) -> f64 {
        let dt = match self.last_time {
            Some(last) if t > last => (t - last).as_secs_f64(),
            Some(_) => 0.0,
            None => 0.0,
        };
        self.last_time = Some(t);
        if dt > 0.0 {
            self.position.east += self.velocity.east * dt;
            self.position.north += self.velocity.north * dt;
            let damp = (-self.params.velocity_damping * dt).exp();
            self.velocity.east *= damp;
            self.velocity.north *= damp;
        }
        dt
    }
}

impl Tracker for ComplementaryTracker {
    fn update_gps(&mut self, fix: &GpsFix) {
        if !self.initialized {
            self.position = fix.position;
            self.initialized = true;
            self.last_time = Some(fix.time);
            self.last_gps_pos = Some(fix.position);
            return;
        }
        self.advance(fix.time);
        let a = self.params.gps_alpha;
        self.position.east += a * (fix.position.east - self.position.east);
        self.position.north += a * (fix.position.north - self.position.north);
        if let Some(prev) = self.last_gps_pos {
            let de = fix.position.east - prev.east;
            let dn = fix.position.north - prev.north;
            if de * de + dn * dn > 0.25 {
                let gps_heading = (de.atan2(dn).to_degrees() + 360.0) % 360.0;
                let mut dh = gps_heading - self.heading_deg;
                while dh > 180.0 {
                    dh -= 360.0;
                }
                while dh < -180.0 {
                    dh += 360.0;
                }
                self.heading_deg =
                    (self.heading_deg + self.params.heading_alpha * dh).rem_euclid(360.0);
            }
        }
        self.last_gps_pos = Some(fix.position);
    }

    fn update_imu(&mut self, reading: &ImuReading) {
        let dt = self.advance(reading.time);
        if dt > 0.0 {
            self.velocity.east += reading.accel_east * dt;
            self.velocity.north += reading.accel_north * dt;
            self.heading_deg = (self.heading_deg + reading.yaw_rate_dps * dt).rem_euclid(360.0);
        }
    }

    fn pose(&self, at: Timestamp) -> Pose {
        let dt = match self.last_time {
            Some(last) if at > last => (at - last).as_secs_f64(),
            _ => 0.0,
        };
        Pose {
            time: at,
            position: Enu::new(
                self.position.east + self.velocity.east * dt,
                self.position.north + self.velocity.north * dt,
                0.0,
            ),
            velocity: self.velocity,
            heading_deg: self.heading_deg,
        }
    }

    fn name(&self) -> &'static str {
        "complementary"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix(t_ms: u64, e: f64, n: f64) -> GpsFix {
        GpsFix {
            time: Timestamp::from_millis(t_ms),
            position: Enu::new(e, n, 0.0),
            speed_mps: 0.0,
            accuracy_m: 4.0,
        }
    }

    #[test]
    fn params_validate() {
        assert!(ComplementaryParams::default().validate().is_ok());
        assert!(ComplementaryParams {
            gps_alpha: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ComplementaryParams {
            heading_alpha: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn blends_towards_gps() {
        let mut t = ComplementaryTracker::new(ComplementaryParams {
            gps_alpha: 0.5,
            ..Default::default()
        });
        t.update_gps(&fix(0, 0.0, 0.0));
        t.update_gps(&fix(1000, 10.0, 0.0));
        let p = t.pose(Timestamp::from_secs(1));
        assert!((p.position.east - 5.0).abs() < 1e-9);
        t.update_gps(&fix(2000, 10.0, 0.0));
        let p = t.pose(Timestamp::from_secs(2));
        assert!((p.position.east - 7.5).abs() < 1e-9);
    }

    #[test]
    fn imu_integrates_between_fixes() {
        let mut t = ComplementaryTracker::new(ComplementaryParams {
            velocity_damping: 0.0,
            ..Default::default()
        });
        t.update_gps(&fix(0, 0.0, 0.0));
        for i in 0..50 {
            t.update_imu(&ImuReading {
                time: Timestamp::from_millis((i + 1) * 20),
                accel_east: 0.0,
                accel_north: 2.0,
                yaw_rate_dps: 0.0,
            });
        }
        let p = t.pose(Timestamp::from_secs(1));
        // v = 2 m/s² × 1 s integrated → ~1 m displacement.
        assert!(p.position.north > 0.5, "north {}", p.position.north);
        assert!((p.velocity.north - 2.0).abs() < 0.2);
    }

    #[test]
    fn damping_suppresses_drift() {
        let mut damped = ComplementaryTracker::new(ComplementaryParams {
            velocity_damping: 1.0,
            ..Default::default()
        });
        let mut undamped = ComplementaryTracker::new(ComplementaryParams {
            velocity_damping: 0.0,
            ..Default::default()
        });
        for t in [&mut damped, &mut undamped] {
            t.update_gps(&fix(0, 0.0, 0.0));
            // A biased IMU pushes east at 0.1 m/s² for 30 s.
            for i in 0..1500 {
                t.update_imu(&ImuReading {
                    time: Timestamp::from_millis((i + 1) * 20),
                    accel_east: 0.1,
                    accel_north: 0.0,
                    yaw_rate_dps: 0.0,
                });
            }
        }
        let d = damped.pose(Timestamp::from_secs(30)).position.east;
        let u = undamped.pose(Timestamp::from_secs(30)).position.east;
        assert!(d < u * 0.25, "damped {d} vs undamped {u}");
    }

    #[test]
    fn heading_corrects_towards_gps_track() {
        let mut t = ComplementaryTracker::new(ComplementaryParams {
            heading_alpha: 0.5,
            ..Default::default()
        });
        t.update_gps(&fix(0, 0.0, 0.0));
        // Moving east at 2 m/s: GPS heading 90°.
        for i in 1..20 {
            t.update_gps(&fix(i * 1000, 2.0 * i as f64, 0.0));
        }
        let h = t.pose(Timestamp::from_secs(20)).heading_deg;
        assert!((h - 90.0).abs() < 5.0, "heading {h}");
    }
}
