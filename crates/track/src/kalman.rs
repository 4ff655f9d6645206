//! Constant-velocity Kalman filter with IMU control input.
//!
//! State is `[east, north, v_east, v_north]`. IMU acceleration drives the
//! prediction step as a control input; GPS fixes are position
//! measurements with per-fix noise taken from the receiver's reported
//! accuracy. Heading is integrated from the gyro and softly corrected
//! towards the velocity track when the device is moving — a standard
//! pedestrian-AR arrangement.

use augur_geo::Enu;
use augur_sensor::{GpsFix, ImuReading, Timestamp};

use crate::error::TrackError;
use crate::pose::{Pose, Tracker};

/// Tuning parameters for [`KalmanTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KalmanParams {
    /// Process noise spectral density (acceleration uncertainty), m/s²·√Hz.
    pub process_noise: f64,
    /// Initial position variance, m².
    pub initial_pos_var: f64,
    /// Initial velocity variance, (m/s)².
    pub initial_vel_var: f64,
    /// Heading correction gain towards the velocity direction, per second.
    pub heading_gain: f64,
    /// Speed below which heading corrections are suspended, m/s.
    pub heading_min_speed: f64,
    /// Time constant of the online accelerometer-bias estimate, seconds.
    /// Consumer IMUs carry a slowly walking bias; feeding it unmodelled
    /// into the control input rotates the velocity estimate. A long EMA
    /// high-pass (crude bias state) removes it while passing the
    /// transient accelerations pedestrians actually produce.
    pub accel_bias_tau_s: f64,
}

impl Default for KalmanParams {
    fn default() -> Self {
        KalmanParams {
            process_noise: 0.5,
            initial_pos_var: 100.0,
            initial_vel_var: 4.0,
            // Low gain: just enough to cancel gyro bias (equilibrium
            // error ≈ bias/gain), without fighting the gyro during turns
            // while the velocity estimate still lags.
            heading_gain: 0.3,
            heading_min_speed: 0.5,
            accel_bias_tau_s: 15.0,
        }
    }
}

impl KalmanParams {
    /// Validates that all parameters are positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`TrackError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), TrackError> {
        let checks: [(&'static str, f64); 6] = [
            ("process_noise", self.process_noise),
            ("initial_pos_var", self.initial_pos_var),
            ("initial_vel_var", self.initial_vel_var),
            ("heading_gain", self.heading_gain),
            ("heading_min_speed", self.heading_min_speed),
            ("accel_bias_tau_s", self.accel_bias_tau_s),
        ];
        for (name, v) in checks {
            if !v.is_finite() || v <= 0.0 {
                return Err(TrackError::InvalidParameter(name));
            }
        }
        Ok(())
    }
}

/// 2-D constant-velocity Kalman filter; see the module docs.
#[derive(Debug, Clone)]
pub struct KalmanTracker {
    params: KalmanParams,
    // State [e, n, ve, vn] and row-major 4x4 covariance.
    x: [f64; 4],
    p: [[f64; 4]; 4],
    heading_deg: f64,
    heading_initialized: bool,
    last_time: Option<Timestamp>,
    last_imu_time: Option<Timestamp>,
    initialized: bool,
    pending_accel: (f64, f64),
    bias_estimate: (f64, f64),
}

impl KalmanTracker {
    /// Creates a tracker; parameters are validated lazily against
    /// [`KalmanParams::default`]-like sanity in debug builds.
    pub fn new(params: KalmanParams) -> Self {
        debug_assert!(params.validate().is_ok());
        let mut p = [[0.0; 4]; 4];
        p[0][0] = params.initial_pos_var;
        p[1][1] = params.initial_pos_var;
        p[2][2] = params.initial_vel_var;
        p[3][3] = params.initial_vel_var;
        KalmanTracker {
            params,
            x: [0.0; 4],
            p,
            heading_deg: 0.0,
            heading_initialized: false,
            last_time: None,
            last_imu_time: None,
            initialized: false,
            pending_accel: (0.0, 0.0),
            bias_estimate: (0.0, 0.0),
        }
    }

    /// Whether any GPS fix has initialised the position.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Current position variance trace (east + north), m² — the filter's
    /// own uncertainty estimate, used by adaptive offloading policies.
    pub fn position_variance(&self) -> f64 {
        self.p[0][0] + self.p[1][1]
    }

    fn predict_to(&mut self, t: Timestamp) {
        let dt = match self.last_time {
            Some(last) if t > last => (t - last).as_secs_f64(),
            Some(_) => return,
            None => {
                self.last_time = Some(t);
                return;
            }
        };
        self.last_time = Some(t);
        let (ae, an) = self.pending_accel;
        // x' = F x + B u
        self.x[0] += self.x[2] * dt + 0.5 * ae * dt * dt;
        self.x[1] += self.x[3] * dt + 0.5 * an * dt * dt;
        self.x[2] += ae * dt;
        self.x[3] += an * dt;
        // P' = F P Fᵀ + Q, with F = [[I, dt·I],[0, I]].
        let q = self.params.process_noise * self.params.process_noise;
        let dt2 = dt * dt;
        let dt3 = dt2 * dt / 2.0;
        let dt4 = dt2 * dt2 / 4.0;
        // F P Fᵀ expanded for the block structure.
        let mut np = self.p;
        for i in 0..2 {
            for j in 0..2 {
                np[i][j] = self.p[i][j]
                    + dt * (self.p[i][j + 2] + self.p[i + 2][j])
                    + dt2 * self.p[i + 2][j + 2];
                np[i][j + 2] = self.p[i][j + 2] + dt * self.p[i + 2][j + 2];
                np[i + 2][j] = self.p[i + 2][j] + dt * self.p[i + 2][j + 2];
            }
        }
        self.p = np;
        self.p[0][0] += q * dt4;
        self.p[1][1] += q * dt4;
        self.p[0][2] += q * dt3;
        self.p[2][0] += q * dt3;
        self.p[1][3] += q * dt3;
        self.p[3][1] += q * dt3;
        self.p[2][2] += q * dt2;
        self.p[3][3] += q * dt2;
    }
}

impl Tracker for KalmanTracker {
    fn update_gps(&mut self, fix: &GpsFix) {
        if !self.initialized {
            self.x[0] = fix.position.east;
            self.x[1] = fix.position.north;
            self.initialized = true;
            self.last_time = Some(fix.time);
            return;
        }
        self.predict_to(fix.time);
        let r = fix.accuracy_m * fix.accuracy_m;
        // Sequential scalar updates for the two position components
        // (valid because measurement noise is diagonal).
        for (axis, z) in [(0usize, fix.position.east), (1usize, fix.position.north)] {
            let y = z - self.x[axis];
            let s = self.p[axis][axis] + r;
            if s <= 0.0 {
                continue;
            }
            let k: [f64; 4] = [
                self.p[0][axis] / s,
                self.p[1][axis] / s,
                self.p[2][axis] / s,
                self.p[3][axis] / s,
            ];
            for (xi, ki) in self.x.iter_mut().zip(&k) {
                *xi += ki * y;
            }
            // P = (I - K H) P for H selecting `axis`.
            let row: [f64; 4] = self.p[axis];
            for (pi, ki) in self.p.iter_mut().zip(&k) {
                for (pij, rj) in pi.iter_mut().zip(&row) {
                    *pij -= ki * rj;
                }
            }
        }
    }

    fn update_imu(&mut self, reading: &ImuReading) {
        self.predict_to(reading.time);
        let dt = match self.last_imu_time {
            Some(last) if reading.time > last => (reading.time - last).as_secs_f64(),
            _ => 0.0,
        };
        self.last_imu_time = Some(reading.time);
        if dt == 0.0 {
            self.pending_accel = (reading.accel_east, reading.accel_north);
            return;
        }
        // Online bias estimate (see KalmanParams::accel_bias_tau_s).
        let beta = (dt / self.params.accel_bias_tau_s).min(1.0);
        self.bias_estimate.0 += beta * (reading.accel_east - self.bias_estimate.0);
        self.bias_estimate.1 += beta * (reading.accel_north - self.bias_estimate.1);
        self.pending_accel = (
            reading.accel_east - self.bias_estimate.0,
            reading.accel_north - self.bias_estimate.1,
        );
        // Integrate the gyro, then correct towards the velocity heading
        // when the device is moving (gyro bias otherwise drifts the
        // overlay unboundedly). The first confident velocity snaps the
        // heading outright — pulling in slowly from an arbitrary initial
        // heading would leave overlays wandering for tens of seconds.
        self.heading_deg = (self.heading_deg + reading.yaw_rate_dps * dt).rem_euclid(360.0);
        let speed = (self.x[2] * self.x[2] + self.x[3] * self.x[3]).sqrt();
        if speed > self.params.heading_min_speed {
            let vel_heading = (self.x[2].atan2(self.x[3]).to_degrees() + 360.0) % 360.0;
            if !self.heading_initialized {
                self.heading_deg = vel_heading;
                self.heading_initialized = true;
                return;
            }
            let mut dh = vel_heading - self.heading_deg;
            while dh > 180.0 {
                dh -= 360.0;
            }
            while dh < -180.0 {
                dh += 360.0;
            }
            let alpha = (self.params.heading_gain * dt).min(1.0);
            self.heading_deg = (self.heading_deg + dh * alpha).rem_euclid(360.0);
        }
    }

    fn pose(&self, at: Timestamp) -> Pose {
        // Extrapolate without mutating filter state.
        let dt = match self.last_time {
            Some(last) if at > last => (at - last).as_secs_f64(),
            _ => 0.0,
        };
        Pose {
            time: at,
            position: Enu::new(self.x[0] + self.x[2] * dt, self.x[1] + self.x[3] * dt, 0.0),
            velocity: Enu::new(self.x[2], self.x[3], 0.0),
            heading_deg: self.heading_deg,
        }
    }

    fn name(&self) -> &'static str {
        "kalman"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix(t_ms: u64, e: f64, n: f64, acc: f64) -> GpsFix {
        GpsFix {
            time: Timestamp::from_millis(t_ms),
            position: Enu::new(e, n, 0.0),
            speed_mps: 0.0,
            accuracy_m: acc,
        }
    }

    #[test]
    fn params_validate() {
        assert!(KalmanParams::default().validate().is_ok());
        let bad = KalmanParams {
            process_noise: 0.0,
            ..Default::default()
        };
        assert_eq!(
            bad.validate(),
            Err(TrackError::InvalidParameter("process_noise"))
        );
    }

    #[test]
    fn first_fix_initialises_state() {
        let mut t = KalmanTracker::new(KalmanParams::default());
        assert!(!t.is_initialized());
        t.update_gps(&fix(0, 10.0, 20.0, 4.0));
        assert!(t.is_initialized());
        let p = t.pose(Timestamp::ZERO);
        assert_eq!(p.position.east, 10.0);
        assert_eq!(p.position.north, 20.0);
    }

    #[test]
    fn converges_to_stationary_truth_under_noise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut t = KalmanTracker::new(KalmanParams::default());
        // Truth at (5, -3); noisy fixes sigma 4 m at 1 Hz for 60 s.
        for i in 0..60 {
            let nx: f64 = rng.gen_range(-1.0..1.0) * 4.0;
            let ny: f64 = rng.gen_range(-1.0..1.0) * 4.0;
            t.update_gps(&fix(i * 1000, 5.0 + nx, -3.0 + ny, 4.0));
        }
        let p = t.pose(Timestamp::from_secs(60));
        let err = ((p.position.east - 5.0).powi(2) + (p.position.north + 3.0).powi(2)).sqrt();
        assert!(err < 2.0, "converged error {err} m");
        // Filter confidence should have tightened well below the prior.
        assert!(t.position_variance() < 20.0);
    }

    #[test]
    fn tracks_constant_velocity() {
        let mut t = KalmanTracker::new(KalmanParams::default());
        // Truth: 2 m/s east, exact fixes.
        for i in 0..30 {
            t.update_gps(&fix(i * 1000, 2.0 * i as f64, 0.0, 1.0));
        }
        let p = t.pose(Timestamp::from_secs(30));
        assert!(
            (p.velocity.east - 2.0).abs() < 0.2,
            "ve {}",
            p.velocity.east
        );
        // Extrapolation continues the track.
        assert!((p.position.east - 60.0).abs() < 1.0);
    }

    #[test]
    fn imu_control_bridges_gps_gaps() {
        let mut t = KalmanTracker::new(KalmanParams::default());
        t.update_gps(&fix(0, 0.0, 0.0, 1.0));
        t.update_gps(&fix(1000, 1.0, 0.0, 1.0));
        // Now accelerate east at 1 m/s² for 2 s with no GPS.
        for i in 0..100 {
            t.update_imu(&ImuReading {
                time: Timestamp::from_millis(1000 + (i + 1) * 20),
                accel_east: 1.0,
                accel_north: 0.0,
                yaw_rate_dps: 0.0,
            });
        }
        let p = t.pose(Timestamp::from_millis(3000));
        // Starting from ~(1, 0) with ~1 m/s velocity: ideal ≈ 1+2+2 = 5 m;
        // the bias high-pass absorbs a slice of a sustained acceleration,
        // so accept a band around it.
        assert!(
            p.position.east > 2.5 && p.position.east < 7.0,
            "east {}",
            p.position.east
        );
    }

    #[test]
    fn covariance_stays_symmetric_positive() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut t = KalmanTracker::new(KalmanParams::default());
        for i in 0..500 {
            if i % 10 == 0 {
                t.update_gps(&fix(
                    i * 100,
                    rng.gen_range(-5.0..5.0),
                    rng.gen_range(-5.0..5.0),
                    4.0,
                ));
            } else {
                t.update_imu(&ImuReading {
                    time: Timestamp::from_millis(i * 100),
                    accel_east: rng.gen_range(-0.5..0.5),
                    accel_north: rng.gen_range(-0.5..0.5),
                    yaw_rate_dps: 0.0,
                });
            }
        }
        for i in 0..4 {
            assert!(t.p[i][i] > 0.0, "diagonal {i} not positive");
            for j in 0..4 {
                assert!(
                    (t.p[i][j] - t.p[j][i]).abs() < 1e-6,
                    "asymmetry at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn out_of_order_measurements_are_tolerated() {
        let mut t = KalmanTracker::new(KalmanParams::default());
        t.update_gps(&fix(1000, 1.0, 1.0, 2.0));
        // Older fix: prediction is skipped but update still applies.
        t.update_gps(&fix(500, 0.0, 0.0, 2.0));
        let p = t.pose(Timestamp::from_secs(2));
        assert!(p.position.east.is_finite());
    }
}
