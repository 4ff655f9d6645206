//! Inertial measurement unit simulation.
//!
//! Consumer IMUs deliver high-rate (50–200 Hz) but biased and drifting
//! measurements: accelerometers carry a slowly-walking bias, gyroscopes
//! drift. Dead-reckoning on such data diverges quadratically — which is
//! exactly why the tracking crate fuses IMU with GPS (experiment E6).

use rand::Rng;

use crate::clock::Timestamp;
use crate::trajectory::MotionState;

/// One IMU reading: planar specific force plus yaw rate.
///
/// The simulation is 2-D (east/north plane plus heading), which is the
/// state the AR registration problem cares about at street scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuReading {
    /// Sample time.
    pub time: Timestamp,
    /// Measured acceleration east, m/s².
    pub accel_east: f64,
    /// Measured acceleration north, m/s².
    pub accel_north: f64,
    /// Measured yaw rate, degrees/second (clockwise positive).
    pub yaw_rate_dps: f64,
}

/// IMU noise model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ImuParams {
    /// White-noise standard deviation on acceleration, m/s².
    pub accel_noise: f64,
    /// Random-walk step of the accelerometer bias per sample, m/s².
    pub accel_bias_walk: f64,
    /// Initial accelerometer bias magnitude, m/s².
    pub accel_bias_init: f64,
    /// White-noise standard deviation on yaw rate, °/s.
    pub gyro_noise: f64,
    /// Gyroscope constant bias, °/s.
    pub gyro_bias: f64,
    /// Sample rate, Hz.
    pub rate_hz: f64,
}

impl Default for ImuParams {
    fn default() -> Self {
        ImuParams {
            accel_noise: 0.05,
            accel_bias_walk: 0.001,
            accel_bias_init: 0.05,
            gyro_noise: 0.3,
            gyro_bias: 0.5,
            rate_hz: 50.0,
        }
    }
}

/// Simulates IMU output over a ground-truth trajectory.
#[derive(Debug, Clone)]
pub struct ImuSensor<R: Rng> {
    params: ImuParams,
    rng: R,
    bias_east: f64,
    bias_north: f64,
    prev: Option<MotionState>,
}

impl<R: Rng> ImuSensor<R> {
    /// Creates a sensor; the initial bias is drawn from the params.
    pub fn new(params: ImuParams, mut rng: R) -> Self {
        let angle: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        ImuSensor {
            bias_east: params.accel_bias_init * angle.cos(),
            bias_north: params.accel_bias_init * angle.sin(),
            params,
            rng,
            prev: None,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &ImuParams {
        &self.params
    }

    /// Produces a reading for the current ground-truth state.
    ///
    /// True acceleration is differenced from consecutive velocities, so
    /// the first call after construction reports pure noise around zero.
    pub fn measure(&mut self, truth: &MotionState) -> ImuReading {
        let (true_ae, true_an, true_yaw_rate) = match &self.prev {
            Some(p) if truth.time > p.time => {
                let dt = (truth.time - p.time).as_secs_f64();
                let mut dh = truth.heading_deg - p.heading_deg;
                while dh > 180.0 {
                    dh -= 360.0;
                }
                while dh < -180.0 {
                    dh += 360.0;
                }
                (
                    (truth.velocity.east - p.velocity.east) / dt,
                    (truth.velocity.north - p.velocity.north) / dt,
                    dh / dt,
                )
            }
            _ => (0.0, 0.0, 0.0),
        };
        self.prev = Some(*truth);
        // Walk the bias.
        self.bias_east += self.normal() * self.params.accel_bias_walk;
        self.bias_north += self.normal() * self.params.accel_bias_walk;
        ImuReading {
            time: truth.time,
            accel_east: true_ae + self.bias_east + self.normal() * self.params.accel_noise,
            accel_north: true_an + self.bias_north + self.normal() * self.params.accel_noise,
            yaw_rate_dps: true_yaw_rate
                + self.params.gyro_bias
                + self.normal() * self.params.gyro_noise,
        }
    }

    /// Samples the trajectory at the configured rate.
    pub fn track(&mut self, truth: &[MotionState]) -> Vec<ImuReading> {
        if truth.is_empty() {
            return Vec::new();
        }
        let period = std::time::Duration::from_secs_f64(1.0 / self.params.rate_hz);
        let mut out = Vec::new();
        let mut next = truth[0].time;
        for s in truth {
            if s.time >= next {
                out.push(self.measure(s));
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

/// Dead-reckons position from IMU readings alone (double integration).
///
/// Exposed so experiments can demonstrate unaided IMU divergence against
/// fused tracking.
pub fn dead_reckon(readings: &[ImuReading], initial: &MotionState) -> Vec<MotionState> {
    let mut out = Vec::with_capacity(readings.len());
    let mut pos = initial.position;
    let mut vel = initial.velocity;
    let mut heading = initial.heading_deg;
    let mut prev_t = initial.time;
    for r in readings {
        let dt = (r.time - prev_t).as_secs_f64();
        prev_t = r.time;
        vel.east += r.accel_east * dt;
        vel.north += r.accel_north * dt;
        pos.east += vel.east * dt;
        pos.north += vel.north * dt;
        heading = (heading + r.yaw_rate_dps * dt).rem_euclid(360.0);
        out.push(MotionState {
            time: r.time,
            position: pos,
            velocity: vel,
            heading_deg: heading,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::{RandomWaypoint, Trajectory, TrajectoryParams};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn stationary(n: usize, hz: f64) -> Vec<MotionState> {
        (0..n)
            .map(|i| MotionState {
                time: Timestamp::from_secs_f64(i as f64 / hz),
                ..MotionState::default()
            })
            .collect()
    }

    #[test]
    fn stationary_readings_center_on_bias() {
        let params = ImuParams {
            accel_noise: 0.01,
            accel_bias_walk: 0.0,
            accel_bias_init: 0.2,
            ..Default::default()
        };
        let mut imu = ImuSensor::new(params, rng(1));
        let truth = stationary(2000, 50.0);
        let readings = imu.track(&truth);
        let mean_e: f64 =
            readings.iter().map(|r| r.accel_east).sum::<f64>() / readings.len() as f64;
        let mean_n: f64 =
            readings.iter().map(|r| r.accel_north).sum::<f64>() / readings.len() as f64;
        let bias_mag = (mean_e.powi(2) + mean_n.powi(2)).sqrt();
        assert!(
            (bias_mag - 0.2).abs() < 0.05,
            "bias magnitude {bias_mag} != 0.2"
        );
    }

    #[test]
    fn dead_reckoning_diverges_on_noise() {
        let mut imu = ImuSensor::new(ImuParams::default(), rng(2));
        let truth = stationary(50 * 60, 50.0); // 60 s stationary
        let readings = imu.track(&truth);
        let path = dead_reckon(&readings, &truth[0]);
        let end_err = path.last().unwrap().position.horizontal_norm();
        // A stationary subject dead-reckoned for 60 s drifts tens of
        // metres with consumer-grade bias — the motivating failure.
        assert!(end_err > 10.0, "expected divergence, got {end_err} m");
    }

    #[test]
    fn measures_true_acceleration_plus_noise() {
        // Constant 1 m/s² acceleration east.
        let hz = 50.0;
        let truth: Vec<MotionState> = (0..500)
            .map(|i| {
                let t = i as f64 / hz;
                MotionState {
                    time: Timestamp::from_secs_f64(t),
                    position: augur_geo::Enu::new(0.5 * t * t, 0.0, 0.0),
                    velocity: augur_geo::Enu::new(t, 0.0, 0.0),
                    heading_deg: 90.0,
                }
            })
            .collect();
        let params = ImuParams {
            accel_noise: 0.02,
            accel_bias_init: 0.0,
            accel_bias_walk: 0.0,
            ..Default::default()
        };
        let mut imu = ImuSensor::new(params, rng(3));
        let readings = imu.track(&truth);
        let mean: f64 =
            readings[1..].iter().map(|r| r.accel_east).sum::<f64>() / (readings.len() - 1) as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean accel {mean} != 1.0");
    }

    #[test]
    fn track_rate_matches() {
        let mut walker = RandomWaypoint::new(TrajectoryParams::default(), rng(4));
        let truth = walker.sample(100.0, 10.0);
        let params = ImuParams {
            rate_hz: 50.0,
            ..Default::default()
        };
        let mut imu = ImuSensor::new(params, rng(5));
        let readings = imu.track(&truth);
        assert!(
            (495..=505).contains(&readings.len()),
            "expected ~500 readings, got {}",
            readings.len()
        );
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let mut imu = ImuSensor::new(ImuParams::default(), rng(6));
        assert!(imu.track(&[]).is_empty());
        assert!(dead_reckon(&[], &MotionState::default()).is_empty());
    }
}
