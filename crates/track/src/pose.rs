//! Pose representation and the tracker abstraction.

use augur_geo::Enu;
use augur_sensor::{GpsFix, ImuReading, Timestamp};

/// An estimated device pose: position in the local ENU frame plus yaw
/// heading. Pitch/roll are out of scope at street scale (see
/// [`augur_sensor::CameraModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    /// Time of validity.
    pub time: Timestamp,
    /// Estimated position, metres ENU.
    pub position: Enu,
    /// Estimated velocity, m/s ENU.
    pub velocity: Enu,
    /// Estimated heading, degrees clockwise from north.
    pub heading_deg: f64,
}

/// A device-pose estimator consuming sensor measurements.
///
/// Implementations are deterministic state machines: the same sequence of
/// updates yields the same poses, which keeps the registration
/// experiments reproducible.
pub trait Tracker {
    /// Feeds a GPS fix.
    fn update_gps(&mut self, fix: &GpsFix);

    /// Feeds an IMU reading.
    fn update_imu(&mut self, reading: &ImuReading);

    /// The pose estimate extrapolated to `at`.
    fn pose(&self, at: Timestamp) -> Pose;

    /// Human-readable estimator name for reports.
    fn name(&self) -> &'static str;
}

/// The naive baseline: the last GPS fix *is* the pose. Heading comes
/// from the displacement between consecutive fixes. This is what a
/// sensor-API-only AR browser does, and what E6 shows to be inadequate.
#[derive(Debug, Clone, Default)]
pub struct GpsOnlyTracker {
    last: Option<GpsFix>,
    prev: Option<GpsFix>,
}

impl GpsOnlyTracker {
    /// Creates an uninitialised tracker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Tracker for GpsOnlyTracker {
    fn update_gps(&mut self, fix: &GpsFix) {
        self.prev = self.last;
        self.last = Some(*fix);
    }

    fn update_imu(&mut self, _reading: &ImuReading) {}

    fn pose(&self, at: Timestamp) -> Pose {
        match (&self.prev, &self.last) {
            (_, None) => Pose {
                time: at,
                ..Pose::default()
            },
            (None, Some(f)) => Pose {
                time: at,
                position: f.position,
                velocity: Enu::default(),
                heading_deg: 0.0,
            },
            (Some(p), Some(f)) => {
                let de = f.position.east - p.position.east;
                let dn = f.position.north - p.position.north;
                let heading = if de == 0.0 && dn == 0.0 {
                    0.0
                } else {
                    (de.atan2(dn).to_degrees() + 360.0) % 360.0
                };
                Pose {
                    time: at,
                    position: f.position,
                    velocity: Enu::default(),
                    heading_deg: heading,
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "gps-only"
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
    fn uninitialised_pose_is_origin() {
        let t = GpsOnlyTracker::new();
        assert_eq!(t.pose(Timestamp::ZERO).position, Enu::default());
    }

    #[test]
    fn follows_last_fix() {
        let mut t = GpsOnlyTracker::new();
        t.update_gps(&fix(0, 1.0, 2.0));
        t.update_gps(&fix(1000, 5.0, 2.0));
        let p = t.pose(Timestamp::from_millis(1500));
        assert_eq!(p.position, Enu::new(5.0, 2.0, 0.0));
        // Moved due east: heading 90.
        assert!((p.heading_deg - 90.0).abs() < 1e-9);
    }

    #[test]
    fn imu_is_ignored() {
        let mut t = GpsOnlyTracker::new();
        t.update_gps(&fix(0, 1.0, 1.0));
        t.update_imu(&ImuReading {
            time: Timestamp::from_millis(10),
            accel_east: 100.0,
            accel_north: 0.0,
            yaw_rate_dps: 50.0,
        });
        assert_eq!(
            t.pose(Timestamp::from_millis(20)).position,
            Enu::new(1.0, 1.0, 0.0)
        );
    }
}
