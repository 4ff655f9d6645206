//! Registration-error measurement.
//!
//! The user-visible consequence of pose error is *registration error*:
//! how many pixels a virtual overlay sits away from its physical anchor.
//! [`registration_error_px`] runs a tracker against ground truth and
//! reports per-frame pixel error across a set of anchors — the headline
//! metric of experiment E6, and the quantity Azuma's "registered in 3-D"
//! requirement constrains.

use augur_geo::Enu;
use augur_sensor::{CameraModel, MotionState};

use crate::pose::{Pose, Tracker};

/// Per-frame registration measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegistrationReport {
    /// Frame time, seconds since start.
    pub t_s: f64,
    /// Mean pixel error across anchors visible in both views.
    pub mean_error_px: f64,
    /// Number of anchors visible in both the true and estimated view.
    pub visible_anchors: usize,
    /// Horizontal position error of the pose estimate, metres.
    pub position_error_m: f64,
}

/// Aggregate of a registration run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegistrationSummary {
    /// Mean pixel error over all frames with visible anchors.
    pub mean_px: f64,
    /// 95th-percentile pixel error.
    pub p95_px: f64,
    /// Mean position error, metres.
    pub mean_position_m: f64,
    /// Fraction of frames where at least one anchor was visible both ways.
    pub coverage: f64,
}

impl RegistrationSummary {
    /// Summarises per-frame reports.
    pub fn from_reports(reports: &[RegistrationReport]) -> Self {
        let visible: Vec<&RegistrationReport> =
            reports.iter().filter(|r| r.visible_anchors > 0).collect();
        if visible.is_empty() {
            return RegistrationSummary::default();
        }
        let mut errs: Vec<f64> = visible.iter().map(|r| r.mean_error_px).collect();
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mean_px = errs.iter().sum::<f64>() / errs.len() as f64;
        let p95_px = errs[((errs.len() as f64 * 0.95) as usize).min(errs.len() - 1)];
        let mean_position_m =
            visible.iter().map(|r| r.position_error_m).sum::<f64>() / visible.len() as f64;
        RegistrationSummary {
            mean_px,
            p95_px,
            mean_position_m,
            coverage: visible.len() as f64 / reports.len() as f64,
        }
    }
}

/// Measures registration error of `tracker`'s pose stream against ground
/// truth for a set of world anchors.
///
/// For each ground-truth frame, anchors are projected twice through the
/// same camera: once from the *true* pose (where the overlay should be)
/// and once from the *estimated* pose (where the tracker would draw it).
/// The pixel distance between the two is the registration error the user
/// sees.
pub fn registration_error_px(
    camera: &CameraModel,
    truth: &[MotionState],
    poses: &[Pose],
    anchors: &[Enu],
) -> Vec<RegistrationReport> {
    assert_eq!(
        truth.len(),
        poses.len(),
        "truth and pose streams must be frame-aligned"
    );
    let t0 = truth.first().map(|s| s.time).unwrap_or_default();
    truth
        .iter()
        .zip(poses)
        .map(|(s, p)| {
            let mut total = 0.0;
            let mut n = 0usize;
            for &a in anchors {
                let true_px = camera.project(s.position, s.heading_deg, a);
                let est_px = camera.project(p.position, p.heading_deg, a);
                if let (Some((tu, tv)), Some((eu, ev))) = (true_px, est_px) {
                    total += ((tu - eu).powi(2) + (tv - ev).powi(2)).sqrt();
                    n += 1;
                }
            }
            let de = p.position.east - s.position.east;
            let dn = p.position.north - s.position.north;
            RegistrationReport {
                t_s: (s.time - t0).as_secs_f64(),
                mean_error_px: if n > 0 { total / n as f64 } else { 0.0 },
                visible_anchors: n,
                position_error_m: (de * de + dn * dn).sqrt(),
            }
        })
        .collect()
}

/// Runs a tracker over pre-generated sensor streams, producing one pose
/// per ground-truth frame. GPS and IMU updates are applied in event-time
/// order; the pose is sampled at each truth frame's timestamp.
pub fn run_tracker<T: Tracker>(
    tracker: &mut T,
    truth: &[MotionState],
    gps: &[augur_sensor::GpsFix],
    imu: &[augur_sensor::ImuReading],
) -> Vec<Pose> {
    let mut gi = 0usize;
    let mut ii = 0usize;
    truth
        .iter()
        .map(|frame| {
            // Apply all measurements with time <= frame time, interleaved.
            loop {
                let g = gps.get(gi).map(|f| f.time);
                let i = imu.get(ii).map(|r| r.time);
                match (g, i) {
                    (Some(gt), Some(it)) if gt <= frame.time || it <= frame.time => {
                        if gt <= it && gt <= frame.time {
                            tracker.update_gps(&gps[gi]);
                            gi += 1;
                        } else if it <= frame.time {
                            tracker.update_imu(&imu[ii]);
                            ii += 1;
                        } else {
                            tracker.update_gps(&gps[gi]);
                            gi += 1;
                        }
                    }
                    (Some(gt), None) if gt <= frame.time => {
                        tracker.update_gps(&gps[gi]);
                        gi += 1;
                    }
                    (None, Some(it)) if it <= frame.time => {
                        tracker.update_imu(&imu[ii]);
                        ii += 1;
                    }
                    _ => break,
                }
            }
            tracker.pose(frame.time)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kalman::{KalmanParams, KalmanTracker};
    use crate::pose::GpsOnlyTracker;
    use augur_sensor::{
        GpsParams, GpsSensor, ImuParams, ImuSensor, RandomWaypoint, Trajectory, TrajectoryParams,
    };
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn walk(seed: u64) -> Vec<MotionState> {
        let params = TrajectoryParams {
            half_extent_m: 200.0,
            speed_mps: 1.4,
            pause_s: 1.0,
        };
        RandomWaypoint::new(params, rng(seed)).sample(30.0, 60.0)
    }

    fn ring_anchors(radius: f64, count: usize) -> Vec<Enu> {
        (0..count)
            .map(|i| {
                let a = std::f64::consts::TAU * i as f64 / count as f64;
                Enu::new(radius * a.cos(), radius * a.sin(), 5.0)
            })
            .collect()
    }

    #[test]
    fn perfect_pose_has_zero_error() {
        let truth = walk(1);
        let poses: Vec<Pose> = truth
            .iter()
            .map(|s| Pose {
                time: s.time,
                position: s.position,
                velocity: s.velocity,
                heading_deg: s.heading_deg,
            })
            .collect();
        let cam = CameraModel::default();
        let reports = registration_error_px(&cam, &truth, &poses, &ring_anchors(300.0, 24));
        let summary = RegistrationSummary::from_reports(&reports);
        assert!(summary.mean_px < 1e-9);
        assert!(summary.coverage > 0.5);
    }

    #[test]
    fn kalman_beats_gps_only() {
        let truth = walk(2);
        let gps_params = GpsParams {
            sigma_m: 6.0,
            dropout_probability: 0.0,
            urban_probability: 0.0,
            ..Default::default()
        };
        let fixes = GpsSensor::new(gps_params, rng(3)).track(&truth);
        let imu_params = ImuParams::default();
        let readings = ImuSensor::new(imu_params, rng(4)).track(&truth);

        let mut kalman = KalmanTracker::new(KalmanParams::default());
        let kalman_poses = run_tracker(&mut kalman, &truth, &fixes, &readings);
        let mut gps_only = GpsOnlyTracker::new();
        let gps_poses = run_tracker(&mut gps_only, &truth, &fixes, &[]);

        let cam = CameraModel::default();
        let anchors = ring_anchors(300.0, 24);
        let k = RegistrationSummary::from_reports(&registration_error_px(
            &cam,
            &truth,
            &kalman_poses,
            &anchors,
        ));
        let g = RegistrationSummary::from_reports(&registration_error_px(
            &cam, &truth, &gps_poses, &anchors,
        ));
        assert!(
            k.mean_position_m < g.mean_position_m,
            "kalman {} m vs gps {} m",
            k.mean_position_m,
            g.mean_position_m
        );
    }

    #[test]
    #[should_panic(expected = "frame-aligned")]
    fn mismatched_lengths_panic() {
        let cam = CameraModel::default();
        let truth = walk(5);
        let _ = registration_error_px(&cam, &truth, &[], &[]);
    }

    #[test]
    fn empty_reports_summarise_to_default() {
        let s = RegistrationSummary::from_reports(&[]);
        assert_eq!(s.mean_px, 0.0);
        assert_eq!(s.coverage, 0.0);
    }
}
