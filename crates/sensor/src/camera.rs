//! Camera observations of known anchors.
//!
//! Visual tracking in a real AR SDK detects features and markers in
//! camera frames. The registration problem downstream only needs the
//! *output* of that detection: pixel coordinates of known 3-D anchors,
//! with noise and drop-out. [`CameraSensor`] provides exactly that given
//! a pinhole [`CameraModel`], keeping the rest of the pipeline honest
//! without a computer-vision stack.

use rand::Rng;

use augur_geo::Enu;

use crate::clock::Timestamp;

/// A pinhole camera with yaw-only orientation in the ENU frame.
///
/// AR-at-street-scale registration is dominated by horizontal pose, so
/// the model fixes pitch/roll at zero; the projection still produces 2-D
/// pixel coordinates for 3-D anchors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraModel {
    /// Horizontal field of view, degrees.
    pub fov_deg: f64,
    /// Image width in pixels.
    pub width_px: u32,
    /// Image height in pixels.
    pub height_px: u32,
}

impl Default for CameraModel {
    fn default() -> Self {
        CameraModel {
            fov_deg: 66.0, // typical phone main camera
            width_px: 1920,
            height_px: 1080,
        }
    }
}

impl CameraModel {
    /// Focal length in pixels derived from the horizontal FoV.
    pub fn focal_px(&self) -> f64 {
        (self.width_px as f64 / 2.0) / (self.fov_deg.to_radians() / 2.0).tan()
    }

    /// Projects an anchor (ENU) seen from `position` with the camera
    /// yawed `heading_deg` clockwise from north.
    ///
    /// Returns `(u, v)` pixel coordinates, or `None` when the anchor is
    /// behind the camera or outside the frame.
    pub fn project(&self, position: Enu, heading_deg: f64, anchor: Enu) -> Option<(f64, f64)> {
        let de = anchor.east - position.east;
        let dn = anchor.north - position.north;
        let du = anchor.up - position.up;
        // Rotate world into camera frame: x right, z forward.
        let h = heading_deg.to_radians();
        let forward = dn * h.cos() + de * h.sin();
        let right = de * h.cos() - dn * h.sin();
        if forward <= 0.1 {
            return None;
        }
        let f = self.focal_px();
        let u = self.width_px as f64 / 2.0 + f * right / forward;
        let v = self.height_px as f64 / 2.0 - f * du / forward;
        if u < 0.0 || u > self.width_px as f64 || v < 0.0 || v > self.height_px as f64 {
            return None;
        }
        Some((u, v))
    }
}

/// A pixel observation of a known anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchorObservation {
    /// Observation time.
    pub time: Timestamp,
    /// Index of the anchor in the caller's anchor table.
    pub anchor_index: usize,
    /// Measured pixel column.
    pub u_px: f64,
    /// Measured pixel row.
    pub v_px: f64,
}

/// Simulated feature detector: projects anchors and adds pixel noise.
#[derive(Debug, Clone)]
pub struct CameraSensor<R: Rng> {
    model: CameraModel,
    pixel_sigma: f64,
    detection_probability: f64,
    rng: R,
}

impl<R: Rng> CameraSensor<R> {
    /// Creates a detector with `pixel_sigma` measurement noise and a
    /// per-anchor `detection_probability` (occlusions, blur, texture).
    pub fn new(model: CameraModel, pixel_sigma: f64, detection_probability: f64, rng: R) -> Self {
        CameraSensor {
            model,
            pixel_sigma,
            detection_probability,
            rng,
        }
    }

    /// The camera intrinsics in use.
    pub fn model(&self) -> &CameraModel {
        &self.model
    }

    /// Observes every visible anchor from the given pose.
    pub fn observe(
        &mut self,
        time: Timestamp,
        position: Enu,
        heading_deg: f64,
        anchors: &[Enu],
    ) -> Vec<AnchorObservation> {
        let mut out = Vec::new();
        for (i, &a) in anchors.iter().enumerate() {
            if let Some((u, v)) = self.model.project(position, heading_deg, a) {
                if self.rng.gen_bool(self.detection_probability) {
                    out.push(AnchorObservation {
                        time,
                        anchor_index: i,
                        u_px: u + self.normal() * self.pixel_sigma,
                        v_px: v + self.normal() * self.pixel_sigma,
                    });
                }
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
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn anchor_dead_ahead_projects_to_center() {
        let cam = CameraModel::default();
        // Looking north from origin; anchor 10 m north at eye height.
        let (u, v) = cam
            .project(Enu::new(0.0, 0.0, 1.6), 0.0, Enu::new(0.0, 10.0, 1.6))
            .unwrap();
        assert!((u - 960.0).abs() < 1e-9);
        assert!((v - 540.0).abs() < 1e-9);
    }

    #[test]
    fn anchor_to_the_right_projects_right_of_center() {
        let cam = CameraModel::default();
        let (u, _) = cam
            .project(Enu::new(0.0, 0.0, 1.6), 0.0, Enu::new(2.0, 10.0, 1.6))
            .unwrap();
        assert!(u > 960.0);
    }

    #[test]
    fn anchor_behind_is_invisible() {
        let cam = CameraModel::default();
        assert!(cam
            .project(Enu::new(0.0, 0.0, 1.6), 0.0, Enu::new(0.0, -10.0, 1.6))
            .is_none());
    }

    #[test]
    fn heading_rotates_view() {
        let cam = CameraModel::default();
        // Anchor due east; looking east (heading 90°) sees it centred.
        let (u, _) = cam
            .project(Enu::new(0.0, 0.0, 1.6), 90.0, Enu::new(10.0, 0.0, 1.6))
            .unwrap();
        assert!((u - 960.0).abs() < 1e-6);
        // Looking north it's at the right edge or out of frame.
        let r = cam.project(Enu::new(0.0, 0.0, 1.6), 0.0, Enu::new(10.0, 0.5, 1.6));
        assert!(r.is_none() || r.unwrap().0 > 1800.0);
    }

    #[test]
    fn outside_frustum_is_clipped() {
        let cam = CameraModel::default();
        // High above: projects far off the top of the frame.
        assert!(cam
            .project(Enu::new(0.0, 0.0, 1.6), 0.0, Enu::new(0.0, 1.0, 100.0))
            .is_none());
    }

    #[test]
    fn observation_noise_has_configured_sigma() {
        let cam = CameraModel::default();
        let mut sensor = CameraSensor::new(cam, 2.0, 1.0, rng());
        let anchors = [Enu::new(0.0, 20.0, 1.6)];
        let mut sum2 = 0.0;
        let n = 3000;
        for i in 0..n {
            let obs = sensor.observe(
                Timestamp::from_millis(i),
                Enu::new(0.0, 0.0, 1.6),
                0.0,
                &anchors,
            );
            sum2 += (obs[0].u_px - 960.0).powi(2);
        }
        let sigma = (sum2 / n as f64).sqrt();
        assert!((sigma - 2.0).abs() < 0.2, "sigma {sigma}");
    }

    #[test]
    fn detection_probability_thins_observations() {
        let cam = CameraModel::default();
        let mut sensor = CameraSensor::new(cam, 0.0, 0.25, rng());
        let anchors = [Enu::new(0.0, 20.0, 1.6)];
        let seen: usize = (0..2000)
            .map(|i| {
                sensor
                    .observe(
                        Timestamp::from_millis(i),
                        Enu::new(0.0, 0.0, 1.6),
                        0.0,
                        &anchors,
                    )
                    .len()
            })
            .sum();
        assert!((380..=620).contains(&seen), "seen {seen}");
    }

    #[test]
    fn focal_length_matches_fov() {
        let cam = CameraModel {
            fov_deg: 90.0,
            width_px: 1000,
            height_px: 1000,
        };
        assert!((cam.focal_px() - 500.0).abs() < 1e-9);
    }
}
