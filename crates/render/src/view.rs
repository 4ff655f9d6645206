//! The display camera: frustum culling and projection into pixels.

use augur_geo::Enu;

use crate::error::RenderError;

/// A pixel viewport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Viewport {
    /// Width in pixels.
    pub width_px: u32,
    /// Height in pixels.
    pub height_px: u32,
}

impl Default for Viewport {
    fn default() -> Self {
        Viewport {
            width_px: 1920,
            height_px: 1080,
        }
    }
}

/// The display camera: position + yaw heading + horizontal FoV, projecting
/// into a [`Viewport`]. Matches the conventions of the sensing-side
/// camera model so registration errors translate 1:1 into overlay error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewCamera {
    /// Eye position, metres ENU.
    pub position: Enu,
    /// Heading, degrees clockwise from north.
    pub heading_deg: f64,
    /// Horizontal field of view, degrees.
    pub fov_deg: f64,
    /// Target viewport.
    pub viewport: Viewport,
    /// Far clipping distance, metres.
    pub far_m: f64,
}

impl ViewCamera {
    /// Creates a camera.
    ///
    /// # Errors
    ///
    /// [`RenderError::InvalidParameter`] for a FoV outside `(0, 180)` or
    /// non-positive far distance.
    pub fn new(
        position: Enu,
        heading_deg: f64,
        fov_deg: f64,
        viewport: Viewport,
        far_m: f64,
    ) -> Result<Self, RenderError> {
        if !(fov_deg > 0.0 && fov_deg < 180.0) {
            return Err(RenderError::InvalidParameter("fov_deg"));
        }
        if far_m <= 0.0 || !far_m.is_finite() {
            return Err(RenderError::InvalidParameter("far_m"));
        }
        Ok(ViewCamera {
            position,
            heading_deg,
            fov_deg,
            viewport,
            far_m,
        })
    }

    /// Focal length in pixels.
    pub fn focal_px(&self) -> f64 {
        (self.viewport.width_px as f64 / 2.0) / (self.fov_deg.to_radians() / 2.0).tan()
    }

    /// Camera-frame coordinates of a world point: (right, forward, up-rel).
    pub fn to_camera(&self, world: Enu) -> (f64, f64, f64) {
        let de = world.east - self.position.east;
        let dn = world.north - self.position.north;
        let du = world.up - self.position.up;
        let h = self.heading_deg.to_radians();
        let forward = dn * h.cos() + de * h.sin();
        let right = de * h.cos() - dn * h.sin();
        (right, forward, du)
    }

    /// Distance from the eye to a world point.
    pub fn distance(&self, world: Enu) -> f64 {
        self.position.distance(world)
    }

    /// Whether a world point is inside the view frustum (in front, within
    /// FoV horizontally, nearer than far, and projecting inside the
    /// viewport vertically).
    pub fn in_frustum(&self, world: Enu) -> bool {
        self.project(world).is_some()
    }

    /// Projects a world point to pixels, or `None` if outside the
    /// frustum.
    pub fn project(&self, world: Enu) -> Option<(f64, f64)> {
        let (right, forward, up) = self.to_camera(world);
        if forward <= 0.1 || forward > self.far_m {
            return None;
        }
        let f = self.focal_px();
        let u = self.viewport.width_px as f64 / 2.0 + f * right / forward;
        let v = self.viewport.height_px as f64 / 2.0 - f * up / forward;
        let (w, h) = (
            self.viewport.width_px as f64,
            self.viewport.height_px as f64,
        );
        (u >= 0.0 && u <= w && v >= 0.0 && v <= h).then_some((u, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> ViewCamera {
        ViewCamera::new(
            Enu::new(0.0, 0.0, 1.6),
            0.0,
            66.0,
            Viewport::default(),
            1000.0,
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(ViewCamera::new(Enu::default(), 0.0, 0.0, Viewport::default(), 10.0).is_err());
        assert!(ViewCamera::new(Enu::default(), 0.0, 180.0, Viewport::default(), 10.0).is_err());
        assert!(ViewCamera::new(Enu::default(), 0.0, 60.0, Viewport::default(), 0.0).is_err());
    }

    #[test]
    fn center_projection() {
        let c = cam();
        let (u, v) = c.project(Enu::new(0.0, 50.0, 1.6)).unwrap();
        assert!((u - 960.0).abs() < 1e-9);
        assert!((v - 540.0).abs() < 1e-9);
    }

    #[test]
    fn behind_and_beyond_far_are_culled() {
        let c = cam();
        assert!(c.project(Enu::new(0.0, -50.0, 1.6)).is_none());
        assert!(c.project(Enu::new(0.0, 1500.0, 1.6)).is_none());
        assert!(!c.in_frustum(Enu::new(0.0, -50.0, 1.6)));
    }

    #[test]
    fn heading_rotation() {
        let c = ViewCamera::new(
            Enu::new(0.0, 0.0, 1.6),
            90.0,
            66.0,
            Viewport::default(),
            1000.0,
        )
        .unwrap();
        // Looking east: a point due east is centred.
        let (u, _) = c.project(Enu::new(50.0, 0.0, 1.6)).unwrap();
        assert!((u - 960.0).abs() < 1e-9);
    }

    #[test]
    fn left_right_up_down_sides() {
        let c = cam();
        let (u_l, _) = c.project(Enu::new(-5.0, 50.0, 1.6)).unwrap();
        let (u_r, _) = c.project(Enu::new(5.0, 50.0, 1.6)).unwrap();
        assert!(u_l < 960.0 && u_r > 960.0);
        let (_, v_up) = c.project(Enu::new(0.0, 50.0, 10.0)).unwrap();
        assert!(v_up < 540.0, "up is towards smaller v");
    }

    #[test]
    fn distance_and_camera_frame() {
        let c = cam();
        assert!((c.distance(Enu::new(3.0, 4.0, 1.6)) - 5.0).abs() < 1e-9);
        let (right, forward, up) = c.to_camera(Enu::new(1.0, 2.0, 2.6));
        assert!((right - 1.0).abs() < 1e-9);
        assert!((forward - 2.0).abs() < 1e-9);
        assert!((up - 1.0).abs() < 1e-9);
    }
}
