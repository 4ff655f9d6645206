//! Axis-aligned bounding regions: planar [`Rect`] (metres, ENU) and
//! geodetic [`GeoBounds`] (degrees).

use crate::coord::GeoPoint;
use crate::error::GeoError;

/// An axis-aligned rectangle in planar (east, north) metres.
///
/// Used by the spatial indexes and the synthetic city model. The empty
/// rectangle is representable via [`Rect::empty`] and behaves as the
/// identity for [`Rect::union`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl Rect {
    /// Creates a rectangle from min/max corners.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidRect`] if `min > max` on either axis or
    /// any bound is non-finite.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Result<Self, GeoError> {
        if !(min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite()) {
            return Err(GeoError::InvalidRect);
        }
        if min_x > max_x || min_y > max_y {
            return Err(GeoError::InvalidRect);
        }
        Ok(Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        })
    }

    /// A rectangle spanning two opposite corners in either order. NaN
    /// coordinates are treated as 0. Total counterpart of [`Rect::new`]
    /// for callers whose geometry is monotone by construction.
    pub fn spanning(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        let z = |v: f64| if v.is_nan() { 0.0 } else { v };
        let (x0, y0, x1, y1) = (z(x0), z(y0), z(x1), z(y1));
        Rect {
            min_x: x0.min(x1),
            min_y: y0.min(y1),
            max_x: x0.max(x1),
            max_y: y0.max(y1),
        }
    }

    /// A degenerate rectangle containing a single point.
    pub fn point(x: f64, y: f64) -> Self {
        Rect {
            min_x: x,
            min_y: y,
            max_x: x,
            max_y: y,
        }
    }

    /// A rectangle centred at `(cx, cy)` with the given half extents.
    pub fn centered(cx: f64, cy: f64, half_w: f64, half_h: f64) -> Result<Self, GeoError> {
        Rect::new(cx - half_w, cy - half_h, cx + half_w, cy + half_h)
    }

    /// The canonical empty rectangle (identity for [`Rect::union`]).
    pub fn empty() -> Self {
        Rect {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    /// Whether this is the empty rectangle.
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Minimum x (west) bound.
    pub fn min_x(&self) -> f64 {
        self.min_x
    }
    /// Minimum y (south) bound.
    pub fn min_y(&self) -> f64 {
        self.min_y
    }
    /// Maximum x (east) bound.
    pub fn max_x(&self) -> f64 {
        self.max_x
    }
    /// Maximum y (north) bound.
    pub fn max_y(&self) -> f64 {
        self.max_y
    }

    /// Width along x in metres (0 for the empty rect).
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    /// Height along y in metres (0 for the empty rect).
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    /// Area in square metres.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point `(x, y)`; NaN for the empty rectangle.
    pub fn center(&self) -> (f64, f64) {
        (
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Whether `(x, y)` lies inside or on the boundary.
    pub fn contains_point(&self, x: f64, y: f64) -> bool {
        x >= self.min_x && x <= self.max_x && y >= self.min_y && y <= self.max_y
    }

    /// Whether `other` is fully contained (boundary included).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        !other.is_empty()
            && other.min_x >= self.min_x
            && other.max_x <= self.max_x
            && other.min_y >= self.min_y
            && other.max_y <= self.max_y
    }

    /// Whether the two rectangles overlap (boundary contact counts).
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min_x <= other.max_x
            && self.max_x >= other.min_x
            && self.min_y <= other.max_y
            && self.max_y >= other.min_y
    }

    /// The smallest rectangle covering both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// The overlap region, or `None` if disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        })
    }

    /// Increase in area if `other` were unioned in (the classic R-tree
    /// insertion heuristic).
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Squared distance from `(x, y)` to the nearest point of the
    /// rectangle; zero when inside.
    pub fn distance2_to_point(&self, x: f64, y: f64) -> f64 {
        let dx = (self.min_x - x).max(0.0).max(x - self.max_x);
        let dy = (self.min_y - y).max(0.0).max(y - self.max_y);
        dx * dx + dy * dy
    }
}

/// A geodetic bounding box in degrees. Does not handle antimeridian
/// wrap-around; callers at ±180° should split boxes themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoBounds {
    south: f64,
    west: f64,
    north: f64,
    east: f64,
}

impl GeoBounds {
    /// Creates a geodetic bounding box.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidRect`] for inverted or out-of-range
    /// bounds.
    pub fn new(south: f64, west: f64, north: f64, east: f64) -> Result<Self, GeoError> {
        GeoPoint::new(south, west)?;
        GeoPoint::new(north, east)?;
        if south > north || west > east {
            return Err(GeoError::InvalidRect);
        }
        Ok(GeoBounds {
            south,
            west,
            north,
            east,
        })
    }

    /// Creates a geodetic bounding box by clamping coordinates into range
    /// and ordering each axis. Total counterpart of [`GeoBounds::new`] for
    /// callers whose inputs are valid by construction (e.g. binary
    /// subdivision of an already-valid cell).
    pub fn clamped(south: f64, west: f64, north: f64, east: f64) -> Self {
        let a = GeoPoint::clamped(south, west);
        let b = GeoPoint::clamped(north, east);
        GeoBounds {
            south: a.latitude_deg().min(b.latitude_deg()),
            west: a.longitude_deg().min(b.longitude_deg()),
            north: a.latitude_deg().max(b.latitude_deg()),
            east: a.longitude_deg().max(b.longitude_deg()),
        }
    }

    /// Southern latitude bound in degrees.
    pub fn south(&self) -> f64 {
        self.south
    }
    /// Western longitude bound in degrees.
    pub fn west(&self) -> f64 {
        self.west
    }
    /// Northern latitude bound in degrees.
    pub fn north(&self) -> f64 {
        self.north
    }
    /// Eastern longitude bound in degrees.
    pub fn east(&self) -> f64 {
        self.east
    }

    /// Whether the point lies inside (boundary included).
    pub fn contains(&self, p: GeoPoint) -> bool {
        p.latitude_deg() >= self.south
            && p.latitude_deg() <= self.north
            && p.longitude_deg() >= self.west
            && p.longitude_deg() <= self.east
    }

    /// Centre of the box.
    pub fn center(&self) -> GeoPoint {
        // The midpoint of valid bounds is valid; `clamped` keeps the
        // computation total without a panicking unwrap.
        GeoPoint::clamped(
            (self.south + self.north) / 2.0,
            (self.west + self.east) / 2.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_validation() {
        assert!(Rect::new(0.0, 0.0, -1.0, 1.0).is_err());
        assert!(Rect::new(0.0, 0.0, f64::NAN, 1.0).is_err());
        assert!(Rect::new(0.0, 0.0, 1.0, 1.0).is_ok());
    }

    #[test]
    fn empty_rect_behaviour() {
        let e = Rect::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        let r = Rect::new(1.0, 2.0, 3.0, 4.0).unwrap();
        assert_eq!(e.union(&r), r);
        assert!(!e.intersects(&r));
        assert!(!r.contains_rect(&e));
    }

    #[test]
    fn containment_and_intersection() {
        let big = Rect::new(0.0, 0.0, 10.0, 10.0).unwrap();
        let small = Rect::new(2.0, 2.0, 4.0, 4.0).unwrap();
        let off = Rect::new(20.0, 20.0, 30.0, 30.0).unwrap();
        assert!(big.contains_rect(&small));
        assert!(!small.contains_rect(&big));
        assert!(big.intersects(&small));
        assert!(!big.intersects(&off));
        assert_eq!(big.intersection(&small), Some(small));
        assert_eq!(big.intersection(&off), None);
        assert!(big.contains_point(0.0, 0.0));
        assert!(!big.contains_point(-0.1, 0.0));
    }

    #[test]
    fn union_and_enlargement() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0).unwrap();
        let b = Rect::new(2.0, 0.0, 3.0, 1.0).unwrap();
        let u = a.union(&b);
        assert_eq!(u, Rect::new(0.0, 0.0, 3.0, 1.0).unwrap());
        assert_eq!(a.enlargement(&b), 2.0);
        assert_eq!(a.enlargement(&a), 0.0);
    }

    #[test]
    fn distance2_to_point() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0).unwrap();
        assert_eq!(r.distance2_to_point(1.0, 1.0), 0.0);
        assert_eq!(r.distance2_to_point(5.0, 2.0), 9.0);
        assert_eq!(r.distance2_to_point(-3.0, -4.0), 25.0);
    }

    #[test]
    fn geo_bounds() {
        let b = GeoBounds::new(22.0, 114.0, 23.0, 115.0).unwrap();
        assert!(b.contains(GeoPoint::new(22.5, 114.5).unwrap()));
        assert!(!b.contains(GeoPoint::new(21.9, 114.5).unwrap()));
        let c = b.center();
        assert!((c.latitude_deg() - 22.5).abs() < 1e-9);
        assert!(GeoBounds::new(23.0, 114.0, 22.0, 115.0).is_err());
        assert!(GeoBounds::new(-91.0, 0.0, 0.0, 1.0).is_err());
    }

    #[test]
    fn centered_constructor() {
        let r = Rect::centered(10.0, 20.0, 2.0, 3.0).unwrap();
        assert_eq!(r.center(), (10.0, 20.0));
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 6.0);
    }
}
