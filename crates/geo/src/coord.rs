//! Coordinate types and conversions on the WGS-84 ellipsoid.
//!
//! Three frames are used throughout Augur:
//!
//! - [`GeoPoint`]: geodetic latitude/longitude/altitude, the interchange
//!   format for everything that crosses a crate boundary.
//! - [`Ecef`]: earth-centred earth-fixed Cartesian metres, used as the
//!   pivot for exact conversions.
//! - [`Enu`]: a local east-north-up tangent frame anchored at a
//!   [`LocalFrame`] origin, used for rendering, tracking, and simulation
//!   where planar metres are the natural unit.

use crate::error::GeoError;

/// Mean Earth radius in metres (IUGG), used by the haversine formulas.
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// WGS-84 semi-major axis in metres.
pub const WGS84_A: f64 = 6_378_137.0;

/// WGS-84 flattening.
pub const WGS84_F: f64 = 1.0 / 298.257_223_563;

/// WGS-84 first eccentricity squared.
pub const WGS84_E2: f64 = WGS84_F * (2.0 - WGS84_F);

/// A geodetic position: latitude and longitude in degrees, altitude in
/// metres above the WGS-84 ellipsoid.
///
/// Construction validates ranges; see [`GeoPoint::new`].
///
/// # Example
///
/// ```
/// use augur_geo::GeoPoint;
/// let p = GeoPoint::with_altitude(22.3364, 114.2655, 30.0)?;
/// assert_eq!(p.altitude_m(), 30.0);
/// # Ok::<(), augur_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    lat_deg: f64,
    lon_deg: f64,
    alt_m: f64,
}

impl GeoPoint {
    /// Creates a point at sea level.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLatitude`] / [`GeoError::InvalidLongitude`]
    /// when out of range and [`GeoError::NonFiniteCoordinate`] for NaN or
    /// infinite inputs.
    pub fn new(lat_deg: f64, lon_deg: f64) -> Result<Self, GeoError> {
        Self::with_altitude(lat_deg, lon_deg, 0.0)
    }

    /// Creates a point with an explicit altitude in metres.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GeoPoint::new`].
    pub fn with_altitude(lat_deg: f64, lon_deg: f64, alt_m: f64) -> Result<Self, GeoError> {
        if !lat_deg.is_finite() || !lon_deg.is_finite() || !alt_m.is_finite() {
            return Err(GeoError::NonFiniteCoordinate);
        }
        if !(-90.0..=90.0).contains(&lat_deg) {
            return Err(GeoError::InvalidLatitude(lat_deg));
        }
        if !(-180.0..=180.0).contains(&lon_deg) {
            return Err(GeoError::InvalidLongitude(lon_deg));
        }
        Ok(GeoPoint {
            lat_deg,
            lon_deg,
            alt_m,
        })
    }

    /// Creates a point by clamping into the valid range: NaN coordinates
    /// become 0, latitudes saturate at the poles, longitudes at the
    /// antimeridian. Total (never fails, never panics) — intended for
    /// arithmetic on already-valid points (midpoints, cell bisection)
    /// where the result is in range by construction and a fallible
    /// constructor would force panic-prone unwrapping.
    pub fn clamped(lat_deg: f64, lon_deg: f64) -> Self {
        let sanitize = |v: f64, lo: f64, hi: f64| {
            if v.is_nan() {
                0.0
            } else {
                v.clamp(lo, hi)
            }
        };
        GeoPoint {
            lat_deg: sanitize(lat_deg, -90.0, 90.0),
            lon_deg: sanitize(lon_deg, -180.0, 180.0),
            alt_m: 0.0,
        }
    }

    /// Latitude in degrees, in `[-90, 90]`.
    pub fn latitude_deg(&self) -> f64 {
        self.lat_deg
    }

    /// Longitude in degrees, in `[-180, 180]`.
    pub fn longitude_deg(&self) -> f64 {
        self.lon_deg
    }

    /// Altitude in metres above the ellipsoid.
    pub fn altitude_m(&self) -> f64 {
        self.alt_m
    }

    /// Great-circle distance to `other` in metres on the mean sphere.
    ///
    /// Accurate to ~0.5 % of true ellipsoidal distance, which is ample for
    /// AR anchoring at street scale.
    pub fn haversine_m(&self, other: GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat_deg.to_radians(), self.lon_deg.to_radians());
        let (lat2, lon2) = (other.lat_deg.to_radians(), other.lon_deg.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }

    /// Initial bearing from this point towards `other`, degrees clockwise
    /// from true north in `[0, 360)`.
    pub fn bearing_deg(&self, other: GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat_deg.to_radians(), self.lon_deg.to_radians());
        let (lat2, lon2) = (other.lat_deg.to_radians(), other.lon_deg.to_radians());
        let dlon = lon2 - lon1;
        let y = dlon.sin() * lat2.cos();
        let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
        (y.atan2(x).to_degrees() + 360.0) % 360.0
    }

    /// The point reached by travelling `distance_m` metres along the great
    /// circle with initial `bearing_deg` (clockwise from north).
    pub fn destination(&self, bearing_deg: f64, distance_m: f64) -> GeoPoint {
        let lat1 = self.lat_deg.to_radians();
        let lon1 = self.lon_deg.to_radians();
        let brg = bearing_deg.to_radians();
        let ang = distance_m / EARTH_RADIUS_M;
        let lat2 = (lat1.sin() * ang.cos() + lat1.cos() * ang.sin() * brg.cos()).asin();
        let lon2 =
            lon1 + (brg.sin() * ang.sin() * lat1.cos()).atan2(ang.cos() - lat1.sin() * lat2.sin());
        let lon2 = (lon2.to_degrees() + 540.0) % 360.0 - 180.0;
        GeoPoint {
            lat_deg: lat2.to_degrees().clamp(-90.0, 90.0),
            lon_deg: lon2,
            alt_m: self.alt_m,
        }
    }

    /// Converts to earth-centred earth-fixed Cartesian coordinates.
    pub fn to_ecef(&self) -> Ecef {
        let lat = self.lat_deg.to_radians();
        let lon = self.lon_deg.to_radians();
        let n = WGS84_A / (1.0 - WGS84_E2 * lat.sin().powi(2)).sqrt();
        Ecef {
            x: (n + self.alt_m) * lat.cos() * lon.cos(),
            y: (n + self.alt_m) * lat.cos() * lon.sin(),
            z: (n * (1.0 - WGS84_E2) + self.alt_m) * lat.sin(),
        }
    }
}

impl std::fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({:.6}°, {:.6}°, {:.1} m)",
            self.lat_deg, self.lon_deg, self.alt_m
        )
    }
}

/// Earth-centred earth-fixed Cartesian coordinates in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Ecef {
    /// Metres towards the intersection of equator and prime meridian.
    pub x: f64,
    /// Metres towards the intersection of equator and 90° E.
    pub y: f64,
    /// Metres towards the north pole.
    pub z: f64,
}

impl Ecef {
    /// Converts back to geodetic coordinates (Bowring's iterative method,
    /// up to four refinement steps — sub-millimetre for terrestrial
    /// altitudes).
    ///
    /// Each step is a function of the latitude alone, so once a step
    /// returns the latitude it was given, bit for bit, every later step
    /// would recompute the same `n`, altitude and latitude. The loop stops
    /// there; the result is the same as running all four steps.
    pub fn to_geodetic(&self) -> GeoPoint {
        let p = (self.x * self.x + self.y * self.y).sqrt();
        let lon = self.y.atan2(self.x);
        // Initial guess (spherical), then Bowring refinement.
        let mut lat = (self.z / (p * (1.0 - WGS84_E2))).atan();
        let mut alt = 0.0;
        for _ in 0..4 {
            let n = WGS84_A / (1.0 - WGS84_E2 * lat.sin().powi(2)).sqrt();
            alt = if lat.cos().abs() > 1e-9 {
                p / lat.cos() - n
            } else {
                self.z.abs() - n * (1.0 - WGS84_E2)
            };
            let next = (self.z / (p * (1.0 - WGS84_E2 * n / (n + alt)))).atan();
            let fixed = next.to_bits() == lat.to_bits();
            lat = next;
            if fixed {
                break;
            }
        }
        GeoPoint {
            lat_deg: lat.to_degrees().clamp(-90.0, 90.0),
            lon_deg: lon.to_degrees(),
            alt_m: alt,
        }
    }
}

/// A position in a local east-north-up tangent frame, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Enu {
    /// Metres east of the frame origin.
    pub east: f64,
    /// Metres north of the frame origin.
    pub north: f64,
    /// Metres above the frame origin.
    pub up: f64,
}

impl Enu {
    /// Creates an ENU position.
    pub fn new(east: f64, north: f64, up: f64) -> Self {
        Enu { east, north, up }
    }

    /// Euclidean norm of the horizontal (east, north) component.
    pub fn horizontal_norm(&self) -> f64 {
        (self.east * self.east + self.north * self.north).sqrt()
    }

    /// Full 3-D Euclidean norm.
    pub fn norm(&self) -> f64 {
        (self.east * self.east + self.north * self.north + self.up * self.up).sqrt()
    }

    /// Euclidean distance to another ENU position in the same frame.
    pub fn distance(&self, other: Enu) -> f64 {
        let (de, dn, du) = (
            self.east - other.east,
            self.north - other.north,
            self.up - other.up,
        );
        (de * de + dn * dn + du * du).sqrt()
    }
}

/// A local tangent frame anchored at a geodetic origin.
///
/// All conversions go through ECEF so round-trips are exact to floating
/// point error over city-scale extents.
///
/// # Example
///
/// ```
/// use augur_geo::{GeoPoint, LocalFrame, Enu};
/// let frame = LocalFrame::new(GeoPoint::new(22.0, 114.0)?);
/// let p = frame.to_geodetic(Enu::new(100.0, 50.0, 2.0));
/// let back = frame.to_enu(p);
/// assert!((back.east - 100.0).abs() < 1e-6);
/// # Ok::<(), augur_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalFrame {
    origin: GeoPoint,
    origin_ecef: Ecef,
    // Rotation rows: ECEF -> ENU.
    east_axis: [f64; 3],
    north_axis: [f64; 3],
    up_axis: [f64; 3],
}

impl LocalFrame {
    /// Creates a frame with its origin at `origin`.
    pub fn new(origin: GeoPoint) -> Self {
        let lat = origin.latitude_deg().to_radians();
        let lon = origin.longitude_deg().to_radians();
        let (slat, clat) = (lat.sin(), lat.cos());
        let (slon, clon) = (lon.sin(), lon.cos());
        LocalFrame {
            origin,
            origin_ecef: origin.to_ecef(),
            east_axis: [-slon, clon, 0.0],
            north_axis: [-slat * clon, -slat * slon, clat],
            up_axis: [clat * clon, clat * slon, slat],
        }
    }

    /// The geodetic origin of the frame.
    pub fn origin(&self) -> GeoPoint {
        self.origin
    }

    /// Converts a geodetic point into this frame.
    pub fn to_enu(&self, p: GeoPoint) -> Enu {
        let e = p.to_ecef();
        let d = [
            e.x - self.origin_ecef.x,
            e.y - self.origin_ecef.y,
            e.z - self.origin_ecef.z,
        ];
        let dot = |a: &[f64; 3]| a[0] * d[0] + a[1] * d[1] + a[2] * d[2];
        Enu {
            east: dot(&self.east_axis),
            north: dot(&self.north_axis),
            up: dot(&self.up_axis),
        }
    }

    /// Converts a position in this frame back to geodetic coordinates.
    pub fn to_geodetic(&self, enu: Enu) -> GeoPoint {
        let x = self.origin_ecef.x
            + self.east_axis[0] * enu.east
            + self.north_axis[0] * enu.north
            + self.up_axis[0] * enu.up;
        let y = self.origin_ecef.y
            + self.east_axis[1] * enu.east
            + self.north_axis[1] * enu.north
            + self.up_axis[1] * enu.up;
        let z = self.origin_ecef.z
            + self.east_axis[2] * enu.east
            + self.north_axis[2] * enu.north
            + self.up_axis[2] * enu.up;
        Ecef { x, y, z }.to_geodetic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_out_of_range() {
        assert_eq!(
            GeoPoint::new(91.0, 0.0),
            Err(GeoError::InvalidLatitude(91.0))
        );
        assert_eq!(
            GeoPoint::new(0.0, 181.0),
            Err(GeoError::InvalidLongitude(181.0))
        );
        assert_eq!(
            GeoPoint::new(f64::NAN, 0.0),
            Err(GeoError::NonFiniteCoordinate)
        );
    }

    #[test]
    fn haversine_known_distance() {
        // HKUST to HKIA is roughly 32 km.
        let hkust = GeoPoint::new(22.3364, 114.2655).unwrap();
        let hkia = GeoPoint::new(22.3080, 113.9185).unwrap();
        let d = hkust.haversine_m(hkia);
        assert!((30_000.0..40_000.0).contains(&d), "got {d}");
    }

    #[test]
    fn haversine_is_symmetric_and_zero_on_self() {
        let a = GeoPoint::new(10.0, 20.0).unwrap();
        let b = GeoPoint::new(-5.0, 100.0).unwrap();
        assert_eq!(a.haversine_m(a), 0.0);
        assert!((a.haversine_m(b) - b.haversine_m(a)).abs() < 1e-6);
    }

    #[test]
    fn bearing_cardinal_directions() {
        let origin = GeoPoint::new(0.0, 0.0).unwrap();
        let north = GeoPoint::new(1.0, 0.0).unwrap();
        let east = GeoPoint::new(0.0, 1.0).unwrap();
        assert!((origin.bearing_deg(north) - 0.0).abs() < 1e-6);
        assert!((origin.bearing_deg(east) - 90.0).abs() < 1e-6);
    }

    #[test]
    fn destination_round_trip() {
        let start = GeoPoint::new(22.3, 114.2).unwrap();
        let dest = start.destination(47.0, 1234.0);
        assert!((start.haversine_m(dest) - 1234.0).abs() < 0.5);
        assert!((start.bearing_deg(dest) - 47.0).abs() < 0.1);
    }

    #[test]
    fn ecef_round_trip() {
        for &(lat, lon, alt) in &[
            (0.0, 0.0, 0.0),
            (22.3364, 114.2655, 55.0),
            (-45.0, -120.0, 1000.0),
            (89.0, 10.0, 5.0),
        ] {
            let p = GeoPoint::with_altitude(lat, lon, alt).unwrap();
            let back = p.to_ecef().to_geodetic();
            assert!((back.latitude_deg() - lat).abs() < 1e-7, "lat {lat}");
            assert!((back.longitude_deg() - lon).abs() < 1e-7, "lon {lon}");
            assert!((back.altitude_m() - alt).abs() < 1e-3, "alt {alt}");
        }
    }

    #[test]
    fn enu_round_trip_and_consistency_with_haversine() {
        let frame = LocalFrame::new(GeoPoint::new(22.3364, 114.2655).unwrap());
        let target = frame.to_geodetic(Enu::new(250.0, -130.0, 12.0));
        let enu = frame.to_enu(target);
        assert!((enu.east - 250.0).abs() < 1e-6);
        assert!((enu.north + 130.0).abs() < 1e-6);
        assert!((enu.up - 12.0).abs() < 1e-6);
        // Horizontal norm should be close to the great-circle distance for
        // a same-altitude comparison point.
        let flat = frame.to_geodetic(Enu::new(250.0, -130.0, 0.0));
        let d = frame.origin().haversine_m(flat);
        assert!((d - enu.horizontal_norm()).abs() < 1.0);
    }

    #[test]
    fn enu_distance_and_norms() {
        let a = Enu::new(3.0, 4.0, 0.0);
        assert_eq!(a.horizontal_norm(), 5.0);
        assert_eq!(a.norm(), 5.0);
        let b = Enu::new(3.0, 4.0, 12.0);
        assert_eq!(a.distance(b), 12.0);
    }

    #[test]
    fn display_formats() {
        let p = GeoPoint::with_altitude(1.5, 2.25, 3.0).unwrap();
        let s = p.to_string();
        assert!(s.contains("1.5") && s.contains("2.25"));
    }
}
