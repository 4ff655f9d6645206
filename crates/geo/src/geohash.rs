//! Geohash encoding: interleaved base-32 spatial bucketing.
//!
//! Geohashes give the platform a cheap, sortable spatial key for log
//! partitioning ([`crate::poi`] feeds keyed by geohash prefix) and coarse
//! proximity grouping. Precision 1..=12 characters is supported; each
//! character adds 5 bits alternating between longitude and latitude.

use crate::bbox::GeoBounds;
use crate::coord::GeoPoint;
use crate::error::GeoError;

const BASE32: &[u8; 32] = b"0123456789bcdefghjkmnpqrstuvwxyz";

/// Maximum supported geohash length in characters.
pub const MAX_PRECISION: usize = 12;

fn base32_index(c: char) -> Result<u8, GeoError> {
    BASE32
        .iter()
        .position(|&b| b as char == c)
        .map(|i| i as u8)
        .ok_or(GeoError::InvalidGeohashChar(c))
}

/// A validated geohash string of 1..=12 base-32 characters.
///
/// # Example
///
/// ```
/// use augur_geo::{GeoPoint, Geohash};
/// let p = GeoPoint::new(22.3364, 114.2655)?;
/// let h = Geohash::encode(p, 7)?;
/// assert_eq!(h.precision(), 7);
/// let cell = h.bounds();
/// assert!(cell.contains(p));
/// # Ok::<(), augur_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Geohash(String);

impl Geohash {
    /// Encodes a point to the requested precision.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidGeohashLength`] if `precision` is 0 or
    /// exceeds [`MAX_PRECISION`].
    pub fn encode(p: GeoPoint, precision: usize) -> Result<Self, GeoError> {
        if precision == 0 || precision > MAX_PRECISION {
            return Err(GeoError::InvalidGeohashLength(precision));
        }
        let (mut lat_lo, mut lat_hi) = (-90.0f64, 90.0f64);
        let (mut lon_lo, mut lon_hi) = (-180.0f64, 180.0f64);
        let mut even = true; // longitude bit first
        let mut out = String::with_capacity(precision);
        let mut bits = 0u8;
        let mut bit_count = 0u8;
        while out.len() < precision {
            if even {
                let mid = (lon_lo + lon_hi) / 2.0;
                if p.longitude_deg() >= mid {
                    bits = (bits << 1) | 1;
                    lon_lo = mid;
                } else {
                    bits <<= 1;
                    lon_hi = mid;
                }
            } else {
                let mid = (lat_lo + lat_hi) / 2.0;
                if p.latitude_deg() >= mid {
                    bits = (bits << 1) | 1;
                    lat_lo = mid;
                } else {
                    bits <<= 1;
                    lat_hi = mid;
                }
            }
            even = !even;
            bit_count += 1;
            if bit_count == 5 {
                out.push(BASE32[bits as usize] as char);
                bits = 0;
                bit_count = 0;
            }
        }
        Ok(Geohash(out))
    }

    /// Parses an existing geohash string, validating alphabet and length.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidGeohashChar`] or
    /// [`GeoError::InvalidGeohashLength`].
    pub fn parse(s: &str) -> Result<Self, GeoError> {
        if s.is_empty() || s.len() > MAX_PRECISION {
            return Err(GeoError::InvalidGeohashLength(s.len()));
        }
        for c in s.chars() {
            base32_index(c)?;
        }
        Ok(Geohash(s.to_string()))
    }

    /// The geohash string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Number of characters (precision level).
    pub fn precision(&self) -> usize {
        self.0.len()
    }

    /// The bounding cell this geohash denotes.
    pub fn bounds(&self) -> GeoBounds {
        let (mut lat_lo, mut lat_hi) = (-90.0f64, 90.0f64);
        let (mut lon_lo, mut lon_hi) = (-180.0f64, 180.0f64);
        let mut even = true;
        for c in self.0.chars() {
            // Characters are validated at construction; an impossible miss
            // decodes as cell 0 rather than panicking.
            let idx = base32_index(c).unwrap_or(0);
            for shift in (0..5).rev() {
                let bit = (idx >> shift) & 1;
                if even {
                    let mid = (lon_lo + lon_hi) / 2.0;
                    if bit == 1 {
                        lon_lo = mid;
                    } else {
                        lon_hi = mid;
                    }
                } else {
                    let mid = (lat_lo + lat_hi) / 2.0;
                    if bit == 1 {
                        lat_lo = mid;
                    } else {
                        lat_hi = mid;
                    }
                }
                even = !even;
            }
        }
        GeoBounds::clamped(lat_lo, lon_lo, lat_hi, lon_hi)
    }

    /// Centre point of the cell.
    pub fn center(&self) -> GeoPoint {
        self.bounds().center()
    }

    /// The parent cell one precision level up, or `None` at precision 1.
    pub fn parent(&self) -> Option<Geohash> {
        if self.0.len() <= 1 {
            None
        } else {
            Some(Geohash(self.0[..self.0.len() - 1].to_string()))
        }
    }

    /// Whether `other` is inside this cell (prefix relation).
    pub fn contains(&self, other: &Geohash) -> bool {
        other.0.starts_with(&self.0)
    }

    /// A stable routing key for stream partitioning: the first up to 12
    /// base-32 characters packed 5 bits each into a `u64`, left-aligned.
    /// Keys share high bits exactly when the cells share a prefix, so
    /// partitioning on a truncated key groups spatially adjacent traffic
    /// onto the same partition (locality for the geo-keyed topics).
    pub fn routing_key(&self) -> u64 {
        let mut key = 0u64;
        for (i, c) in self.0.chars().take(12).enumerate() {
            let idx = base32_index(c).unwrap_or(0) as u64;
            key |= idx << (64 - 5 * (i + 1));
        }
        key
    }

    /// The eight neighbouring cells at the same precision (clamped at the
    /// poles, so fewer than eight may be returned).
    pub fn neighbors(&self) -> Vec<Geohash> {
        let b = self.bounds();
        let dlat = b.north() - b.south();
        let dlon = b.east() - b.west();
        let c = self.center();
        let mut out = Vec::with_capacity(8);
        for dy in [-1.0, 0.0, 1.0] {
            for dx in [-1.0, 0.0, 1.0] {
                if dx == 0.0 && dy == 0.0 {
                    continue;
                }
                let lat = c.latitude_deg() + dy * dlat;
                let mut lon = c.longitude_deg() + dx * dlon;
                if !(-90.0..=90.0).contains(&lat) {
                    continue;
                }
                // wrap longitude
                if lon > 180.0 {
                    lon -= 360.0;
                }
                if lon < -180.0 {
                    lon += 360.0;
                }
                let p = GeoPoint::clamped(lat, lon);
                // Precision came from an existing hash, so encode cannot
                // fail; skip (rather than panic on) the impossible branch.
                if let Ok(h) = Geohash::encode(p, self.precision()) {
                    if h != *self && !out.contains(&h) {
                        out.push(h);
                    }
                }
            }
        }
        out
    }
}

impl std::fmt::Display for Geohash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for Geohash {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_known_value() {
        // Well-known test vector: (57.64911, 10.40744) -> "u4pruydqqvj"
        let p = GeoPoint::new(57.64911, 10.40744).unwrap();
        let h = Geohash::encode(p, 11).unwrap();
        assert_eq!(h.as_str(), "u4pruydqqvj");
    }

    #[test]
    fn bounds_contain_encoded_point() {
        let p = GeoPoint::new(22.3364, 114.2655).unwrap();
        for prec in 1..=12 {
            let h = Geohash::encode(p, prec).unwrap();
            assert!(h.bounds().contains(p), "precision {prec}");
        }
    }

    #[test]
    fn precision_shrinks_cells() {
        let p = GeoPoint::new(40.0, -74.0).unwrap();
        let mut prev_area = f64::INFINITY;
        for prec in 1..=8 {
            let b = Geohash::encode(p, prec).unwrap().bounds();
            let area = (b.north() - b.south()) * (b.east() - b.west());
            assert!(area < prev_area);
            prev_area = area;
        }
    }

    #[test]
    fn parse_validates() {
        assert!(Geohash::parse("u4pruyd").is_ok());
        assert_eq!(
            Geohash::parse("u4a"), // 'a' is not in the geohash alphabet
            Err(GeoError::InvalidGeohashChar('a'))
        );
        assert_eq!(Geohash::parse(""), Err(GeoError::InvalidGeohashLength(0)));
        assert!(Geohash::parse("0123456789bcd").is_err());
    }

    #[test]
    fn parent_is_prefix() {
        let h = Geohash::parse("u4pruyd").unwrap();
        let p = h.parent().unwrap();
        assert_eq!(p.as_str(), "u4pruy");
        assert!(p.contains(&h));
        assert!(!h.contains(&p));
        assert!(Geohash::parse("u").unwrap().parent().is_none());
    }

    #[test]
    fn neighbors_are_adjacent_and_distinct() {
        let h = Geohash::encode(GeoPoint::new(22.3, 114.2).unwrap(), 6).unwrap();
        let ns = h.neighbors();
        assert_eq!(ns.len(), 8);
        let c = h.center();
        for n in &ns {
            assert_ne!(n, &h);
            // Neighbour centres are within ~2 cell diagonals.
            let d = c.haversine_m(n.center());
            let b = h.bounds();
            let cell_m = GeoPoint::new(b.south(), b.west())
                .unwrap()
                .haversine_m(GeoPoint::new(b.north(), b.east()).unwrap());
            assert!(d < 2.0 * cell_m, "neighbor too far: {d} vs cell {cell_m}");
        }
    }

    #[test]
    fn routing_key_preserves_prefix_structure() {
        let p = GeoPoint::new(22.3364, 114.2655).unwrap();
        let fine = Geohash::encode(p, 9).unwrap();
        let coarse = fine.parent().unwrap().parent().unwrap();
        // Same prefix ⇒ identical high bits up to the coarse precision.
        let bits = 5 * coarse.precision() as u32;
        let mask = !0u64 << (64 - bits);
        assert_eq!(fine.routing_key() & mask, coarse.routing_key() & mask);
        // Different cells at the same precision produce different keys.
        let q = GeoPoint::new(-33.86, 151.21).unwrap();
        let other = Geohash::encode(q, 9).unwrap();
        assert_ne!(fine.routing_key(), other.routing_key());
        // Nearby points share coarse routing bits.
        let near = Geohash::encode(p.destination(45.0, 30.0), 9).unwrap();
        let coarse_mask = !0u64 << (64 - 5 * 5);
        assert_eq!(
            fine.routing_key() & coarse_mask,
            near.routing_key() & coarse_mask
        );
    }

    #[test]
    fn round_trip_center_re_encodes_to_same_hash() {
        let p = GeoPoint::new(-33.8688, 151.2093).unwrap();
        let h = Geohash::encode(p, 8).unwrap();
        let again = Geohash::encode(h.center(), 8).unwrap();
        assert_eq!(h, again);
    }
}
