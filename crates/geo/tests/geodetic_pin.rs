//! Pins the bits of the ECEF-to-geodetic conversion by digest: `to_bits`
//! of latitude, longitude and altitude from `LocalFrame::to_geodetic` and
//! `Ecef::to_geodetic` over a seeded ENU grid, with high-altitude and
//! near-pole points. Every AR frame converts its pose this way before the
//! kNN query, so a faster conversion must return the same bits. The
//! constants never change in a refactor.

use augur_geo::{Enu, GeoPoint, LocalFrame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn point(&mut self, p: GeoPoint) {
        self.word(p.latitude_deg().to_bits());
        self.word(p.longitude_deg().to_bits());
        self.word(p.altitude_m().to_bits());
    }
}

const FRAME_DIGEST: u64 = 0x3ef3_7821_0160_2306;
const ECEF_DIGEST: u64 = 0x63c9_8b6e_87a9_7d0d;

#[test]
fn local_frame_to_geodetic_bits_are_pinned() {
    let mut rng = StdRng::seed_from_u64(33);
    // A city origin, a high-latitude one and one a few metres off a pole.
    let origins = [(22.3364, 114.2655), (-67.5, -45.0), (89.9999, 30.0)];
    let ups = [0.0, 1.6, 120.0, 8_848.0, 35_786_000.0];
    let mut h = Fnv::new();
    for (lat, lon) in origins {
        let frame = LocalFrame::new(GeoPoint::new(lat, lon).unwrap());
        for i in -8..=8 {
            for j in -8..=8 {
                let (e, n) = (f64::from(i) * 275.0, f64::from(j) * 275.0);
                for up in ups {
                    let jitter = rng.gen_range(-0.5..0.5);
                    h.point(frame.to_geodetic(Enu::new(e + jitter, n - jitter, up)));
                }
            }
        }
    }
    assert_eq!(h.0, FRAME_DIGEST, "frame digest {:#018x}", h.0);
}

#[test]
fn ecef_to_geodetic_bits_are_pinned() {
    let mut rng = StdRng::seed_from_u64(34);
    let mut h = Fnv::new();
    for _ in 0..20_000 {
        // Latitudes crowd towards both poles, altitudes span the seabed
        // to geostationary orbit.
        let u: f64 = rng.gen_range(-1.0..1.0);
        let lat = 90.0 * u.signum() * u.abs().powf(0.25);
        let lon = rng.gen_range(-180.0..180.0);
        let alt = match rng.gen_range(0..4) {
            0 => rng.gen_range(-11_000.0..0.0),
            1 => rng.gen_range(0.0..9_000.0),
            2 => rng.gen_range(9_000.0..400_000.0),
            _ => rng.gen_range(400_000.0..36_000_000.0),
        };
        let p = GeoPoint::with_altitude(lat, lon, alt).unwrap();
        h.point(p.to_ecef().to_geodetic());
    }
    for lat in [90.0, -90.0, 89.999_999_9, -89.999_999_9, 0.0] {
        for alt in [0.0, 1.0, 10_000.0] {
            let p = GeoPoint::with_altitude(lat, 45.0, alt).unwrap();
            h.point(p.to_ecef().to_geodetic());
        }
    }
    assert_eq!(h.0, ECEF_DIGEST, "ECEF digest {:#018x}", h.0);
}
