//! Synthetic city models: extruded-box buildings on a street grid.
//!
//! The paper's occlusion ("see through walls and shelves"), x-ray vision,
//! and VANET scenarios all need a 3-D urban environment. Real building
//! footprints (BIM models, Google Earth contributions) are proprietary, so
//! [`CityModel::generate`] synthesises a Manhattan-style grid: blocks of
//! buildings with lognormal-ish heights separated by streets. The geometry
//! is deliberately simple — axis-aligned extruded boxes — because the
//! occlusion and routing code paths only require ray/box and point/box
//! predicates.

use rand::Rng;

use crate::bbox::Rect;
use crate::coord::Enu;

/// An axis-aligned extruded-box building in the local ENU frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Building {
    /// Stable index within the city.
    pub id: u32,
    /// Ground footprint (east/north metres).
    pub footprint: Rect,
    /// Height above ground in metres.
    pub height_m: f64,
}

impl Building {
    /// Whether a point (ENU) is inside the building volume.
    pub fn contains(&self, p: Enu) -> bool {
        p.up >= 0.0 && p.up <= self.height_m && self.footprint.contains_point(p.east, p.north)
    }

    /// Intersects the segment `a -> b` against the building volume.
    ///
    /// Returns the parametric `t` in `[0, 1]` of the first intersection,
    /// or `None` if the segment misses. This is the slab method extended
    /// with the vertical extent `[0, height]`.
    pub fn intersect_segment(&self, a: Enu, b: Enu) -> Option<f64> {
        let dir = (b.east - a.east, b.north - a.north, b.up - a.up);
        let mut t_min = 0.0f64;
        let mut t_max = 1.0f64;
        let axes = [
            (
                a.east,
                dir.0,
                self.footprint.min_x(),
                self.footprint.max_x(),
            ),
            (
                a.north,
                dir.1,
                self.footprint.min_y(),
                self.footprint.max_y(),
            ),
            (a.up, dir.2, 0.0, self.height_m),
        ];
        for (origin, d, lo, hi) in axes {
            if d.abs() < 1e-12 {
                if origin < lo || origin > hi {
                    return None;
                }
            } else {
                let mut t0 = (lo - origin) / d;
                let mut t1 = (hi - origin) / d;
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                t_min = t_min.max(t0);
                t_max = t_max.min(t1);
                if t_min > t_max {
                    return None;
                }
            }
        }
        Some(t_min)
    }
}

/// Street-grid description derived from a generated city.
#[derive(Debug, Clone, PartialEq)]
pub struct RoadGrid {
    /// East coordinates of north-south street centrelines.
    pub vertical_streets: Vec<f64>,
    /// North coordinates of east-west street centrelines.
    pub horizontal_streets: Vec<f64>,
    /// Street width in metres.
    pub street_width_m: f64,
}

impl RoadGrid {
    /// Snaps a point to the nearest street centreline intersection.
    pub fn nearest_intersection(&self, east: f64, north: f64) -> (f64, f64) {
        let e = nearest_in(&self.vertical_streets, east);
        let n = nearest_in(&self.horizontal_streets, north);
        (e, n)
    }

    /// Whether `(east, north)` lies on a street (within half-width of a
    /// centreline).
    pub fn on_street(&self, east: f64, north: f64) -> bool {
        let half = self.street_width_m / 2.0;
        self.vertical_streets
            .iter()
            .any(|&s| (east - s).abs() <= half)
            || self
                .horizontal_streets
                .iter()
                .any(|&s| (north - s).abs() <= half)
    }
}

fn nearest_in(sorted: &[f64], v: f64) -> f64 {
    sorted
        .iter()
        .copied()
        .min_by(|a, b| {
            (a - v)
                .abs()
                .partial_cmp(&(b - v).abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or(v)
}

/// Parameters for [`CityModel::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct CityParams {
    /// Number of blocks along each axis.
    pub blocks: usize,
    /// Side length of a block in metres (buildings occupy block interiors).
    pub block_size_m: f64,
    /// Street width between blocks, metres.
    pub street_width_m: f64,
    /// Buildings per block along each axis (so `per_block²` per block).
    pub buildings_per_block_axis: usize,
    /// Mean building height in metres.
    pub mean_height_m: f64,
    /// Height spread factor; heights are `mean * exp(N(0, spread))`.
    pub height_spread: f64,
}

impl Default for CityParams {
    fn default() -> Self {
        CityParams {
            blocks: 6,
            block_size_m: 120.0,
            street_width_m: 18.0,
            buildings_per_block_axis: 2,
            mean_height_m: 25.0,
            height_spread: 0.5,
        }
    }
}

/// A generated city: buildings plus the street grid between them, centred
/// on the ENU origin.
#[derive(Debug, Clone, PartialEq)]
pub struct CityModel {
    buildings: Vec<Building>,
    roads: RoadGrid,
    extent: Rect,
}

impl CityModel {
    /// Generates a grid city with `params`, deterministic under `rng`.
    pub fn generate<R: Rng + ?Sized>(params: &CityParams, rng: &mut R) -> Self {
        let pitch = params.block_size_m + params.street_width_m;
        let total = pitch * params.blocks as f64;
        let origin_off = -total / 2.0;
        let mut buildings = Vec::new();
        let mut vertical = Vec::new();
        let mut horizontal = Vec::new();
        for i in 0..=params.blocks {
            let line = origin_off + pitch * i as f64 - params.street_width_m / 2.0;
            vertical.push(line);
            horizontal.push(line);
        }
        let n = params.buildings_per_block_axis.max(1);
        let cell = params.block_size_m / n as f64;
        let margin = cell * 0.1;
        let mut id = 0u32;
        for bi in 0..params.blocks {
            for bj in 0..params.blocks {
                let bx = origin_off + pitch * bi as f64;
                let by = origin_off + pitch * bj as f64;
                for ci in 0..n {
                    for cj in 0..n {
                        let x0 = bx + cell * ci as f64 + margin;
                        let y0 = by + cell * cj as f64 + margin;
                        let x1 = bx + cell * (ci + 1) as f64 - margin;
                        let y1 = by + cell * (cj + 1) as f64 - margin;
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen_range(0.0..1.0);
                        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        let height = params.mean_height_m * (params.height_spread * z).exp();
                        buildings.push(Building {
                            id,
                            footprint: Rect::spanning(x0, y0, x1, y1),
                            height_m: height.clamp(3.0, 400.0),
                        });
                        id += 1;
                    }
                }
            }
        }
        let extent = Rect::spanning(
            origin_off - params.street_width_m,
            origin_off - params.street_width_m,
            origin_off + total,
            origin_off + total,
        );
        CityModel {
            buildings,
            roads: RoadGrid {
                vertical_streets: vertical,
                horizontal_streets: horizontal,
                street_width_m: params.street_width_m,
            },
            extent,
        }
    }

    /// All buildings.
    pub fn buildings(&self) -> &[Building] {
        &self.buildings
    }

    /// The street grid.
    pub fn roads(&self) -> &RoadGrid {
        &self.roads
    }

    /// Overall extent in ENU metres.
    pub fn extent(&self) -> Rect {
        self.extent
    }

    /// Whether the segment `a -> b` is blocked by any building.
    ///
    /// Linear in building count; the render crate layers a spatial index
    /// over this when building counts grow (experiment E5 measures both).
    pub fn line_of_sight_blocked(&self, a: Enu, b: Enu) -> bool {
        self.first_obstruction(a, b).is_some()
    }

    /// The building first obstructing `a -> b`, if any, with the
    /// parametric `t` of entry.
    pub fn first_obstruction(&self, a: Enu, b: Enu) -> Option<(&Building, f64)> {
        let mut best: Option<(&Building, f64)> = None;
        for bld in &self.buildings {
            if let Some(t) = bld.intersect_segment(a, b) {
                // Ignore intersections at the very start (observer inside).
                if t <= 1e-9 && bld.contains(a) {
                    continue;
                }
                match best {
                    Some((_, bt)) if bt <= t => {}
                    _ => best = Some((bld, t)),
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn city() -> CityModel {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        CityModel::generate(&CityParams::default(), &mut rng)
    }

    #[test]
    fn generates_expected_building_count() {
        let c = city();
        let p = CityParams::default();
        assert_eq!(
            c.buildings().len(),
            p.blocks * p.blocks * p.buildings_per_block_axis * p.buildings_per_block_axis
        );
    }

    #[test]
    fn buildings_do_not_overlap_streets() {
        let c = city();
        for b in c.buildings() {
            let (cx, cy) = b.footprint.center();
            assert!(!c.roads().on_street(cx, cy), "building centre on street");
        }
    }

    #[test]
    fn heights_are_positive_and_bounded() {
        let c = city();
        for b in c.buildings() {
            assert!(b.height_m >= 3.0 && b.height_m <= 400.0);
        }
    }

    #[test]
    fn segment_through_building_is_blocked() {
        let c = city();
        let b = &c.buildings()[0];
        let (cx, cy) = b.footprint.center();
        let a = Enu::new(cx - 500.0, cy, 1.5);
        let t = Enu::new(cx + 500.0, cy, 1.5);
        assert!(c.line_of_sight_blocked(a, t));
        let (hit, _) = c.first_obstruction(a, t).unwrap();
        // The first obstruction must be *some* building on the line; at
        // ground level crossing the whole city, several qualify.
        assert!(hit.intersect_segment(a, t).is_some());
    }

    #[test]
    fn segment_above_all_buildings_is_clear() {
        let c = city();
        let a = Enu::new(-400.0, 0.0, 500.0);
        let b = Enu::new(400.0, 0.0, 500.0);
        assert!(!c.line_of_sight_blocked(a, b));
    }

    #[test]
    fn segment_along_street_is_clear() {
        let c = city();
        let street = c.roads().vertical_streets[1];
        let a = Enu::new(street, -300.0, 1.5);
        let b = Enu::new(street, 300.0, 1.5);
        assert!(
            !c.line_of_sight_blocked(a, b),
            "street centreline should be clear"
        );
    }

    #[test]
    fn intersect_segment_parametric_t() {
        let b = Building {
            id: 0,
            footprint: Rect::new(10.0, -5.0, 20.0, 5.0).unwrap(),
            height_m: 30.0,
        };
        let a = Enu::new(0.0, 0.0, 1.0);
        let t = Enu::new(40.0, 0.0, 1.0);
        let hit = b.intersect_segment(a, t).unwrap();
        assert!((hit - 0.25).abs() < 1e-9);
        // Miss above.
        let a2 = Enu::new(0.0, 0.0, 50.0);
        let t2 = Enu::new(40.0, 0.0, 50.0);
        assert!(b.intersect_segment(a2, t2).is_none());
    }

    #[test]
    fn contains_checks_volume() {
        let b = Building {
            id: 0,
            footprint: Rect::new(0.0, 0.0, 10.0, 10.0).unwrap(),
            height_m: 20.0,
        };
        assert!(b.contains(Enu::new(5.0, 5.0, 10.0)));
        assert!(!b.contains(Enu::new(5.0, 5.0, 21.0)));
        assert!(!b.contains(Enu::new(-1.0, 5.0, 10.0)));
    }

    #[test]
    fn nearest_intersection_snaps() {
        let c = city();
        let (e, n) = c.roads().nearest_intersection(3.0, 7.0);
        assert!(c.roads().vertical_streets.contains(&e));
        assert!(c.roads().horizontal_streets.contains(&n));
    }
}
