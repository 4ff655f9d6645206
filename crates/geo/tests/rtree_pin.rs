//! Pins the R-tree's observable results by digest: the ids and search
//! cost the POI database's counted kNN returns, the same over a grid of
//! duplicated points where most queries tie, and the order in which a
//! range query yields building footprints. The tourism scenario's modeled
//! retrieve cost is the kNN work count, and occlusion keeps the first
//! building hit at equal ray parameter, so both must survive any change
//! to the index's layout. The constants never change in a refactor.

use augur_geo::poi::PoiGeneratorParams;
use augur_geo::{CityModel, CityParams, Enu, GeoPoint, PoiDatabase, PoiGenerator, RTree, Rect};
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
}

const KNN_DIGEST: u64 = 0x5f55_dae1_37e5_1c28;
const RANGE_DIGEST: u64 = 0x0d20_4629_a4d4_e540;
const DUPLICATE_KNN_DIGEST: u64 = 0x2c38_1e00_60d4_2698;

#[test]
fn poi_knn_ids_and_work_are_pinned() {
    let origin = GeoPoint::new(22.3364, 114.2655).unwrap();
    let mut rng = StdRng::seed_from_u64(18);
    let params = PoiGeneratorParams {
        count: 20_000,
        hotspots: 24,
        cluster_sigma_m: 120.0,
        ..PoiGeneratorParams::default()
    };
    let db = PoiDatabase::build(origin, PoiGenerator::new(origin, params).generate(&mut rng));
    let mut h = Fnv::new();
    for _ in 0..2_000 {
        let here = db.frame().to_geodetic(Enu::new(
            rng.gen_range(-2_200.0..2_200.0),
            rng.gen_range(-2_200.0..2_200.0),
            0.0,
        ));
        for k in [1, 12, 24, 100] {
            let (near, work) = db.nearest_counted(here, k);
            h.word(near.len() as u64);
            for p in near {
                h.word(p.id.0);
            }
            h.word(work as u64);
        }
    }
    assert_eq!(h.0, KNN_DIGEST, "kNN digest {:#018x}", h.0);
}

#[test]
fn duplicate_grid_knn_ids_and_work_are_pinned() {
    // A 16×16 grid of points, each stored one to six times, queried on
    // grid points, cell centres and edge midpoints as well as at random:
    // most queries tie at the k-th place, so this pins which of the tied
    // entries come back and how much work finding them takes.
    let mut rng = StdRng::seed_from_u64(33);
    let mut items = Vec::new();
    for cell in 0..256u32 {
        let (x, y) = (f64::from(cell % 16), f64::from(cell / 16));
        for _ in 0..rng.gen_range(1..=6) {
            items.push((Rect::point(x, y), items.len()));
        }
    }
    let tree = RTree::bulk_load(items);
    let mut h = Fnv::new();
    for q in 0..2_000 {
        let (x, y) = match q % 4 {
            0 => (
                f64::from(rng.gen_range(0..16)),
                f64::from(rng.gen_range(0..16)),
            ),
            1 => (
                f64::from(rng.gen_range(0..15)) + 0.5,
                f64::from(rng.gen_range(0..15)) + 0.5,
            ),
            2 => (
                f64::from(rng.gen_range(0..15)) + 0.5,
                f64::from(rng.gen_range(0..16)),
            ),
            _ => (rng.gen_range(-2.0..17.0), rng.gen_range(-2.0..17.0)),
        };
        for k in [1, 8, 24, 200] {
            let (near, work) = tree.nearest_counted(x, y, k);
            h.word(near.len() as u64);
            for (_, &i) in near {
                h.word(i as u64);
            }
            h.word(work as u64);
        }
    }
    assert_eq!(
        h.0, DUPLICATE_KNN_DIGEST,
        "duplicate kNN digest {:#018x}",
        h.0
    );
}

#[test]
fn footprint_range_order_is_pinned() {
    let mut rng = StdRng::seed_from_u64(18);
    let params = CityParams {
        blocks: 12,
        ..CityParams::default()
    };
    let city = CityModel::generate(&params, &mut rng);
    let tree = RTree::bulk_load(
        city.buildings()
            .iter()
            .enumerate()
            .map(|(i, b)| (b.footprint, i))
            .collect(),
    );
    let extent = city.extent();
    let (x0, x1) = (extent.min_x(), extent.max_x());
    let (y0, y1) = (extent.min_y(), extent.max_y());
    let mut h = Fnv::new();
    for _ in 0..2_000 {
        let (ax, ay) = (rng.gen_range(x0..x1), rng.gen_range(y0..y1));
        let (bx, by) = (
            ax + rng.gen_range(-600.0..600.0),
            ay + rng.gen_range(-600.0..600.0),
        );
        let hits: Vec<usize> = tree
            .range(&Rect::spanning(ax, ay, bx, by))
            .map(|(_, &i)| i)
            .collect();
        h.word(hits.len() as u64);
        for i in hits {
            h.word(i as u64);
        }
    }
    assert_eq!(h.0, RANGE_DIGEST, "range digest {:#018x}", h.0);
}
