//! Property-based tests for the geospatial substrate.

use augur_geo::{GeoPoint, Geohash, LocalFrame, QuadTree, RTree, Rect};
use proptest::prelude::*;

fn arb_lat() -> impl Strategy<Value = f64> {
    -85.0f64..85.0
}

fn arb_lon() -> impl Strategy<Value = f64> {
    -179.0f64..179.0
}

proptest! {
    #[test]
    fn haversine_triangle_inequality(
        lat1 in arb_lat(), lon1 in arb_lon(),
        lat2 in arb_lat(), lon2 in arb_lon(),
        lat3 in arb_lat(), lon3 in arb_lon(),
    ) {
        let a = GeoPoint::new(lat1, lon1).unwrap();
        let b = GeoPoint::new(lat2, lon2).unwrap();
        let c = GeoPoint::new(lat3, lon3).unwrap();
        let ab = a.haversine_m(b);
        let bc = b.haversine_m(c);
        let ac = a.haversine_m(c);
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn ecef_round_trip(lat in arb_lat(), lon in arb_lon(), alt in -100.0f64..9000.0) {
        let p = GeoPoint::with_altitude(lat, lon, alt).unwrap();
        let back = p.to_ecef().to_geodetic();
        prop_assert!((back.latitude_deg() - lat).abs() < 1e-6);
        prop_assert!((back.longitude_deg() - lon).abs() < 1e-6);
        prop_assert!((back.altitude_m() - alt).abs() < 1e-2);
    }

    #[test]
    fn enu_round_trip(
        lat in arb_lat(), lon in arb_lon(),
        east in -5000.0f64..5000.0, north in -5000.0f64..5000.0, up in -50.0f64..200.0,
    ) {
        let frame = LocalFrame::new(GeoPoint::new(lat, lon).unwrap());
        let p = frame.to_geodetic(augur_geo::Enu::new(east, north, up));
        let enu = frame.to_enu(p);
        prop_assert!((enu.east - east).abs() < 1e-5);
        prop_assert!((enu.north - north).abs() < 1e-5);
        prop_assert!((enu.up - up).abs() < 1e-5);
    }

    #[test]
    fn geohash_bounds_always_contain_point(
        lat in arb_lat(), lon in arb_lon(), prec in 1usize..=12,
    ) {
        let p = GeoPoint::new(lat, lon).unwrap();
        let h = Geohash::encode(p, prec).unwrap();
        prop_assert!(h.bounds().contains(p));
        // Parent contains child.
        if let Some(parent) = h.parent() {
            prop_assert!(parent.bounds().contains(p));
            prop_assert!(parent.contains(&h));
        }
    }

    #[test]
    fn destination_distance_matches(
        lat in arb_lat(), lon in arb_lon(),
        bearing in 0.0f64..360.0, dist in 1.0f64..100_000.0,
    ) {
        let p = GeoPoint::new(lat, lon).unwrap();
        let q = p.destination(bearing, dist);
        prop_assert!((p.haversine_m(q) - dist).abs() < dist * 1e-6 + 0.5);
    }

    #[test]
    fn rtree_range_matches_brute_force(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..200),
        qx in 0.0f64..80.0, qy in 0.0f64..80.0, qw in 1.0f64..20.0, qh in 1.0f64..20.0,
    ) {
        let tree: RTree<usize> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Rect::point(x, y), i))
            .collect();
        let q = Rect::new(qx, qy, qx + qw, qy + qh).unwrap();
        let mut got: Vec<usize> = tree.range(&q).map(|(_, v)| *v).collect();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| q.contains_point(x, y))
            .map(|(i, _)| i)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn rtree_nearest_first_is_global_minimum(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..100),
        qx in 0.0f64..100.0, qy in 0.0f64..100.0,
    ) {
        let tree: RTree<usize> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Rect::point(x, y), i))
            .collect();
        let res = tree.nearest(qx, qy, 1);
        prop_assert_eq!(res.len(), 1);
        let best = res[0].0.distance2_to_point(qx, qy);
        for &(x, y) in &pts {
            let d2 = (x - qx).powi(2) + (y - qy).powi(2);
            prop_assert!(best <= d2 + 1e-9);
        }
    }

    #[test]
    fn quadtree_range_matches_brute_force(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..200),
        qx in 0.0f64..80.0, qy in 0.0f64..80.0, qw in 1.0f64..20.0, qh in 1.0f64..20.0,
    ) {
        let mut qt = QuadTree::new(Rect::new(0.0, 0.0, 100.0, 100.0).unwrap());
        for (i, &(x, y)) in pts.iter().enumerate() {
            qt.insert(x, y, i).unwrap();
        }
        let q = Rect::new(qx, qy, qx + qw, qy + qh).unwrap();
        let mut got: Vec<usize> = qt.range(&q).into_iter().map(|(_, _, v)| *v).collect();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| q.contains_point(x, y))
            .map(|(i, _)| i)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn rect_union_contains_both(
        ax in -50.0f64..50.0, ay in -50.0f64..50.0, aw in 0.0f64..20.0, ah in 0.0f64..20.0,
        bx in -50.0f64..50.0, by in -50.0f64..50.0, bw in 0.0f64..20.0, bh in 0.0f64..20.0,
    ) {
        let a = Rect::new(ax, ay, ax + aw, ay + ah).unwrap();
        let b = Rect::new(bx, by, bx + bw, by + bh).unwrap();
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
        prop_assert!(u.area() + 1e-9 >= a.area().max(b.area()));
    }
}
