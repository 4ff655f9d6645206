//! k-nearest-neighbour oracle: the full k-sets the R-tree and the
//! quadtree return must match a linear scan, including on inputs full
//! of duplicate points. Ties may resolve to different entries, so the
//! comparison is over the sorted distance lists, not identities.

use augur_geo::{
    Enu, GeoPoint, LocalFrame, Poi, PoiCategory, PoiDatabase, PoiId, QuadTree, RTree, Rect,
};
use proptest::prelude::*;

/// Points on a coarse 16×16 grid, so most inputs repeat coordinates.
fn grid_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0u8..16, 0u8..16), 1..160).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(x, y)| (f64::from(x) * 6.25, f64::from(y) * 6.25))
            .collect()
    })
}

/// Squared distance from `(qx, qy)` to a point, by the same formula the
/// indexes use.
fn d2(x: f64, y: f64, qx: f64, qy: f64) -> f64 {
    Rect::point(x, y).distance2_to_point(qx, qy)
}

/// The `k` smallest squared distances by linear scan, ascending.
fn scan(pts: &[(f64, f64)], qx: f64, qy: f64, k: usize) -> Vec<f64> {
    let mut all: Vec<f64> = pts.iter().map(|&(x, y)| d2(x, y, qx, qy)).collect();
    all.sort_by(f64::total_cmp);
    all.truncate(k);
    all
}

/// Asserts `got` is ascending (closest first) and equals `want`.
fn check(got: Vec<f64>, want: Vec<f64>) {
    prop_assert!(
        got.windows(2).all(|w| w[0] <= w[1]),
        "not closest first: {got:?}"
    );
    prop_assert_eq!(got, want);
}

proptest! {
    #[test]
    fn rtree_knn_matches_linear_scan(
        pts in grid_points(),
        qx in -10.0f64..110.0, qy in -10.0f64..110.0, k in 1usize..48,
    ) {
        let want = scan(&pts, qx, qy, k);
        let bulk: RTree<usize> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Rect::point(x, y), i))
            .collect();
        // The same points loaded in reverse: ties sit in another order.
        let reversed: RTree<usize> = pts
            .iter()
            .enumerate()
            .rev()
            .map(|(i, &(x, y))| (Rect::point(x, y), i))
            .collect();
        for tree in [&bulk, &reversed] {
            let got = tree
                .nearest(qx, qy, k)
                .iter()
                .map(|(r, _)| r.distance2_to_point(qx, qy))
                .collect();
            check(got, want.clone());
        }
    }

    #[test]
    fn quadtree_knn_matches_linear_scan(
        pts in grid_points(),
        qx in -10.0f64..110.0, qy in -10.0f64..110.0, k in 1usize..48,
    ) {
        let mut qt = QuadTree::new(Rect::new(0.0, 0.0, 100.0, 100.0).unwrap());
        for (i, &(x, y)) in pts.iter().enumerate() {
            qt.insert(x, y, i).unwrap();
        }
        let got = qt
            .nearest(qx, qy, k)
            .iter()
            .map(|&(x, y, _)| d2(x, y, qx, qy))
            .collect();
        check(got, scan(&pts, qx, qy, k));
    }

    #[test]
    fn nearest_counted_returns_nearest(
        pts in grid_points(),
        qe in -10.0f64..110.0, qn in -10.0f64..110.0, k in 1usize..48,
    ) {
        let tree: RTree<usize> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Rect::point(x, y), i))
            .collect();
        let (counted, work) = tree.nearest_counted(qe, qn, k);
        let plain = tree.nearest(qe, qn, k);
        prop_assert_eq!(&counted, &plain);
        prop_assert!(work >= counted.len());

        // The POI database's counted query (the tourism frame's path)
        // returns the same POIs, in the same order, as its plain one.
        let frame = LocalFrame::new(GeoPoint::new(22.3364, 114.2655).unwrap());
        let pois = pts
            .iter()
            .enumerate()
            .map(|(i, &(e, n))| Poi {
                id: PoiId(i as u64),
                name: format!("poi {i}"),
                category: PoiCategory::ALL[i % PoiCategory::ALL.len()],
                position: frame.to_geodetic(Enu::new(e, n, 0.0)),
                popularity: 0.5,
            })
            .collect();
        let db = PoiDatabase::build(frame.origin(), pois);
        let center = frame.to_geodetic(Enu::new(qe, qn, 0.0));
        let ids = |hits: Vec<&Poi>| hits.iter().map(|p| p.id).collect::<Vec<_>>();
        let (counted, _) = db.nearest_counted(center, k);
        prop_assert_eq!(ids(counted), ids(db.nearest(center, k, None)));
    }
}
