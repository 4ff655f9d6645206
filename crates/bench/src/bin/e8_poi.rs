//! E8 — §3.2 tourism: POI retrieval latency vs database size, R-tree vs
//! quadtree vs linear scan.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_bench::{f, header, row, sized, smoke, timed_mean, BenchLog, Snapshot};
use augur_geo::{poi::synthetic_database, GeoPoint, QuadTree, Rect};
use augur_telemetry::log::Arg;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("E8", "§3.2: k-NN retrieval latency vs POI count");
    let origin = GeoPoint::new(22.3364, 114.2655)?;
    let db_sizes: &[usize] = if smoke() {
        &[100, 1_000, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000, 1_000_000]
    };
    let reps = sized(256, 32);
    let mut snap = Snapshot::new("e8_poi");
    snap.param_num("k", 10.0);
    snap.param_num("timing_reps", reps as f64);
    let blog = BenchLog::new("e8_poi");
    row(&[
        "pois".into(),
        "rtree µs".into(),
        "quadtree µs".into(),
        "scan µs".into(),
        "rtree speedup".into(),
    ]);
    for &n in db_sizes {
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let db = synthetic_database(origin, n, &mut rng)?;
        // Mirror into a quadtree over the same ENU extent.
        let extent = Rect::new(-3000.0, -3000.0, 3000.0, 3000.0)?;
        let mut qt = QuadTree::new(extent);
        for poi in db.iter() {
            let e = db.frame().to_enu(poi.position);
            let _ = qt.insert(
                e.east.clamp(-2999.0, 2999.0),
                e.north.clamp(-2999.0, 2999.0),
                poi.id,
            );
        }
        let queries: Vec<GeoPoint> = (0..64)
            .map(|_| origin.destination(rng.gen_range(0.0..360.0), rng.gen_range(0.0..1500.0)))
            .collect();
        let mut qi = 0usize;
        let rtree_us = timed_mean(reps, || {
            let q = queries[qi % queries.len()];
            qi += 1;
            std::hint::black_box(db.nearest(q, 10, None));
        });
        let mut qj = 0usize;
        let quad_us = timed_mean(reps, || {
            let q = queries[qj % queries.len()];
            qj += 1;
            let e = db.frame().to_enu(q);
            std::hint::black_box(qt.nearest(e.east, e.north, 10));
        });
        let mut qk = 0usize;
        let iters = sized(if n >= 100_000 { 16 } else { 128 }, 8);
        let scan_us = timed_mean(iters, || {
            let q = queries[qk % queries.len()];
            qk += 1;
            std::hint::black_box(db.within_radius_scan(q, 200.0));
        });
        blog.note(
            "e8/db_point",
            &[
                ("pois", Arg::U64(n as u64)),
                ("rtree_us", Arg::F64(rtree_us)),
                ("scan_us", Arg::F64(scan_us)),
            ],
        );
        let nl = n.to_string();
        let labels = [("pois", nl.as_str())];
        snap.gauge("rtree_us", &labels, rtree_us);
        snap.gauge("quadtree_us", &labels, quad_us);
        snap.gauge("scan_us", &labels, scan_us);
        row(&[
            n.to_string(),
            f(rtree_us, 1),
            f(quad_us, 1),
            f(scan_us, 1),
            format!("{:.0}x", scan_us / rtree_us.max(1e-9)),
        ]);
    }
    println!(
        "\nexpected shape: both indexes grow ~logarithmically while the scan\n\
         grows linearly; at 10⁶ POIs only the indexed paths fit an AR frame"
    );
    blog.finish();
    snap.write()?;
    Ok(())
}
