//! E4 — §2.1 "floating bubbles are pointless": label layout quality and
//! cost vs label density.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_bench::{f, header, row, smoke, timed, BenchLog, Snapshot};
use augur_render::{force_layout, greedy_layout, naive_layout, LabelBox, LayoutMetrics, Viewport};
use augur_telemetry::log::Arg;
use rand::{Rng, SeedableRng};

fn labels(n: usize, seed: u64) -> Vec<LabelBox> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| LabelBox {
            id: i as u64,
            anchor_px: (rng.gen_range(100.0..1820.0), rng.gen_range(100.0..980.0)),
            width_px: 140.0,
            height_px: 32.0,
            priority: rng.gen_range(0.0..1.0),
        })
        .collect()
}

fn main() {
    header("E4", "§2.1: naive bubbles vs greedy vs force label layout");
    let vp = Viewport::default();
    let densities: &[usize] = if smoke() {
        &[10, 50, 200]
    } else {
        &[10, 25, 50, 100, 200, 500]
    };
    let mut snap = Snapshot::new("e4_declutter");
    snap.param_num("force_iterations", 50.0);
    snap.param_num("density_points", densities.len() as f64);
    let blog = BenchLog::new("e4_declutter");
    row(&[
        "labels".into(),
        "naive clut%".into(),
        "greedy clut%".into(),
        "force clut%".into(),
        "greedy drop%".into(),
        "force disp px".into(),
        "greedy µs".into(),
        "force µs".into(),
    ]);
    for &n in densities {
        let ls = labels(n, n as u64);
        let naive = LayoutMetrics::measure(&ls, &naive_layout(&ls, vp));
        let (greedy_placed, greedy_us) = timed(|| greedy_layout(&ls, vp));
        let greedy = LayoutMetrics::measure(&ls, &greedy_placed);
        let (force_placed, force_us) = timed(|| force_layout(&ls, vp, 50));
        let force = LayoutMetrics::measure(&ls, &force_placed);
        blog.note(
            "e4/density_point",
            &[
                ("labels", Arg::U64(n as u64)),
                ("greedy_drop_ratio", Arg::F64(greedy.drop_ratio)),
                ("force_us", Arg::F64(force_us)),
            ],
        );
        let nl = n.to_string();
        let labels = [("labels", nl.as_str())];
        snap.gauge("naive_overlap", &labels, naive.overlapped_label_ratio);
        snap.gauge("greedy_overlap", &labels, greedy.overlapped_label_ratio);
        snap.gauge("greedy_us", &labels, greedy_us);
        snap.gauge("force_us", &labels, force_us);
        row(&[
            n.to_string(),
            f(naive.overlapped_label_ratio * 100.0, 1),
            f(greedy.overlapped_label_ratio * 100.0, 1),
            f(force.overlapped_label_ratio * 100.0, 1),
            f(greedy.drop_ratio * 100.0, 1),
            f(force.mean_displacement_px, 0),
            f(greedy_us, 0),
            f(force_us, 0),
        ]);
    }
    println!(
        "\nexpected shape: naive overlap grows with density while both\n\
         declutterers hold 0% overlap (paying with drops/displacement) —\n\
         MacIntyre's bubble critique quantified"
    );
    blog.finish();
    snap.write().expect("snapshot write");
}
