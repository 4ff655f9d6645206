//! E5 — §2.1/§3.1 occlusion and x-ray vision: classification cost vs
//! city size, naive scan vs R-tree index, plus agreement checking.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_bench::{f, header, row, sized, smoke, timed_mean, BenchLog, Snapshot};
use augur_geo::{CityModel, CityParams, Enu};
use augur_render::{classify_visibility, OcclusionClass, OcclusionIndex, ViewCamera, Viewport};
use augur_telemetry::log::Arg;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("E5", "occlusion classification cost vs building count");
    let block_counts: &[usize] = if smoke() {
        &[2, 8]
    } else {
        &[2, 4, 8, 12, 16, 24]
    };
    let reps = sized(400, 50);
    let mut snap = Snapshot::new("e5_occlusion");
    snap.param_num("targets", 200.0);
    snap.param_num("timing_reps", reps as f64);
    let blog = BenchLog::new("e5_occlusion");
    row(&[
        "buildings".into(),
        "naive µs".into(),
        "indexed µs".into(),
        "speedup".into(),
        "occluded%".into(),
        "agree".into(),
    ]);
    for &blocks in block_counts {
        let params = CityParams {
            blocks,
            buildings_per_block_axis: 3,
            ..CityParams::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(blocks as u64);
        let city = CityModel::generate(&params, &mut rng);
        let index = OcclusionIndex::build(&city);
        let camera = ViewCamera::new(
            Enu::new(0.0, 0.0, 1.6),
            45.0,
            66.0,
            Viewport::default(),
            3_000.0,
        )?;
        let extent = city.extent().max_x() * 0.9;
        let targets: Vec<Enu> = (0..200)
            .map(|_| {
                Enu::new(
                    rng.gen_range(-extent..extent),
                    rng.gen_range(-extent..extent),
                    rng.gen_range(1.0..30.0),
                )
            })
            .collect();
        let mut ti = 0usize;
        let naive_us = timed_mean(reps, || {
            let t = targets[ti % targets.len()];
            ti += 1;
            std::hint::black_box(classify_visibility(&camera, t, &city));
        });
        let mut tj = 0usize;
        let indexed_us = timed_mean(reps, || {
            let t = targets[tj % targets.len()];
            tj += 1;
            std::hint::black_box(index.classify(&camera, t));
        });
        let mut occluded = 0usize;
        let mut agree = true;
        for &t in &targets {
            let a = classify_visibility(&camera, t, &city);
            let b = index.classify(&camera, t);
            agree &= matches!(
                (a, b),
                (OcclusionClass::Visible, OcclusionClass::Visible)
                    | (OcclusionClass::OutOfView, OcclusionClass::OutOfView)
                    | (
                        OcclusionClass::Occluded { .. },
                        OcclusionClass::Occluded { .. }
                    )
            );
            if matches!(a, OcclusionClass::Occluded { .. }) {
                occluded += 1;
            }
        }
        blog.note(
            "e5/city_point",
            &[
                ("buildings", Arg::U64(city.buildings().len() as u64)),
                ("speedup", Arg::F64(naive_us / indexed_us.max(1e-9))),
                ("agree", Arg::Bool(agree)),
            ],
        );
        let b = city.buildings().len().to_string();
        let labels = [("buildings", b.as_str())];
        snap.gauge("naive_us", &labels, naive_us);
        snap.gauge("indexed_us", &labels, indexed_us);
        snap.gauge("agreement", &labels, f64::from(u8::from(agree)));
        row(&[
            city.buildings().len().to_string(),
            f(naive_us, 1),
            f(indexed_us, 1),
            f(naive_us / indexed_us.max(1e-9), 1),
            f(occluded as f64 / targets.len() as f64 * 100.0, 0),
            if agree { "yes" } else { "NO" }.to_string(),
        ]);
    }
    println!(
        "\nexpected shape: naive cost grows linearly with building count while\n\
         the indexed path grows with ray-footprint only; classifications agree —\n\
         the x-ray primitive stays within frame budget at city scale"
    );
    blog.finish();
    snap.write()?;
    Ok(())
}
