//! E6 — Azuma's "registered in 3-D": registration error of GPS-only vs
//! complementary vs Kalman fusion across GPS noise levels.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_bench::{f, header, row, smoke, BenchLog, Snapshot};
use augur_geo::Enu;
use augur_sensor::{
    CameraModel, GpsParams, GpsSensor, ImuParams, ImuSensor, MotionState, RandomWaypoint,
    Trajectory, TrajectoryParams,
};
use augur_telemetry::log::Arg;
use augur_track::{
    registration::{registration_error_px, run_tracker, RegistrationSummary},
    ComplementaryParams, ComplementaryTracker, GpsOnlyTracker, KalmanParams, KalmanTracker,
    Tracker,
};
use rand::SeedableRng;

fn ring_anchors(radius: f64, count: usize) -> Vec<Enu> {
    (0..count)
        .map(|i| {
            let a = std::f64::consts::TAU * i as f64 / count as f64;
            Enu::new(radius * a.cos(), radius * a.sin(), 5.0)
        })
        .collect()
}

fn walk(seed: u64) -> Vec<MotionState> {
    let params = TrajectoryParams {
        half_extent_m: 200.0,
        speed_mps: 1.4,
        pause_s: 1.0,
    };
    RandomWaypoint::new(params, rand::rngs::StdRng::seed_from_u64(seed)).sample(30.0, 90.0)
}

fn summarise<T: Tracker>(
    mut tracker: T,
    truth: &[MotionState],
    gps_sigma: f64,
    seed: u64,
    use_imu: bool,
) -> RegistrationSummary {
    let gps_params = GpsParams {
        sigma_m: gps_sigma,
        urban_probability: 0.0,
        dropout_probability: 0.02,
        ..Default::default()
    };
    let fixes =
        GpsSensor::new(gps_params, rand::rngs::StdRng::seed_from_u64(seed ^ 11)).track(truth);
    let readings = if use_imu {
        ImuSensor::new(
            ImuParams::default(),
            rand::rngs::StdRng::seed_from_u64(seed ^ 13),
        )
        .track(truth)
    } else {
        Vec::new()
    };
    let poses = run_tracker(&mut tracker, truth, &fixes, &readings);
    let cam = CameraModel::default();
    let anchors = ring_anchors(300.0, 24);
    RegistrationSummary::from_reports(&registration_error_px(&cam, truth, &poses, &anchors))
}

fn main() {
    header("E6", "registration error (px) vs GPS noise, by tracker");
    row(&[
        "gps σ (m)".into(),
        "gps-only px".into(),
        "complem. px".into(),
        "kalman px".into(),
        "gps-only m".into(),
        "kalman m".into(),
    ]);
    // One fixed walk across noise levels so rows differ only in noise.
    let truth = walk(50);
    let noise_levels: &[f64] = if smoke() {
        &[4.0, 12.0]
    } else {
        &[2.0, 4.0, 8.0, 12.0, 16.0]
    };
    let mut snap = Snapshot::new("e6_registration");
    snap.param_num("walk_duration_s", 90.0);
    snap.param_num("anchors", 24.0);
    let blog = BenchLog::new("e6_registration");
    for &sigma in noise_levels {
        let g = summarise(GpsOnlyTracker::new(), &truth, sigma, 1, false);
        let c = summarise(
            ComplementaryTracker::new(ComplementaryParams::default()),
            &truth,
            sigma,
            2,
            true,
        );
        let k = summarise(
            KalmanTracker::new(KalmanParams::default()),
            &truth,
            sigma,
            3,
            true,
        );
        blog.note(
            "e6/noise_point",
            &[
                ("gps_sigma_m", Arg::F64(sigma)),
                ("gps_only_px", Arg::F64(g.mean_px)),
                ("kalman_px", Arg::F64(k.mean_px)),
            ],
        );
        let sl = format!("{sigma}");
        let labels = [("gps_sigma_m", sl.as_str())];
        snap.gauge("gps_only_px", &labels, g.mean_px);
        snap.gauge("complementary_px", &labels, c.mean_px);
        snap.gauge("kalman_px", &labels, k.mean_px);
        row(&[
            f(sigma, 0),
            f(g.mean_px, 0),
            f(c.mean_px, 0),
            f(k.mean_px, 0),
            f(g.mean_position_m, 2),
            f(k.mean_position_m, 2),
        ]);
    }
    println!(
        "\nexpected shape: kalman < complementary < gps-only at every noise level,\n\
         with the gap widening as noise grows — sensor fusion is what makes\n\
         street-scale registration usable"
    );
    blog.finish();
    snap.write().expect("snapshot write");
}
