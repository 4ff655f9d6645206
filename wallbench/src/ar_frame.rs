//! `ar_frame`: one AR client renders frames back to back (closed loop).
//!
//! Every frame runs the tourism scenario's per-frame path, called from
//! outside the libraries and timed on the wall clock: a Kalman update and
//! pose (`track`), the k nearest POIs (`geo`), occlusion and x-ray
//! classification, projection, and greedy label layout (`render`). The
//! stream and store layers sit idle. Half the tourists start at a POI and
//! half some way off one, so frames range from sparse streets to
//! label-dense hotspots.

use std::hint::black_box;
use std::time::{Duration, Instant};

use augur_geo::poi::PoiGeneratorParams;
use augur_geo::{CityModel, CityParams, Enu, GeoPoint, LocalFrame, Poi, PoiDatabase, PoiGenerator};
use augur_render::{greedy_layout, xray_reveals, LabelBox, OcclusionIndex, ViewCamera, Viewport};
use augur_sensor::{
    GpsFix, GpsParams, GpsSensor, ImuParams, ImuReading, ImuSensor, LevyFlight, MotionState,
    Trajectory, TrajectoryParams,
};
use augur_track::{KalmanParams, KalmanTracker, Tracker};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{self, Spans};
use crate::util::{median, metric, peak_rss_mb, percentile, process_cpu_s, sorted};
use crate::{Plan, Report};

/// POI database size: large enough that building its index takes a few
/// hundred milliseconds, as a city-scale deployment's would.
const POIS: usize = 300_000;
/// POIs retrieved per frame.
const K: usize = 24;
/// POI clusters, and their spread in metres. Many clusters and many
/// tourists make a run average over many neighbourhoods, so that one
/// seed's city layout does not set the run's numbers.
const HOTSPOTS: usize = 48;
const CLUSTER_SIGMA_M: f64 = 120.0;
/// Tourists whose walks the client replays one after another. Half start
/// at a POI, half this far from one, where POIs are sparse.
const TOURISTS: u64 = 512;
const AWAY_M: f64 = 500.0;
/// Length of each walk, seconds; one frame per IMU sample.
const WALK_S: f64 = 4.0;
const IMU_HZ: f64 = 50.0;
/// One GPS fix per this many IMU samples (1 Hz).
const GPS_EVERY: usize = 50;
/// City blocks per side: about 4 km square, the area the POIs cover.
const CITY_BLOCKS: usize = 29;
const FAR_M: f64 = 600.0;
/// Untimed frames before the timed phase.
const WARMUP_FRAMES: usize = 2_000;
/// Every this many frames, the kNN result is kept for the linear-scan check.
const CHECK_EVERY: u64 = 1_009;
const MAX_CHECKS: usize = 256;
/// The p99 frame time is `tail_us`: a run has well over 10^5 frames.
const TAIL_Q: f64 = 0.99;

struct Walk {
    truth: Vec<MotionState>,
    imu: Vec<ImuReading>,
    gps: Vec<Option<GpsFix>>,
}

struct Scene {
    frame: LocalFrame,
    db: PoiDatabase,
    occlusion: OcclusionIndex,
    walks: Vec<Walk>,
}

struct SetupTimes {
    total_s: f64,
    index_build_s: f64,
    occlusion_build_s: f64,
}

fn setup(seed: u64) -> Result<(Scene, SetupTimes), String> {
    let t0 = Instant::now();
    let origin = GeoPoint::new(22.3364, 114.2655).map_err(|e| e.to_string())?;
    let frame = LocalFrame::new(origin);
    let mut rng = StdRng::seed_from_u64(seed);
    let params = PoiGeneratorParams {
        count: POIS,
        hotspots: HOTSPOTS,
        cluster_sigma_m: CLUSTER_SIGMA_M,
        ..PoiGeneratorParams::default()
    };
    let pois = PoiGenerator::new(origin, params).generate(&mut rng);
    let starts: Vec<Enu> = (0..TOURISTS)
        .map(|t| {
            let poi = frame.to_enu(pois[rng.gen_range(0..pois.len())].position);
            let away = if t % 2 == 0 { 0.0 } else { AWAY_M };
            let bearing = rng.gen_range(0.0..std::f64::consts::TAU);
            Enu::new(
                poi.east + away * bearing.cos(),
                poi.north + away * bearing.sin(),
                0.0,
            )
        })
        .collect();
    let t_index = Instant::now();
    let db = PoiDatabase::build(origin, pois);
    let index_build_s = t_index.elapsed().as_secs_f64();
    let city_params = CityParams {
        blocks: CITY_BLOCKS,
        ..CityParams::default()
    };
    let city = CityModel::generate(&city_params, &mut rng);
    let t_occlusion = Instant::now();
    let occlusion = OcclusionIndex::build(&city);
    let occlusion_build_s = t_occlusion.elapsed().as_secs_f64();
    let walks = starts
        .iter()
        .zip(0u64..)
        .map(|(start, t)| walk(seed, t, *start))
        .collect();
    let scene = Scene {
        frame,
        db,
        occlusion,
        walks,
    };
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        index_build_s,
        occlusion_build_s,
    };
    Ok((scene, times))
}

/// One tourist's walk from `start`, with the IMU readings and GPS fixes a
/// phone would take along it.
fn walk(seed: u64, tourist: u64, start: Enu) -> Walk {
    let salt = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (tourist << 8);
    let params = TrajectoryParams {
        half_extent_m: 300.0,
        speed_mps: 1.4,
        pause_s: 3.0,
    };
    let mut walker = LevyFlight::new(params, 1.75, StdRng::seed_from_u64(salt ^ 1));
    let truth: Vec<MotionState> = walker
        .sample(IMU_HZ, WALK_S)
        .into_iter()
        .map(|mut s| {
            s.position = Enu::new(
                s.position.east + start.east,
                s.position.north + start.north,
                s.position.up,
            );
            s
        })
        .collect();
    let mut imu = ImuSensor::new(ImuParams::default(), StdRng::seed_from_u64(salt ^ 2));
    let mut gps = GpsSensor::new(GpsParams::default(), StdRng::seed_from_u64(salt ^ 3));
    Walk {
        imu: truth.iter().map(|s| imu.measure(s)).collect(),
        gps: truth
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i % GPS_EVERY == 0 {
                    gps.measure(s)
                } else {
                    None
                }
            })
            .collect(),
        truth,
    }
}

/// What one frame produced, kept for the checks after timing.
struct FrameOut<'a> {
    here: GeoPoint,
    near: Vec<&'a Poi>,
    labels: usize,
    placed: usize,
}

/// Renders one frame of `walk` at `step`: the per-frame path under test.
fn render_frame<'a, S: Spans>(
    scene: &'a Scene,
    tracker: &mut KalmanTracker,
    walk: &Walk,
    step: usize,
    spans: &mut S,
) -> Result<FrameOut<'a>, String> {
    let vp = Viewport::default();
    let root = spans.begin(trace::FRAME, trace::NONE);

    let sp = spans.begin(trace::TRACK_UPDATE, root);
    tracker.update_imu(&walk.imu[step]);
    if let Some(fix) = &walk.gps[step] {
        tracker.update_gps(fix);
    }
    let pose = tracker.pose(walk.truth[step].time);
    spans.end(sp);

    let sp = spans.begin(trace::GEO_KNN, root);
    let here = scene.frame.to_geodetic(pose.position);
    let near = scene.db.nearest(here, K, None);
    let targets: Vec<(u64, Enu)> = near
        .iter()
        .map(|p| {
            let e = scene.frame.to_enu(p.position);
            (p.id.0, Enu::new(e.east, e.north, 4.0))
        })
        .collect();
    spans.end(sp);

    let sp = spans.begin(trace::RENDER_OCCLUSION, root);
    let eye = Enu::new(pose.position.east, pose.position.north, 1.6);
    let camera =
        ViewCamera::new(eye, pose.heading_deg, 66.0, vp, FAR_M).map_err(|e| e.to_string())?;
    let reveals = xray_reveals(&camera, &targets, &scene.occlusion);
    spans.end(sp);

    let sp = spans.begin(trace::RENDER_PROJECT, root);
    let labels: Vec<LabelBox> = targets
        .iter()
        .zip(&near)
        .filter_map(|((id, pos), poi)| {
            camera.project(*pos).map(|px| LabelBox {
                id: *id,
                anchor_px: px,
                width_px: 160.0,
                height_px: 34.0,
                priority: poi.popularity,
            })
        })
        .collect();
    spans.end(sp);

    let sp = spans.begin(trace::RENDER_LAYOUT, root);
    let placed = greedy_layout(&labels, vp);
    spans.end(sp);
    spans.end(root);

    black_box(&reveals);
    Ok(FrameOut {
        here,
        near,
        labels: labels.len(),
        placed: placed.len(),
    })
}

/// Squared planar distance, as the index ranks candidates.
fn d2(a: Enu, b: Enu) -> f64 {
    let (de, dn) = (a.east - b.east, a.north - b.north);
    de * de + dn * dn
}

/// A kept kNN result: the query point and the squared distances returned.
struct Check {
    here: GeoPoint,
    got: Vec<f64>,
}

/// Whether a kept kNN result equals a linear scan over every POI.
fn matches_scan(scene: &Scene, all: &[Enu], check: &Check) -> bool {
    let c = scene.db.frame().to_enu(check.here);
    let mut want: Vec<f64> = all.iter().map(|p| d2(*p, c)).collect();
    let k = K.min(want.len());
    if k == 0 {
        return check.got.is_empty();
    }
    want.select_nth_unstable_by(k - 1, f64::total_cmp);
    want.truncate(k);
    let want = sorted(want);
    let got = sorted(check.got.clone());
    got.len() == want.len()
        && got
            .iter()
            .zip(&want)
            .all(|(g, w)| (g - w).abs() <= 1e-9 * w.max(1.0))
}

/// Counters from the frame loop.
struct Frames {
    lat_ns: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    labels: u64,
    placed: u64,
    knn_evals: u64,
    knn_queries: u64,
    failed: u64,
}

/// Renders frames back to back for `seconds`, then checks the kept kNN
/// results against a linear scan.
fn frames<S: Spans>(
    scene: &Scene,
    seconds: f64,
    spans: &mut S,
    count_evals: bool,
) -> Result<Frames, String> {
    let mut tracker = KalmanTracker::new(KalmanParams::default());
    let (mut w, mut step) = (0usize, 0usize);
    let lap: u64 = scene.walks.iter().map(|w| w.truth.len() as u64).sum();
    let advance = |tracker: &mut KalmanTracker, w: &mut usize, step: &mut usize| {
        *step += 1;
        if *step == scene.walks[*w].truth.len() {
            *step = 0;
            *w = (*w + 1) % scene.walks.len();
            *tracker = KalmanTracker::new(KalmanParams::default());
        }
    };
    for _ in 0..WARMUP_FRAMES {
        let f = render_frame(scene, &mut tracker, &scene.walks[w], step, &mut trace::Off)?;
        black_box(f.placed);
        advance(&mut tracker, &mut w, &mut step);
    }
    let mut out = Frames {
        lat_ns: Vec::with_capacity((seconds * 200_000.0) as usize),
        wall_s: 0.0,
        cpu_s: 0.0,
        labels: 0,
        placed: 0,
        knn_evals: 0,
        knn_queries: 0,
        failed: 0,
    };
    let mut checks: Vec<Check> = Vec::new();
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut n: u64 = 0;
    loop {
        let t0 = Instant::now();
        let f = render_frame(scene, &mut tracker, &scene.walks[w], step, spans)?;
        let t1 = Instant::now();
        out.lat_ns.push((t1 - t0).as_nanos() as f64);
        out.labels += f.labels as u64;
        out.placed += f.placed as u64;
        if n.is_multiple_of(CHECK_EVERY) && checks.len() < MAX_CHECKS {
            let c = scene.db.frame().to_enu(f.here);
            let got = f
                .near
                .iter()
                .map(|p| d2(scene.db.frame().to_enu(p.position), c))
                .collect();
            checks.push(Check { here: f.here, got });
        }
        // Distance evaluations per query, over the first lap of frames
        // only, so the count is exact for a seed.
        if count_evals && n < lap {
            out.knn_evals += scene.db.nearest_counted(f.here, K).1 as u64;
            out.knn_queries += 1;
        }
        n += 1;
        advance(&mut tracker, &mut w, &mut step);
        if t1 >= deadline {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.cpu_s = process_cpu_s() - cpu0;
    let all: Vec<Enu> = scene
        .db
        .iter()
        .map(|p| scene.db.frame().to_enu(p.position))
        .collect();
    out.failed = checks
        .iter()
        .filter(|c| !matches_scan(scene, &all, c))
        .count() as u64;
    Ok(out)
}

/// Runs the workload as `plan` says.
pub fn run(plan: &Plan) -> Result<Report, String> {
    let mut times = Vec::new();
    let mut scene = None;
    for _ in 0..plan.setup_reps.max(1) {
        drop(scene.take());
        let (s, t) = setup(plan.seed)?;
        scene = Some(s);
        times.push(t);
    }
    let scene = scene.ok_or("no set-up ran")?;
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());

    if !plan.trace {
        let f = frames(&scene, plan.seconds, &mut trace::Off, false)?;
        let lat = sorted(f.lat_ns);
        let n = lat.len() as f64;
        return Ok(Report {
            attempted: lat.len() as u64,
            failed: f.failed,
            op_p50_us: percentile(&lat, 0.5) / 1e3,
            metrics: vec![
                metric("setup_s", med(|t| t.total_s), "s"),
                metric("p50_us", percentile(&lat, 0.5) / 1e3, "us"),
                metric("tail_us", percentile(&lat, TAIL_Q) / 1e3, "us"),
                metric("throughput_per_s", n / f.wall_s, "1/s"),
                metric("cpu_us_per_op", f.cpu_s * 1e6 / n, "us"),
                metric("peak_rss_mb", peak_rss_mb(), "MB"),
            ],
        });
    }

    let mut buf = trace::Buffer::new();
    let f = frames(&scene, plan.seconds, &mut buf, true)?;
    buf.write_tsv(&trace::out_path("ar_frame", plan.seed))
        .map_err(|e| e.to_string())?;
    let self_us = |name: u16, q: f64| percentile(&sorted(buf.self_ns(name)), q) / 1e3;
    Ok(Report {
        attempted: f.lat_ns.len() as u64,
        failed: f.failed,
        op_p50_us: percentile(&sorted(buf.dur_ns(trace::FRAME)), 0.5) / 1e3,
        metrics: vec![
            metric("track.update_us", self_us(trace::TRACK_UPDATE, 0.5), "us"),
            metric("geo.knn_us", self_us(trace::GEO_KNN, 0.5), "us"),
            metric("geo.knn_tail_us", self_us(trace::GEO_KNN, TAIL_Q), "us"),
            metric(
                "geo.knn_evals",
                f.knn_evals as f64 / f.knn_queries.max(1) as f64,
                "count",
            ),
            metric(
                "render.occlusion_us",
                self_us(trace::RENDER_OCCLUSION, 0.5),
                "us",
            ),
            metric(
                "render.project_us",
                self_us(trace::RENDER_PROJECT, 0.5),
                "us",
            ),
            metric("render.layout_us", self_us(trace::RENDER_LAYOUT, 0.5), "us"),
            metric(
                "render.layout_tail_us",
                self_us(trace::RENDER_LAYOUT, TAIL_Q),
                "us",
            ),
            metric(
                "render.labels_placed_ratio",
                f.placed as f64 / f.labels.max(1) as f64,
                "ratio",
            ),
            metric("geo.index_build_s", med(|t| t.index_build_s), "s"),
            metric(
                "render.occlusion_build_s",
                med(|t| t.occlusion_build_s),
                "s",
            ),
        ],
    })
}
