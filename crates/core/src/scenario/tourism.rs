//! Tourism scenario (§3.2, experiments E4/E5/E8 end-to-end).
//!
//! A tourist Lévy-walks a synthetic city; pose comes from Kalman-fused
//! noisy sensors; each second the platform retrieves nearby POIs (R-tree
//! vs linear scan, timed), classifies their occlusion against the city
//! for x-ray reveals, and lays the surviving labels out on screen.

use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use augur_log::Arg;
use augur_stream::Obs;
use augur_telemetry::{FlightRecorder, ManualTime, NameId, TimeSource, TraceContext, Tracer};
use augur_watch::{
    BurnRule, Objective, RollupConfig, SloSpec, TierSpec, WatchConfig, WatchSession,
};

use augur_geo::{poi::synthetic_database, CityModel, CityParams, Enu, GeoPoint, LocalFrame};
use augur_render::{
    greedy_layout, naive_layout, xray_reveals, LabelBox, LayoutMetrics, OcclusionIndex, ViewCamera,
    Viewport,
};
use augur_sensor::{
    GpsParams, GpsSensor, ImuParams, ImuSensor, LevyFlight, Trajectory, TrajectoryParams,
};
use augur_track::{registration::run_tracker, KalmanParams, KalmanTracker};

use crate::error::CoreError;

/// Parameters for the tourism scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TourismParams {
    /// POI database size.
    pub pois: usize,
    /// Tour duration, seconds.
    pub duration_s: f64,
    /// POIs retrieved per query.
    pub k: usize,
    /// Query radius for range retrieval, metres.
    pub radius_m: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TourismParams {
    fn default() -> Self {
        TourismParams {
            pois: 20_000,
            duration_s: 120.0,
            k: 12,
            radius_m: 250.0,
            seed: 23,
        }
    }
}

/// Results of the tourism scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TourismReport {
    /// POI queries issued (one per second of tour).
    pub queries: usize,
    /// Mean k-NN query cost via the R-tree, in distance evaluations — a
    /// deterministic latency proxy (wall-clock timing belongs in the
    /// benches, not the simulation).
    pub knn_indexed_work: f64,
    /// Mean radius-query cost via linear scan, in distance evaluations
    /// (always the database size).
    pub scan_work: f64,
    /// Index speed-up factor (scan work / indexed work).
    pub index_speedup: f64,
    /// Total POIs surfaced across the tour.
    pub pois_surfaced: usize,
    /// Targets classified occluded and revealed with x-ray.
    pub xray_reveals: usize,
    /// Mean tracker position error over the tour, metres.
    pub tracking_error_m: f64,
    /// Naive bubble layout quality (tour-averaged overlap ratio).
    pub naive_overlap: f64,
    /// Decluttered layout quality.
    pub decluttered_overlap: f64,
    /// Labels dropped by decluttering, as a fraction.
    pub declutter_drop_ratio: f64,
}

/// Runs the scenario, reporting into `obs` (see
/// [the module docs](crate::scenario)). The registry receives the
/// per-stage breakdown (`span_duration_us{span="tourism/…"}`). With a
/// flight recorder, each rendered frame becomes a **root** span
/// (`TraceContext::root(seed, frame_idx)`) with `tourism/retrieve`,
/// `tourism/occlusion` and `tourism/layout` children, and the
/// setup/tracking stages hang off a per-run root. With an event log, each
/// frame whose decluttered layout dropped labels gets a rate-limited WARN
/// (`tourism/declutter_drop`), and the run closes with an INFO
/// (`tourism/summary`) carrying the headline numbers. Every stage also
/// runs inside a `tourism/<stage>` allocation scope, so an
/// [`augur_profile::AllocCapture`] named `tourism` sees per-stage
/// allocation stats when the counting allocator is installed.
///
/// # Errors
///
/// [`CoreError::InvalidScenario`] for degenerate parameters; geospatial
/// errors propagate.
pub fn run(params: &TourismParams, obs: &Obs) -> Result<TourismReport, CoreError> {
    run_inner(params, obs, None)
}

/// The scenario's declared service-level objectives: a 60 FPS frame
/// budget — p95 of `frame_latency_us{scenario=tourism}` at or under
/// 16.6 ms of modeled work — guarded by a fast and a slow multi-window
/// burn-rate rule. Rollup windows are sized so one frame fits inside a
/// tier-0 window even under heavy fault injection (see
/// [`WatchConfig::inject_cycle_delay_us`]); a sustained regression
/// therefore marks consecutive windows bad instead of diluting across
/// empty ones.
pub fn watch_config(seed: u64) -> WatchConfig {
    WatchConfig {
        seed,
        rollup: RollupConfig {
            tiers: vec![
                TierSpec {
                    window_us: 50_000,
                    capacity: 256,
                },
                TierSpec {
                    window_us: 250_000,
                    capacity: 64,
                },
                TierSpec {
                    window_us: 1_000_000,
                    capacity: 32,
                },
            ],
        },
        slos: vec![
            SloSpec {
                name: "tourism_frame_p95".to_string(),
                objective: Objective::LatencyQuantile {
                    series: "frame_latency_us{scenario=tourism}".to_string(),
                    q: 0.95,
                    threshold_us: 16_600,
                },
                budget: 0.1,
                period_us: 5_000_000,
                rules: vec![
                    BurnRule {
                        name: "fast".to_string(),
                        short_us: 100_000,
                        long_us: 250_000,
                        factor: 2.0,
                    },
                    BurnRule {
                        name: "slow".to_string(),
                        short_us: 250_000,
                        long_us: 1_000_000,
                        factor: 1.0,
                    },
                ],
            },
            super::trace_loss_slo(),
            super::log_error_slo(),
            super::obs_overhead_slo(),
        ],
        ..WatchConfig::default()
    }
}

/// [`run`] under live health monitoring: every rendered frame is
/// reported to `session` as an observed cycle (so the session's rollup
/// windows, SLO verdicts, and burn-rate alerts advance on the scenario's
/// own manual clock), and the session is finished when the run ends. The
/// session's registry receives the scenario instrumentation and its
/// flight ring the causal trace, so alert instants emitted by the SLO
/// engine appear beside the frame spans they indict.
///
/// # Errors
///
/// Same contract as [`run`].
pub fn run_watched(
    params: &TourismParams,
    session: &mut WatchSession,
) -> Result<TourismReport, CoreError> {
    super::watched(session, |obs, s| run_inner(params, obs, Some(s)))
}

/// Interned frame-stage names, so the per-frame loop never takes the
/// recorder's name-table write lock.
struct FrameWire<'a> {
    rec: &'a FlightRecorder,
    frame: NameId,
    retrieve: NameId,
    occlusion: NameId,
    layout: NameId,
}

fn run_inner(
    params: &TourismParams,
    obs: &Obs,
    mut watch: Option<&mut WatchSession>,
) -> Result<TourismReport, CoreError> {
    if params.pois == 0 || params.k == 0 {
        return Err(CoreError::InvalidScenario("pois and k must be positive"));
    }
    if params.duration_s <= 0.0 {
        return Err(CoreError::InvalidScenario("duration must be positive"));
    }
    let clock = ManualTime::shared();
    let so = super::ScenarioObs::start(obs, "tourism", params.seed, clock.now_micros());
    let tracer = Tracer::with_labels(&obs.registry, clock.clone(), &[("scenario", "tourism")]);
    let wire = obs.flight.as_ref().map(|rec| FrameWire {
        rec,
        frame: rec.intern("tourism/frame"),
        retrieve: rec.intern("tourism/retrieve"),
        occlusion: rec.intern("tourism/occlusion"),
        layout: rec.intern("tourism/layout"),
    });
    // Per-stage allocation scopes: when the counting allocator is
    // installed (`augur-profile`'s `global-alloc` feature, bins/tests
    // only) every stage's allocations are charged to its span name, so
    // profiles can be rendered by bytes as well as modeled time. The
    // guards are plain thread-local stores — negligible either way.
    let alloc_setup = augur_profile::register_scope("tourism/setup");
    let alloc_tracking = augur_profile::register_scope("tourism/tracking");
    let alloc_retrieve = augur_profile::register_scope("tourism/retrieve");
    let alloc_occlusion = augur_profile::register_scope("tourism/occlusion");
    let alloc_layout = augur_profile::register_scope("tourism/layout");
    let setup_t0 = clock.now_micros();
    let setup_span = tracer.span("tourism/setup");
    let setup_alloc = augur_profile::AllocScope::enter(alloc_setup);
    let origin = GeoPoint::new(22.3364, 114.2655)?;
    let frame = LocalFrame::new(origin);
    let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
    let db = synthetic_database(origin, params.pois, &mut rng)?;
    let city = CityModel::generate(&CityParams::default(), &mut rng);
    let occlusion = OcclusionIndex::build(&city);
    clock.advance_micros(params.pois as u64);
    drop(setup_alloc);
    setup_span.end();
    so.stage("tourism/setup", setup_t0, clock.now_micros());
    if let Some(s) = watch.as_deref_mut() {
        s.tick_clock(&clock);
    }

    // Ground truth walk + fused tracking.
    let tracking_t0 = clock.now_micros();
    let tracking_span = tracer.span("tourism/tracking");
    let tracking_alloc = augur_profile::AllocScope::enter(alloc_tracking);
    let traj_params = TrajectoryParams {
        half_extent_m: 350.0,
        speed_mps: 1.4,
        pause_s: 3.0,
    };
    let mut walker = LevyFlight::new(
        traj_params,
        1.75,
        rand::rngs::StdRng::seed_from_u64(params.seed ^ 1),
    );
    let truth = walker.sample(10.0, params.duration_s);
    let fixes = GpsSensor::new(
        GpsParams::default(),
        rand::rngs::StdRng::seed_from_u64(params.seed ^ 2),
    )
    .track(&truth);
    let readings = ImuSensor::new(
        ImuParams::default(),
        rand::rngs::StdRng::seed_from_u64(params.seed ^ 3),
    )
    .track(&truth);
    let mut tracker = KalmanTracker::new(KalmanParams::default());
    let poses = run_tracker(&mut tracker, &truth, &fixes, &readings);
    clock.advance_micros(truth.len() as u64);
    drop(tracking_alloc);
    tracking_span.end();
    so.stage("tourism/tracking", tracking_t0, clock.now_micros());
    if let Some(s) = watch.as_deref_mut() {
        s.tick_clock(&clock);
    }
    let tracking_error_m = truth
        .iter()
        .zip(&poses)
        .map(|(t, p)| {
            let de = t.position.east - p.position.east;
            let dn = t.position.north - p.position.north;
            (de * de + dn * dn).sqrt()
        })
        .sum::<f64>()
        / truth.len().max(1) as f64;

    // One retrieval per second of tour.
    let vp = Viewport::default();
    let mut knn_total_work = 0usize;
    let mut scan_total_work = 0usize;
    let mut queries = 0usize;
    let mut pois_surfaced = 0usize;
    let mut reveals = 0usize;
    let mut naive_overlap_sum = 0.0;
    let mut declutter_overlap_sum = 0.0;
    let mut drop_sum = 0.0;
    for (i, pose) in poses.iter().enumerate().step_by(10) {
        queries += 1;
        // Each rendered frame is a root in the causal trace: downstream
        // spans (retrieve/occlusion/layout) link back to the frame that
        // produced them via `parent_span_id`.
        let frame_ctx = TraceContext::root(params.seed, i as u64);
        let frame_t0 = clock.now_micros();
        let retrieve_t0 = frame_t0;
        let retrieve_span = tracer.span("tourism/retrieve");
        let retrieve_alloc = augur_profile::AllocScope::enter(alloc_retrieve);
        let here = frame.to_geodetic(pose.position);
        let (near, knn_work) = db.nearest_counted(here, params.k);
        knn_total_work += knn_work;
        let (in_radius, scan_work) = db.within_radius_scan_counted(here, params.radius_m);
        scan_total_work += scan_work;
        clock.advance_micros((knn_work + scan_work) as u64);
        drop(retrieve_alloc);
        retrieve_span.end();
        if let Some(w) = &wire {
            w.rec.record_span(
                frame_ctx.child_named("tourism/retrieve"),
                w.retrieve,
                retrieve_t0,
                clock.now_micros() - retrieve_t0,
            );
        }
        let _ = in_radius.len();
        pois_surfaced += near.len();

        // Occlusion + x-ray for this frame.
        let occlusion_t0 = clock.now_micros();
        let occlusion_span = tracer.span("tourism/occlusion");
        let occlusion_alloc = augur_profile::AllocScope::enter(alloc_occlusion);
        let camera = ViewCamera::new(
            Enu::new(pose.position.east, pose.position.north, 1.6),
            truth[i].heading_deg,
            66.0,
            vp,
            800.0,
        )?;
        let targets: Vec<(u64, Enu)> = near
            .iter()
            .map(|p| {
                let e = frame.to_enu(p.position);
                (p.id.0, Enu::new(e.east, e.north, 4.0))
            })
            .collect();
        let frame_reveals = xray_reveals(&camera, &targets, &occlusion);
        reveals += frame_reveals.iter().filter(|r| r.reveal).count();
        clock.advance_micros(targets.len() as u64);
        drop(occlusion_alloc);
        occlusion_span.end();
        if let Some(w) = &wire {
            w.rec.record_span(
                frame_ctx.child_named("tourism/occlusion"),
                w.occlusion,
                occlusion_t0,
                clock.now_micros() - occlusion_t0,
            );
        }

        // Layout the labels for targets in view.
        let layout_t0 = clock.now_micros();
        let layout_span = tracer.span("tourism/layout");
        let layout_alloc = augur_profile::AllocScope::enter(alloc_layout);
        let labels: Vec<LabelBox> = targets
            .iter()
            .filter_map(|(id, pos)| {
                camera.project(*pos).map(|px| LabelBox {
                    id: *id,
                    anchor_px: px,
                    width_px: 160.0,
                    height_px: 34.0,
                    priority: 0.5,
                })
            })
            .collect();
        if labels.len() >= 2 {
            let naive = LayoutMetrics::measure(&labels, &naive_layout(&labels, vp));
            let greedy = LayoutMetrics::measure(&labels, &greedy_layout(&labels, vp));
            naive_overlap_sum += naive.overlap_ratio;
            declutter_overlap_sum += greedy.overlap_ratio;
            drop_sum += greedy.drop_ratio;
            if greedy.drop_ratio > 0.0 {
                so.warn(
                    "tourism/declutter_drop",
                    clock.now_micros(),
                    &[
                        ("frame", Arg::U64(i as u64)),
                        ("labels", Arg::U64(labels.len() as u64)),
                        ("drop_ratio", Arg::F64(greedy.drop_ratio)),
                    ],
                );
            }
        }
        clock.advance_micros(labels.len() as u64);
        drop(layout_alloc);
        layout_span.end();
        if let Some(w) = &wire {
            w.rec.record_span(
                frame_ctx.child_named("tourism/layout"),
                w.layout,
                layout_t0,
                clock.now_micros() - layout_t0,
            );
        }
        // Observe the frame cycle before closing its span, so injected
        // fault latency (which advances the clock) inflates the recorded
        // `tourism/frame` span — the regression is causally visible in
        // the trace, not just in the SLO verdicts.
        if let Some(s) = watch.as_deref_mut() {
            s.observe_cycle_traced("tourism", &clock, frame_t0, frame_ctx);
        }
        if let Some(w) = &wire {
            w.rec
                .record_span(frame_ctx, w.frame, frame_t0, clock.now_micros() - frame_t0);
        }
    }
    so.finish(clock.now_micros());
    let q = queries.max(1) as f64;
    so.info(
        "tourism/summary",
        clock.now_micros(),
        &[
            ("queries", Arg::U64(queries as u64)),
            ("pois_surfaced", Arg::U64(pois_surfaced as u64)),
            ("xray_reveals", Arg::U64(reveals as u64)),
            ("drop_ratio", Arg::F64(drop_sum / q)),
        ],
    );
    let knn_indexed_work = knn_total_work as f64 / q;
    let scan_work = scan_total_work as f64 / q;
    Ok(TourismReport {
        queries,
        knn_indexed_work,
        scan_work,
        index_speedup: if knn_indexed_work > 0.0 {
            scan_work / knn_indexed_work
        } else {
            f64::INFINITY
        },
        pois_surfaced,
        xray_reveals: reveals,
        tracking_error_m,
        naive_overlap: naive_overlap_sum / q,
        decluttered_overlap: declutter_overlap_sum / q,
        declutter_drop_ratio: drop_sum / q,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TourismParams {
        TourismParams {
            pois: 3_000,
            duration_s: 30.0,
            k: 8,
            radius_m: 200.0,
            seed: 9,
        }
    }

    #[test]
    fn index_beats_scan_and_pois_surface() {
        let r = run(&small(), &Obs::default()).unwrap();
        assert!(r.queries >= 29);
        assert!(r.pois_surfaced > 0);
        assert!(
            r.index_speedup > 1.0,
            "index {} vs scan {} distance evaluations",
            r.knn_indexed_work,
            r.scan_work
        );
    }

    #[test]
    fn tracking_error_is_bounded() {
        let r = run(&small(), &Obs::default()).unwrap();
        assert!(
            r.tracking_error_m < 15.0,
            "fused tracking error {} m",
            r.tracking_error_m
        );
    }

    #[test]
    fn declutter_improves_overlap() {
        let params = TourismParams {
            pois: 8_000,
            ..small()
        };
        let r = run(&params, &Obs::default()).unwrap();
        assert!(r.decluttered_overlap <= r.naive_overlap);
        assert_eq!(r.decluttered_overlap, 0.0);
    }

    #[test]
    fn instrumented_span_breakdown_is_deterministic() {
        let snapshot_of = || {
            let obs = Obs::default();
            run(&small(), &obs).unwrap();
            obs.registry.snapshot()
        };
        let a = snapshot_of();
        let b = snapshot_of();
        assert_eq!(a, b, "span breakdown must be seed-deterministic");
        let spans: Vec<&str> = a
            .histograms
            .iter()
            .filter(|h| h.name == augur_telemetry::SPAN_METRIC)
            .flat_map(|h| &h.labels)
            .filter(|(k, _)| k == augur_telemetry::SPAN_LABEL)
            .map(|(_, v)| v.as_str())
            .collect();
        for stage in [
            "tourism/setup",
            "tourism/tracking",
            "tourism/retrieve",
            "tourism/occlusion",
            "tourism/layout",
        ] {
            assert!(spans.contains(&stage), "missing stage span {stage}");
        }
        // Retrieval dominates the modeled work: its span sum (knn + scan
        // distance evaluations) dwarfs the per-frame layout work.
        let sum_of = |stage: &str| {
            a.histograms
                .iter()
                .find(|h| {
                    h.name == augur_telemetry::SPAN_METRIC
                        && h.labels
                            .iter()
                            .any(|(k, v)| k == augur_telemetry::SPAN_LABEL && v == stage)
                })
                .map_or(0, |h| h.stats.sum)
        };
        assert!(sum_of("tourism/retrieve") > sum_of("tourism/layout"));
    }

    #[test]
    fn rejects_degenerate_params() {
        assert!(run(&TourismParams { pois: 0, ..small() }, &Obs::default()).is_err());
        let params = TourismParams {
            duration_s: 0.0,
            ..small()
        };
        assert!(run(&params, &Obs::default()).is_err());
    }
}
