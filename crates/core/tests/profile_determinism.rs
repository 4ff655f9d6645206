//! Acceptance tests for the profiling wiring (ISSUE 5): a fixed seed
//! and a `ManualTime`-driven scenario must fold into byte-identical
//! folded-stack and speedscope artifacts across runs, the profile's
//! exclusive times must sum back to the root inclusive time, and every
//! scenario's traced run must fold into a non-empty profile whose stacks
//! mirror the scenario's stage names.
#![allow(clippy::expect_used)]

use augur_core::{healthcare, retail, tourism, traffic, CoreError, Obs};
use augur_profile::{AllocCapture, Profile};
use augur_telemetry::{FlightRecorder, Registry};

/// Runs `run` against a fresh flight ring inside a `scope` allocation
/// capture, then folds the drained spans into a profile carrying the
/// run's allocation stats (also exported into `registry`).
fn profiled<R>(
    scope: &str,
    registry: &Registry,
    run: impl FnOnce(&Obs) -> Result<R, CoreError>,
) -> (R, Profile) {
    let recorder = FlightRecorder::new(1 << 16);
    let obs = Obs {
        registry: registry.clone(),
        flight: Some(recorder.clone()),
        ..Obs::default()
    };
    let allocs = AllocCapture::enter(scope);
    let report = run(&obs).expect("runs");
    let stats = allocs.finish(registry);
    let mut profile = Profile::from_events(&recorder.drain());
    profile.attach_alloc(&stats);
    (report, profile)
}

fn small_tourism() -> tourism::TourismParams {
    tourism::TourismParams {
        pois: 3_000,
        duration_s: 30.0,
        k: 8,
        radius_m: 200.0,
        seed: 9,
    }
}

#[test]
fn tourism_profile_artifacts_are_byte_identical_across_runs() {
    let run = || {
        let registry = Registry::new();
        let (_, profile) = profiled("tourism", &registry, |obs| {
            tourism::run(&small_tourism(), obs)
        });
        (
            profile.render_folded(),
            profile.render_speedscope("tourism"),
        )
    };
    let (folded_a, speedscope_a) = run();
    let (folded_b, speedscope_b) = run();
    assert!(!folded_a.is_empty(), "profile must not be empty");
    assert_eq!(folded_a, folded_b, "folded output must be byte-identical");
    assert_eq!(speedscope_a, speedscope_b);
}

#[test]
fn tourism_profile_has_per_frame_stacks_and_balances() {
    let registry = Registry::new();
    let (report, profile) = profiled("tourism", &registry, |obs| {
        tourism::run(&small_tourism(), obs)
    });
    assert!(report.queries >= 29);
    let folded = profile.render_folded();
    for stack in [
        "tourism/frame;tourism/retrieve",
        "tourism/frame;tourism/occlusion",
        "tourism/frame;tourism/layout",
        "tourism;tourism/setup",
        "tourism;tourism/tracking",
    ] {
        assert!(
            folded.contains(stack),
            "missing stack {stack} in:\n{folded}"
        );
    }
    // Exclusive self times partition the root inclusive time exactly —
    // the invariant the profile proptests pin on synthetic trees, here
    // checked on a real scenario trace.
    assert_eq!(profile.total_self_us(), profile.root_inclusive_us());
    // Bottom-up view ranks retrieval (knn + scan distance evaluations)
    // as the heaviest frame-stage by self time.
    let frames = profile.bottom_up();
    let retrieve = frames
        .iter()
        .find(|f| f.name == "tourism/retrieve")
        .expect("retrieve frame present");
    let layout = frames
        .iter()
        .find(|f| f.name == "tourism/layout")
        .expect("layout frame present");
    assert!(retrieve.self_us > layout.self_us);
}

#[test]
fn all_scenarios_run_profiled_nonempty_and_deterministic() {
    let traffic_params = traffic::TrafficParams {
        vehicles: 12,
        duration_s: 30.0,
        ..Default::default()
    };
    let healthcare_params = healthcare::HealthcareParams {
        patients: 10,
        duration_s: 300.0,
        ..Default::default()
    };
    let retail_params = retail::RetailParams {
        users: 200,
        products_per_group: 40,
        groups: 4,
        interactions_per_user: 10,
        top_k: 8,
        seed: 5,
    };
    let folded_traffic = || {
        let (_, p) = profiled("traffic", &Registry::new(), |obs| {
            traffic::run(&traffic_params, obs)
        });
        p.render_folded()
    };
    let folded_healthcare = || {
        let (_, p) = profiled("healthcare", &Registry::new(), |obs| {
            healthcare::run(&healthcare_params, obs)
        });
        p.render_folded()
    };
    let folded_retail = || {
        let (_, p) = profiled("retail", &Registry::new(), |obs| {
            retail::run(&retail_params, obs)
        });
        p.render_folded()
    };
    for (name, run) in [
        ("traffic", &folded_traffic as &dyn Fn() -> String),
        ("healthcare", &folded_healthcare),
        ("retail", &folded_retail),
    ] {
        let a = run();
        assert!(!a.is_empty(), "{name} profile must not be empty");
        assert!(
            a.lines().any(|l| l.starts_with(name)),
            "{name} stacks must be rooted at the scenario span:\n{a}"
        );
        assert_eq!(a, run(), "{name} folded output must be byte-identical");
    }
}

#[test]
fn profiled_run_exports_alloc_counters_when_counting() {
    let registry = Registry::new();
    let (_, profile) = profiled("tourism", &registry, |obs| {
        tourism::run(&small_tourism(), obs)
    });
    let scoped = registry
        .snapshot()
        .counters
        .iter()
        .filter(|c| c.name == "profile_alloc_bytes_total")
        .map(|c| c.value)
        .sum::<u64>();
    if augur_profile::counting_enabled() {
        assert!(
            scoped > 0,
            "scenario stages allocate; bytes must be charged"
        );
        assert!(!profile.render_folded_alloc_bytes().is_empty());
    } else {
        assert_eq!(scoped, 0, "no counts without the counting allocator");
    }
}
