//! Profile artifacts of the four scenarios: a fixed seed and a
//! `ManualTime`-driven run fold into byte-identical folded-stack and
//! speedscope artifacts (pinned by digest), the profile's exclusive
//! times sum back to the root inclusive time, every scenario's traced
//! run folds into a non-empty profile whose stacks mirror the scenario's
//! stage names, and the speedscope document `tourism_city --profile`
//! writes is well-formed.
#![allow(clippy::expect_used)]

use augur::core::{healthcare, retail, tourism, traffic, CoreError};
use augur::semantic::json::JsonValue;
use augur::telemetry::{fnv1a64, FlightEvent, FlightRecorder, Obs};
use augur::xray::profile::Profile;

/// FNV-1a digests of the small runs' profile artifacts. Both renderings
/// are pure functions of the seed under modeled time, so a refactor of
/// the fold or the exporters leaves every constant unchanged.
const TOURISM_FOLDED: u64 = 0x6ea0_c2b4_a1df_781b;
const TOURISM_SPEEDSCOPE: u64 = 0x8b4e_cb82_f114_1505;
const TRAFFIC_FOLDED: u64 = 0x5cd2_f1ae_7402_63b7;
const HEALTHCARE_FOLDED: u64 = 0xec84_56f9_c914_4485;
const RETAIL_FOLDED: u64 = 0x0348_e9eb_e37f_bcca;

/// Runs `run` against a fresh flight ring and returns its report and the
/// drained events.
fn traced<R>(run: impl FnOnce(&Obs) -> Result<R, CoreError>) -> (R, Vec<FlightEvent>) {
    let recorder = FlightRecorder::new(1 << 16);
    let obs = Obs {
        flight: Some(recorder.clone()),
        ..Obs::default()
    };
    let report = run(&obs).expect("runs");
    (report, recorder.drain())
}

/// Runs `run` traced and folds the drained spans into a profile.
fn profiled<R>(run: impl FnOnce(&Obs) -> Result<R, CoreError>) -> (R, Profile) {
    let (report, events) = traced(run);
    (report, Profile::from_events(&events))
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

fn small_traffic() -> traffic::TrafficParams {
    traffic::TrafficParams {
        vehicles: 12,
        duration_s: 30.0,
        ..Default::default()
    }
}

fn small_healthcare() -> healthcare::HealthcareParams {
    healthcare::HealthcareParams {
        patients: 10,
        duration_s: 300.0,
        ..Default::default()
    }
}

fn small_retail() -> retail::RetailParams {
    retail::RetailParams {
        users: 200,
        products_per_group: 40,
        groups: 4,
        interactions_per_user: 10,
        top_k: 8,
        seed: 5,
    }
}

#[test]
fn profile_artifacts_are_pinned() {
    let digest = |text: String| fnv1a64(text.as_bytes());
    let (_, tourism) = profiled(|obs| tourism::run(&small_tourism(), obs));
    let (_, traffic) = profiled(|obs| traffic::run(&small_traffic(), obs));
    let (_, healthcare) = profiled(|obs| healthcare::run(&small_healthcare(), obs));
    let (_, retail) = profiled(|obs| retail::run(&small_retail(), obs));
    let got = [
        digest(tourism.render_folded()),
        digest(tourism.render_speedscope("tourism")),
        digest(traffic.render_folded()),
        digest(healthcare.render_folded()),
        digest(retail.render_folded()),
    ];
    assert_eq!(
        got,
        [
            TOURISM_FOLDED,
            TOURISM_SPEEDSCOPE,
            TRAFFIC_FOLDED,
            HEALTHCARE_FOLDED,
            RETAIL_FOLDED
        ],
        "profile digests {got:#018x?}"
    );
}

#[test]
fn tourism_profile_artifacts_are_byte_identical_across_runs() {
    let run = || {
        let (_, profile) = profiled(|obs| tourism::run(&small_tourism(), obs));
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
    let (report, events) = traced(|obs| tourism::run(&small_tourism(), obs));
    assert!(report.queries >= 29);
    let profile = Profile::from_events(&events);
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
    // Retrieval (knn + scan distance evaluations) outweighs layout in
    // per-stage self time.
    let stages = augur::xray::analyze("tourism", &events, 0).stages;
    let busy_us = |name: &str| {
        stages
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.busy_us)
            .expect("stage present")
    };
    assert!(busy_us("tourism/retrieve") > busy_us("tourism/layout"));
}

#[test]
fn all_scenarios_run_profiled_nonempty_and_deterministic() {
    let folded_traffic = || {
        let (_, p) = profiled(|obs| traffic::run(&small_traffic(), obs));
        p.render_folded()
    };
    let folded_healthcare = || {
        let (_, p) = profiled(|obs| healthcare::run(&small_healthcare(), obs));
        p.render_folded()
    };
    let folded_retail = || {
        let (_, p) = profiled(|obs| retail::run(&small_retail(), obs));
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

/// The speedscope file `tourism_city --profile` writes (default tour)
/// is a sampled, microsecond-unit profile whose samples and weights
/// pair up, whose weights sum to `endValue`, and whose stacks index the
/// shared frame table.
#[test]
fn tourism_city_speedscope_document_is_well_formed() {
    let (_, profile) = profiled(|obs| tourism::run(&tourism::TourismParams::default(), obs));
    let text = profile.render_speedscope("tourism_city");
    let doc = JsonValue::parse(&text).expect("speedscope output is JSON");
    let schema = doc.field("$schema").and_then(JsonValue::as_str);
    assert!(schema.expect("$schema").contains("speedscope"));
    let frames = doc
        .field("shared")
        .and_then(|s| s.field("frames"))
        .and_then(JsonValue::as_array)
        .expect("shared frame table");
    assert!(!frames.is_empty(), "empty frame table");
    for frame in frames {
        assert!(frame.field("name").and_then(JsonValue::as_str).is_ok());
    }
    let profiles = doc
        .field("profiles")
        .and_then(JsonValue::as_array)
        .expect("profiles");
    let prof = profiles.first().expect("one profile");
    let str_field = |name: &str| prof.field(name).and_then(JsonValue::as_str).expect(name);
    assert_eq!(str_field("type"), "sampled");
    assert_eq!(str_field("unit"), "microseconds");
    let samples = prof
        .field("samples")
        .and_then(JsonValue::as_array)
        .expect("samples");
    let weights = prof
        .field("weights")
        .and_then(JsonValue::as_array)
        .expect("weights");
    assert!(!samples.is_empty());
    assert_eq!(samples.len(), weights.len());
    let total: f64 = weights
        .iter()
        .map(|w| w.as_f64().expect("numeric weight"))
        .sum();
    let end = prof
        .field("endValue")
        .and_then(JsonValue::as_f64)
        .expect("endValue");
    assert_eq!(total, end, "weights sum to endValue");
    for stack in samples {
        for idx in stack.as_array().expect("stack") {
            let idx = idx.as_f64().expect("frame index");
            assert!(
                idx >= 0.0 && idx < frames.len() as f64 && idx.fract() == 0.0,
                "frame index {idx} out of range"
            );
        }
    }
}
