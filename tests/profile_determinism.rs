//! Profile artifacts of the four scenarios: a fixed seed and a
//! `ManualTime`-driven run write byte-identical folded-stack and
//! speedscope files through the artifact bundle writer (pinned by
//! digest), the profile's exclusive times sum back to the root
//! inclusive time, every scenario's traced run folds into a non-empty
//! profile whose stacks mirror the scenario's stage names, and the
//! tourism bundle's speedscope document is well-formed.
#![allow(clippy::expect_used)]

use augur::core::{healthcare, retail, tourism, traffic, CoreError};
use augur::semantic::json::JsonValue;
use augur::telemetry::{fnv1a64, FlightEvent, FlightRecorder, Obs};
use augur::xray::artifacts::Artifacts;
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

/// Runs `run` traced, writes its artifact bundle under `name` into a
/// fresh temporary directory, and returns the bundle's folded and
/// speedscope files.
fn bundled<R>(name: &str, run: impl FnOnce(&Obs) -> Result<R, CoreError>) -> (String, String) {
    let (_, events) = traced(run);
    // One directory per test thread: the tests run concurrently.
    let thread = std::thread::current().id();
    let dir = std::env::temp_dir().join(format!("augur-profile-{}-{thread:?}", std::process::id()));
    let bundle = Artifacts::from_events(name, events, 0);
    bundle.write(&dir).expect("bundle writes");
    let read = |ext: &str| {
        std::fs::read_to_string(dir.join(format!("{name}.{ext}"))).expect("bundle file written")
    };
    let files = (read("folded"), read("speedscope.json"));
    std::fs::remove_dir_all(&dir).expect("remove the bundle directory");
    files
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

/// The folded file of the small `name` run's bundle.
fn small_folded(name: &str) -> String {
    let (folded, _) = match name {
        "traffic" => bundled(name, |obs| traffic::run(&small_traffic(), obs)),
        "healthcare" => bundled(name, |obs| healthcare::run(&small_healthcare(), obs)),
        "retail" => bundled(name, |obs| retail::run(&small_retail(), obs)),
        other => unreachable!("no small {other} run"),
    };
    folded
}

#[test]
fn profile_artifacts_are_pinned() {
    let (tourism_folded, tourism_speedscope) =
        bundled("tourism", |obs| tourism::run(&small_tourism(), obs));
    let [traffic, healthcare, retail] = ["traffic", "healthcare", "retail"].map(small_folded);
    let files = [
        tourism_folded,
        tourism_speedscope,
        traffic,
        healthcare,
        retail,
    ];
    let got = files.map(|text| fnv1a64(text.as_bytes()));
    let want = [
        TOURISM_FOLDED,
        TOURISM_SPEEDSCOPE,
        TRAFFIC_FOLDED,
        HEALTHCARE_FOLDED,
        RETAIL_FOLDED,
    ];
    assert_eq!(got, want, "profile digests {got:#018x?}");
}

#[test]
fn tourism_profile_artifacts_are_byte_identical_across_runs() {
    let run = || bundled("tourism", |obs| tourism::run(&small_tourism(), obs));
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
    for name in ["traffic", "healthcare", "retail"] {
        let a = small_folded(name);
        assert!(!a.is_empty(), "{name} profile must not be empty");
        assert!(
            a.lines().any(|l| l.starts_with(name)),
            "{name} stacks must be rooted at the scenario span:\n{a}"
        );
        assert_eq!(
            a,
            small_folded(name),
            "{name} folded output must be byte-identical"
        );
    }
}

/// The speedscope file of a default-tour bundle is a sampled,
/// microsecond-unit profile whose samples and weights pair up, whose
/// weights sum to `endValue`, and whose stacks index the shared frame
/// table.
#[test]
fn tourism_city_speedscope_document_is_well_formed() {
    let (_, text) = bundled("tourism", |obs| {
        tourism::run(&tourism::TourismParams::default(), obs)
    });
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
