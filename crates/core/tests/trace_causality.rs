//! Trace determinism + causality: a seeded scenario run with `--trace`
//! semantics must (a) emit a byte-identical Chrome trace JSON document
//! on every run, and (b) emit only spans/instants whose
//! `parent_span_id` chain resolves to a root (`parent_span_id == 0`)
//! entirely within the drained event set — no dangling parents, no
//! cycles.

use std::collections::{HashMap, HashSet};

use augur_core::scenario::healthcare;
use augur_core::scenario::tourism;
use augur_core::{HealthcareParams, Obs, TourismParams};
use augur_semantic::json::JsonValue;
use augur_telemetry::{render_chrome_trace, FlightEvent, FlightRecorder};

fn small_tourism() -> TourismParams {
    TourismParams {
        pois: 600,
        duration_s: 8.0,
        k: 4,
        radius_m: 150.0,
        seed: 23,
    }
}

fn small_healthcare() -> HealthcareParams {
    HealthcareParams {
        patients: 3,
        duration_s: 40.0,
        period_s: 1.0,
        episodes_per_patient: 1.0,
        episode_length_s: 10.0,
        partitions: 2,
        confirm_m: 2,
        artifact_probability: 0.0,
        seed: 31,
    }
}

fn traced_tourism() -> Vec<FlightEvent> {
    let recorder = FlightRecorder::new(1 << 16);
    let obs = Obs {
        flight: Some(recorder.clone()),
        ..Obs::default()
    };
    let report = tourism::run(&small_tourism(), &obs);
    assert!(report.is_ok(), "tourism run failed: {report:?}");
    assert_eq!(recorder.dropped_events(), 0, "ring must not overflow");
    recorder.drain()
}

fn traced_healthcare() -> Vec<FlightEvent> {
    let recorder = FlightRecorder::new(1 << 16);
    let obs = Obs {
        flight: Some(recorder.clone()),
        ..Obs::default()
    };
    let report = healthcare::run(&small_healthcare(), &obs);
    assert!(report.is_ok(), "healthcare run failed: {report:?}");
    assert_eq!(recorder.dropped_events(), 0, "ring must not overflow");
    recorder.drain()
}

/// Asserts every event's parent chain lands on a root (parent id 0)
/// using only span ids present in `events`, with a cycle guard.
fn assert_causally_closed(events: &[FlightEvent]) {
    assert!(!events.is_empty(), "traced run must emit events");
    // parent links may only point at *span* records (instants are leaves).
    let spans: HashMap<u64, u64> = events
        .iter()
        .filter(|e| e.kind == augur_telemetry::FlightEventKind::Span)
        .map(|e| (e.span_id, e.parent_span_id))
        .collect();
    let mut roots = 0usize;
    for e in events {
        if e.parent_span_id == 0 {
            roots += 1;
        }
        let mut hops = 0usize;
        let mut cursor = e.parent_span_id;
        while cursor != 0 {
            let parent = spans.get(&cursor).copied();
            assert!(
                parent.is_some(),
                "event {:?} (span {:016x}) has dangling parent {:016x}",
                e.name,
                e.span_id,
                cursor
            );
            cursor = parent.unwrap_or(0);
            hops += 1;
            assert!(
                hops <= events.len(),
                "cycle in parent chain at {:?}",
                e.name
            );
        }
    }
    assert!(roots > 0, "at least one root span must exist");
}

#[test]
fn tourism_trace_is_byte_identical_across_runs() {
    let a = render_chrome_trace("tourism", &traced_tourism());
    let b = render_chrome_trace("tourism", &traced_tourism());
    assert_eq!(a, b, "seeded tourism traces must be byte-identical");
}

#[test]
fn healthcare_trace_is_byte_identical_across_runs() {
    let a = render_chrome_trace("healthcare", &traced_healthcare());
    let b = render_chrome_trace("healthcare", &traced_healthcare());
    assert_eq!(a, b, "seeded healthcare traces must be byte-identical");
}

#[test]
fn tourism_spans_are_causally_reachable() {
    let events = traced_tourism();
    assert_causally_closed(&events);
    // The ISSUE topology: per-frame roots plus one run root — so the
    // trace has multiple roots, and frame children carry stage names.
    let names: HashSet<&str> = events.iter().map(|e| e.name.as_str()).collect();
    for expected in ["tourism/retrieve", "tourism/occlusion", "tourism/layout"] {
        assert!(names.contains(expected), "missing stage span {expected}");
    }
}

#[test]
fn healthcare_spans_are_causally_reachable() {
    let events = traced_healthcare();
    assert_causally_closed(&events);
    let names: HashSet<&str> = events.iter().map(|e| e.name.as_str()).collect();
    assert!(
        names.contains("healthcare/sample"),
        "patient-0 samples must emit producer root spans"
    );
}

#[test]
fn rendered_trace_parses_and_preserves_causal_ids() {
    let events = traced_tourism();
    let json = render_chrome_trace("tourism", &events);
    let doc = JsonValue::parse(&json).expect("chrome trace parses");
    let rows = doc
        .field("traceEvents")
        .expect("traceEvents")
        .as_array()
        .expect("array");
    // Metadata rows (process_name + per-row thread_name) carry
    // "ph":"M"; the rest mirror the drained events one-to-one.
    let data_rows: Vec<_> = rows
        .iter()
        .filter(|row| {
            row.field("ph")
                .ok()
                .and_then(|v| v.as_str().ok())
                .map(|ph| ph != "M")
                .unwrap_or(true)
        })
        .collect();
    assert_eq!(data_rows.len(), events.len());
    let mut span_ids: HashSet<String> = HashSet::new();
    let mut parents: Vec<String> = Vec::new();
    for row in data_rows {
        let args = row.field("args").expect("args").as_object().expect("obj");
        let span = args.get("span_id").expect("span_id").as_str().expect("hex");
        let parent = args
            .get("parent_span_id")
            .expect("parent_span_id")
            .as_str()
            .expect("hex");
        span_ids.insert(span.to_string());
        parents.push(parent.to_string());
    }
    let zero = "0".repeat(16);
    for parent in parents {
        assert!(
            parent == zero || span_ids.contains(&parent),
            "rendered parent {parent} not found among rendered span ids"
        );
    }
}
