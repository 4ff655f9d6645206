//! Acceptance tests for the watch wiring (ISSUE 4): a fixed seed, a
//! `ManualTime`-driven scenario, and an injected latency regression must
//! produce a byte-identical burn-rate alert sequence across two runs;
//! the alert instants must be causally reachable from the session root
//! in the exported Chrome trace; and `/health` must report the violated
//! SLO by name. Without injection, no alerts fire.
//!
//! (Test code may use `std::net` freely; the audit's `net-confined`
//! rule scopes library code to `crates/watch/src/serve.rs`.)
// Panic-family lints exempt #[test] fns automatically (clippy.toml) but
// not test-support helpers; assertions are the point here.
#![allow(clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use augur::core::{healthcare, retail, tourism, traffic};
use augur::slo;
use augur::telemetry::{render_chrome_trace, FlightEvent};
use augur::watch::WatchSession;

fn small_tourism() -> tourism::TourismParams {
    tourism::TourismParams {
        pois: 3_000,
        duration_s: 30.0,
        k: 8,
        radius_m: 200.0,
        seed: 9,
    }
}

/// Runs the tourism scenario under watch with the given injected cycle
/// delay, returning the finished session and its drained flight events.
fn watched_tourism(inject_us: u64) -> (WatchSession, Vec<FlightEvent>) {
    let mut config = slo::tourism(7);
    config.inject_cycle_delay_us = inject_us;
    let session = WatchSession::new(config).expect("valid watch config");
    tourism::run(&small_tourism(), &session.obs()).expect("scenario runs");
    session.finish();
    let events = session.recorder().drain();
    (session, events)
}

fn alert_log(events: &[FlightEvent]) -> String {
    events
        .iter()
        .filter(|e| e.name.starts_with("slo/"))
        .map(|e| format!("{e:?}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Minimal HTTP GET returning (status line, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn healthy_tourism_run_declares_slo_and_stays_ok() {
    let (session, events) = watched_tourism(0);
    let health = session.health();
    assert!(health.ok, "healthy run must meet the frame budget");
    let names: Vec<&str> = health.slos.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "tourism_frame_p95",
            "trace_loss",
            "log_error_rate",
            "obs_overhead"
        ]
    );
    assert!(
        !events.iter().any(|e| e.name.starts_with("slo/")),
        "no alert events without injection"
    );
    // The rollup saw the frame latency series.
    assert!(session
        .rollup()
        .series_keys()
        .iter()
        .any(|k| k == "frame_latency_us{scenario=tourism}"));
}

#[test]
fn undersized_flight_ring_fires_the_trace_loss_slo() {
    // An 8-slot ring under a run emitting hundreds of spans loses far
    // more than the 1% the trace-loss objective tolerates; the watch
    // session's exported flight counters must surface that as a fired
    // SLO instead of silently corrupting traces and profiles.
    let mut config = slo::tourism(7);
    config.flight_capacity = 8;
    let session = WatchSession::new(config).expect("valid watch config");
    let params = tourism::TourismParams {
        duration_s: 120.0,
        ..small_tourism()
    };
    tourism::run(&params, &session.obs()).expect("scenario runs");
    session.finish();
    let health = session.health();
    let trace_loss = health
        .slos
        .iter()
        .find(|s| s.name == "trace_loss")
        .expect("trace_loss SLO is declared");
    assert!(!trace_loss.ok, "an 8-slot ring must lose >1% of spans");
    // The healthy-capacity run in the test above keeps the same SLO ok.
    let registry = session.registry();
    let lost = registry.counter("flight_dropped_events_total").get();
    let total = registry.counter("flight_events_total").get();
    assert!(lost > 0 && total > lost, "lost {lost} of {total}");
}

#[test]
fn injected_regression_alert_sequence_is_bit_reproducible() {
    let (session_a, events_a) = watched_tourism(20_000);
    let (_, events_b) = watched_tourism(20_000);
    assert!(
        !session_a.health().ok,
        "a 20ms injected delay must blow the 16.6ms frame budget"
    );
    let log_a = alert_log(&events_a);
    assert!(
        log_a.contains("slo/tourism_frame_p95/fast/alert"),
        "fast burn rule must fire: {log_a}"
    );
    assert_eq!(
        log_a,
        alert_log(&events_b),
        "alert sequence must be byte-identical"
    );
}

#[test]
fn alerts_are_causally_reachable_in_the_chrome_trace() {
    let (session, events) = watched_tourism(20_000);
    let root = session.root();
    let alerts: Vec<&FlightEvent> = events
        .iter()
        .filter(|e| e.name.starts_with("slo/") && e.name.ends_with("/alert"))
        .collect();
    assert!(!alerts.is_empty());
    for alert in &alerts {
        // Every alert instant hangs off the session root span, and the
        // root span itself is present in the same drained set — the
        // parent chain resolves, so the trace renders the alert as a
        // causal child of the watched session.
        assert_eq!(alert.parent_span_id, root.span_id);
    }
    assert!(events
        .iter()
        .any(|e| e.span_id == root.span_id && e.name == "watch/session"));
    let trace = render_chrome_trace("watch", &events);
    assert!(trace.contains("slo/tourism_frame_p95/fast/alert"));
    assert!(trace.contains("watch/session"));
    assert!(trace.contains("tourism/frame"));
}

#[test]
fn health_endpoint_reports_the_violated_slo() {
    let (session, _) = watched_tourism(20_000);
    let server = session.serve("127.0.0.1:0").expect("bind ephemeral port");
    let (status, body) = http_get(server.addr(), "/health");
    assert!(
        status.contains("503"),
        "violated /health must be 503: {status}"
    );
    assert!(body.contains("\"status\":\"violated\""), "body: {body}");
    assert!(body.contains("\"name\":\"tourism_frame_p95\""));
    let (status, body) = http_get(server.addr(), "/metrics");
    assert!(status.contains("200"));
    assert!(body.contains("frame_latency_us"));
    server.shutdown();
}

#[test]
fn healthcare_watch_grades_alert_latency_and_drop_ratio() {
    let params = healthcare::HealthcareParams {
        patients: 10,
        duration_s: 300.0,
        ..Default::default()
    };
    let session = WatchSession::new(slo::healthcare(3)).expect("valid watch config");
    let report = healthcare::run(&params, &session.obs()).expect("scenario runs");
    session.finish();
    assert!(report.detected > 0);
    let health = session.health();
    assert!(health.ok, "ward within objectives: {:?}", health.slos);
    let names: Vec<&str> = health.slos.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        vec![
            "healthcare_detect_p95",
            "healthcare_alert_p95",
            "healthcare_drop_ratio",
            "trace_loss",
            "log_error_rate",
            "obs_overhead"
        ]
    );
    let keys = session.rollup().series_keys();
    for series in [
        "frame_latency_us{scenario=healthcare}",
        "alert_latency_us{scenario=healthcare}",
        "pipeline_records_in_total{topic=vitals}",
        "log_records_total",
    ] {
        assert!(
            keys.iter().any(|k| k == series),
            "missing rolled-up series {series}; have {keys:?}"
        );
    }
    // The watched run wrote its decision log into the session's event
    // log: the tail is non-empty, carries the pipeline's run record,
    // and no ERROR reached the error-rate SLO's bad series.
    let tail = session.log_tail_jsonl();
    assert!(tail.contains("pipeline/run"), "tail: {tail}");
    assert!(tail.contains("healthcare/summary"), "tail: {tail}");
    assert_eq!(
        session.registry().counter("log_error_records_total").get(),
        0
    );
    // And the same tail is live on the `/logs` route.
    let server = session.serve("127.0.0.1:0").expect("bind ephemeral port");
    let (status, body) = http_get(server.addr(), "/logs");
    assert!(status.contains("200"), "status: {status}");
    assert!(body.contains("healthcare/summary"), "body: {body}");
    server.shutdown();
}

#[test]
fn traffic_and_retail_stay_ok_under_watch() {
    let session = WatchSession::new(slo::traffic(5)).expect("valid watch config");
    let params = traffic::TrafficParams {
        vehicles: 12,
        duration_s: 30.0,
        ..Default::default()
    };
    traffic::run(&params, &session.obs()).expect("scenario runs");
    session.finish();
    assert!(session.health().ok, "{:?}", session.health().slos);
    assert!(session
        .rollup()
        .series_keys()
        .iter()
        .any(|k| k == "frame_latency_us{scenario=traffic}"));

    let session = WatchSession::new(slo::retail(5)).expect("valid watch config");
    let params = retail::RetailParams {
        users: 200,
        products_per_group: 40,
        groups: 4,
        interactions_per_user: 10,
        top_k: 8,
        seed: 5,
    };
    retail::run(&params, &session.obs()).expect("scenario runs");
    session.finish();
    assert!(session.health().ok, "{:?}", session.health().slos);
    // Deterministic: the same watched run yields the same dashboard.
    let again = WatchSession::new(slo::retail(5)).expect("valid watch config");
    retail::run(&params, &again.obs()).expect("scenario runs");
    again.finish();
    assert_eq!(session.dashboard(), again.dashboard());
}
