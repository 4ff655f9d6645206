//! Integration test for the live endpoint: bind an ephemeral port,
//! speak minimal HTTP/1.1 over a raw client socket, and check all four
//! routes for both a healthy and a violated session.
//!
//! (Test code may use `std::net` freely; the audit's `net-confined`
//! rule scopes library code to `crates/watch/src/serve.rs`.)
// Panic-family lints exempt #[test] fns automatically (clippy.toml) but
// not test-support helpers; assertions are the point here.
#![allow(clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use augur_telemetry::{ManualTime, TimeSource};
use augur_watch::{
    BurnRule, Objective, RollupConfig, SloSpec, TierSpec, WatchConfig, WatchSession,
};

fn test_config(inject_us: u64) -> WatchConfig {
    WatchConfig {
        seed: 7,
        // Windows sized to hold at least one cycle even with injection,
        // so a sustained regression marks every window bad.
        rollup: RollupConfig {
            tiers: vec![TierSpec {
                window_us: 10_000,
                capacity: 128,
            }],
        },
        slos: vec![SloSpec {
            name: "frame_p95".to_string(),
            objective: Objective::LatencyQuantile {
                series: "frame_latency_us{scenario=endpoint}".to_string(),
                q: 0.95,
                threshold_us: 2_000,
            },
            budget: 0.1,
            period_us: 100_000,
            rules: vec![BurnRule {
                name: "fast".to_string(),
                short_us: 20_000,
                long_us: 50_000,
                factor: 2.0,
            }],
        }],
        inject_cycle_delay_us: inject_us,
        ..WatchConfig::default()
    }
}

fn run_session(inject_us: u64) -> WatchSession {
    let session = WatchSession::new(test_config(inject_us)).expect("valid config");
    let clock = ManualTime::new();
    for _ in 0..25 {
        let start = clock.now_micros();
        clock.advance_micros(800);
        session.observe_cycle("endpoint", &clock, start);
    }
    session.finish();
    session
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
fn healthy_session_serves_all_routes() {
    let session = run_session(0);
    let server = session.serve("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    let (status, body) = http_get(addr, "/health");
    assert!(
        status.contains("200"),
        "healthy /health must be 200: {status}"
    );
    assert!(body.contains("\"status\":\"ok\""), "body: {body}");
    assert!(body.contains("\"name\":\"frame_p95\""));

    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"));
    assert!(body.contains("frame_latency_us"), "prometheus exposition");
    assert!(body.contains("rollup_windows_closed_total"));

    let (status, body) = http_get(addr, "/slo");
    assert!(status.contains("200"));
    assert!(body.contains("\"budget_remaining\""));
    assert!(body.contains("\"rule\":\"fast\""));

    let (status, body) = http_get(addr, "/");
    assert!(status.contains("200"));
    assert!(body.contains("augur-watch dashboard"));

    let (status, _) = http_get(addr, "/nope");
    assert!(status.contains("404"));

    server.shutdown();
}

#[test]
fn violated_session_reports_503_with_the_slo_named() {
    let session = run_session(5_000); // 5.8ms cycles vs a 2ms p95 ceiling
    assert!(!session.health().ok);
    let server = session.serve("127.0.0.1:0").expect("bind ephemeral port");
    let (status, body) = http_get(server.addr(), "/health");
    assert!(
        status.contains("503"),
        "violated /health must be 503: {status}"
    );
    assert!(body.contains("\"status\":\"violated\""), "body: {body}");
    assert!(body.contains("\"name\":\"frame_p95\""));
    assert!(body.contains("\"ok\":false"));
    server.shutdown();
}
