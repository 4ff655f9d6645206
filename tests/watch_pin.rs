//! Pins every watched scenario's observable output: for each §3
//! scenario run under its declared watch session (small params, no
//! fault injection), plus tourism under a 20 ms injected frame delay,
//! the FNV-1a digests of the session's Prometheus exposition,
//! dashboard, `/health` JSON and drained flight events. All four are
//! pure functions of the seed under modeled time, so a refactor of the
//! scenario or session wiring must leave every constant unchanged.
#![allow(clippy::expect_used)]

use augur::core::{healthcare, retail, tourism, traffic};
use augur::slo;
use augur::telemetry::fnv1a64;
use augur::watch::{render_health_json, WatchConfig, WatchSession};

/// `[prometheus, dashboard, health, flight]` digests of a finished session.
fn digests(session: &WatchSession) -> [u64; 4] {
    let events = session.recorder().drain();
    [
        fnv1a64(session.registry().render_prometheus().as_bytes()),
        fnv1a64(session.dashboard().as_bytes()),
        fnv1a64(render_health_json(&session.health()).as_bytes()),
        fnv1a64(format!("{events:?}").as_bytes()),
    ]
}

fn session(config: WatchConfig) -> WatchSession {
    WatchSession::new(config).expect("valid watch config")
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

fn watched_tourism(inject_us: u64) -> [u64; 4] {
    let params = small_tourism();
    let mut config = slo::tourism(params.seed);
    config.inject_cycle_delay_us = inject_us;
    let session = session(config);
    tourism::run(&params, &session.obs()).expect("tourism runs");
    session.finish();
    digests(&session)
}

#[test]
fn watched_tourism_is_pinned() {
    assert_eq!(
        watched_tourism(0),
        [
            0x62e7457609261ac6,
            0x97fb952aa4aca400,
            0x8979e7b6c5e9da7c,
            0x5d1772ac7cbc6ef5,
        ]
    );
}

#[test]
fn watched_tourism_under_injected_delay_is_pinned() {
    assert_eq!(
        watched_tourism(20_000),
        [
            0xaf6e960d1804f60d,
            0x76c1f6e15e1d5b05,
            0x7258785c272e667f,
            0x549907fca243f1a5,
        ]
    );
}

#[test]
fn watched_retail_is_pinned() {
    let params = retail::RetailParams {
        users: 200,
        products_per_group: 40,
        groups: 4,
        interactions_per_user: 10,
        top_k: 8,
        seed: 5,
    };
    let session = session(slo::retail(params.seed));
    retail::run(&params, &session.obs()).expect("retail runs");
    session.finish();
    assert_eq!(
        digests(&session),
        [
            0x3b09c33044dc29f4,
            0x3a71d25e361c0e90,
            0xce0390d2f8e36395,
            0x52e1b428dc224e6e,
        ]
    );
}

#[test]
fn watched_healthcare_is_pinned() {
    let params = healthcare::HealthcareParams {
        patients: 10,
        duration_s: 300.0,
        ..Default::default()
    };
    let session = session(slo::healthcare(params.seed));
    healthcare::run(&params, &session.obs()).expect("healthcare runs");
    session.finish();
    assert_eq!(
        digests(&session),
        [
            0xaa4d4a1925911034,
            0x0f2a2e524827b159,
            0x42306cf69b825070,
            0x14727a9a886517d0,
        ]
    );
}

#[test]
fn watched_traffic_is_pinned() {
    let params = traffic::TrafficParams {
        vehicles: 12,
        duration_s: 30.0,
        ..Default::default()
    };
    let session = session(slo::traffic(params.seed));
    traffic::run(&params, &session.obs()).expect("traffic runs");
    session.finish();
    assert_eq!(
        digests(&session),
        [
            0xba836a29cb5603fc,
            0x8d400d94a62ba713,
            0x678f681fcbfd2f73,
            0x9fded7e6b7574ec1,
        ]
    );
}
