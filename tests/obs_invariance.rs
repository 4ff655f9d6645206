//! Observability never changes results: every scenario's report is the
//! same whether it runs with no sinks, with a flight recorder and event
//! log attached to its `Obs`, or under a watch session with no fault
//! injection.
#![allow(clippy::expect_used)]

use std::fmt::Debug;

use augur::core::{healthcare, retail, tourism, traffic, CoreError};
use augur::slo;
use augur::telemetry::log::EventLog;
use augur::telemetry::{FlightRecorder, Obs};
use augur::watch::{WatchConfig, WatchSession};

fn assert_invariant<P, R: PartialEq + Debug>(
    params: &P,
    run: fn(&P, &Obs) -> Result<R, CoreError>,
    config: WatchConfig,
) {
    let plain = run(params, &Obs::default()).expect("plain run");
    let obs = Obs {
        flight: Some(FlightRecorder::new(1 << 16)),
        log: Some(EventLog::new(1 << 14)),
        ..Obs::default()
    };
    assert_eq!(plain, run(params, &obs).expect("observed run"));
    // The sinks really were exercised.
    assert!(!obs.registry.snapshot().histograms.is_empty());
    assert!(obs.flight.is_some_and(|r| !r.drain().is_empty()));
    assert!(obs.log.is_some_and(|l| !l.drain().is_empty()));
    let session = WatchSession::new(config).expect("valid watch config");
    assert_eq!(plain, run(params, &session.obs()).expect("watched run"));
}

#[test]
fn tourism_report_is_independent_of_observability() {
    let params = tourism::TourismParams {
        pois: 3_000,
        duration_s: 30.0,
        k: 8,
        radius_m: 200.0,
        seed: 9,
    };
    let config = slo::tourism(params.seed);
    assert_invariant(&params, tourism::run, config);
}

#[test]
fn retail_report_is_independent_of_observability() {
    let params = retail::RetailParams {
        users: 200,
        products_per_group: 40,
        groups: 4,
        interactions_per_user: 10,
        top_k: 8,
        seed: 5,
    };
    let config = slo::retail(params.seed);
    assert_invariant(&params, retail::run, config);
}

#[test]
fn healthcare_report_is_independent_of_observability() {
    let params = healthcare::HealthcareParams {
        patients: 10,
        duration_s: 300.0,
        ..Default::default()
    };
    let config = slo::healthcare(params.seed);
    assert_invariant(&params, healthcare::run, config);
}

#[test]
fn traffic_report_is_independent_of_observability() {
    let params = traffic::TrafficParams {
        vehicles: 20,
        duration_s: 30.0,
        ..Default::default()
    };
    let config = slo::traffic(params.seed);
    assert_invariant(&params, traffic::run, config);
}
