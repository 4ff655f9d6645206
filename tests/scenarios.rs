//! Integration: the four §3 scenarios hold their headline invariants at
//! test scale, and the Figure 5 reconstruction derives from them.

use augur::core::{healthcare, influence_report, retail, tourism, traffic, InfluenceLevel};
use augur::telemetry::Obs;

#[test]
fn retail_ordering_and_layout_invariants() {
    let params = retail::RetailParams {
        users: 400,
        ..Default::default()
    };
    let r = retail::run(&params, &Obs::default()).unwrap();
    assert!(r.cf.hit_rate > r.popularity.hit_rate);
    assert!(r.popularity.hit_rate >= r.random.hit_rate);
    assert!(r.decluttered_layout.overlap_ratio <= r.naive_layout.overlap_ratio);
    assert!((0.0..=1.0).contains(&r.cf.hit_rate));
}

#[test]
fn tourism_invariants() {
    let params = tourism::TourismParams {
        pois: 4_000,
        duration_s: 40.0,
        ..Default::default()
    };
    let r = tourism::run(&params, &Obs::default()).unwrap();
    assert!(r.index_speedup > 1.0);
    assert!(r.tracking_error_m.is_finite() && r.tracking_error_m < 20.0);
    assert!(r.pois_surfaced >= r.queries, "k≥1 per query");
    assert!(r.decluttered_overlap <= r.naive_overlap);
}

#[test]
fn healthcare_invariants() {
    let params = healthcare::HealthcareParams {
        patients: 8,
        duration_s: 600.0,
        ..Default::default()
    };
    let r = healthcare::run(&params, &Obs::default()).unwrap();
    assert!((0.0..=1.0).contains(&r.recall));
    assert!(r.detected <= r.episodes);
    assert!(r.median_latency_s <= r.p95_latency_s);
    assert_eq!(r.samples_streamed, 8 * 3 * 600);
}

#[test]
fn traffic_invariants() {
    let params = traffic::TrafficParams {
        vehicles: 20,
        duration_s: 40.0,
        ..Default::default()
    };
    let r = traffic::run(&params, &Obs::default()).unwrap();
    assert!((0.0..=1.0).contains(&r.coverage));
    assert!(r.warned_in_time <= r.near_misses);
    assert!((0.0..=1.0).contains(&r.false_alarm_ratio));
    assert!(r.mean_lead_time_s >= 0.0);
}

#[test]
fn influence_reconstruction_covers_all_fields() {
    let retail_params = retail::RetailParams {
        users: 300,
        ..Default::default()
    };
    let retail_r = retail::run(&retail_params, &Obs::default()).unwrap();
    let tourism_params = tourism::TourismParams {
        pois: 3_000,
        duration_s: 30.0,
        ..Default::default()
    };
    let tourism_r = tourism::run(&tourism_params, &Obs::default()).unwrap();
    let health_params = healthcare::HealthcareParams {
        patients: 6,
        duration_s: 600.0,
        ..Default::default()
    };
    let health_r = healthcare::run(&health_params, &Obs::default()).unwrap();
    let traffic_params = traffic::TrafficParams {
        vehicles: 20,
        duration_s: 40.0,
        ..Default::default()
    };
    let traffic_r = traffic::run(&traffic_params, &Obs::default()).unwrap();
    let entries = influence_report(&retail_r, &tourism_r, &health_r, &traffic_r);
    assert_eq!(entries.len(), 4);
    for e in &entries {
        assert!((0.0..=1.0).contains(&e.score), "{e:?}");
        assert!(e.level >= InfluenceLevel::Low, "derived level for {e:?}");
    }
}
