//! E1 — Figure 5 "influence circles", derived from measured scenarios.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_bench::{f, header, row, smoke, BenchLog, Snapshot};
use augur_core::{healthcare, influence_report, retail, tourism, traffic};
use augur_telemetry::{FlightRecorder, Obs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("E1", "Figure 5: influence of AR × big data per field");
    println!("running all four scenarios (this takes ~a minute)...");
    let mut retail_params = retail::RetailParams::default();
    let mut tourism_params = tourism::TourismParams::default();
    let mut health_params = healthcare::HealthcareParams::default();
    let mut traffic_params = traffic::TrafficParams::default();
    if smoke() {
        retail_params.users = 200;
        tourism_params.pois = 3_000;
        tourism_params.duration_s = 30.0;
        health_params.patients = 10;
        health_params.duration_s = 300.0;
        traffic_params.vehicles = 20;
        traffic_params.duration_s = 30.0;
    }
    let mut snap = Snapshot::new("e1_influence");
    snap.param_num("retail_users", retail_params.users as f64);
    snap.param_num("tourism_pois", tourism_params.pois as f64);
    snap.param_num("health_patients", health_params.patients as f64);
    snap.param_num("traffic_vehicles", traffic_params.vehicles as f64);
    // Each scenario narrates its shedding/alerting decisions into one
    // shared ring, drained to stderr at exit. The Obs's private registry
    // keeps scenario-internal metrics out of the snapshot (whose gauge
    // set the doctor baseline pins).
    let blog = BenchLog::new("e1_influence");
    let obs = Obs {
        flight: Some(FlightRecorder::new(1 << 14)),
        log: Some(blog.handle().clone()),
        ..Obs::default()
    };
    let retail_report = retail::run(&retail_params, &obs)?;
    let tourism_report = tourism::run(&tourism_params, &obs)?;
    let health_report = healthcare::run(&health_params, &obs)?;
    let traffic_report = traffic::run(&traffic_params, &obs)?;
    let entries = influence_report(
        &retail_report,
        &tourism_report,
        &health_report,
        &traffic_report,
    );
    row(&[
        "field".into(),
        "data".into(),
        "uplift".into(),
        "delivery".into(),
        "score".into(),
        "level".into(),
    ]);
    for e in &entries {
        let field = e.field.to_string();
        let labels = [("field", field.as_str())];
        snap.gauge("influence_score", &labels, e.score);
        snap.gauge("analytic_uplift", &labels, e.analytic_uplift);
        row(&[
            e.field.to_string(),
            f(e.data_intensity, 2),
            f(e.analytic_uplift, 2),
            f(e.delivery_benefit, 2),
            f(e.score, 2),
            e.level.to_string(),
        ]);
    }
    println!(
        "\npaper's qualitative claim: all four fields rank medium-or-above;\n\
         measured: every score ≥ 0.3 bucket — {}",
        if entries.iter().all(|e| e.score >= 0.3) {
            "HOLDS"
        } else {
            "DOES NOT HOLD"
        }
    );
    blog.finish();
    snap.write()?;
    Ok(())
}
