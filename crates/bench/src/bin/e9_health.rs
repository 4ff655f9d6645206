//! E9 — §3.3 healthcare: alert recall / latency / false alarms vs the
//! confirmation requirement (m consecutive breaches).
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_bench::{f, header, row, smoke, BenchLog, Snapshot};
use augur_core::healthcare::{run, HealthcareParams};
use augur_core::Obs;
use augur_telemetry::FlightRecorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("E9", "§3.3: alerting quality vs confirmation strictness");
    let base = HealthcareParams {
        patients: if smoke() { 10 } else { 50 },
        duration_s: if smoke() { 300.0 } else { 1_800.0 },
        ..HealthcareParams::default()
    };
    let mut snap = Snapshot::new("e9_health");
    snap.param_num("patients", base.patients as f64);
    snap.param_num("duration_s", base.duration_s);
    let blog = BenchLog::new("e9_health");
    let obs = Obs {
        flight: Some(FlightRecorder::new(1 << 14)),
        log: Some(blog.handle().clone()),
        ..Obs::default()
    };
    row(&[
        "confirm m".into(),
        "recall%".into(),
        "median lat s".into(),
        "p95 lat s".into(),
        "false/pt-hr".into(),
        "throughput r/s".into(),
    ]);
    for &m in &[1usize, 2, 3, 5] {
        let report = run(
            &HealthcareParams {
                confirm_m: m,
                ..base.clone()
            },
            &obs,
        )?;
        let ml = m.to_string();
        let labels = [("confirm_m", ml.as_str())];
        snap.gauge("recall", &labels, report.recall);
        snap.gauge("median_latency_s", &labels, report.median_latency_s);
        snap.gauge(
            "false_alarms_per_patient_hour",
            &labels,
            report.false_alarm_rate_per_patient_hour,
        );
        row(&[
            m.to_string(),
            f(report.recall * 100.0, 1),
            f(report.median_latency_s, 1),
            f(report.p95_latency_s, 1),
            f(report.false_alarm_rate_per_patient_hour, 2),
            f(report.pipeline_throughput_rps, 0),
        ]);
    }
    println!(
        "\nexpected shape: stricter confirmation trades alert latency against\n\
         false alarms at near-constant recall — the knob a deployment turns to\n\
         keep the AR alert channel trustworthy"
    );
    blog.finish();
    snap.write()?;
    Ok(())
}
