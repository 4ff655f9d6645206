//! E10 — §3.4 public services: VANET collision-warning quality vs beacon
//! sharing period and channel loss.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_bench::{f, header, row, smoke, BenchLog, Snapshot};
use augur_core::traffic::{run, TrafficParams};
use augur_core::Obs;
use augur_telemetry::FlightRecorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header(
        "E10",
        "§3.4: warning coverage / lead time vs sharing period",
    );
    let base = TrafficParams {
        vehicles: if smoke() { 20 } else { 60 },
        duration_s: if smoke() { 30.0 } else { 120.0 },
        ..TrafficParams::default()
    };
    let mut snap = Snapshot::new("e10_vanet");
    snap.param_num("vehicles", base.vehicles as f64);
    snap.param_num("duration_s", base.duration_s);
    let blog = BenchLog::new("e10_vanet");
    let obs = Obs {
        flight: Some(FlightRecorder::new(1 << 14)),
        log: Some(blog.handle().clone()),
        ..Obs::default()
    };
    row(&[
        "period s".into(),
        "coverage%".into(),
        "lead time s".into(),
        "false alarm%".into(),
        "near misses".into(),
    ]);
    for &period in &[0.2f64, 0.5, 1.0, 2.0, 4.0] {
        let r = run(
            &TrafficParams {
                share_period_s: period,
                ..base.clone()
            },
            &obs,
        )?;
        let p = format!("{period}");
        let labels = [("share_period_s", p.as_str())];
        snap.gauge("coverage", &labels, r.coverage);
        snap.gauge("mean_lead_time_s", &labels, r.mean_lead_time_s);
        row(&[
            f(period, 1),
            f(r.coverage * 100.0, 1),
            f(r.mean_lead_time_s, 2),
            f(r.false_alarm_ratio * 100.0, 1),
            r.near_misses.to_string(),
        ]);
    }
    header("E10b", "warning coverage vs channel loss (period 0.5 s)");
    row(&[
        "loss%".into(),
        "coverage%".into(),
        "lead time s".into(),
        "delivered".into(),
        "lost".into(),
    ]);
    for &loss in &[0.0f64, 0.05, 0.15, 0.3, 0.5] {
        let r = run(
            &TrafficParams {
                loss,
                ..base.clone()
            },
            &obs,
        )?;
        let l = format!("{loss}");
        let labels = [("loss", l.as_str())];
        snap.gauge("coverage_vs_loss", &labels, r.coverage);
        row(&[
            f(loss * 100.0, 0),
            f(r.coverage * 100.0, 1),
            f(r.mean_lead_time_s, 2),
            r.beacons_delivered.to_string(),
            r.beacons_lost.to_string(),
        ]);
    }
    println!(
        "\nexpected shape: coverage degrades as beacons get sparser or lossier,\n\
         while lead time stays near the prediction horizon for covered events —\n\
         the freshness requirement of §3.4's traffic vision, quantified"
    );
    blog.finish();
    snap.write()?;
    Ok(())
}
