//! E7 — §3.1 retail: recommender quality at several data scales.
#![allow(clippy::unwrap_used, clippy::expect_used)] // experiment drivers: setup failure is fatal by design

use augur_bench::{f, header, row, smoke, BenchLog, Snapshot};
use augur_core::retail::{run, RetailParams};
use augur_core::Obs;
use augur_telemetry::FlightRecorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("E7", "§3.1: recommendation hit-rate@10 vs log scale");
    let scales: &[u64] = if smoke() {
        &[100, 300]
    } else {
        &[100, 300, 1_000, 3_000]
    };
    let mut snap = Snapshot::new("e7_retail");
    snap.param_num("top_k", 10.0);
    snap.param_num("scale_points", scales.len() as f64);
    // The scenario narrates shelf-declutter drops (WARN) and the
    // per-run summary (INFO); the Obs's private registry keeps
    // scenario-internal metrics out of the baselined snapshot.
    let blog = BenchLog::new("e7_retail");
    let obs = Obs {
        flight: Some(FlightRecorder::new(1 << 14)),
        log: Some(blog.handle().clone()),
        ..Obs::default()
    };
    row(&[
        "users".into(),
        "log size".into(),
        "cf".into(),
        "popularity".into(),
        "random".into(),
        "uplift".into(),
    ]);
    for &users in scales {
        let report = run(
            &RetailParams {
                users,
                ..RetailParams::default()
            },
            &obs,
        )?;
        let ul = users.to_string();
        let labels = [("users", ul.as_str())];
        snap.gauge("cf_hit_rate", &labels, report.cf.hit_rate);
        snap.gauge("popularity_hit_rate", &labels, report.popularity.hit_rate);
        snap.gauge("uplift_vs_popularity", &labels, report.uplift_vs_popularity);
        row(&[
            users.to_string(),
            report.log_size.to_string(),
            f(report.cf.hit_rate, 3),
            f(report.popularity.hit_rate, 3),
            f(report.random.hit_rate, 3),
            format!("{:.1}x", report.uplift_vs_popularity),
        ]);
    }
    println!(
        "\nexpected shape: cf > popularity > random at every scale, with cf\n\
         improving as the log grows — the \"big data makes AR retail work\"\n\
         claim in measurable form"
    );
    blog.finish();
    snap.write()?;
    Ok(())
}
