//! Healthcare scenario (§3.3): streaming vitals with AR alerting.
//!
//! A patient cohort streams vitals through the broker; threshold
//! detectors raise alerts that the report scores against the injected
//! episode ground truth — recall, false alarms, and alert latency.
//!
//! Run with: `cargo run --release --example healthcare_ward`
//!
//! Pass `--trace` to also write a Perfetto-compatible causal trace to
//! `results/healthcare.trace.json` (open at <https://ui.perfetto.dev>);
//! patient 0's samples trace end-to-end through the broker pipeline.
//!
//! Pass `--watch` to grade the ward against its three SLOs (detect
//! latency, sample-to-alert latency, vitals drop ratio) under a watch
//! session and print the live dashboard; a violated objective exits 2.
//!
//! Pass `--xray` to write the bottleneck report (critical-path ranking,
//! parallel-speedup bounds, per-stage queueing model) to
//! `results/healthcare_ward.xray.json` — byte-identical across
//! same-seed runs, diffable with `augur-doctor --xray`.
//!
//! The flags combine: the scenario runs once against one `Obs` — the
//! watch session's under `--watch`, else one carrying a flight recorder
//! — and each flag exports its artifact from what that run recorded.

use augur::core::healthcare::{run, HealthcareParams};
use augur::telemetry::Obs;
use augur::telemetry::{render_chrome_trace, render_span_breakdown, FlightRecorder};
use augur::watch::WatchSession;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = std::env::args().any(|a| a == "--trace");
    let watch = std::env::args().any(|a| a == "--watch");
    let xray_run = std::env::args().any(|a| a == "--xray");
    let params = HealthcareParams::default();
    println!(
        "healthcare scenario: {} patients for {:.0} min at {:.0} Hz",
        params.patients,
        params.duration_s / 60.0,
        1.0 / params.period_s
    );
    let session = watch
        .then(|| WatchSession::new(augur::slo::healthcare(params.seed)))
        .transpose()?;
    let obs = match &session {
        Some(session) => session.obs(),
        None => Obs {
            flight: (trace || xray_run).then(|| FlightRecorder::new(1 << 16)),
            ..Obs::default()
        },
    };
    let report = run(&params, &obs)?;
    if let Some(session) = &session {
        session.finish();
    }
    if let (true, Some(recorder)) = (trace || xray_run, &obs.flight) {
        std::fs::create_dir_all("results")?;
        let events = recorder.drain();
        if xray_run {
            let xray = augur::xray::analyze("healthcare", &events, recorder.dropped_events())
                .with_registry(&obs.registry.snapshot());
            let path = "results/healthcare_ward.xray.json";
            std::fs::write(path, xray.render_json())?;
            print!("{}", xray.render_panel());
            println!("xray: wrote {path}");
        }
        if trace {
            let path = "results/healthcare.trace.json";
            std::fs::write(path, render_chrome_trace("healthcare", &events))?;
            println!(
                "trace: wrote {path} ({} events, {} dropped)",
                events.len(),
                recorder.dropped_events()
            );
        }
    }
    println!("\nstreaming:");
    println!("  samples through broker  {}", report.samples_streamed);
    println!(
        "  pipeline throughput     {:.0} records/s",
        report.pipeline_throughput_rps
    );
    println!("\ndetection quality over {} episodes:", report.episodes);
    println!("  recall                 {:.1}%", report.recall * 100.0);
    println!("  median alert latency   {:.1} s", report.median_latency_s);
    println!("  p95 alert latency      {:.1} s", report.p95_latency_s);
    println!(
        "  false alarms           {} ({:.2}/patient-hour)",
        report.false_alarms, report.false_alarm_rate_per_patient_hour
    );
    println!("\nper-stage breakdown (modeled work units, deterministic under the seed):");
    print!("{}", render_span_breakdown(&obs.registry.snapshot()));
    if let Some(session) = &session {
        println!("\nwatch (SLO burn-rate verdicts on the ward's manual clock):");
        print!("{}", session.dashboard());
        let health = session.health();
        if health.ok {
            println!("\nhealth OK — every objective inside its error budget");
        } else {
            let violated: Vec<&str> = health
                .slos
                .iter()
                .filter(|s| !s.ok)
                .map(|s| s.name.as_str())
                .collect();
            println!("\nhealth VIOLATED — {}", violated.join(", "));
            std::process::exit(2);
        }
    }
    Ok(())
}
