//! Healthcare scenario (§3.3): streaming vitals with AR alerting.
//!
//! A patient cohort streams vitals through the broker; threshold
//! detectors raise alerts that the report scores against the injected
//! episode ground truth — recall, false alarms, and alert latency.
//!
//! Run with: `cargo run --release --example healthcare_ward`
//!
//! Pass `--watch` to grade the ward against its three SLOs (detect
//! latency, sample-to-alert latency, vitals drop ratio) under a watch
//! session and print the live dashboard; a violated objective exits 2.
//!
//! Pass `--artifacts <dir>` to write the run's bundle, byte-identical
//! across same-seed runs: `<dir>/healthcare.{trace.json,folded,
//! speedscope.json,xray.json,log.jsonl}` (see `scenario/mod.rs`).
//! Patient 0's samples trace end-to-end through the broker pipeline.

mod scenario;

use augur::core::healthcare::{run, HealthcareParams};
use scenario::Observed;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = HealthcareParams::default();
    println!(
        "healthcare scenario: {} patients for {:.0} min at {:.0} Hz",
        params.patients,
        params.duration_s / 60.0,
        1.0 / params.period_s
    );
    let observed = Observed::new("healthcare", || augur::slo::healthcare(params.seed))?;
    let report = run(&params, &observed.obs)?;
    observed.finish()?;
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
    observed.report("watch (SLO burn-rate verdicts on the ward's manual clock):");
    Ok(())
}
