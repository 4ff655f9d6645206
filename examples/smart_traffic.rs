//! Public-services scenario (§3.4): VANET collision warnings.
//!
//! Vehicles share beacons over a lossy channel; each predicts closest
//! approach from what it heard and raises AR windshield warnings. The
//! report scores coverage and lead time against ground-truth near
//! misses, then reconstructs the Figure 5 influence entry for the field.
//!
//! Run with: `cargo run --release --example smart_traffic`
//!
//! Pass `--watch` to run the simulation under an SLO watch session
//! (per-step latency objective) and print the live dashboard; a
//! violated objective exits 2.
//!
//! Pass `--artifacts <dir>` to write the run's bundle, byte-identical
//! across same-seed runs: `<dir>/traffic.{trace.json,folded,
//! speedscope.json,xray.json,log.jsonl}` (see `scenario/mod.rs`).

mod scenario;

use augur::core::traffic::{run, TrafficParams};
use augur::telemetry::Obs;
use scenario::Observed;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = TrafficParams::default();
    println!(
        "traffic scenario: {} vehicles for {:.0} s, beacons every {:.1} s, {:.0}% loss",
        params.vehicles,
        params.duration_s,
        params.share_period_s,
        params.loss * 100.0
    );
    let observed = Observed::new("traffic", || augur::slo::traffic(params.seed))?;
    let report = run(&params, &observed.obs)?;
    observed.finish()?;
    println!("\nchannel:");
    println!(
        "  beacons delivered/lost  {}/{}",
        report.beacons_delivered, report.beacons_lost
    );
    println!("\nwarning quality over {} near misses:", report.near_misses);
    println!("  coverage        {:.1}%", report.coverage * 100.0);
    println!("  mean lead time  {:.2} s", report.mean_lead_time_s);
    println!(
        "  false alarms    {} ({:.1}% of warnings)",
        report.false_alarms,
        report.false_alarm_ratio * 100.0
    );
    // Sweep the sharing period to show the timeliness trade.
    println!("\nsharing-period sweep (coverage / lead time):");
    for period in [0.2, 0.5, 1.0, 2.0, 4.0] {
        let r = run(
            &TrafficParams {
                share_period_s: period,
                ..params.clone()
            },
            &Obs::default(),
        )?;
        println!(
            "  {:>4.1} s  →  {:>5.1}%  /  {:.2} s",
            period,
            r.coverage * 100.0,
            r.mean_lead_time_s
        );
    }
    observed.report("watch (SLO burn-rate verdicts on the simulation clock):");
    Ok(())
}
