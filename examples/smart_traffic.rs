//! Public-services scenario (§3.4): VANET collision warnings.
//!
//! Vehicles share beacons over a lossy channel; each predicts closest
//! approach from what it heard and raises AR windshield warnings. The
//! report scores coverage and lead time against ground-truth near
//! misses, then reconstructs the Figure 5 influence entry for the field.
//!
//! Run with: `cargo run --release --example smart_traffic`
//!
//! Pass `--trace` to also write a Perfetto-compatible causal trace to
//! `results/traffic.trace.json` (open at <https://ui.perfetto.dev>).
//!
//! Pass `--watch` to run the simulation under an SLO watch session
//! (per-step latency objective) and print the live dashboard; a
//! violated objective exits 2.
//!
//! Pass `--xray` to write the bottleneck report (critical-path ranking,
//! parallel-speedup bounds, per-stage queueing model) to
//! `results/smart_traffic.xray.json` — byte-identical across same-seed
//! runs, diffable with `augur-doctor --xray`.
//!
//! `--trace` and `--xray` combine: the scenario runs once against one
//! `Obs` carrying a flight recorder, and each flag exports its artifact
//! from what that run recorded.

use augur::core::traffic::{run, run_watched, watch_config, TrafficParams};
use augur::core::Obs;
use augur::telemetry::{render_chrome_trace, render_span_breakdown, FlightRecorder};
use augur::watch::WatchSession;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = std::env::args().any(|a| a == "--trace");
    let watch = std::env::args().any(|a| a == "--watch");
    let xray_run = std::env::args().any(|a| a == "--xray");
    let params = TrafficParams::default();
    println!(
        "traffic scenario: {} vehicles for {:.0} s, beacons every {:.1} s, {:.0}% loss",
        params.vehicles,
        params.duration_s,
        params.share_period_s,
        params.loss * 100.0
    );
    let obs = Obs {
        flight: (trace || xray_run).then(|| FlightRecorder::new(1 << 16)),
        ..Obs::default()
    };
    let mut watch_session = None;
    let report = if watch {
        let mut session = WatchSession::new(watch_config(params.seed))?;
        let report = run_watched(&params, &mut session)?;
        watch_session = Some(session);
        report
    } else {
        let report = run(&params, &obs)?;
        if let Some(recorder) = &obs.flight {
            std::fs::create_dir_all("results")?;
            let events = recorder.drain();
            if xray_run {
                let xray = augur::xray::analyze("traffic", &events, recorder.dropped_events())
                    .with_registry(&obs.registry.snapshot());
                let path = "results/smart_traffic.xray.json";
                std::fs::write(path, xray.render_json())?;
                print!("{}", xray.render_panel());
                println!("xray: wrote {path}");
            }
            if trace {
                let path = "results/traffic.trace.json";
                std::fs::write(path, render_chrome_trace("traffic", &events))?;
                println!(
                    "trace: wrote {path} ({} events, {} dropped)",
                    events.len(),
                    recorder.dropped_events()
                );
            }
        }
        report
    };
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
    println!("\nper-stage breakdown (modeled work units, deterministic under the seed):");
    let snapshot = match &watch_session {
        Some(session) => session.registry().snapshot(),
        None => obs.registry.snapshot(),
    };
    print!("{}", render_span_breakdown(&snapshot));
    if let Some(session) = &watch_session {
        println!("\nwatch (SLO burn-rate verdicts on the simulation clock):");
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
