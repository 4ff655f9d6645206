//! Tourism scenario (§3.2): a tracked tour through a synthetic city.
//!
//! A tourist Lévy-walks among 20k POIs; pose comes from Kalman-fused
//! noisy GPS+IMU; every second the platform retrieves nearby POIs,
//! resolves occlusion for x-ray reveals, and lays labels out on screen.
//!
//! Run with: `cargo run --release --example tourism_city`
//!
//! Pass `--trace` to also write a Perfetto-compatible causal trace to
//! `results/tourism.trace.json` (open at <https://ui.perfetto.dev>).
//!
//! Pass `--watch` to run the tour under an SLO watch session (rollups +
//! burn-rate alerting on the tour's manual clock) and print the live
//! dashboard; add `--inject-us 20000` to inject a per-frame latency
//! regression and watch the frame objective blow its error budget (the
//! example then exits 2, like `augur-watch`'s demo binary).
//!
//! Pass `--log` to run with the structured event log attached and
//! write the canonical JSONL to `results/tourism.log.jsonl` —
//! byte-identical across same-seed runs, so CI diffs it and
//! `augur-doctor --logs` gates its WARN/ERROR patterns against
//! `results/baseline/log_fingerprints.json`.
//!
//! Pass `--profile` to write deterministic flamegraph artifacts —
//! `results/tourism_city.folded` (flamegraph.pl / inferno collapsed
//! stacks) and `results/tourism_city.speedscope.json` (open at
//! <https://www.speedscope.app>). Span times are modeled work under the
//! fixed seed, so both files are byte-identical across runs.
//!
//! Pass `--xray` to write the bottleneck report (critical-path ranking,
//! parallel-speedup bounds, per-stage queueing model) to
//! `results/tourism_city.xray.json` — the artifact `augur-doctor
//! --xray` diffs against a committed baseline. Byte-identical across
//! same-seed runs.
//!
//! The flags combine: the tour runs once against one `Obs` carrying a
//! flight recorder (and an event log under `--log`), and each flag
//! exports its artifact from what that run recorded.

use augur::core::tourism::{run, run_watched, watch_config, TourismParams};
use augur::core::Obs;
use augur::log::{render_jsonl, EventLog};
use augur::profile::{AllocCapture, Profile};
use augur::telemetry::{render_chrome_trace, render_span_breakdown, FlightRecorder};
use augur::watch::WatchSession;

/// The value following `name` in the argument list, if present.
fn arg_u64(name: &str) -> Option<u64> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next()?.parse().ok();
        }
    }
    None
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = std::env::args().any(|a| a == "--trace");
    let watch = std::env::args().any(|a| a == "--watch");
    let profile_run = std::env::args().any(|a| a == "--profile");
    let xray_run = std::env::args().any(|a| a == "--xray");
    let log_run = std::env::args().any(|a| a == "--log");
    let mut params = TourismParams::default();
    if watch {
        // A lighter tour keeps the healthy modeled frame p95 inside the
        // 16.6 ms objective, so `--inject-us` alone decides the verdict
        // instead of the default load riding the threshold.
        params.pois = 8_000;
    }
    println!(
        "tourism scenario: {} POIs, {:.0} s tour, k={} per retrieval",
        params.pois, params.duration_s, params.k
    );
    let obs = Obs {
        flight: (trace || profile_run || xray_run || log_run).then(|| FlightRecorder::new(1 << 16)),
        log: log_run.then(|| EventLog::new(1 << 14)),
        ..Obs::default()
    };
    let mut watch_session = None;
    let report = if watch {
        let mut config = watch_config(params.seed);
        config.inject_cycle_delay_us = arg_u64("--inject-us").unwrap_or(0);
        let mut session = WatchSession::new(config)?;
        let report = run_watched(&params, &mut session)?;
        watch_session = Some(session);
        report
    } else {
        if log_run {
            // A denser tour (more labels per retrieval) forces the
            // declutterer to shed bubbles, so the baseline fingerprint set
            // exercises the WARN path, not just the summary record.
            params.k = 64;
            params.radius_m = 400.0;
        }
        let allocs = profile_run.then(|| AllocCapture::enter("tourism"));
        let report = run(&params, &obs)?;
        let alloc_stats = allocs.map(|allocs| allocs.finish(&obs.registry));
        if let Some(recorder) = &obs.flight {
            std::fs::create_dir_all("results")?;
            let events = recorder.drain();
            if let Some(stats) = alloc_stats {
                let mut profile = Profile::from_events(&events);
                profile.attach_alloc(&stats);
                let folded = "results/tourism_city.folded";
                std::fs::write(folded, profile.render_folded())?;
                let speedscope = "results/tourism_city.speedscope.json";
                std::fs::write(speedscope, profile.render_speedscope("tourism_city"))?;
                println!("profile: wrote {folded} and {speedscope}");
            }
            if xray_run {
                let xray = augur::xray::analyze("tourism", &events, recorder.dropped_events())
                    .with_registry(&obs.registry.snapshot());
                let path = "results/tourism_city.xray.json";
                std::fs::write(path, xray.render_json())?;
                print!("{}", xray.render_panel());
                println!("xray: wrote {path}");
            }
            if trace {
                let path = "results/tourism.trace.json";
                std::fs::write(path, render_chrome_trace("tourism", &events))?;
                println!(
                    "trace: wrote {path} ({} events, {} dropped)",
                    events.len(),
                    recorder.dropped_events()
                );
            }
        }
        if let Some(log) = &obs.log {
            let records = log.drain();
            let path = "results/tourism.log.jsonl";
            std::fs::write(path, render_jsonl(&records))?;
            println!(
                "log: wrote {path} ({} records, {} dropped)",
                records.len(),
                log.dropped_records()
            );
        }
        report
    };
    println!("\nretrieval ({} queries):", report.queries);
    println!(
        "  R-tree k-NN     {:>9.1} dist-evals/query",
        report.knn_indexed_work
    );
    println!(
        "  linear scan     {:>9.1} dist-evals/query",
        report.scan_work
    );
    println!("  index speed-up  {:>9.1}x", report.index_speedup);
    println!(
        "\ntracking: mean position error {:.2} m (Kalman fusion)",
        report.tracking_error_m
    );
    println!("\npresentation:");
    println!("  POIs surfaced        {}", report.pois_surfaced);
    println!("  x-ray reveals        {}", report.xray_reveals);
    println!(
        "  bubble overlap       {:.1}% → decluttered {:.1}% (dropping {:.1}%)",
        report.naive_overlap * 100.0,
        report.decluttered_overlap * 100.0,
        report.declutter_drop_ratio * 100.0
    );
    println!("\nper-stage breakdown (modeled work units, deterministic under the seed):");
    let snapshot = match &watch_session {
        Some(session) => session.registry().snapshot(),
        None => obs.registry.snapshot(),
    };
    print!("{}", render_span_breakdown(&snapshot));
    if let Some(session) = &watch_session {
        println!("\nwatch (SLO burn-rate verdicts on the tour's manual clock):");
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
