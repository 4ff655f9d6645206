//! Tourism scenario (§3.2): a tracked tour through a synthetic city.
//!
//! A tourist Lévy-walks among 20k POIs; pose comes from Kalman-fused
//! noisy GPS+IMU; every second the platform retrieves nearby POIs,
//! resolves occlusion for x-ray reveals, and lays labels out on screen.
//!
//! Run with: `cargo run --release --example tourism_city`
//!
//! Pass `--artifacts <dir>` to write the tour's bundle, byte-identical
//! across runs: `<dir>/tourism.{trace.json,folded,speedscope.json,
//! xray.json,log.jsonl}` (see `scenario/mod.rs`). The recorded tour is
//! denser (k = 64 within 400 m), so the declutterer sheds bubbles and the
//! log exercises its WARN path. The bundle is pinned byte for byte by
//! `results/baseline/`; `augur-doctor diff` explains a difference.
//!
//! Pass `--watch` to run the tour under an SLO watch session (rollups +
//! burn-rate alerting on the tour's manual clock) and print the live
//! dashboard; add `--inject-us 20000` to inject a per-frame latency
//! regression and watch the frame objective blow its error budget (the
//! example then exits 2, like `augur-watch`'s demo binary).

mod scenario;

use augur::core::tourism::{run, TourismParams};
use scenario::Observed;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut params = TourismParams::default();
    let observed = Observed::new("tourism", || {
        let mut config = augur::slo::tourism(params.seed);
        let mut args = std::env::args().skip_while(|a| a != "--inject-us");
        config.inject_cycle_delay_us = args.nth(1).and_then(|v| v.parse().ok()).unwrap_or(0);
        config
    })?;
    if observed.session.is_some() {
        // A lighter tour keeps the healthy modeled frame p95 inside the
        // 16.6 ms objective, so `--inject-us` alone decides the verdict
        // instead of the default load riding the threshold.
        params.pois = 8_000;
    }
    if observed.bundle_dir.is_some() {
        // A denser tour (more labels per retrieval) forces the
        // declutterer to shed bubbles, so the baseline fingerprint set
        // exercises the WARN path, not just the summary record.
        params.k = 64;
        params.radius_m = 400.0;
    }
    println!(
        "tourism scenario: {} POIs, {:.0} s tour, k={} per retrieval",
        params.pois, params.duration_s, params.k
    );
    let report = run(&params, &observed.obs)?;
    observed.finish()?;
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
    observed.report("watch (SLO burn-rate verdicts on the tour's manual clock):");
    Ok(())
}
