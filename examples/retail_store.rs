//! Retail scenario (§3.1): big-data recommendations on AR shelves.
//!
//! Trains the CF / popularity / random recommenders on a synthetic
//! purchase log, evaluates them leave-one-out, and reports the AR
//! session's label-layout quality — the full E7 story.
//!
//! Run with: `cargo run --release --example retail_store`
//!
//! Pass `--trace` to also write a Perfetto-compatible causal trace to
//! `results/retail.trace.json` (open at <https://ui.perfetto.dev>).
//!
//! Pass `--watch` to run the pipeline under an SLO watch session
//! (per-stage latency objective) and print the live dashboard; a
//! violated objective exits 2.
//!
//! Pass `--xray` to write the bottleneck report (critical-path ranking,
//! parallel-speedup bounds, per-stage queueing model) to
//! `results/retail_store.xray.json` — byte-identical across same-seed
//! runs, diffable with `augur-doctor --xray`.
//!
//! The flags combine: the scenario runs once against one `Obs` — the
//! watch session's under `--watch`, else one carrying a flight recorder
//! — and each flag exports its artifact from what that run recorded.

use augur::core::retail::{run, RetailParams};
use augur::telemetry::Obs;
use augur::telemetry::{render_chrome_trace, render_span_breakdown, FlightRecorder};
use augur::watch::WatchSession;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = std::env::args().any(|a| a == "--trace");
    let watch = std::env::args().any(|a| a == "--watch");
    let xray_run = std::env::args().any(|a| a == "--xray");
    let params = RetailParams::default();
    println!(
        "retail scenario: {} users × {} interactions, {} product groups",
        params.users, params.interactions_per_user, params.groups
    );
    let session = watch
        .then(|| WatchSession::new(augur::slo::retail(params.seed)))
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
            let xray = augur::xray::analyze("retail", &events, recorder.dropped_events())
                .with_registry(&obs.registry.snapshot());
            let path = "results/retail_store.xray.json";
            std::fs::write(path, xray.render_json())?;
            print!("{}", xray.render_panel());
            println!("xray: wrote {path}");
        }
        if trace {
            let path = "results/retail.trace.json";
            std::fs::write(path, render_chrome_trace("retail", &events))?;
            println!(
                "trace: wrote {path} ({} events, {} dropped)",
                events.len(),
                recorder.dropped_events()
            );
        }
    }
    println!(
        "\nrecommender quality (leave-one-out, hit-rate@{}):",
        params.top_k
    );
    println!(
        "  {:<14} hit-rate {:>6.3}   mrr {:>6.4}",
        "item-item CF", report.cf.hit_rate, report.cf.mrr
    );
    println!(
        "  {:<14} hit-rate {:>6.3}   mrr {:>6.4}",
        "popularity", report.popularity.hit_rate, report.popularity.mrr
    );
    println!(
        "  {:<14} hit-rate {:>6.3}   mrr {:>6.4}",
        "random", report.random.hit_rate, report.random.mrr
    );
    println!(
        "\nbig-data uplift over popularity baseline: {:.2}x",
        report.uplift_vs_popularity
    );
    println!("\nAR shelf session: {} overlays", report.overlays_shown);
    println!(
        "  naive bubbles    overlap {:>5.1}%",
        report.naive_layout.overlap_ratio * 100.0
    );
    println!(
        "  decluttered      overlap {:>5.1}%  (mean displacement {:.0} px)",
        report.decluttered_layout.overlap_ratio * 100.0,
        report.decluttered_layout.mean_displacement_px
    );
    println!("\nper-stage breakdown (modeled work units, deterministic under the seed):");
    print!("{}", render_span_breakdown(&obs.registry.snapshot()));
    if let Some(session) = &session {
        println!("\nwatch (SLO burn-rate verdicts on the pipeline's manual clock):");
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
