//! Retail scenario (§3.1): big-data recommendations on AR shelves.
//!
//! Trains the CF / popularity / random recommenders on a synthetic
//! purchase log, evaluates them leave-one-out, and reports the AR
//! session's label-layout quality — the full E7 story.
//!
//! Run with: `cargo run --release --example retail_store`
//!
//! Pass `--watch` to run the pipeline under an SLO watch session
//! (per-stage latency objective) and print the live dashboard; a
//! violated objective exits 2.
//!
//! Pass `--artifacts <dir>` to write the run's bundle, byte-identical
//! across same-seed runs: `<dir>/retail.{trace.json,folded,
//! speedscope.json,xray.json,log.jsonl}` (see `scenario/mod.rs`).

mod scenario;

use augur::core::retail::{run, RetailParams};
use scenario::Observed;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = RetailParams::default();
    println!(
        "retail scenario: {} users × {} interactions, {} product groups",
        params.users, params.interactions_per_user, params.groups
    );
    let observed = Observed::new("retail", || augur::slo::retail(params.seed))?;
    let report = run(&params, &observed.obs)?;
    observed.finish()?;
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
    observed.report("watch (SLO burn-rate verdicts on the pipeline's manual clock):");
    Ok(())
}
