//! `augur-watch` CLI: a self-contained watch-session demo and the CI
//! endpoint smoke driver.
//!
//! ```text
//! augur-watch [--addr 127.0.0.1:0] [--addr-file <path>]
//!             [--serve-for-ms 2000] [--cycles 60] [--inject-us 0]
//! ```
//!
//! Runs a deterministic modeled workload (1 ms of work per cycle under
//! `ManualTime`) through a [`WatchSession`] with a 5 ms p95 objective,
//! then serves `/metrics`, `/health`, `/slo`, and the dashboard for
//! `--serve-for-ms` milliseconds. `--addr-file` writes the bound
//! address (resolving an ephemeral `:0` port) so scripts can curl it.
//! `--inject-us 20000` reproduces a latency regression: the SLO fires
//! and `/health` flips to `violated` (HTTP 503).

use augur_telemetry::{ManualTime, TimeSource};
use augur_watch::{
    render_health_json, BurnRule, Objective, RollupConfig, SloSpec, TierSpec, WatchConfig,
    WatchSession,
};

struct Args {
    addr: String,
    addr_file: Option<String>,
    serve_for_ms: u64,
    cycles: u32,
    inject_us: u64,
}

const USAGE: &str = "usage: augur-watch [--addr <host:port>] [--addr-file <path>] \
[--serve-for-ms <n>] [--cycles <n>] [--inject-us <n>]";

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        addr: "127.0.0.1:0".to_string(),
        addr_file: None,
        serve_for_ms: 2_000,
        cycles: 60,
        inject_us: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--addr" => out.addr = take("--addr")?,
            "--addr-file" => out.addr_file = Some(take("--addr-file")?),
            "--serve-for-ms" => {
                out.serve_for_ms = take("--serve-for-ms")?
                    .parse()
                    .map_err(|e| format!("--serve-for-ms: {e}"))?
            }
            "--cycles" => {
                out.cycles = take("--cycles")?
                    .parse()
                    .map_err(|e| format!("--cycles: {e}"))?
            }
            "--inject-us" => {
                out.inject_us = take("--inject-us")?
                    .parse()
                    .map_err(|e| format!("--inject-us: {e}"))?
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(out)
}

/// The demo watch config: 1 ms rollup windows, one latency SLO.
fn demo_config(inject_us: u64) -> WatchConfig {
    WatchConfig {
        seed: 42,
        // Windows wide enough to hold a cycle even under heavy injection,
        // so a sustained regression marks consecutive windows bad instead
        // of diluting across empty ones.
        rollup: RollupConfig {
            tiers: vec![
                TierSpec {
                    window_us: 25_000,
                    capacity: 256,
                },
                TierSpec {
                    window_us: 100_000,
                    capacity: 64,
                },
            ],
        },
        slos: vec![SloSpec {
            name: "demo_frame_p95".to_string(),
            objective: Objective::LatencyQuantile {
                series: "frame_latency_us{scenario=demo}".to_string(),
                q: 0.95,
                threshold_us: 5_000,
            },
            budget: 0.1,
            period_us: 1_000_000,
            rules: vec![BurnRule {
                name: "fast".to_string(),
                short_us: 25_000,
                long_us: 50_000,
                factor: 2.0,
            }],
        }],
        inject_cycle_delay_us: inject_us,
        ..WatchConfig::default()
    }
}

fn run() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let session = match WatchSession::new(demo_config(args.inject_us)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("augur-watch: {e}");
            return 2;
        }
    };
    let clock = ManualTime::new();
    let rec = session.recorder();
    let root = session.root();
    let (cycle_n, sense_n, fuse_n) = (
        rec.intern("demo/cycle"),
        rec.intern("demo/sense"),
        rec.intern("demo/fuse"),
    );
    for i in 0..args.cycles {
        let start = clock.now_micros();
        // Modeled healthy frame work: 600 us sensing then 400 us fusing,
        // recorded as child spans so the xray panel has a tree to read.
        let cycle_ctx = root.child_named(&format!("demo/cycle/{i}"));
        clock.advance_micros(600);
        rec.record_span(cycle_ctx.child_named("demo/sense"), sense_n, start, 600);
        let fuse_start = clock.now_micros();
        clock.advance_micros(400);
        rec.record_span(cycle_ctx.child_named("demo/fuse"), fuse_n, fuse_start, 400);
        rec.record_span(cycle_ctx, cycle_n, start, 1_000);
        // Traced observation pins the cycle's trace id on the latency
        // bucket: `/metrics` under OpenMetrics negotiation then serves
        // an exemplar linking the bucket to this very span tree.
        session.observe_cycle_traced("demo", &clock, start, cycle_ctx);
    }
    session.finish();
    // Bottleneck readout over the run's own spans: feeds the
    // `parallel_speedup_bound` gauge and the dashboard xray panel.
    let events = rec.drain();
    let report = augur_xray::analyze("watch-demo", &events, rec.dropped_events())
        .with_registry(&session.registry().snapshot());
    session.observe_xray(&report);
    let health = session.health();
    println!(
        "demo run: {} cycles, inject {} us, health {}",
        args.cycles,
        args.inject_us,
        if health.ok { "ok" } else { "VIOLATED" }
    );
    println!("{}", render_health_json(&health));
    print!("{}", session.dashboard());
    if args.serve_for_ms == 0 {
        return 0;
    }
    let server = match session.serve(&args.addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("augur-watch: failed to bind {}: {e}", args.addr);
            return 2;
        }
    };
    let addr = server.addr();
    if let Some(path) = &args.addr_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("augur-watch: failed writing {path}: {e}");
            return 2;
        }
    }
    println!(
        "serving http://{addr}/ (/metrics /health /slo) for {} ms",
        args.serve_for_ms
    );
    std::thread::sleep(std::time::Duration::from_millis(args.serve_for_ms));
    server.shutdown();
    0
}

fn main() {
    std::process::exit(run());
}
