//! `augur-wallbench`: a wall-clock benchmark of the augur libraries.
//!
//! ```text
//! augur-wallbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! augur-wallbench --steadiness <runs> [--workload <name>] [--seed <first>] [--seconds <n>]
//! ```
//!
//! A run builds its workload's inputs from the seed, measures for the
//! given seconds, checks the outputs, prints one `metric` line per metric,
//! and prints last one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones; with `--trace 1` they are the per-layer ones, taken from spans the
//! benchmark records around each library call. The steadiness mode runs
//! each workload again and again with consecutive seeds, each run in a
//! child process, and prints every end-to-end metric's quartiles.

mod ar_frame;
mod ingest_live;
mod trace;
mod util;
mod window_batch;

use std::process::{Command, ExitCode, Stdio};

use util::{host_fingerprint, metric, quartiles, Metric};

/// How one workload run is made.
pub struct Plan {
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Set-ups to time; `setup_s` is their median.
    pub setup_reps: usize,
    /// Whether to record spans and report per-layer metrics.
    pub trace: bool,
}

/// What one workload run measured.
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// End-to-end or per-layer metrics, as the plan asked.
    pub metrics: Vec<Metric>,
    /// Median operation latency, for `trace.overhead_share`.
    pub op_p50_us: f64,
}

const WORKLOADS: [&str; 3] = ["ar_frame", "window_batch", "ingest_live"];

/// Set-ups per end-to-end run.
const SETUP_REPS: usize = 7;

const END_TO_END: [&str; 6] = [
    "setup_s",
    "p50_us",
    "tail_us",
    "throughput_per_s",
    "cpu_us_per_op",
    "peak_rss_mb",
];

const PER_LAYER: [&str; 24] = [
    "track.update_us",
    "geo.knn_us",
    "geo.knn_tail_us",
    "geo.knn_evals",
    "render.occlusion_us",
    "render.project_us",
    "render.layout_us",
    "render.layout_tail_us",
    "render.labels_placed_ratio",
    "geo.index_build_s",
    "render.occlusion_build_s",
    "stream.append_s",
    "stream.poll_ns_per_record",
    "stream.window_ns_per_record",
    "stream.pass_overhead_share",
    "stream.windows_emitted",
    "stream.late_dropped",
    "core.ingest_us",
    "core.ingest_tail_us",
    "stream.lag_records",
    "stream.idle_cpu_cores",
    "gen.late_max_us",
    "gen.late_p99_us",
    "trace.overhead_share",
];

const USAGE: &str = "usage: augur-wallbench --workload <ar_frame|window_batch|ingest_live> \
     --seed <n> --seconds <n> --trace <0|1>\n       \
     augur-wallbench --steadiness <runs> [--workload <name>] [--seed <first>] [--seconds <n>]";

fn run_workload(name: &str, plan: &Plan) -> Result<Report, String> {
    match name {
        "ar_frame" => ar_frame::run(plan),
        "window_batch" => window_batch::run(plan),
        "ingest_live" => ingest_live::run(plan),
        _ => Err(format!("unknown workload {name}")),
    }
}

/// The traced run: the named workload once untraced and once traced, whose
/// median latencies give `trace.overhead_share`, then a shorter traced run
/// of each other workload, so that every layer reports its metrics from the
/// workload where it does its work.
fn traced(workload: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let plan = |seconds: f64, trace: bool| Plan {
        seed,
        seconds,
        setup_reps: 1,
        trace,
    };
    let base = run_workload(workload, &plan(seconds * 0.25, false))?;
    let own = run_workload(workload, &plan(seconds * 0.5, true))?;
    let overhead = own.op_p50_us / base.op_p50_us - 1.0;
    let mut out = Report {
        attempted: base.attempted + own.attempted,
        failed: base.failed + own.failed,
        metrics: own.metrics,
        op_p50_us: own.op_p50_us,
    };
    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        let r = run_workload(other, &plan(seconds * 0.125, true))?;
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.metrics.extend(r.metrics);
    }
    out.metrics
        .push(metric("trace.overhead_share", overhead, "share"));
    Ok(out)
}

/// Puts `metrics` in the order of `names`; fails unless each name appears
/// exactly once with a finite value.
fn ordered(metrics: &[Metric], names: &[&str]) -> Result<Vec<Metric>, String> {
    if metrics.len() != names.len() {
        return Err(format!(
            "{} metrics for {} names",
            metrics.len(),
            names.len()
        ));
    }
    names
        .iter()
        .map(|n| {
            let m = metrics
                .iter()
                .find(|m| m.name == *n)
                .ok_or_else(|| format!("metric {n} missing"))?;
            if m.value.is_finite() {
                Ok(m.clone())
            } else {
                Err(format!("metric {n} is {}", m.value))
            }
        })
        .collect()
}

fn print_report(report: &Report, metrics: &[Metric]) {
    for m in metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("ops_attempted {}", report.attempted);
    println!("ops_failed {}", report.failed);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        body.join(", ")
    );
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steadiness: Option<usize>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        steadiness: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(format!("--seconds {value} outside (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--steadiness" => args.steadiness = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Runs each workload `runs` times with seeds counting up from `--seed`,
/// each run in a child process, and prints every end-to-end metric's
/// quartiles and spread: the distance between the quartiles as a share of
/// the median. Returns whether every run succeeded with correct outputs.
fn steadiness(args: &Args, runs: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_ok = true;
    for w in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut units = vec![String::new(); END_TO_END.len()];
        let mut bad_runs = 0;
        println!(
            "{w}: {runs} runs of {} s, seeds {}..={}",
            args.seconds,
            args.seed,
            args.seed + runs as u64 - 1
        );
        for i in 0..runs {
            let seed = (args.seed + i as u64).to_string();
            let seconds = args.seconds.to_string();
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed, "--seconds", &seconds])
                .args(["--trace", "0"])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&out.stdout);
            let correct = text
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("{\"correct\": true"));
            if !out.status.success() || !correct {
                println!("  seed {seed}: failed");
                bad_runs += 1;
                continue;
            }
            let mut row = Vec::new();
            for line in text.lines() {
                let mut it = line.split_whitespace();
                let (Some("metric"), Some(name), Some(v), Some(unit)) =
                    (it.next(), it.next(), it.next(), it.next())
                else {
                    continue;
                };
                if let (Some(k), Ok(v)) = (END_TO_END.iter().position(|n| *n == name), v.parse()) {
                    values[k].push(v);
                    units[k] = unit.to_string();
                    row.push(format!("{name}={v:.4}"));
                }
            }
            println!("  seed {seed}: {}", row.join(" "));
        }
        all_ok &= bad_runs == 0;
        println!(
            "  {:<18} {:>6} {:>14} {:>14} {:>14} {:>8}",
            "metric", "unit", "q1", "median", "q3", "spread"
        );
        for ((name, v), unit) in END_TO_END.iter().zip(&values).zip(&units) {
            let (q1, m, q3) = quartiles(v);
            let spread = (q3 - q1) / m;
            println!("  {name:<18} {unit:>6} {q1:>14.4} {m:>14.4} {q3:>14.4} {spread:>8.4}");
        }
        println!("  {bad_runs} of {runs} runs failed");
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("augur-wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steadiness {
        return match steadiness(&args, runs) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("augur-wallbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("augur-wallbench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let (cores, rustc, cpu) = host_fingerprint();
    println!(
        "# augur-wallbench workload={workload} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host cores={cores} rustc=\"{rustc}\" cpu=\"{cpu}\"");
    println!("# config allocator=system hooks=none");
    let result = if args.trace {
        traced(workload, args.seed, args.seconds)
            .and_then(|r| ordered(&r.metrics, &PER_LAYER).map(|m| (r, m)))
    } else {
        let plan = Plan {
            seed: args.seed,
            seconds: args.seconds,
            setup_reps: SETUP_REPS,
            trace: false,
        };
        run_workload(workload, &plan).and_then(|r| ordered(&r.metrics, &END_TO_END).map(|m| (r, m)))
    };
    match result {
        Ok((report, metrics)) => {
            print_report(&report, &metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("augur-wallbench: {e}");
            ExitCode::FAILURE
        }
    }
}
