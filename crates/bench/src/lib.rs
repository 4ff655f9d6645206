//! Shared helpers for the experiment harness binaries.
//!
//! Each `e*` binary under `src/bin/` regenerates one experiment from the
//! index in DESIGN.md, printing the rows/series the corresponding figure
//! would plot. Keep output plain and columnar so runs can be diffed.
//!
//! Every binary also writes a machine-readable [`Snapshot`] to
//! `results/<bench>.json` with the schema
//! `{"bench": ..., "params": {...}, "metrics": {...}}`, where `metrics`
//! is an [`augur_telemetry::Registry`] JSON rendering — the artefact CI
//! and trajectory tooling consume. Passing `--smoke` shrinks workloads
//! so a run finishes in seconds.
//!
//! `--artifacts <dir>` moves the snapshot to `<dir>/<bench>.json` and
//! writes the run's artifact bundle ([`augur_xray::artifacts`]: trace,
//! folded and speedscope profiles, xray report) beside it, through
//! [`write_artifacts`]. `results/baseline/` is such a bundle, written by
//! the CI "Artifact bundles" loop run with `--artifacts
//! results/baseline`; its snapshots hold only modeled metrics, so a
//! fresh smoke run reproduces them byte for byte.

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use augur_telemetry::log::writer::{err_line, out_line};
use augur_telemetry::log::{render_human, Arg, EventLog, Level, LogSite};
use augur_telemetry::{escape_json, fnv1a64, json_f64, Registry, TraceContext};
use augur_xray::artifacts::{self, Artifacts};

/// The binary's command-line arguments, without the program name.
fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// True when `flag` is one of `args`.
fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The value of the first `name <value>` or `name=<value>` in `args`.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return it.next().map(String::as_str);
        }
        if let Some(v) = a.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
            return Some(v);
        }
    }
    None
}

/// True when the binary should run a fast smoke-sized workload: the
/// `--smoke` flag is present.
pub fn smoke() -> bool {
    has_flag(&args(), "--smoke")
}

/// Writes `bundle` to the `--artifacts` directory, printing each path;
/// without the flag it writes nothing.
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_artifacts(bundle: &Artifacts) -> io::Result<()> {
    if let Some(dir) = artifacts::dir_from_env() {
        for path in bundle.write(&dir)? {
            out_line(&format!("artifacts: {}", path.display()));
        }
    }
    Ok(())
}

/// The minimum severity a bench binary keeps in its event log:
/// `--log-level <level>` (or `--log-level=<level>`) on the command
/// line, else INFO — WARN under smoke mode so CI output stays readable.
pub fn log_level() -> Level {
    log_level_in(&args())
}

fn log_level_in(args: &[String]) -> Level {
    match flag_value(args, "--log-level").and_then(Level::parse) {
        Some(level) => level,
        None if has_flag(args, "--smoke") => Level::Warn,
        None => Level::Info,
    }
}

/// The structured event log a bench binary attaches to instrumented
/// runs, floored at [`log_level`] so suppressed severities never cost a
/// ring slot. [`BenchLog::finish`] drains the ring and prints the
/// surviving records as human lines on stderr, through the sanctioned
/// console writer.
#[derive(Debug)]
pub struct BenchLog {
    log: EventLog,
    site: LogSite,
    root: TraceContext,
    t0: Instant,
}

impl BenchLog {
    /// Starts a log for the bench binary `bench`; the trace root is
    /// derived from the bench name (FNV-1a), so exported ids are stable
    /// across runs.
    pub fn new(bench: &str) -> BenchLog {
        BenchLog {
            log: EventLog::with_min_level(1 << 14, log_level()),
            site: LogSite::unlimited(),
            root: TraceContext::root(0, fnv1a64(bench.as_bytes())),
            t0: Instant::now(),
        }
    }

    /// The underlying event log, to attach as the `log` of an
    /// [`augur_telemetry::Obs`] handed to pipelines and scenario runs.
    pub fn handle(&self) -> &EventLog {
        &self.log
    }

    /// The root context bench-level events hang off.
    pub fn root(&self) -> TraceContext {
        self.root
    }

    /// Records one INFO lifecycle event (sweep point, phase boundary)
    /// stamped with wall-clock µs since the bench started — bench logs
    /// narrate measured runs, unlike the ManualTime scenario logs.
    pub fn note(&self, msg: &str, fields: &[(&str, Arg)]) {
        let ts = u64::try_from(self.t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.log
            .event(&self.site, Level::Info, self.root, msg, ts, fields);
    }

    /// At most this many records are rendered by [`BenchLog::finish`];
    /// chattier runs get one elision line instead of a wall of stderr.
    pub const FINISH_RENDER_CAP: usize = 48;

    /// Drains the ring and prints the surviving records on stderr (up to
    /// [`BenchLog::FINISH_RENDER_CAP`] lines, then an elision note),
    /// returning `(drained, dropped_by_ring)`.
    pub fn finish(&self) -> (usize, u64) {
        let records = self.log.drain();
        if !records.is_empty() {
            let rendered = render_human(&records);
            for line in rendered.lines().take(Self::FINISH_RENDER_CAP) {
                err_line(line);
            }
            if records.len() > Self::FINISH_RENDER_CAP {
                err_line(&format!(
                    "... {} more log records (raise --log-level to quiet)",
                    records.len() - Self::FINISH_RENDER_CAP
                ));
            }
        }
        (records.len(), self.log.dropped_records())
    }
}

/// Scales a workload size down to `small` in smoke mode.
pub fn sized(full: usize, small: usize) -> usize {
    if smoke() {
        small
    } else {
        full
    }
}

/// A machine-readable bench result: named parameters plus a metric
/// registry, serialised as `{"bench", "params", "metrics"}`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    bench: String,
    dir: PathBuf,
    params: Vec<(String, String)>,
    registry: Registry,
}

impl Snapshot {
    /// Starts a snapshot for the bench binary `bench` (the output file
    /// stem), bound for the `--artifacts` directory or `results/`. A
    /// bare `--artifacts` exits with a usage error here, before the run.
    pub fn new(bench: &str) -> Snapshot {
        Snapshot {
            bench: bench.to_string(),
            dir: artifacts::dir_from_env().unwrap_or_else(|| PathBuf::from("results")),
            params: Vec::new(),
            registry: Registry::new(),
        }
    }

    /// Records a numeric parameter (rendered as a JSON number).
    pub fn param_num(&mut self, name: &str, value: f64) {
        self.params.push((name.to_string(), json_f64(value)));
    }

    /// Records a string parameter.
    pub fn param_str(&mut self, name: &str, value: &str) {
        self.params
            .push((name.to_string(), format!("\"{}\"", escape_json(value))));
    }

    /// The metric registry backing this snapshot; hand it to
    /// instrumented code to capture its counters and spans.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Sets the labeled gauge `name{labels}` — the idiom for one sweep
    /// point's headline numbers.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.registry.gauge_labeled(name, labels).set(value);
    }

    /// Renders the snapshot JSON document.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"bench\":\"");
        out.push_str(&escape_json(&self.bench));
        out.push_str("\",\"params\":{");
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape_json(k));
            out.push_str("\":");
            out.push_str(v);
        }
        out.push_str("},\"metrics\":");
        out.push_str(&self.registry.render_json());
        out.push('}');
        out
    }

    /// Writes the snapshot to `<dir>/<bench>.json`, where `dir` is the
    /// `--artifacts` directory or `results/` (created if missing), and
    /// prints the path.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write(&self) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(format!("{}.json", self.bench));
        std::fs::write(&path, self.render())?;
        out_line(&format!("\nsnapshot: {}", path.display()));
        Ok(path)
    }
}

/// Prints a section header (through the sanctioned console writer —
/// `augur-audit`'s `print-confined` rule keeps stdio macros out of
/// library code).
pub fn header(experiment: &str, anchor: &str) {
    out_line(&format!("\n=== {experiment} — {anchor} ==="));
}

/// Prints a row of columns padded to width 14.
pub fn row(cols: &[String]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    out_line(&line.join(" "));
}

/// Formats a float with the given precision.
pub fn f(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Times a closure, returning (result, elapsed microseconds).
pub fn timed<T>(mut work: impl FnMut() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = work();
    (out, t0.elapsed().as_nanos() as f64 / 1e3)
}

/// Times a closure averaged over `iters` runs, returning mean µs.
pub fn timed_mean(iters: usize, mut work: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        work();
    }
    t0.elapsed().as_nanos() as f64 / 1e3 / iters.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_result_and_positive_time() {
        let (v, us) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(us >= 0.0);
        assert!(timed_mean(3, || {}) >= 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(f(1.23456, 2), "1.23");
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn switches_parse_from_args() {
        let args = argv(&["--smoke", "--artifacts", "out"]);
        assert!(has_flag(&args, "--smoke"));
        assert!(!has_flag(&args, "--log-level"));
        assert!(!has_flag(&argv(&["--smoker"]), "--smoke"));
    }

    #[test]
    fn log_level_parses_flag_then_smoke_default() {
        assert_eq!(log_level_in(&[]), Level::Info);
        assert_eq!(log_level_in(&argv(&["--smoke"])), Level::Warn);
        assert_eq!(log_level_in(&argv(&["--log-level", "error"])), Level::Error);
        assert_eq!(
            log_level_in(&argv(&["--smoke", "--log-level=debug"])),
            Level::Debug
        );
        assert_eq!(
            log_level_in(&argv(&["--log-level", "not-a-level"])),
            Level::Info,
            "garbage falls through"
        );
        assert_eq!(log_level_in(&argv(&["--log-level"])), Level::Info);
    }

    #[test]
    fn bench_log_notes_hang_off_the_bench_root() {
        let blog = BenchLog::new("unit_test_bench");
        assert_eq!(blog.root(), BenchLog::new("unit_test_bench").root());
        blog.note("bench/sweep_point", &[("size", Arg::U64(7))]);
        let records = blog.handle().drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].msg, "bench/sweep_point");
        assert_eq!(records[0].trace_id, blog.root().trace_id);
        // After the explicit drain above, finish has nothing left.
        assert_eq!(blog.finish(), (0, 0));
    }

    #[test]
    fn snapshot_schema_round_trips_through_json_parser() {
        let mut snap = Snapshot::new("unit_test_bench");
        snap.param_num("events", 100_000.0);
        snap.param_str("mode", "sweep");
        snap.gauge("late_dropped", &[("bound_ms", "25")], 17.0);
        snap.registry().counter("iterations_total").add(3);
        let dir = std::env::temp_dir().join("augur-bench-snapshot-test");
        snap.dir = dir.clone();
        let path = snap.write().expect("snapshot write");
        let text = std::fs::read_to_string(&path).expect("snapshot read");
        let doc = augur_semantic::json::JsonValue::parse(&text).expect("snapshot parses");
        assert_eq!(
            doc.field("bench").unwrap().as_str().unwrap(),
            "unit_test_bench"
        );
        let params = doc.field("params").unwrap().as_object().unwrap();
        assert_eq!(params.get("events").unwrap().as_f64().unwrap(), 100_000.0);
        assert_eq!(params.get("mode").unwrap().as_str().unwrap(), "sweep");
        let metrics = doc.field("metrics").unwrap().as_object().unwrap();
        for key in ["counters", "gauges", "histograms"] {
            assert!(metrics.contains_key(key), "metrics missing {key}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
