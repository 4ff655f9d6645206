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
//! and trajectory tooling consume. Passing `--smoke` (or setting
//! `AUGUR_SMOKE=1`) shrinks workloads so a run finishes in seconds.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use augur_log::writer::{err_line, out_line};
use augur_log::{render_human, Arg, EventLog, Level, LogSite};
use augur_profile::Profile;
use augur_telemetry::{escape_json, fnv1a64, json_f64, Registry, TraceContext};

/// True when the binary should run a fast smoke-sized workload: the
/// `--smoke` flag is present or `AUGUR_SMOKE` is set in the environment.
pub fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke") || std::env::var_os("AUGUR_SMOKE").is_some()
}

/// True when the binary should emit profile artifacts: the `--profile`
/// flag is present or `AUGUR_PROFILE` is set in the environment.
pub fn profile_requested() -> bool {
    std::env::args().any(|a| a == "--profile") || std::env::var_os("AUGUR_PROFILE").is_some()
}

/// Writes `profile` as `<out_dir>/<bench>.folded` (flamegraph.pl /
/// inferno collapsed stacks) and `<out_dir>/<bench>.speedscope.json`,
/// printing both paths, and returns them. Since the profiled work is
/// modeled time under fixed seeds, both artifacts are byte-identical
/// across runs.
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_profile(bench: &str, profile: &Profile) -> io::Result<(PathBuf, PathBuf)> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let folded = dir.join(format!("{bench}.folded"));
    std::fs::write(&folded, profile.render_folded())?;
    let speedscope = dir.join(format!("{bench}.speedscope.json"));
    std::fs::write(&speedscope, profile.render_speedscope(bench))?;
    out_line(&format!("profile: {}", folded.display()));
    out_line(&format!("profile: {}", speedscope.display()));
    Ok((folded, speedscope))
}

/// True when the binary should emit an xray bottleneck artifact: the
/// `--xray` flag is present or `AUGUR_XRAY` is set in the environment.
pub fn xray_requested() -> bool {
    std::env::args().any(|a| a == "--xray") || std::env::var_os("AUGUR_XRAY").is_some()
}

/// Writes `report` as `<out_dir>/<bench>.xray.json` — the canonical
/// single-line JSON `augur-doctor --xray` diffs against a committed
/// baseline — printing and returning the path. Reports over modeled
/// time under fixed seeds are byte-identical across runs (CI `cmp`s
/// two back-to-back runs to enforce this).
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_xray(bench: &str, report: &augur_xray::XrayReport) -> io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{bench}.xray.json"));
    std::fs::write(&path, report.render_json())?;
    out_line(&format!("xray: {}", path.display()));
    Ok(path)
}

/// The minimum severity a bench binary keeps in its event log:
/// `--log-level <level>` (or `--log-level=<level>`) on the command
/// line, else the `AUGUR_LOG` environment variable, else INFO — WARN
/// under smoke mode so CI output stays readable.
pub fn log_level() -> Level {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--log-level" {
            if let Some(level) = args.next().as_deref().and_then(Level::parse) {
                return level;
            }
        } else if let Some(level) = a.strip_prefix("--log-level=").and_then(Level::parse) {
            return level;
        }
    }
    if let Some(level) = std::env::var_os("AUGUR_LOG")
        .map(|v| v.to_string_lossy().into_owned())
        .as_deref()
        .and_then(Level::parse)
    {
        return level;
    }
    if smoke() {
        Level::Warn
    } else {
        Level::Info
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
    /// [`augur_stream::Obs`] handed to pipelines and scenario runs.
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

/// The snapshot output directory: `--out-dir <dir>` (or `--out-dir=<dir>`)
/// on the command line, else the `AUGUR_OUT_DIR` environment variable,
/// else `results/`. This is how baselines are (re)generated:
/// `cargo run -p augur-bench --bin e3_offload -- --smoke --out-dir results/baseline`.
pub fn out_dir() -> PathBuf {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--out-dir" {
            if let Some(d) = args.next() {
                return PathBuf::from(d);
            }
        } else if let Some(d) = a.strip_prefix("--out-dir=") {
            return PathBuf::from(d);
        }
    }
    if let Some(d) = std::env::var_os("AUGUR_OUT_DIR") {
        return PathBuf::from(d);
    }
    PathBuf::from("results")
}

/// A machine-readable bench result: named parameters plus a metric
/// registry, serialised as `{"bench", "params", "metrics"}`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    bench: String,
    params: Vec<(String, String)>,
    registry: Registry,
}

impl Snapshot {
    /// Starts a snapshot for the bench binary `bench` (the output file
    /// stem).
    pub fn new(bench: &str) -> Snapshot {
        Snapshot {
            bench: bench.to_string(),
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

    /// Writes the snapshot to `<dir>/<bench>.json`, creating `dir` if
    /// needed, and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.bench));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }

    /// Writes the snapshot to `<out_dir>/<bench>.json` (see [`out_dir`]:
    /// `--out-dir` flag, `AUGUR_OUT_DIR`, or `results/`) and prints the
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write(&self) -> io::Result<PathBuf> {
        let path = self.write_to(&out_dir())?;
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

    // One test covers log_level() and BenchLog: BenchLog::new reads
    // AUGUR_LOG, so the env manipulation and the construction must not
    // race across parallel test threads.
    #[test]
    fn log_level_env_chain_and_bench_log_notes() {
        // The test binary's argv carries no --log-level or --smoke, so
        // the chain is AUGUR_LOG then the full-run default (INFO).
        std::env::remove_var("AUGUR_LOG");
        std::env::remove_var("AUGUR_SMOKE");
        assert_eq!(log_level(), Level::Info);
        std::env::set_var("AUGUR_LOG", "error");
        assert_eq!(log_level(), Level::Error);
        std::env::set_var("AUGUR_LOG", "not-a-level");
        assert_eq!(log_level(), Level::Info, "garbage falls through");
        std::env::remove_var("AUGUR_LOG");

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
    fn out_dir_defaults_and_honors_env() {
        // The test binary's argv carries no --out-dir, so the fallback
        // chain is env var then the default.
        std::env::remove_var("AUGUR_OUT_DIR");
        assert_eq!(out_dir(), PathBuf::from("results"));
        std::env::set_var("AUGUR_OUT_DIR", "results/baseline");
        assert_eq!(out_dir(), PathBuf::from("results/baseline"));
        std::env::remove_var("AUGUR_OUT_DIR");
    }

    #[test]
    fn write_profile_emits_folded_and_speedscope_artifacts() {
        use augur_telemetry::{FlightRecorder, TraceContext};
        let rec = FlightRecorder::new(64);
        let name = rec.intern("bench_root");
        rec.record_span(TraceContext::root(1, 0xB), name, 0, 42);
        let profile = Profile::from_events(&rec.drain());
        // out_dir() in the test binary falls back to results/; write to a
        // temp dir explicitly via the env override.
        let dir = std::env::temp_dir().join("augur-bench-profile-test");
        std::env::set_var("AUGUR_OUT_DIR", &dir);
        let (folded, speedscope) =
            write_profile("unit_test_profile", &profile).expect("profile write");
        std::env::remove_var("AUGUR_OUT_DIR");
        let folded_text = std::fs::read_to_string(&folded).expect("folded read");
        assert_eq!(folded_text, "bench_root 42\n");
        let ss = std::fs::read_to_string(&speedscope).expect("speedscope read");
        assert!(ss.contains("\"$schema\""), "{ss}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_schema_round_trips_through_json_parser() {
        let mut snap = Snapshot::new("unit_test_bench");
        snap.param_num("events", 100_000.0);
        snap.param_str("mode", "sweep");
        snap.gauge("late_dropped", &[("bound_ms", "25")], 17.0);
        snap.registry().counter("iterations_total").add(3);
        let dir = std::env::temp_dir().join("augur-bench-snapshot-test");
        let path = snap.write_to(&dir).expect("snapshot write");
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
