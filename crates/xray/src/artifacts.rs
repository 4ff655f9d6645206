//! One artifact bundle per run.
//!
//! A run given `--artifacts <dir>` (the scenario examples and the bench
//! binaries) hands what it recorded to one [`Artifacts`] value, and
//! [`Artifacts::write`] renders one file for each recorded part:
//! `<dir>/<name>.trace.json` (Chrome trace for <https://ui.perfetto.dev>)
//! plus `.folded` and `.speedscope.json` (flamegraphs) from the flight
//! events, `.xray.json` from the xray report, and `.log.jsonl` from the
//! event log. Every renderer is a pure function of its input, so a run on
//! modeled time writes the same bytes each time and two bundles compare
//! with `diff -r`.

use std::io;
use std::path::{Path, PathBuf};

use augur_telemetry::log::render_jsonl;
use augur_telemetry::log::writer::err_line;
use augur_telemetry::{render_chrome_trace_with_lanes, FlightEvent, LaneSummary, Obs};

use crate::profile::Profile;
use crate::XrayReport;

/// The command-line flag that names the bundle directory.
pub const FLAG: &str = "--artifacts";

/// What one run recorded; a part left `None` writes no file.
#[derive(Debug, Clone, Default)]
pub struct Artifacts {
    /// Every file's stem, and the process name inside the trace and
    /// speedscope documents.
    pub name: String,
    /// Drained flight events: the trace, folded and speedscope files.
    pub events: Option<Vec<FlightEvent>>,
    /// Worker lanes that name the trace's lane rows.
    pub lanes: Vec<LaneSummary>,
    /// The bottleneck report: the xray file.
    pub xray: Option<XrayReport>,
    /// The event log's canonical JSONL: the log file.
    pub log_jsonl: Option<String>,
}

impl Artifacts {
    /// The bundle of drained `events` with the report [`crate::analyze`]
    /// builds from them (`dropped` is the ring's drop count).
    pub fn from_events(name: &str, events: Vec<FlightEvent>, dropped: u64) -> Artifacts {
        Artifacts {
            name: name.to_string(),
            xray: Some(crate::analyze(name, &events, dropped)),
            events: Some(events),
            ..Artifacts::default()
        }
    }

    /// The bundle of a finished run that reported into `obs`: its flight
    /// ring, drained once, gives the events and an xray report merged
    /// with the registry's queue metrics; its event log gives the JSONL.
    pub fn from_obs(name: &str, obs: &Obs) -> Artifacts {
        let mut bundle = match &obs.flight {
            Some(rec) => Artifacts::from_events(name, rec.drain(), rec.dropped_events()),
            None => Artifacts {
                name: name.to_string(),
                ..Artifacts::default()
            },
        };
        let registry = obs.registry.snapshot();
        bundle.xray = bundle.xray.map(|x| x.with_registry(&registry));
        bundle.log_jsonl = obs.log.as_ref().map(|log| render_jsonl(&log.drain()));
        bundle
    }

    /// Writes the bundle under `dir` (created if missing) and returns the
    /// paths written: trace, folded, speedscope, xray, log.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let mut put = |ext: &str, text: &str| -> io::Result<()> {
            let path = dir.join(format!("{}.{ext}", self.name));
            std::fs::write(&path, text)?;
            written.push(path);
            Ok(())
        };
        if let Some(events) = &self.events {
            let trace = render_chrome_trace_with_lanes(&self.name, events, &self.lanes);
            put("trace.json", &trace)?;
            let profile = Profile::from_events(events);
            put("folded", &profile.render_folded())?;
            put("speedscope.json", &profile.render_speedscope(&self.name))?;
        }
        if let Some(xray) = &self.xray {
            put("xray.json", &xray.render_json())?;
        }
        if let Some(log) = &self.log_jsonl {
            put("log.jsonl", log)?;
        }
        Ok(written)
    }
}

/// The directory `--artifacts <dir>` names in `args`, `None` when the
/// flag is absent.
///
/// # Errors
///
/// A [`FLAG`] with no directory after it (last, empty, or another `--`
/// flag) is a usage error.
pub fn dir_from_args(args: impl IntoIterator<Item = String>) -> Result<Option<PathBuf>, String> {
    let mut args = args.into_iter();
    if !args.any(|a| a == FLAG) {
        return Ok(None);
    }
    match args.next() {
        Some(dir) if !dir.is_empty() && !dir.starts_with("--") => Ok(Some(dir.into())),
        _ => Err(format!("usage: {FLAG} <dir> needs a directory")),
    }
}

/// [`dir_from_args`] over this process's command line. A usage error is
/// printed on stderr and exits with status 2, before the run starts.
pub fn dir_from_env() -> Option<PathBuf> {
    dir_from_args(std::env::args().skip(1)).unwrap_or_else(|usage| {
        err_line(&usage);
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_telemetry::log::{EventLog, Level, LogSite};
    use augur_telemetry::{FlightRecorder, Lanes, TraceContext};

    /// Writes `bundle` into a fresh directory and reads it back as
    /// (file name, text) in write order.
    fn written(bundle: &Artifacts, tag: &str) -> Vec<(String, String)> {
        let dir = std::env::temp_dir().join(format!("augur-bundle-{tag}-{}", std::process::id()));
        let paths = bundle.write(&dir).expect("bundle writes");
        let files = paths.iter().map(|p| {
            let name = p.file_name().expect("file").to_string_lossy().into_owned();
            (name, std::fs::read_to_string(p).expect("read back"))
        });
        let files = files.collect();
        std::fs::remove_dir_all(&dir).expect("remove bundle dir");
        files
    }

    fn names(files: &[(String, String)]) -> Vec<&str> {
        files.iter().map(|(name, _)| name.as_str()).collect()
    }

    /// A small run recorded into the sinks asked for.
    fn recorded(flight: bool, log: bool) -> Artifacts {
        let obs = Obs {
            flight: flight.then(|| FlightRecorder::new(64)),
            log: log.then(|| EventLog::new(64)),
            ..Obs::default()
        };
        let root = TraceContext::root(7, 1);
        if let Some(rec) = &obs.flight {
            rec.record_span(root.child_named("run/io"), rec.intern("run/io"), 0, 30);
            rec.record_span(root, rec.intern("run"), 0, 100);
        }
        if let Some(log) = &obs.log {
            log.event(&LogSite::unlimited(), Level::Warn, root, "run/slow", 5, &[]);
        }
        Artifacts::from_obs("run", &obs)
    }

    #[test]
    fn each_recorded_sink_writes_its_files() {
        let flight = [
            "run.trace.json",
            "run.folded",
            "run.speedscope.json",
            "run.xray.json",
        ];
        let both = written(&recorded(true, true), "both");
        assert_eq!(names(&both)[..4], flight);
        assert_eq!(names(&both)[4..], ["run.log.jsonl"]);
        assert_eq!(names(&written(&recorded(true, false), "flight")), flight);
        assert_eq!(
            names(&written(&recorded(false, true), "log")),
            ["run.log.jsonl"]
        );
        assert!(written(&recorded(false, false), "none").is_empty());

        let lanes = Lanes::new(3, 64);
        let lane = lanes.register("producer-0");
        lane.recorder()
            .record_span(lane.root(), lane.recorder().intern("produce"), 0, 10);
        let merged = lanes.merge_drains();
        let bundle = Artifacts {
            name: "lanes".into(),
            events: Some(merged.events),
            lanes: merged.lanes,
            ..Artifacts::default()
        };
        let trace = &written(&bundle, "lanes")[0];
        assert_eq!(trace.0, "lanes.trace.json");
        assert!(trace.1.contains("\"thread_name\"") && trace.1.contains("producer-0"));
    }

    #[test]
    fn the_same_inputs_write_identical_bytes() {
        let bundle = recorded(true, true);
        let first = written(&bundle, "twice-a");
        assert!(first.iter().all(|(_, text)| !text.is_empty()));
        assert_eq!(first, written(&bundle, "twice-b"));
    }

    #[test]
    fn a_bare_flag_is_a_usage_error() {
        let parse = |args: &[&str]| dir_from_args(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&["--smoke"]), Ok(None));
        let dir = parse(&["--smoke", "--artifacts", "out/run"]);
        assert_eq!(dir, Ok(Some(PathBuf::from("out/run"))));
        for bare in [
            &["--artifacts"][..],
            &["--artifacts", "--smoke"],
            &["--artifacts", ""],
        ] {
            assert!(
                parse(bare).is_err_and(|e| e.starts_with("usage:")),
                "{bare:?}"
            );
        }
    }
}
