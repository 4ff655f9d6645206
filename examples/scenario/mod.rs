//! What the four scenario examples share: `--watch` runs the scenario
//! under an SLO watch session; `--artifacts <dir>` records it and writes
//! its bundle through `augur::xray::artifacts` (under `--watch` from the
//! session's `Obs`, with the session's `/logs` tail as the log); every
//! run ends with the per-stage breakdown and, when watched, the health
//! verdict.

use std::path::PathBuf;

use augur::telemetry::log::EventLog;
use augur::telemetry::{render_span_breakdown, FlightRecorder, Obs};
use augur::watch::{WatchConfig, WatchSession};
use augur::xray::artifacts::{self, Artifacts};

/// One scenario run's observability, set up from the command line.
pub struct Observed {
    name: &'static str,
    /// The `--artifacts` directory, if given.
    pub bundle_dir: Option<PathBuf>,
    /// The watch session, under `--watch`.
    pub session: Option<WatchSession>,
    /// What the run reports into: the watch session's `Obs` under
    /// `--watch`, else a flight ring and an event log under
    /// `--artifacts`, else nothing.
    pub obs: Obs,
}

impl Observed {
    /// Sets up the run named `name` (the bundle's file stem); under
    /// `--watch` it runs in a session built from `watch()`. A bare
    /// `--artifacts` exits 2 here, before the run starts.
    pub fn new(
        name: &'static str,
        watch: impl FnOnce() -> WatchConfig,
    ) -> Result<Observed, Box<dyn std::error::Error>> {
        let bundle_dir = artifacts::dir_from_env();
        let watched = std::env::args().any(|a| a == "--watch");
        let session = watched.then(|| WatchSession::new(watch())).transpose()?;
        let obs = match &session {
            Some(session) => session.obs(),
            None => Obs {
                flight: bundle_dir.is_some().then(|| FlightRecorder::new(1 << 16)),
                log: bundle_dir.is_some().then(|| EventLog::new(1 << 14)),
                ..Obs::default()
            },
        };
        Ok(Observed {
            name,
            bundle_dir,
            session,
            obs,
        })
    }

    /// Closes the watch session and, under `--artifacts`, prints the
    /// xray panel and writes the bundle. A watched run's log is the
    /// session's `/logs` tail.
    pub fn finish(&self) -> std::io::Result<()> {
        if let Some(session) = &self.session {
            session.finish();
        }
        if let Some(dir) = &self.bundle_dir {
            let mut bundle = Artifacts::from_obs(self.name, &self.obs);
            if let Some(session) = &self.session {
                bundle.log_jsonl = Some(session.log_tail_jsonl());
            }
            if let Some(xray) = &bundle.xray {
                print!("{}", xray.render_panel());
            }
            for path in bundle.write(dir)? {
                println!("artifacts: {}", path.display());
            }
        }
        Ok(())
    }

    /// Prints the per-stage breakdown and, when watched, the dashboard
    /// under `watch_title` and the health verdict; a violated objective
    /// exits 2.
    pub fn report(&self, watch_title: &str) {
        println!("\nper-stage breakdown (modeled work units, deterministic under the seed):");
        print!("{}", render_span_breakdown(&self.obs.registry.snapshot()));
        let Some(session) = &self.session else {
            return;
        };
        println!("\n{watch_title}");
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
}
