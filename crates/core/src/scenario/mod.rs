//! The four §3 application scenarios as runnable simulations.
//!
//! Each submodule exposes a `Params` (deterministic under its seed) and a
//! typed `Report` carrying the quantities the experiment index in
//! DESIGN.md references; the reports also feed the Figure 5
//! reconstruction in [`crate::influence`]. Each has two entry points:
//!
//! - `run(params, &Obs)` reports into the sinks of an [`Obs`]. The
//!   registry receives a per-stage latency breakdown as span histograms
//!   (`span_duration_us{span="<scenario>/<stage>", scenario}`). A flight
//!   recorder receives causal spans: a root span per run (per frame, for
//!   tourism) with the stage work as children. An event log receives the
//!   run's decisions — stream drop/checkpoint/resume rationale, stage
//!   summaries, scenario warnings — on the same trace ids as the spans,
//!   so Perfetto shows them inline via
//!   [`augur_log::render_chrome_trace_with_logs`]. A broker pipeline the
//!   scenario runs reports into the same sinks under the scenario root.
//!   [`Obs::default`] is a private registry with every sink off; the
//!   sinks never change the report. For a flamegraph, drain the recorder
//!   into `augur_profile::Profile::from_events` (wrap the run in an
//!   `augur_profile::AllocCapture` named after the scenario for its
//!   allocation stats); for a bottleneck report, into `augur_xray::analyze`.
//! - `run_watched(params, &mut WatchSession)` runs under live health
//!   monitoring against the SLOs the scenario declares in
//!   `watch_config(seed)`. The session supplies the sinks and takes part
//!   in the run: observed cycles (frames, simulation steps, detector
//!   chunks, or stages) advance its rollup windows, burn-rate verdicts
//!   and alert events on the scenario's clock — and its fault injection
//!   advances that clock. The session is finished when the run ends and
//!   is servable live via [`augur_watch::WatchSession::serve`].
//!
//! Stage durations are **modeled**: a [`augur_telemetry::ManualTime`] is
//! advanced by each stage's deterministic work count under the
//! convention one work unit ≙ one microsecond, so every artifact is
//! bit-for-bit reproducible under the scenario seed — wall-clock timing
//! stays in the benches, per the audit's simulation rules.

pub mod healthcare;
pub mod retail;
pub mod tourism;
pub mod traffic;

use augur_log::{Arg, Level, LogSite};
use augur_stream::Obs;
use augur_telemetry::{fnv1a64, NameId, TraceContext};
use augur_watch::{BurnRule, Objective, SloSpec, WatchSession};

use crate::error::CoreError;

/// The shared trace-loss objective every scenario's `watch_config`
/// declares: the flight ring must lose fewer than 1% of its records
/// (`flight_dropped_events_total` over `flight_events_total`, both
/// exported by the watch session each tick). Silent span loss corrupts
/// profiles and traces, so it alerts like any other SLO.
pub(crate) fn trace_loss_slo() -> SloSpec {
    SloSpec {
        name: "trace_loss".to_string(),
        objective: Objective::RatioBelow {
            bad_series: "flight_dropped_events_total".to_string(),
            total_series: "flight_events_total".to_string(),
            max_ratio: 0.01,
        },
        budget: 0.1,
        period_us: 5_000_000,
        rules: vec![BurnRule {
            name: "fast".to_string(),
            short_us: 100_000,
            long_us: 250_000,
            factor: 2.0,
        }],
    }
}

/// The shared log-error-rate objective every scenario's `watch_config`
/// declares: fewer than 1% of the structured log records the session
/// drains each tick may be ERROR
/// (`log_error_records_total` over `log_records_total`, both exported
/// by the watch session). A healthy run logs decisions at INFO/WARN;
/// a burst of ERROR records is an incident regardless of what the
/// latency series say.
pub(crate) fn log_error_slo() -> SloSpec {
    SloSpec {
        name: "log_error_rate".to_string(),
        objective: Objective::RatioBelow {
            bad_series: "log_error_records_total".to_string(),
            total_series: "log_records_total".to_string(),
            max_ratio: 0.01,
        },
        budget: 0.1,
        period_us: 5_000_000,
        rules: vec![BurnRule {
            name: "fast".to_string(),
            short_us: 100_000,
            long_us: 250_000,
            factor: 2.0,
        }],
    }
}

/// The shared observability-self-cost objective every scenario's
/// `watch_config` declares: the modeled cost of recording telemetry
/// (`augur_obs_record_ns_total`, maintained by the session's
/// [`augur_sample::SelfCost`] meter) must stay below 1% of the busy
/// time it observes (`augur_obs_busy_ns_total`). Observability that
/// eats the latency budget it is supposed to protect is an incident
/// in its own right — `augur-doctor` gates the same share via the
/// exported `obs_overhead_share` gauge.
pub(crate) fn obs_overhead_slo() -> SloSpec {
    SloSpec {
        name: "obs_overhead".to_string(),
        objective: Objective::RatioBelow {
            bad_series: "augur_obs_record_ns_total".to_string(),
            total_series: "augur_obs_busy_ns_total".to_string(),
            max_ratio: 0.01,
        },
        budget: 0.1,
        period_us: 5_000_000,
        rules: vec![BurnRule {
            name: "fast".to_string(),
            short_us: 100_000,
            long_us: 250_000,
            factor: 2.0,
        }],
    }
}

/// Shared body of the scenarios' `run_watched`: runs `run` against the
/// session's registry, flight ring and event log, then finishes the
/// session.
pub(crate) fn watched<R>(
    session: &mut WatchSession,
    run: impl FnOnce(&Obs, &mut WatchSession) -> Result<R, CoreError>,
) -> Result<R, CoreError> {
    let obs = Obs {
        registry: session.registry(),
        flight: Some(session.recorder()),
        log: Some(session.log()),
        ..Obs::default()
    };
    let report = run(&obs, session)?;
    session.finish();
    Ok(report)
}

/// Observability wiring shared by the scenario runners: the caller's
/// [`Obs`] plus the run root, one root span covering the run and one
/// child span per stage. The root derives from the seed and an FNV-1a
/// hash of the scenario name, so the run's flight spans and log records
/// share trace ids. All timestamps come from the scenario's
/// [`augur_telemetry::ManualTime`], so emission is deterministic under
/// the scenario seed. Every method is a no-op for a sink the [`Obs`]
/// leaves off, so call sites stay branch-free.
pub(crate) struct ScenarioObs<'a> {
    obs: &'a Obs,
    root: TraceContext,
    run_name: Option<NameId>,
    t0: u64,
    /// Lifecycle records (stage and run summaries): unlimited.
    lifecycle: LogSite,
    /// Per-event warnings: a deterministic burst cap, so a degenerate
    /// parameterisation cannot flood the ring (the suppressed count
    /// still says how often the decision fired).
    warn_site: LogSite,
}

impl<'a> ScenarioObs<'a> {
    /// Starts the run root for `scenario` at `now_us`.
    pub(crate) fn start(obs: &'a Obs, scenario: &str, seed: u64, now_us: u64) -> Self {
        ScenarioObs {
            obs,
            root: TraceContext::root(seed, fnv1a64(scenario.as_bytes())),
            run_name: obs.flight.as_ref().map(|rec| rec.intern(scenario)),
            t0: now_us,
            lifecycle: LogSite::unlimited(),
            warn_site: LogSite::new(32, 0),
        }
    }

    /// The caller's sinks re-parented under the run root, for substrate
    /// (a broker pipeline) that should hang off this run.
    pub(crate) fn child_obs(&self) -> Obs {
        Obs {
            parent: self.root,
            ..self.obs.clone()
        }
    }

    /// Records one completed stage span `[start_us, end_us)` as a child
    /// of the run root.
    pub(crate) fn stage(&self, name: &str, start_us: u64, end_us: u64) {
        if let Some(rec) = &self.obs.flight {
            rec.record_span(
                self.root.child_named(name),
                rec.intern(name),
                start_us,
                end_us.saturating_sub(start_us),
            );
        }
    }

    /// Ends the run: records the root span covering start → `now_us`.
    pub(crate) fn finish(&self, now_us: u64) {
        if let (Some(rec), Some(name)) = (&self.obs.flight, self.run_name) {
            rec.record_span(self.root, name, self.t0, now_us.saturating_sub(self.t0));
        }
    }

    /// Records a lifecycle INFO on the run root (never rate-limited).
    pub(crate) fn info(&self, msg: &str, now_us: u64, fields: &[(&str, Arg)]) {
        if let Some(log) = &self.obs.log {
            log.event(&self.lifecycle, Level::Info, self.root, msg, now_us, fields);
        }
    }

    /// Records a WARN decision on a named child of the run root,
    /// rate-limited to a deterministic burst.
    pub(crate) fn warn(&self, msg: &str, now_us: u64, fields: &[(&str, Arg)]) {
        if let Some(log) = &self.obs.log {
            log.event(
                &self.warn_site,
                Level::Warn,
                self.root.child_named(msg),
                msg,
                now_us,
                fields,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_log::{render_jsonl, EventLog};
    use augur_telemetry::FlightRecorder;

    fn tourism_logged() -> (Vec<augur_log::LogRecord>, Vec<augur_telemetry::FlightEvent>) {
        let params = tourism::TourismParams {
            pois: 3_000,
            duration_s: 30.0,
            k: 8,
            radius_m: 200.0,
            seed: 9,
        };
        let log = EventLog::new(1 << 12);
        let rec = FlightRecorder::new(1 << 14);
        tourism::run(
            &params,
            &Obs {
                flight: Some(rec.clone()),
                log: Some(log.clone()),
                ..Obs::default()
            },
        )
        .expect("tourism run");
        assert_eq!(log.dropped_records(), 0, "log ring must not overflow");
        (log.drain(), rec.drain())
    }

    #[test]
    fn tourism_run_logged_correlates_with_flight_trace() {
        let (records, spans) = tourism_logged();
        let summary = records
            .iter()
            .find(|r| r.msg == "tourism/summary")
            .expect("summary record");
        assert_eq!(summary.level, Level::Info);
        // The summary sits on the run root: the flight recorder holds a
        // span with the same trace AND span id (the run-root span).
        assert!(
            spans
                .iter()
                .any(|s| s.trace_id == summary.trace_id && s.span_id == summary.span_id),
            "summary must share the flight run-root ids"
        );
        let queries = summary
            .fields
            .iter()
            .find(|(k, _)| k == "queries")
            .expect("queries field");
        assert_eq!(queries.1, augur_log::FieldValue::U64(30));
    }

    #[test]
    fn scenario_jsonl_is_byte_identical_across_runs() {
        let (a, _) = tourism_logged();
        let (b, _) = tourism_logged();
        assert_eq!(render_jsonl(&a), render_jsonl(&b));
    }

    #[test]
    fn healthcare_run_logged_captures_pipeline_decisions() {
        let params = healthcare::HealthcareParams {
            patients: 10,
            duration_s: 300.0,
            ..Default::default()
        };
        let log = EventLog::new(1 << 12);
        let rec = FlightRecorder::new(1 << 15);
        healthcare::run(
            &params,
            &Obs {
                flight: Some(rec.clone()),
                log: Some(log.clone()),
                ..Obs::default()
            },
        )
        .expect("healthcare run");
        let records = log.drain();
        let summary = records
            .iter()
            .find(|r| r.msg == "healthcare/summary")
            .expect("summary record");
        // The vitals pipeline was wired to the same root, so its run
        // record shares the scenario trace.
        let pipeline_run = records
            .iter()
            .find(|r| r.msg == "pipeline/run")
            .expect("pipeline run record");
        assert_eq!(pipeline_run.trace_id, summary.trace_id);
        assert!(pipeline_run
            .fields
            .iter()
            .any(|(k, v)| k == "topic" && *v == augur_log::FieldValue::Str("vitals".to_string())));
    }

    #[test]
    fn traffic_run_logged_rate_limits_warning_storms() {
        let params = traffic::TrafficParams {
            vehicles: 30,
            duration_s: 60.0,
            ..Default::default()
        };
        let log = EventLog::new(1 << 12);
        let rec = FlightRecorder::new(1 << 14);
        let report = traffic::run(
            &params,
            &Obs {
                flight: Some(rec.clone()),
                log: Some(log.clone()),
                ..Obs::default()
            },
        )
        .expect("traffic run");
        let records = log.drain();
        let warns: Vec<_> = records
            .iter()
            .filter(|r| r.msg == "traffic/warning_raised")
            .collect();
        assert!(!warns.is_empty(), "dense traffic should raise warnings");
        // The warn site's burst cap bounds the stored records even when
        // the scenario raised more warnings than that.
        assert!(
            warns.len() <= 32,
            "warn burst cap exceeded: {}",
            warns.len()
        );
        let summary = records
            .iter()
            .find(|r| r.msg == "traffic/summary")
            .expect("summary record");
        assert!(summary.fields.iter().any(|(k, v)| k == "near_misses"
            && *v == augur_log::FieldValue::U64(report.near_misses as u64)));
    }
}
