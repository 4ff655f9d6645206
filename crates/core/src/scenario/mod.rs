//! The four §3 application scenarios as runnable simulations.
//!
//! Each submodule exposes a `Params` (deterministic under its seed), a
//! typed `Report` carrying the quantities the experiment index in
//! DESIGN.md references, and one entry point, `run(params, &Obs)`; the
//! reports also feed the Figure 5 reconstruction in [`crate::influence`].
//! A run reports into the sinks of its [`Obs`]:
//!
//! - The registry receives a per-stage latency breakdown as span
//!   histograms (`span_duration_us{span="<scenario>/<stage>", scenario}`).
//! - A flight recorder receives causal spans: a root span per run (per
//!   frame, for tourism) with the stage work as children.
//! - An event log receives the run's decisions — stream
//!   drop/checkpoint/resume rationale, stage summaries, scenario
//!   warnings — on the same trace ids as the spans, so a record's
//!   `span_id` finds the span that emitted it. A broker pipeline the
//!   scenario runs reports into the same sinks under the scenario root.
//! - A [`CycleSink`](augur_telemetry::CycleSink) receives the run's
//!   observed cycles (frames, simulation steps, detector chunks, or
//!   stages) and ticks at stage boundaries, on the scenario's clock. A
//!   live health monitor (`augur_watch::WatchSession::obs`) grades them
//!   against the scenario's objectives; its fault injection advances
//!   that clock.
//!
//! [`Obs::default`] is a private registry with every sink off; no sink
//! without fault injection changes the report. For a flamegraph, drain
//! the recorder into `augur_xray::profile::Profile::from_events`; for a
//! bottleneck report, into `augur_xray::analyze`.
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

use std::sync::Arc;

use augur_telemetry::log::{Arg, Level, LogSite};
use augur_telemetry::{fnv1a64, ManualTime, Obs, SpanGuard, TimeSource, TraceContext, Tracer};

/// Observability wiring shared by the scenario runners: the caller's
/// [`Obs`] plus the run root, one root span covering the run and one
/// child span per stage. The root derives from the seed and an FNV-1a
/// hash of the scenario name, so the run's flight spans and log records
/// share trace ids. All timestamps come from the scenario's
/// [`ManualTime`], so emission is deterministic under the scenario
/// seed. Every method is a no-op for a sink the [`Obs`] leaves off, so
/// call sites stay branch-free.
pub(crate) struct ScenarioObs<'a> {
    obs: &'a Obs,
    scenario: &'static str,
    clock: Arc<ManualTime>,
    tracer: Tracer,
    root: TraceContext,
    t0: u64,
    /// Lifecycle records (stage and run summaries): unlimited.
    lifecycle: LogSite,
    /// Per-event warnings: a deterministic burst cap, so a degenerate
    /// parameterisation cannot flood the ring (the suppressed count
    /// still says how often the decision fired).
    warn_site: LogSite,
}

/// One open stage of a scenario run: see [`ScenarioObs::stage`].
pub(crate) struct Stage<'s> {
    so: &'s ScenarioObs<'s>,
    ctx: TraceContext,
    name: &'static str,
    /// Where the stage began on the scenario clock.
    pub(crate) start_us: u64,
    span: SpanGuard,
}

impl<'a> ScenarioObs<'a> {
    /// Starts the run root for `scenario` at `clock`'s now. Stage spans
    /// land in the registry labelled `scenario=<scenario>`.
    pub(crate) fn start(
        obs: &'a Obs,
        scenario: &'static str,
        seed: u64,
        clock: &Arc<ManualTime>,
    ) -> Self {
        ScenarioObs {
            obs,
            scenario,
            clock: clock.clone(),
            tracer: Tracer::with_labels(&obs.registry, clock.clone(), &[("scenario", scenario)]),
            root: TraceContext::root(seed, fnv1a64(scenario.as_bytes())),
            t0: clock.now_micros(),
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

    /// Opens stage `name` as a child of the run root.
    pub(crate) fn stage(&self, name: &'static str) -> Stage<'_> {
        self.stage_in(self.root, name)
    }

    /// Opens stage `name` as a child of `parent` (a per-frame root): its
    /// `span_duration_us` histogram span starts now.
    pub(crate) fn stage_in(&self, parent: TraceContext, name: &'static str) -> Stage<'_> {
        Stage {
            so: self,
            ctx: parent.child_named(name),
            name,
            start_us: self.clock.now_micros(),
            span: self.tracer.span(name),
        }
    }

    /// Observes one cycle of this scenario, from `start_us` to now,
    /// traced under `ctx`. A watching sink may advance the clock.
    pub(crate) fn cycle(&self, start_us: u64, ctx: TraceContext) {
        if let Some(sink) = &self.obs.cycles {
            sink.cycle(self.scenario, &self.clock, start_us, ctx);
        }
    }

    /// Records the flight span `ctx` named `name`, from `start_us` to now.
    pub(crate) fn span(&self, ctx: TraceContext, name: &str, start_us: u64) {
        if let Some(rec) = &self.obs.flight {
            let now = self.clock.now_micros();
            rec.record_span(
                ctx,
                rec.intern(name),
                start_us,
                now.saturating_sub(start_us),
            );
        }
    }

    /// Ends the run: records the root span covering start → now.
    pub(crate) fn finish(&self) {
        self.span(self.root, self.scenario, self.t0);
    }

    /// Records a lifecycle INFO on the run root (never rate-limited).
    pub(crate) fn info(&self, msg: &str, fields: &[(&str, Arg)]) {
        if let Some(log) = &self.obs.log {
            let now = self.clock.now_micros();
            log.event(&self.lifecycle, Level::Info, self.root, msg, now, fields);
        }
    }

    /// Records a WARN decision on a named child of the run root,
    /// rate-limited to a deterministic burst.
    pub(crate) fn warn(&self, msg: &str, fields: &[(&str, Arg)]) {
        if let Some(log) = &self.obs.log {
            let ctx = self.root.child_named(msg);
            let now = self.clock.now_micros();
            log.event(&self.warn_site, Level::Warn, ctx, msg, now, fields);
        }
    }
}

impl Stage<'_> {
    /// Closes the stage: records its `span_duration_us` histogram, then
    /// its flight span.
    pub(crate) fn end(self) {
        self.span.end();
        self.so.span(self.ctx, self.name, self.start_us);
    }

    /// [`Stage::end`], then ticks the cycle sink to now.
    pub(crate) fn end_tick(self) {
        let so = self.so;
        self.end();
        if let Some(sink) = &so.obs.cycles {
            sink.tick(&so.clock);
        }
    }

    /// Closes the stage as one observed cycle: records its histogram,
    /// observes the cycle, then records its flight span — so injected
    /// delay shows in the span.
    pub(crate) fn end_cycle(self, ctx: TraceContext) {
        self.span.end();
        self.so.cycle(self.start_us, ctx);
        self.so.span(self.ctx, self.name, self.start_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_telemetry::log::{render_jsonl, EventLog};
    use augur_telemetry::log::{FieldValue, LogRecord};
    use augur_telemetry::FlightRecorder;

    fn tourism_logged() -> (Vec<LogRecord>, Vec<augur_telemetry::FlightEvent>) {
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
        assert_eq!(queries.1, FieldValue::U64(30));
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
            .any(|(k, v)| k == "topic" && *v == FieldValue::Str("vitals".to_string())));
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
        assert!(summary
            .fields
            .iter()
            .any(|(k, v)| k == "near_misses" && *v == FieldValue::U64(report.near_misses as u64)));
    }
}
