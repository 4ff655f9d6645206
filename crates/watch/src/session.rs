//! The watch session: one observed run of an instrumented workload.
//!
//! A [`WatchSession`] owns four moving parts — a telemetry
//! [`Registry`], a [`FlightRecorder`], a [`RollupEngine`] sampling the
//! registry into windowed series, and an [`SloEngine`]
//! grading each closed window. A run reporting into
//! [`WatchSession::obs`] drives it through that `Obs`'s
//! [`CycleSink`](augur_telemetry::CycleSink)
//! once per frame/step (a hand-written loop calls
//! [`WatchSession::observe_cycle`] instead); the session
//! closes rollup windows as modeled time passes, evaluates SLOs, and
//! emits burn-rate alert transitions onto the flight ring as children of
//! the session's root span — so alerts are causally reachable in the
//! exported Chrome trace.
//!
//! Everything is driven by the caller's clock. Under
//! [`ManualTime`] the full observable output — rollup series, SLO
//! verdicts, and the alert event sequence — is bit-for-bit reproducible
//! for a fixed seed.

use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::Arc;

use augur_telemetry::log::{render_jsonl_line, EventLog, Level, LogRecord};
use augur_telemetry::sample::{ObsCostModel, SelfCost};
use augur_telemetry::{
    Counter, CycleSink, FlightRecorder, Histogram, ManualTime, NameId, Obs, Registry, TimeSource,
    TraceContext,
};
use augur_xray::XrayReport;
use parking_lot::Mutex;

use crate::error::WatchError;
use crate::rollup::{RollupConfig, RollupEngine};
use crate::serve::{self, WatchServer};
use crate::slo::{SloEngine, SloSpec, SloStatus};

/// Trace key salting the session's root context (`"WATC"`).
const SESSION_TRACE_KEY: u64 = 0x5741_5443;

/// Configuration for a [`WatchSession`].
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Seed deriving the session's deterministic trace identity.
    pub seed: u64,
    /// Rollup tier layout.
    pub rollup: RollupConfig,
    /// Declared objectives.
    pub slos: Vec<SloSpec>,
    /// Flight-recorder ring capacity (events).
    pub flight_capacity: usize,
    /// Fault injection: extra modeled latency added to every observed
    /// cycle, in microseconds. 0 disables. This is the lever the
    /// acceptance tests use to reproduce a latency regression.
    pub inject_cycle_delay_us: u64,
    /// Structured event-log ring capacity (records). The session drains
    /// this ring every tick into the served `/logs` tail and the
    /// `log_records_total` / `log_error_records_total` counters.
    pub log_capacity: usize,
    /// How many of the most recent log records the `/logs` tail keeps.
    pub log_tail: usize,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            seed: 0,
            rollup: RollupConfig::default(),
            slos: Vec::new(),
            flight_capacity: 65_536,
            inject_cycle_delay_us: 0,
            log_capacity: 4_096,
            log_tail: 256,
        }
    }
}

/// Aggregate health verdict served at `/health`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// `true` when no SLO has a firing burn rule.
    pub ok: bool,
    /// Per-SLO verdicts.
    pub slos: Vec<SloStatus>,
}

/// State shared with the serving thread (see [`crate::serve`]).
#[derive(Debug)]
pub(crate) struct SharedState {
    pub(crate) registry: Registry,
    pub(crate) status: Mutex<Vec<SloStatus>>,
    pub(crate) dashboard: Mutex<String>,
    /// The most recent log records, rendered as JSONL (what `/logs`
    /// serves).
    pub(crate) logs: Mutex<String>,
}

/// One observed run; see the module docs.
///
/// The session is a handle on state behind one lock: [`WatchSession::obs`]
/// hands a run the session's sinks, and the run's observed cycles reach
/// the same rollups and SLOs the handle reads.
#[derive(Debug)]
pub struct WatchSession {
    state: Arc<Locked>,
}

/// Everything a session tick touches.
#[derive(Debug)]
struct State {
    registry: Registry,
    recorder: FlightRecorder,
    log: EventLog,
    rollup: RollupEngine,
    slo: SloEngine,
    root: TraceContext,
    session_span: NameId,
    inject_cycle_delay_us: u64,
    /// Cached per-scenario latency histogram handles.
    cycle_hists: Vec<(String, Histogram)>,
    /// Flight-ring loss accounting exported as registry counters (the
    /// trace-loss SLO's series): total accepted and lost-before-drain.
    flight_events: Counter,
    flight_lost: Counter,
    prev_flight_total: u64,
    prev_flight_lost: u64,
    /// Event-log accounting exported as registry counters (the
    /// log-error-rate SLO's series), plus the bounded tail `/logs`
    /// serves. The session drains the log ring every tick.
    log_records: Counter,
    log_errors: Counter,
    log_dropped: Counter,
    prev_log_dropped: u64,
    log_tail: VecDeque<LogRecord>,
    log_tail_cap: usize,
    /// The last ingested xray panel (empty until
    /// [`WatchSession::observe_xray`]); appended to the dashboard.
    xray_panel: String,
    /// Observability self-cost accountant: turns the session's own
    /// flight/log totals into `augur_obs_*` counters and the
    /// `obs_overhead_share` gauge every tick.
    obs: SelfCost,
    last_now_us: u64,
    shared: Arc<SharedState>,
}

/// The session state behind its lock: what a run's [`Obs`] holds as
/// its cycle sink.
#[derive(Debug)]
struct Locked(Mutex<State>);

impl Deref for Locked {
    type Target = Mutex<State>;

    fn deref(&self) -> &Mutex<State> {
        &self.0
    }
}

impl CycleSink for Locked {
    fn cycle(&self, name: &str, clock: &ManualTime, start_us: u64, ctx: TraceContext) {
        self.lock().observe_cycle(name, clock, start_us, ctx);
    }

    fn tick(&self, clock: &ManualTime) {
        self.lock().tick_to(clock.now_micros());
    }
}

/// The session's rollup engine, borrowed through a guard on its state.
struct RollupView<G>(G);

impl<G: Deref<Target = State>> Deref for RollupView<G> {
    type Target = RollupEngine;

    fn deref(&self) -> &RollupEngine {
        &self.0.rollup
    }
}

impl WatchSession {
    /// Builds a session: fresh registry and flight ring, rollup engine
    /// and the declared SLOs.
    pub fn new(config: WatchConfig) -> Result<WatchSession, WatchError> {
        let registry = Registry::new();
        let recorder = FlightRecorder::new(config.flight_capacity);
        let rollup = RollupEngine::new(registry.clone(), config.rollup)?;
        let slo = SloEngine::new(config.slos, rollup.tier0_window_us())?;
        let root = TraceContext::root(config.seed, SESSION_TRACE_KEY);
        let session_span = recorder.intern("watch/session");
        let shared = Arc::new(SharedState {
            registry: registry.clone(),
            status: Mutex::new(Vec::new()),
            dashboard: Mutex::new(String::new()),
            logs: Mutex::new(String::new()),
        });
        let flight_events = registry.counter("flight_events_total");
        let flight_lost = registry.counter("flight_dropped_events_total");
        let log_records = registry.counter("log_records_total");
        let log_errors = registry.counter("log_error_records_total");
        let log_dropped = registry.counter("log_dropped_records_total");
        let obs = SelfCost::new(&registry, ObsCostModel::CALIBRATED);
        let state = State {
            registry,
            recorder,
            log: EventLog::new(config.log_capacity),
            rollup,
            slo,
            root,
            session_span,
            inject_cycle_delay_us: config.inject_cycle_delay_us,
            cycle_hists: Vec::new(),
            flight_events,
            flight_lost,
            prev_flight_total: 0,
            prev_flight_lost: 0,
            log_records,
            log_errors,
            log_dropped,
            prev_log_dropped: 0,
            log_tail: VecDeque::new(),
            log_tail_cap: config.log_tail.max(1),
            xray_panel: String::new(),
            obs,
            last_now_us: 0,
            shared,
        };
        Ok(WatchSession {
            state: Arc::new(Locked(Mutex::new(state))),
        })
    }

    /// The session's sinks as one [`Obs`]: its registry, flight ring and
    /// event log, and the session itself as the cycle sink. A run
    /// reporting into it is watched; call [`WatchSession::finish`] when
    /// the run ends.
    pub fn obs(&self) -> Obs {
        let state = self.state.lock();
        Obs {
            registry: state.registry.clone(),
            flight: Some(state.recorder.clone()),
            log: Some(state.log.clone()),
            cycles: Some(self.state.clone()),
            ..Obs::default()
        }
    }

    /// The session's registry (cloning shares the underlying map).
    pub fn registry(&self) -> Registry {
        self.state.lock().registry.clone()
    }

    /// The session's flight recorder (cloning shares the ring).
    pub fn recorder(&self) -> FlightRecorder {
        self.state.lock().recorder.clone()
    }

    /// The session's structured event log (cloning shares the ring).
    /// Workloads write decisions here; each tick the session drains
    /// them into the served `/logs` tail and the log-rate counters.
    pub fn log(&self) -> EventLog {
        self.state.lock().log.clone()
    }

    /// The session's deterministic root trace context. Alert instants
    /// and the `watch/session` span are its children/self.
    pub fn root(&self) -> TraceContext {
        self.state.lock().root
    }

    /// Observes one work cycle (a frame, a pipeline step, a stage) that
    /// began at `cycle_start_us` on `clock`: applies configured fault
    /// injection (advancing the clock like any other modeled work),
    /// records the cycle latency into `frame_latency_us{scenario=...}`,
    /// and advances the rollup/SLO machinery to the clock's now.
    pub fn observe_cycle(&self, scenario: &str, clock: &ManualTime, cycle_start_us: u64) {
        let root = self.root();
        self.observe_cycle_traced(scenario, clock, cycle_start_us, root);
    }

    /// [`WatchSession::observe_cycle`] with the cycle's own trace
    /// context: besides recording the latency, the bucket keeps `ctx`'s
    /// trace id as an OpenMetrics exemplar — the drill-down link from a
    /// p99 spike on `/metrics` straight to the trace in the exported
    /// Perfetto view. An unsampled context records the latency but
    /// leaves no exemplar.
    pub fn observe_cycle_traced(
        &self,
        scenario: &str,
        clock: &ManualTime,
        cycle_start_us: u64,
        ctx: TraceContext,
    ) {
        self.state
            .lock()
            .observe_cycle(scenario, clock, cycle_start_us, ctx);
    }

    /// Advances rollup windows and SLO evaluation to `now_us` without
    /// recording a cycle (for workloads that advance time between
    /// observed cycles).
    pub fn tick_to(&self, now_us: u64) {
        self.state.lock().tick_to(now_us);
    }

    /// Finishes the session: closes the trailing partial window,
    /// evaluates it, records the `watch/session` root span covering the
    /// whole run, and refreshes the served state. Call once per run.
    pub fn finish(&self) {
        self.state.lock().finish();
    }

    /// Current per-SLO verdicts.
    pub fn statuses(&self) -> Vec<SloStatus> {
        self.state.lock().slo.status()
    }

    /// Aggregate health verdict (what `/health` serves).
    pub fn health(&self) -> HealthReport {
        let slos = self.statuses();
        HealthReport {
            ok: slos.iter().all(|s| s.ok),
            slos,
        }
    }

    /// The rollup engine, for dashboards and tests. Holds the session
    /// lock while borrowed.
    pub fn rollup(&self) -> impl Deref<Target = RollupEngine> + '_ {
        RollupView(self.state.lock())
    }

    /// Ingests a completed bottleneck report: exports its headline
    /// numbers as gauges (`parallel_speedup_bound`,
    /// `measured_parallel_efficiency`,
    /// `xray_stage_utilization{stage=...}`,
    /// `xray_critical_path_share{stage=...}`, and per-worker-lane
    /// `lane_utilization{lane=...}` / `lane_blocked_share{lane=...}`)
    /// so rollups and SLOs can grade them, stores the rendered panel —
    /// including the lanes table — for the `/` dashboard, and
    /// republishes the served state.
    pub fn observe_xray(&self, report: &XrayReport) {
        let mut state = self.state.lock();
        let registry = &state.registry;
        registry
            .gauge("parallel_speedup_bound")
            .set(report.parallel_speedup_bound);
        registry
            .gauge("measured_parallel_efficiency")
            .set(report.measured.parallel_efficiency);
        for stage in &report.stages {
            registry
                .gauge_labeled("xray_stage_utilization", &[("stage", &stage.name)])
                .set(stage.utilization);
            registry
                .gauge_labeled("xray_stage_blocked_share", &[("stage", &stage.name)])
                .set(stage.blocked_share);
        }
        for frame in &report.critical_path {
            registry
                .gauge_labeled("xray_critical_path_share", &[("stage", &frame.name)])
                .set(frame.share);
        }
        for lane in &report.lanes {
            registry
                .gauge_labeled("lane_utilization", &[("lane", &lane.name)])
                .set(lane.utilization);
            registry
                .gauge_labeled("lane_blocked_share", &[("lane", &lane.name)])
                .set(lane.blocked_share);
        }
        state.xray_panel = report.render_panel();
        state.refresh_shared();
    }

    /// Renders the plain-text dashboard for the current state; after
    /// [`WatchSession::observe_xray`] the bottleneck panel is appended.
    pub fn dashboard(&self) -> String {
        self.state.lock().render_dashboard()
    }

    /// Starts the live endpoint on `addr` (e.g. `127.0.0.1:0` for an
    /// ephemeral port), serving `/metrics`, `/health`, `/slo`, and the
    /// dashboard at `/` from this session's shared state. The server
    /// keeps serving the last refreshed state after the run finishes.
    pub fn serve(&self, addr: &str) -> std::io::Result<WatchServer> {
        let shared = Arc::clone(&self.state.lock().shared);
        serve::spawn(shared, addr)
    }

    /// The cumulative observability overhead share (the
    /// `obs_overhead_share` gauge): estimated instrumentation time over
    /// modeled busy time.
    pub fn obs_overhead_share(&self) -> f64 {
        self.state.lock().obs.overhead_share()
    }

    /// The current `/logs` tail: the most recent records, one JSONL
    /// line each, oldest first.
    pub fn log_tail_jsonl(&self) -> String {
        self.state.lock().render_log_tail()
    }
}

impl State {
    fn observe_cycle(
        &mut self,
        scenario: &str,
        clock: &ManualTime,
        cycle_start_us: u64,
        ctx: TraceContext,
    ) {
        if self.inject_cycle_delay_us > 0 {
            clock.advance_micros(self.inject_cycle_delay_us);
        }
        let now = clock.now_micros();
        let trace_id = if ctx.sampled { ctx.trace_id } else { 0 };
        self.cycle_hist(scenario)
            .record_traced(now.saturating_sub(cycle_start_us), trace_id, now);
        self.tick_to(now);
    }

    fn tick_to(&mut self, now_us: u64) {
        self.last_now_us = self.last_now_us.max(now_us);
        self.export_flight_loss();
        self.drain_log();
        self.export_obs_cost();
        let closed = self.rollup.tick(now_us);
        for start in &closed {
            self.slo
                .evaluate_window(&self.rollup, *start, &self.recorder, self.root);
        }
        if !closed.is_empty() {
            self.refresh_shared();
        }
    }

    fn finish(&mut self) {
        self.export_flight_loss();
        self.drain_log();
        self.export_obs_cost();
        if let Some(start) = self.rollup.flush(self.last_now_us) {
            self.slo
                .evaluate_window(&self.rollup, start, &self.recorder, self.root);
        }
        self.recorder
            .record_span(self.root, self.session_span, 0, self.last_now_us);
        // The session span itself is instrumentation: account it too.
        self.export_obs_cost();
        self.refresh_shared();
    }

    fn render_dashboard(&self) -> String {
        let mut out = crate::dashboard::render(&self.slo.status(), &self.rollup);
        let exemplars = self.exemplar_panel();
        if !exemplars.is_empty() {
            out.push('\n');
            out.push_str(&exemplars);
        }
        if !self.xray_panel.is_empty() {
            out.push('\n');
            out.push_str(&self.xray_panel);
        }
        out
    }

    /// Advances `flight_events_total` / `flight_dropped_events_total`
    /// by the ring's movement since the last tick, so silent span loss
    /// (which would corrupt exported profiles and traces) is a series
    /// the trace-loss SLO can grade.
    fn export_flight_loss(&mut self) {
        let total = self.recorder.total_events();
        let lost = self.recorder.lost_events();
        self.flight_events
            .add(total.saturating_sub(self.prev_flight_total));
        self.flight_lost
            .add(lost.saturating_sub(self.prev_flight_lost));
        self.prev_flight_total = total;
        self.prev_flight_lost = lost;
    }

    /// Accounts the instrumentation's own cost for this tick: flight
    /// and log totals are cumulative, the accountant differences them
    /// against the previous tick; modeled elapsed time stands in for
    /// busy time (the session observes one workload end to end). Called
    /// after the log drain so the ring holds nothing uncounted.
    fn export_obs_cost(&mut self) {
        let log_appended = self.log_records.get() + self.log.dropped_records();
        self.obs.observe(
            self.recorder.total_events(),
            self.recorder.lost_events(),
            log_appended,
            self.last_now_us,
        );
    }

    /// Drains newly-arrived log records: counts them into the
    /// `log_records_total` / `log_error_records_total` series (ERROR
    /// and above count as errors), carries ring-drop accounting into
    /// `log_dropped_records_total`, and appends to the bounded `/logs`
    /// tail.
    fn drain_log(&mut self) {
        let drained = self.log.drain();
        if !drained.is_empty() {
            self.log_records.add(drained.len() as u64);
            let errors = drained.iter().filter(|r| r.level >= Level::Error).count();
            self.log_errors.add(errors as u64);
            for r in drained {
                if self.log_tail.len() == self.log_tail_cap {
                    self.log_tail.pop_front();
                }
                self.log_tail.push_back(r);
            }
        }
        let dropped = self.log.dropped_records();
        self.log_dropped
            .add(dropped.saturating_sub(self.prev_log_dropped));
        self.prev_log_dropped = dropped;
    }

    fn render_log_tail(&self) -> String {
        let mut out = String::new();
        for r in &self.log_tail {
            out.push_str(&render_jsonl_line(r));
            out.push('\n');
        }
        out
    }

    /// Publishes current verdicts + dashboard + log tail to the serving
    /// thread.
    fn refresh_shared(&self) {
        let dashboard = self.render_dashboard();
        let logs = self.render_log_tail();
        *self.shared.dashboard.lock() = dashboard;
        *self.shared.status.lock() = self.slo.status();
        *self.shared.logs.lock() = logs;
    }

    /// Get-or-register the cycle latency histogram for `scenario`.
    fn cycle_hist(&mut self, scenario: &str) -> Histogram {
        if let Some((_, h)) = self.cycle_hists.iter().find(|(s, _)| s == scenario) {
            return h.clone();
        }
        let h = self
            .registry
            .histogram_labeled("frame_latency_us", &[("scenario", scenario)]);
        h.enable_exemplars();
        self.cycle_hists.push((scenario.to_string(), h.clone()));
        h
    }

    /// Renders the exemplar drill-down panel: per scenario, the slowest
    /// retained exemplars (highest buckets first) with the trace id to
    /// search for in the exported Perfetto view. Empty when no traced
    /// cycle was observed.
    fn exemplar_panel(&self) -> String {
        use std::fmt::Write as _;
        /// Slowest buckets shown per scenario — a drill-down, not a dump.
        const PER_SCENARIO: usize = 8;
        let mut out = String::new();
        for (scenario, hist) in &self.cycle_hists {
            let mut exemplars = hist.exemplars();
            exemplars.sort_by_key(|e| std::cmp::Reverse(e.bucket));
            for ex in exemplars.iter().take(PER_SCENARIO) {
                let _ = writeln!(
                    out,
                    "  {scenario}: {}us (bucket le={}) -> trace {:016x}",
                    ex.value,
                    augur_telemetry::bucket_upper_edge(ex.bucket),
                    ex.trace_id,
                );
            }
        }
        if out.is_empty() {
            out
        } else {
            format!("exemplars (latency -> trace id, search it in Perfetto):\n{out}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollup::TierSpec;
    use crate::slo::{BurnRule, Objective};
    use augur_telemetry::log::LogSite;
    use augur_telemetry::sample::{
        OBS_BUSY_NS_TOTAL, OBS_OVERHEAD_BUDGET, OBS_OVERHEAD_SHARE, OBS_RECORD_NS_TOTAL,
    };

    fn test_config(inject_us: u64) -> WatchConfig {
        WatchConfig {
            seed: 42,
            rollup: RollupConfig {
                tiers: vec![TierSpec {
                    window_us: 1_000,
                    capacity: 256,
                }],
            },
            slos: vec![SloSpec {
                name: "frame_p95".to_string(),
                objective: Objective::LatencyQuantile {
                    series: "frame_latency_us{scenario=test}".to_string(),
                    q: 0.95,
                    threshold_us: 500,
                },
                budget: 0.1,
                period_us: 100_000,
                rules: vec![BurnRule {
                    name: "fast".to_string(),
                    short_us: 2_000,
                    long_us: 4_000,
                    factor: 2.0,
                }],
            }],
            flight_capacity: 1024,
            inject_cycle_delay_us: inject_us,
            ..WatchConfig::default()
        }
    }

    fn run_session(inject_us: u64) -> (WatchSession, Vec<augur_telemetry::FlightEvent>) {
        let session =
            WatchSession::new(test_config(inject_us)).unwrap_or_else(|e| unreachable!("{e}"));
        let clock = ManualTime::new();
        for _ in 0..20 {
            let start = clock.now_micros();
            clock.advance_micros(400); // modeled healthy work
            session.observe_cycle("test", &clock, start);
        }
        session.finish();
        let events = session.recorder().drain();
        (session, events)
    }

    #[test]
    fn healthy_run_stays_ok_and_records_root_span() {
        let (session, events) = run_session(0);
        let health = session.health();
        assert!(health.ok);
        assert!(!events.iter().any(|e| e.name.starts_with("slo/")));
        let root = events.iter().find(|e| e.name == "watch/session");
        assert_eq!(root.map(|e| e.parent_span_id), Some(0));
    }

    #[test]
    fn injected_regression_fires_alert_with_causal_parent() {
        let (session, events) = run_session(1_200);
        let health = session.health();
        assert!(!health.ok, "injected 1.2ms on a 500us objective must fire");
        let violated: Vec<&str> = health
            .slos
            .iter()
            .filter(|s| !s.ok)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(violated, vec!["frame_p95"]);
        let alert = events
            .iter()
            .find(|e| e.name == "slo/frame_p95/fast/alert")
            .cloned();
        let root = session.root();
        assert_eq!(alert.as_ref().map(|e| e.parent_span_id), Some(root.span_id));
        // The parent span is present in the same drained set.
        assert!(events
            .iter()
            .any(|e| e.span_id == root.span_id && e.name == "watch/session"));
    }

    #[test]
    fn flight_loss_is_exported_as_counters() {
        let mut cfg = test_config(0);
        cfg.flight_capacity = 8;
        let session = WatchSession::new(cfg).unwrap_or_else(|e| unreachable!("{e}"));
        let rec = session.recorder();
        let n = rec.intern("spam");
        let ctx = TraceContext::root(1, 1);
        for i in 0..20u64 {
            rec.record_span(ctx, n, i, 1);
        }
        session.tick_to(1_000);
        let registry = session.registry();
        assert_eq!(registry.counter("flight_events_total").get(), 20);
        assert_eq!(
            registry.counter("flight_dropped_events_total").get(),
            12,
            "20 records through an 8-slot ring lose 12"
        );
        // Deltas, not absolutes: a second tick with no new records must
        // not re-charge the counters.
        session.tick_to(2_000);
        assert_eq!(registry.counter("flight_events_total").get(), 20);
        assert_eq!(registry.counter("flight_dropped_events_total").get(), 12);
    }

    #[test]
    fn log_records_feed_counters_tail_and_logs_route() {
        let mut cfg = test_config(0);
        cfg.log_tail = 2;
        let session = WatchSession::new(cfg).unwrap_or_else(|e| unreachable!("{e}"));
        let log = session.log();
        let site = LogSite::unlimited();
        let ctx = TraceContext::root(1, 2);
        log.event(&site, Level::Info, ctx, "work/step", 100, &[]);
        log.event(&site, Level::Info, ctx, "work/step", 200, &[]);
        log.event(&site, Level::Error, ctx, "work/boom", 300, &[]);
        session.tick_to(1_000);
        session.finish();
        let registry = session.registry();
        assert_eq!(registry.counter("log_records_total").get(), 3);
        assert_eq!(registry.counter("log_error_records_total").get(), 1);
        assert_eq!(registry.counter("log_dropped_records_total").get(), 0);
        // The tail is bounded: only the 2 most recent records remain,
        // and the serving thread sees the same rendered JSONL.
        let tail = session.log_tail_jsonl();
        assert_eq!(tail.lines().count(), 2);
        assert!(tail.contains("work/boom"));
        assert!(tail.contains("\"level\":\"error\""));
        assert_eq!(*session.state.lock().shared.logs.lock(), tail);
    }

    #[test]
    fn xray_report_feeds_gauges_and_dashboard_panel() {
        let session = WatchSession::new(test_config(0)).unwrap_or_else(|e| unreachable!("{e}"));
        let rec = session.recorder();
        let root = TraceContext::root(7, 3);
        let (read, transform) = (rec.intern("read"), rec.intern("transform"));
        rec.record_span(root.child_named("read"), read, 0, 10);
        rec.record_span(root.child_named("transform"), transform, 10, 30);
        rec.record_span(root, rec.intern("cycle"), 0, 40);
        let events = rec.drain();
        let report = augur_xray::analyze("test", &events, rec.dropped_events());
        session.observe_xray(&report);
        let registry = session.registry();
        assert!(registry.gauge("parallel_speedup_bound").get() >= 1.0);
        let share = registry
            .gauge_labeled("xray_critical_path_share", &[("stage", "transform")])
            .get();
        assert!(share > 0.5, "transform dominates the critical path");
        assert!(
            registry
                .gauge_labeled("xray_stage_utilization", &[("stage", "transform")])
                .get()
                > 0.0
        );
        // The panel reaches both the local and the served dashboard.
        let dash = session.dashboard();
        assert!(dash.contains("xray: parallel speedup bound"));
        assert!(session
            .state
            .lock()
            .shared
            .dashboard
            .lock()
            .contains("xray: parallel speedup bound"));
    }

    #[test]
    fn merged_lane_report_feeds_lane_gauges_and_panel() {
        use augur_telemetry::{BlockedSite, Clock, Lanes};
        let session = WatchSession::new(test_config(0)).unwrap_or_else(|e| unreachable!("{e}"));
        let lanes = Lanes::new(7, 64);
        let a = lanes.register("pump");
        let b = lanes.register("worker");
        for (lane, busy, stall) in [(&a, 90u64, 10u64), (&b, 40, 60)] {
            let time = ManualTime::shared();
            let clock: Clock = time.clone();
            let stage = lane.recorder().intern("stage/run");
            let w = lane.work(&clock, lane.root(), stage);
            time.advance_micros(busy);
            let blk = lane.block(&clock, w.ctx(), BlockedSite::Stall);
            time.advance_micros(stall);
            blk.end();
            w.end();
        }
        let report = augur_xray::analyze_merged("lanes", &lanes.merge_drains());
        session.observe_xray(&report);
        let registry = session.registry();
        let eff = registry.gauge("measured_parallel_efficiency").get();
        assert!(
            (eff - 0.65).abs() < 1e-12,
            "Σbusy 130 over 2×100 lanes: {eff}"
        );
        assert!(
            (registry
                .gauge_labeled("lane_blocked_share", &[("lane", "worker")])
                .get()
                - 0.6)
                .abs()
                < 1e-12
        );
        assert!(
            (registry
                .gauge_labeled("lane_utilization", &[("lane", "pump")])
                .get()
                - 0.9)
                .abs()
                < 1e-12
        );
        let dash = session.dashboard();
        assert!(dash.contains("measured efficiency 0.65 over 2 lane(s)"));
        assert!(dash.contains("pump"), "lanes table must list lane names");
    }

    #[test]
    fn self_cost_counters_track_the_session_within_budget() {
        let (session, _) = run_session(0);
        let registry = session.registry();
        let record_ns = registry.counter(OBS_RECORD_NS_TOTAL).get();
        let busy_ns = registry.counter(OBS_BUSY_NS_TOTAL).get();
        assert!(record_ns > 0, "the session records its own span cost");
        assert_eq!(busy_ns, 20 * 400 * 1_000, "modeled busy time in ns");
        let share = registry.gauge(OBS_OVERHEAD_SHARE).get();
        assert!((share - session.obs_overhead_share()).abs() < 1e-15);
        assert!(
            share <= OBS_OVERHEAD_BUDGET,
            "a healthy session stays inside the 1% budget: {share}"
        );
        assert!(share > 0.0);
    }

    #[test]
    fn traced_cycles_leave_exemplars_on_metrics_and_dashboard() {
        let session = WatchSession::new(test_config(0)).unwrap_or_else(|e| unreachable!("{e}"));
        let clock = ManualTime::new();
        let root = session.root();
        for i in 0..4u64 {
            let start = clock.now_micros();
            clock.advance_micros(300 + i * 50);
            session.observe_cycle_traced("test", &clock, start, root.child_named("cycle"));
        }
        session.finish();
        let om = session.registry().render_openmetrics();
        assert!(
            om.contains("# {trace_id="),
            "OpenMetrics exposition must carry at least one exemplar: {om}"
        );
        let expected = format!("{:016x}", root.trace_id);
        assert!(
            om.contains(&expected),
            "exemplar carries the cycle's trace id"
        );
        let dash = session.dashboard();
        assert!(
            dash.contains("exemplars (latency -> trace id"),
            "dashboard drill-down panel: {dash}"
        );
        assert!(dash.contains(&expected));
        // An unsampled context records latency but leaves no new trace.
        let before = session.state.lock().cycle_hist("test").exemplars();
        let start = clock.now_micros();
        clock.advance_micros(10_000);
        session.observe_cycle_traced("test", &clock, start, root.unsampled());
        let after = session.state.lock().cycle_hist("test").exemplars();
        assert_eq!(
            before.len(),
            after.len(),
            "no exemplar for unsampled cycles"
        );
    }

    #[test]
    fn alert_sequence_is_bit_reproducible() {
        let (_, a) = run_session(1_200);
        let (_, b) = run_session(1_200);
        let fmt = |events: &[augur_telemetry::FlightEvent]| {
            events
                .iter()
                .filter(|e| e.name.starts_with("slo/"))
                .map(|e| format!("{e:?}"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert!(!fmt(&a).is_empty());
        assert_eq!(fmt(&a), fmt(&b));
    }
}
