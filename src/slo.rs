//! The §3 scenarios' declared service-level objectives.
//!
//! One [`WatchConfig`](augur_watch::WatchConfig) per scenario, for a
//! [`WatchSession`](augur_watch::WatchSession) to grade that scenario's
//! run against: the scenario's own latency (and, for the ward, alert
//! and drop-ratio) objectives, plus the three every scenario shares —
//! [`trace_loss`](crate::slo::trace_loss),
//! [`log_error_rate`](crate::slo::log_error_rate) and
//! [`obs_overhead`](crate::slo::obs_overhead). The scenario
//! reports into the session's [`Obs`](augur_telemetry::Obs), so its
//! observed cycles land in `frame_latency_us{scenario=<name>}`:
//!
//! ```
//! use augur::core::retail::{run, RetailParams};
//! use augur::watch::WatchSession;
//!
//! let params = RetailParams { users: 100, ..RetailParams::default() };
//! let session = WatchSession::new(augur::slo::retail(params.seed)).unwrap();
//! run(&params, &session.obs()).unwrap();
//! session.finish();
//! assert!(session.health().ok);
//! ```

use augur_watch::{BurnRule, Objective, RollupConfig, SloSpec, TierSpec, WatchConfig};

/// A burn rule over a `short_us`/`long_us` lookback pair.
fn rule(name: &str, short_us: u64, long_us: u64, factor: f64) -> BurnRule {
    BurnRule {
        name: name.to_string(),
        short_us,
        long_us,
        factor,
    }
}

/// The fast rule most objectives declare: both the 100 ms and the
/// 250 ms lookback burn the budget at twice its rate.
fn fast() -> BurnRule {
    rule("fast", 100_000, 250_000, 2.0)
}

/// An objective with a 10% error budget over `period_us`.
fn slo(name: &str, objective: Objective, period_us: u64, rules: Vec<BurnRule>) -> SloSpec {
    SloSpec {
        name: name.to_string(),
        objective,
        budget: 0.1,
        period_us,
        rules,
    }
}

/// p95 of the latency histogram `series` at or under `threshold_us`.
fn p95(series: &str, threshold_us: u64) -> Objective {
    Objective::LatencyQuantile {
        series: series.to_string(),
        q: 0.95,
        threshold_us,
    }
}

/// `bad_series` over `total_series` below `max_ratio`, with the fast
/// rule over a 5 s period.
fn ratio(name: &str, bad_series: &str, total_series: &str, max_ratio: f64) -> SloSpec {
    let objective = Objective::RatioBelow {
        bad_series: bad_series.to_string(),
        total_series: total_series.to_string(),
        max_ratio,
    };
    slo(name, objective, 5_000_000, vec![fast()])
}

/// The shared trace-loss objective: the flight ring must lose fewer
/// than 1% of its records (`flight_dropped_events_total` over
/// `flight_events_total`, both exported by the watch session each
/// tick). Silent span loss corrupts profiles and traces, so it alerts
/// like any other SLO.
pub fn trace_loss() -> SloSpec {
    ratio(
        "trace_loss",
        "flight_dropped_events_total",
        "flight_events_total",
        0.01,
    )
}

/// The shared log-error-rate objective: fewer than 1% of the structured
/// log records the session drains each tick may be ERROR
/// (`log_error_records_total` over `log_records_total`, both exported
/// by the watch session). A healthy run logs decisions at INFO/WARN; a
/// burst of ERROR records is an incident regardless of what the latency
/// series say.
pub fn log_error_rate() -> SloSpec {
    ratio(
        "log_error_rate",
        "log_error_records_total",
        "log_records_total",
        0.01,
    )
}

/// The shared observability-self-cost objective: the modeled cost of
/// recording telemetry (`augur_obs_record_ns_total`, maintained by the
/// session's [`SelfCost`](augur_telemetry::sample::SelfCost) meter) must
/// stay below 1% of the busy time it observes
/// (`augur_obs_busy_ns_total`). Observability that eats the latency
/// budget it is supposed to protect is an incident in its own right —
/// `augur-doctor` gates the same share via the exported
/// `obs_overhead_share` gauge.
pub fn obs_overhead() -> SloSpec {
    ratio(
        "obs_overhead",
        "augur_obs_record_ns_total",
        "augur_obs_busy_ns_total",
        0.01,
    )
}

/// A config over rollup `tiers` (`(window_us, capacity)` each) with the
/// scenario's `slos` followed by the three shared ones.
fn config(seed: u64, tiers: &[(u64, usize)], mut slos: Vec<SloSpec>) -> WatchConfig {
    slos.extend([trace_loss(), log_error_rate(), obs_overhead()]);
    WatchConfig {
        seed,
        rollup: RollupConfig {
            tiers: tiers
                .iter()
                .map(|&(window_us, capacity)| TierSpec {
                    window_us,
                    capacity,
                })
                .collect(),
        },
        slos,
        ..WatchConfig::default()
    }
}

/// Tourism: a 60 FPS frame budget — p95 of
/// `frame_latency_us{scenario=tourism}` at or under 16.6 ms of modeled
/// work — guarded by a fast and a slow multi-window burn-rate rule.
/// Rollup windows are sized so one frame fits inside a tier-0 window
/// even under heavy fault injection (see
/// [`WatchConfig::inject_cycle_delay_us`]); a sustained regression
/// therefore marks consecutive windows bad instead of diluting across
/// empty ones.
pub fn tourism(seed: u64) -> WatchConfig {
    let frame = p95("frame_latency_us{scenario=tourism}", 16_600);
    let rules = vec![fast(), rule("slow", 250_000, 1_000_000, 1.0)];
    config(
        seed,
        &[(50_000, 256), (250_000, 64), (1_000_000, 32)],
        vec![slo("tourism_frame_p95", frame, 5_000_000, rules)],
    )
}

/// Retail: p95 stage latency (`frame_latency_us{scenario=retail}` —
/// each of log/train/evaluate/session is one observed cycle) at or
/// under 50 ms of modeled work, so the in-store recommender refresh
/// stays interactive.
pub fn retail(seed: u64) -> WatchConfig {
    let stage = p95("frame_latency_us{scenario=retail}", 50_000);
    let rules = vec![rule("fast", 200_000, 500_000, 2.0)];
    config(
        seed,
        &[(100_000, 128), (500_000, 32)],
        vec![slo("retail_stage_p95", stage, 2_000_000, rules)],
    )
}

/// The ward — the paper's "immediate field diagnosis" promise,
/// monitored:
///
/// 1. `healthcare_detect_p95` — p95 of the detect stage's per-chunk
///    cycle latency stays under 5 ms of modeled work.
/// 2. `healthcare_alert_p95` — p95 sample-to-alert latency (episode
///    onset → detector alert, sim time) stays under 10 s.
/// 3. `healthcare_drop_ratio` — the vitals stream drops fewer than
///    0.1% of records late (`pipeline_late_dropped_total` over
///    `pipeline_records_in_total`, both `{topic=vitals}`).
pub fn healthcare(seed: u64) -> WatchConfig {
    let detect = p95("frame_latency_us{scenario=healthcare}", 5_000);
    let alert = p95("alert_latency_us{scenario=healthcare}", 10_000_000);
    config(
        seed,
        &[(50_000, 256), (250_000, 64)],
        vec![
            slo("healthcare_detect_p95", detect, 5_000_000, vec![fast()]),
            slo("healthcare_alert_p95", alert, 5_000_000, vec![fast()]),
            ratio(
                "healthcare_drop_ratio",
                "pipeline_late_dropped_total{topic=vitals}",
                "pipeline_records_in_total{topic=vitals}",
                0.001,
            ),
        ],
    )
}

/// Traffic: p95 per-step beacon processing latency
/// (`frame_latency_us{scenario=traffic}`, modeled one work unit per
/// beacon sent) at or under 10 ms — the windshield display must keep up
/// with the VANET fan-out.
pub fn traffic(seed: u64) -> WatchConfig {
    let step = p95("frame_latency_us{scenario=traffic}", 10_000);
    config(
        seed,
        &[(50_000, 256), (250_000, 64)],
        vec![slo("traffic_step_p95", step, 5_000_000, vec![fast()])],
    )
}
