//! # augur-watch
//!
//! Continuous health monitoring for the Augur platform: time-series
//! rollups over the telemetry registry, SLO objectives with error
//! budgets and multi-window burn-rate alerting, and a zero-dependency
//! live endpoint.
//!
//! The paper's central constraint is **timeliness**: an AR platform is
//! only useful while end-to-end latency stays inside the frame budget
//! as big-data pipelines churn underneath. Point-in-time snapshots
//! (`augur-bench` → `augur-doctor`) catch regressions between runs;
//! this crate watches a run *while it happens*:
//!
//! - [`RollupEngine`]: samples a [`Registry`](augur_telemetry::Registry)
//!   at fixed window boundaries into windowed series — counter deltas,
//!   gauge readings, sparse histogram deltas — ring-buffered at tier 0
//!   and downsampled into coarser tiers via bucket-wise histogram
//!   merging (quantile-correct because every tier shares the telemetry
//!   crate's log-linear bucket layout).
//! - [`SloEngine`]: declarative [`Objective`]s (latency quantile
//!   ceilings, bad/total ratio ceilings) graded per window, with error
//!   budgets and SRE-style multi-window [`BurnRule`]s — an alert fires
//!   only when both the fast and the slow lookback burn the budget
//!   above the rule's factor. Alert/clear transitions are emitted as
//!   [`FlightRecorder`](augur_telemetry::FlightRecorder) instants
//!   parented to the session root span, so they are causally reachable
//!   in exported Chrome traces.
//! - [`WatchSession`]: owns registry, flight ring, rollup, and SLOs for
//!   one observed run; a run reports into [`WatchSession::obs`], whose
//!   cycle sink feeds the session each observed cycle. Under
//!   [`ManualTime`](augur_telemetry::ManualTime) the entire output —
//!   series, verdicts, and the alert sequence — is bit-for-bit
//!   reproducible for a fixed seed.
//! - [`WatchServer`]: a `std::net` TCP endpoint (no async runtime)
//!   serving `/metrics` (Prometheus), `/health` (JSON verdicts, 503 on
//!   violation), `/slo` (budgets and burn rates), `/logs` (a JSONL tail
//!   of the session's structured [`EventLog`](augur_telemetry::log::EventLog)),
//!   and a plain-text dashboard at `/`. `crates/watch/src/serve.rs` is
//!   the sole networking site `augur-audit` sanctions.
//!
//! ## Example
//!
//! ```
//! use augur_telemetry::{ManualTime, TimeSource};
//! use augur_watch::{
//!     BurnRule, Objective, RollupConfig, SloSpec, TierSpec, WatchConfig, WatchSession,
//! };
//!
//! let config = WatchConfig {
//!     rollup: RollupConfig {
//!         tiers: vec![TierSpec { window_us: 1_000, capacity: 128 }],
//!     },
//!     slos: vec![SloSpec {
//!         name: "frame_p95".into(),
//!         objective: Objective::LatencyQuantile {
//!             series: "frame_latency_us{scenario=demo}".into(),
//!             q: 0.95,
//!             threshold_us: 16_600,
//!         },
//!         budget: 0.05,
//!         period_us: 1_000_000,
//!         rules: vec![BurnRule {
//!             name: "fast".into(),
//!             short_us: 3_000,
//!             long_us: 10_000,
//!             factor: 2.0,
//!         }],
//!     }],
//!     ..WatchConfig::default()
//! };
//! let session = WatchSession::new(config).unwrap();
//! let clock = ManualTime::new();
//! for _ in 0..30 {
//!     let start = clock.now_micros();
//!     clock.advance_micros(3_000); // modeled frame work
//!     session.observe_cycle("demo", &clock, start);
//! }
//! session.finish();
//! assert!(session.health().ok);
//! ```

/// Plain-text dashboard renderer.
pub mod dashboard;
/// Configuration/serve errors.
pub mod error;
/// Windowed rollups with tiered downsampling.
pub mod rollup;
/// The live TCP endpoint (sole sanctioned `std::net` site).
pub mod serve;
/// Watch sessions tying rollups, SLOs, and serving together.
pub mod session;
/// SLO objectives, budgets, and burn-rate alerting.
pub mod slo;

/// Dashboard rendering.
pub use dashboard::render as render_dashboard;
/// Error type.
pub use error::WatchError;
/// Rollup engine and its windowed point types.
pub use rollup::{
    series_key, PointValue, RollupConfig, RollupEngine, TierSpec, WindowHist, WindowPoint,
};
/// Endpoint server and JSON renderers.
pub use serve::{render_health_json, render_slo_json, WatchServer};
/// Session types.
pub use session::{HealthReport, WatchConfig, WatchSession};
/// SLO types.
pub use slo::{BurnRule, BurnStatus, Objective, SloEngine, SloSpec, SloStatus};
