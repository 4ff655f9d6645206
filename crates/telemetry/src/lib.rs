//! # augur-telemetry
//!
//! Unified observability for the Augur platform: lock-free metrics, span
//! tracing over pluggable time sources, and machine-readable exposition.
//!
//! The paper's central constraint is **timeliness** — an AR platform must
//! answer inside a 33 ms frame budget — and you cannot keep a latency
//! budget you cannot measure. This crate is the measurement substrate
//! every other crate instruments against:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`]: `Arc`-shared atomic cells;
//!   the record path is wait-free and allocation-free. The histogram is
//!   log-linear (32 sub-buckets per power of two) with a documented
//!   quantile relative-error bound of 1/32. A [`LocalHistogram`] folds
//!   one thread's samples in plain cells and merges them once.
//! - [`Registry`]: sharded, labeled metric families. Registration takes a
//!   short shard lock (`parking_lot`, the workspace standard); the hot
//!   path holds pre-registered handles and never touches the registry.
//! - [`Tracer`] / [`SpanGuard`]: named timed sections recorded into the
//!   `span_duration_us` histogram family.
//! - [`TraceContext`] / [`FlightRecorder`]: causal tracing. Deterministic
//!   trace ids derived from `(seed, key)` travel across layer boundaries
//!   (stream records, pipeline stages, offload tasks, store flushes);
//!   structured span/event records land in a bounded lock-free ring with
//!   explicit drop accounting and export as Chrome trace-event JSON via
//!   [`render_chrome_trace`] for Perfetto timelines.
//! - [`TimeSource`]: the only sanctioned clock. Simulation code uses
//!   [`ManualTime`] (advanced from event time or modeled work units, so
//!   instrumented runs stay deterministic); bench binaries use
//!   [`MonotonicTime`]. `augur-audit` denies raw `Instant::now()` in
//!   instrumented crates.
//! - Exporters: [`Registry::render_prometheus`] (text exposition) and
//!   [`Registry::render_json`] (the `metrics` object in every
//!   `results/<bench>.json` snapshot).
//! - [`log`]: the deterministic structured event log (leveled records
//!   with typed fields on the same seqlock ring, per-site rate limits,
//!   canonical-order JSONL export).
//! - [`sample`]: seeded head sampling, tail-based retention of slow and
//!   error traces, and the instrumentation's own cost accounting.
//! - [`Obs`]: the one handle a run reports through — registry, trace
//!   parent, and the optional flight, log, sampler, lane and
//!   [`CycleSink`] sinks.
//!
//! ## Example
//!
//! ```
//! use augur_telemetry::{ManualTime, Registry, Tracer};
//!
//! let registry = Registry::new();
//! let clock = ManualTime::shared();
//! let tracer = Tracer::new(&registry, clock.clone());
//!
//! registry.counter("frames_total").inc();
//! {
//!     let _span = tracer.span("layout");
//!     clock.advance_micros(1_200); // modeled work
//! }
//! let text = registry.render_prometheus();
//! assert!(text.contains("frames_total 1"));
//! assert!(text.contains("span_duration_us"));
//! ```

/// Chrome trace-event (Perfetto-compatible) JSON export.
pub mod chrome;
/// Prometheus/JSON renderers and the span-breakdown table.
pub mod export;
/// The lock-free flight recorder (bounded span/event ring).
pub mod flight;
/// Worker lanes: deterministic ids, per-lane rings, merged drains.
pub mod lane;
/// The structured event log: leveled records on the seqlock ring.
pub mod log;
/// The atomic instruments: counters, gauges, histograms.
pub mod metric;
/// The one observability handle a run reports through.
pub mod obs;
/// Sharded registry of labeled metric families.
pub mod registry;
/// The seqlock ring and interner behind the flight recorder and log.
pub mod ring;
/// Deterministic head/tail trace sampling and self-cost accounting.
pub mod sample;
/// Span tracing recorded as duration histograms.
pub mod span;
/// Pluggable time sources (`ManualTime`, `MonotonicTime`).
pub mod time;
/// Causal trace context (deterministic id derivation).
pub mod trace;

/// Chrome trace-event rendering for drained flight events.
pub use chrome::{render_chrome_trace, render_chrome_trace_with_lanes};
/// JSON string escaping shared with the bench snapshot writer.
pub use export::{
    escape_json, escape_label_value, json_f64, render_snapshot_json, render_span_breakdown,
    OPENMETRICS_CONTENT_TYPE,
};
/// The flight recorder and its drained event type.
pub use flight::{FlightEvent, FlightEventKind, FlightRecorder, NameId};
/// Worker-lane identity, contention accounting, and merged drains.
pub use lane::{
    merge_drained, BlockedSite, Lane, LaneBlock, LaneId, LaneSummary, LaneWork, Lanes, MergedDrain,
};
/// Lock-free instruments and the bucket-layout helpers for aggregators.
pub use metric::{
    bucket_midpoint, bucket_upper_edge, Counter, Exemplar, Gauge, Histogram, HistogramSnapshot,
    LocalHistogram,
};
/// The observability handle: registry, trace parent, and optional sinks.
pub use obs::{CycleSink, Obs};
/// Labeled metric families and snapshots.
pub use registry::{
    CounterSnapshot, GaugeSnapshot, HistogramFamilySnapshot, Labels, Registry, RegistrySnapshot,
};
/// The one lock-free record ring and its string interner.
pub use ring::{Interner, SeqRing};
/// Span tracing.
pub use span::{SpanGuard, Tracer, SPAN_LABEL, SPAN_METRIC};
/// Pluggable clocks.
pub use time::{Clock, ManualTime, MonotonicTime, TimeSource};
/// Causal trace identity carried across layer boundaries, the
/// SplitMix64 mix shared with deterministic sampling policies, and the
/// FNV-1a hash behind stable names, shards and routes.
pub use trace::{fnv1a64, mix64, TraceContext};
