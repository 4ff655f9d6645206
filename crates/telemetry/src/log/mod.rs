//! The fourth observability pillar (after metrics, traces, and
//! profiles): a **deterministic structured event log** for the data
//! plane's decisions — why a record was shed, what triggered a
//! compaction, which offload plan won and on what rationale.
//!
//! - [`EventLog`]: leveled records with typed key-value fields
//!   ([`Value`]/[`Arg`]), timestamps from the caller's
//!   [`TimeSource`](crate::TimeSource), and automatic
//!   `trace_id`/`span_id` correlation from the
//!   [`TraceContext`](crate::TraceContext) already flowing
//!   through the pipeline. Records land in a bounded lock-free MPSC
//!   ring (telemetry's [`SeqRing`](crate::SeqRing), shared
//!   with the `FlightRecorder` — never blocks a hot path) with exact
//!   drop accounting:
//!   `drained + dropped == total_records` at quiescence.
//! - [`LogSite`]: per-call-site token buckets. A noisy WARN path
//!   suppresses deterministically under
//!   [`ManualTime`](crate::ManualTime) and counts what it
//!   suppressed instead of flooding the ring.
//! - Exporters: [`render_jsonl`] (canonical order — **byte-identical**
//!   across same-seed runs at any producer-thread count, a CI-diffable
//!   regression signal) and [`render_human`].
//!
//! ## Example
//!
//! ```
//! use augur_telemetry::log::{EventLog, Level, LogSite, Arg, render_jsonl};
//! use augur_telemetry::TraceContext;
//!
//! let log = EventLog::new(1024);
//! let site = LogSite::new(8, 100); // ≤8 burst, 100/s sustained
//! let frame = TraceContext::root(42, 7).child_named("frame");
//! log.event(
//!     &site,
//!     Level::Warn,
//!     frame,
//!     "pipeline/late_drop",
//!     1_500,
//!     &[("lag_us", Arg::U64(250)), ("reason", Arg::Str("watermark"))],
//! );
//! let records = log.drain();
//! let jsonl = render_jsonl(&records);
//! assert!(jsonl.contains("\"msg\":\"pipeline/late_drop\""));
//! assert_eq!(records[0].span_id, frame.span_id);
//! ```

/// JSONL and human exporters (the canonical-order determinism surface).
pub mod export;
/// Severity levels.
pub mod level;
/// The bounded lock-free log ring.
pub mod ring;
/// Per-call-site token-bucket rate limiting.
pub mod site;
/// The sanctioned console sink (see the `print-confined` audit rule).
pub mod writer;

/// Deterministic JSONL / human renderers over drained records.
pub use export::{canonical_order, render_human, render_jsonl, render_jsonl_line};
/// Severity levels (`Trace` through `Error`).
pub use level::Level;
/// The event log itself plus its record/field/value vocabulary.
pub use ring::{Arg, EventLog, FieldValue, LogRecord, SymId, Value, MAX_FIELDS};
/// Per-call-site token-bucket rate limiter.
pub use site::LogSite;
