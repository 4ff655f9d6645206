//! The ninth observability pillar: **deterministic trace sampling** and
//! **observability self-cost accounting**, so the other eight pillars
//! stay byte-deterministic and cheap at city scale (the paper's §1
//! Volume/Velocity argument applied to the instrumentation itself).
//!
//! Three cooperating pieces:
//!
//! - [`Sampler`]: a deterministic head-sampling policy. The verdict for
//!   a trace is a pure function of `(seed, trace_id)` — a SplitMix64
//!   hash ([`crate::mix64`], the same mix that derives trace
//!   ids) reduced modulo the configured rate — so the same trace is
//!   sampled identically on every lane, in every interleaving, on every
//!   run. Applied by flipping [`TraceContext::sampled`]; the flight
//!   recorder already skips unsampled contexts on its wait-free path.
//! - [`TailReservoir`]: tail-based retention. Head sampling keeps a
//!   uniform slice; the reservoir keeps what an operator actually wants
//!   to read — the K slowest traces per window plus every WARN+/error
//!   trace — under a total order of `(duration, SplitMix64 key,
//!   trace_id)` that makes the kept set independent of offer order.
//!   Drained traces carry their flight events, ready for the existing
//!   Chrome/Perfetto export.
//! - [`SelfCost`] / [`ObsCostModel`]: `augur_obs_*` counters (events
//!   admitted/dropped/bytes, estimated record-path time from calibrated
//!   per-op costs) and the `obs_overhead_share` gauge, graded against
//!   [`OBS_OVERHEAD_BUDGET`] (≤1% of busy time) by a RatioBelow SLO and
//!   the doctor gate. Scaling the model
//!   ([`ObsCostModel::scaled`](crate::sample::ObsCostModel::scaled))
//!   inflates it deterministically so CI can prove the alarm fires.
//!
//! ## Example
//!
//! ```
//! use augur_telemetry::sample::{Sampler, TailReservoir};
//! use augur_telemetry::TraceContext;
//!
//! let sampler = Sampler::new(42, 64); // keep 1 trace in 64
//! let mut reservoir = TailReservoir::new(42, 2);
//! for frame in 0..256u64 {
//!     let ctx = sampler.apply(TraceContext::root(42, frame));
//!     // ... record spans; unsampled contexts cost nothing ...
//!     reservoir.offer(ctx.trace_id, 1_000 + frame, frame == 9, Vec::new());
//! }
//! assert!(sampler.admitted() > 0 && sampler.rejected() > 0);
//! let kept = reservoir.drain();
//! // The two slowest frames and the error frame survive regardless of
//! // the head-sampling verdicts.
//! assert_eq!(kept.len(), 3);
//! assert!(kept.iter().any(|t| t.error));
//! ```

/// Observability self-cost accounting (`augur_obs_*` counters).
pub mod cost;
/// Tail-based retention of slow and error-bearing traces.
pub mod reservoir;
/// The deterministic head-sampling policy.
pub mod sampler;

/// Self-cost meter, calibrated cost model, and the `augur_obs_*` /
/// `obs_overhead_share` series names it maintains.
pub use cost::{
    ObsCostModel, SelfCost, OBS_BUSY_NS_TOTAL, OBS_BYTES_TOTAL, OBS_DROPPED_TOTAL,
    OBS_EVENTS_TOTAL, OBS_OVERHEAD_BUDGET, OBS_OVERHEAD_SHARE, OBS_RECORD_NS_TOTAL,
};
/// The bounded tail reservoir and its drained-trace record.
pub use reservoir::{retained_events, RetainedTrace, TailReservoir};
/// The head-sampling policy.
pub use sampler::Sampler;
