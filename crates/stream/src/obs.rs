//! One observability handle for a run.
//!
//! [`Obs`] bundles every place a pipeline or scenario run reports to:
//! the metric [`Registry`](augur_telemetry::Registry), the trace context
//! its runs hang off, and the optional flight ring, structured event
//! log, head sampler and worker lanes. A run takes one `&Obs`; a field
//! left `None` costs nothing, and [`Obs::default`] is a private registry
//! with every sink off.
//!
//! Derive a variant with struct-update syntax, e.g. to hang one pipeline
//! under its own parent while sharing the caller's sinks:
//!
//! ```
//! use augur_stream::Obs;
//! use augur_telemetry::{FlightRecorder, TraceContext};
//!
//! let obs = Obs {
//!     flight: Some(FlightRecorder::new(1 << 10)),
//!     ..Obs::default()
//! };
//! let child = Obs {
//!     parent: TraceContext::root(7, 1),
//!     ..obs.clone()
//! };
//! assert!(child.flight.is_some());
//! ```

use augur_log::EventLog;
use augur_sample::Sampler;
use augur_telemetry::{FlightRecorder, Lanes, Registry, TraceContext};

/// Where a run reports: see the module docs. Cloning shares every sink.
#[derive(Debug, Clone)]
pub struct Obs {
    /// Receives counters, histograms and stage spans.
    pub registry: Registry,
    /// The causal parent of everything the run records: pipeline runs
    /// become its children on the flight ring and in the log alike.
    /// Scenarios root their own traces from their seed and hang their
    /// pipelines under that root instead.
    pub parent: TraceContext,
    /// Causal span/instant ring.
    pub flight: Option<FlightRecorder>,
    /// Structured event log of the run's decisions.
    pub log: Option<EventLog>,
    /// Head-sampling policy applied to flight contexts (log records are
    /// never sampled: WARN+ decisions must survive).
    pub sampler: Option<Sampler>,
    /// Worker-lane registry for continuous-mode threads.
    pub lanes: Option<Lanes>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs {
            registry: Registry::new(),
            parent: TraceContext::root(0, 0),
            flight: None,
            log: None,
            sampler: None,
            lanes: None,
        }
    }
}
