//! Deterministic profiling over the flight-recorder span stream.
//!
//! `augur-profile` turns [`augur_telemetry::FlightRecorder`] drains into
//! cost-attributed stack profiles — the attribution layer the paper's
//! timeliness constraint (§4) demands: knowing *where* a frame budget
//! went, not just that it was blown.
//!
//! The crate has four parts:
//!
//! - [`Profile`] ([`fold`]): folds drained span events into
//!   inclusive/exclusive modeled-time per stack path, with top-down
//!   ([`Profile::top_down`]) and bottom-up ([`Profile::bottom_up`])
//!   views. All aggregation uses ordered maps, so two drains of the
//!   same event stream fold identically.
//! - Exporters ([`export`]): collapsed/folded stacks
//!   ([`Profile::render_folded`], the `flamegraph.pl`/inferno input
//!   format) and speedscope JSON ([`Profile::render_speedscope`]).
//!   Under [`augur_telemetry::ManualTime`] both are byte-identical for
//!   a fixed seed.
//! - Differential profiling ([`diff`]): parse two folded profiles,
//!   rank frames by self-time delta ([`diff::diff_folded`]), and render
//!   the verdict — `augur-doctor --profile-diff` wires this into the
//!   regression gate so a failing gate names the responsible frame.
//! - Allocation accounting ([`alloc`]): a counting `#[global_allocator]`
//!   wrapper (feature `global-alloc`, bins/tests only) tagging
//!   allocation counts/bytes to the active profiling scope, exported as
//!   registry counters and renderable as a bytes-weighted flamegraph.
//!
//! # Example
//!
//! ```
//! use augur_profile::Profile;
//! use augur_telemetry::{FlightRecorder, TraceContext};
//!
//! let rec = FlightRecorder::new(64);
//! let root = TraceContext::root(7, 1);
//! let run = rec.intern("run");
//! let stage = rec.intern("run/stage");
//! rec.record_span(root.child_named("run/stage"), stage, 0, 30);
//! rec.record_span(root, run, 0, 100);
//! let profile = Profile::from_events(&rec.drain());
//! assert_eq!(profile.render_folded(), "run 70\nrun;run/stage 30\n");
//! ```

/// Allocation accounting: the counting allocator and scope tagging.
pub mod alloc;
/// Differential profiling: parse, diff, and rank folded profiles.
pub mod diff;
mod export;
mod fold;

/// Scope-tagged allocation accounting (see [`alloc`]).
pub use alloc::{
    counting_enabled, export_alloc_to_registry, register_scope, AllocCapture, AllocScope,
    AllocSnapshot, ScopeId, ScopeStat,
};
/// Folded-profile diffing (see [`diff`]).
pub use diff::{diff_folded, parse_folded, render_diff_markdown, FrameDelta};
/// The span-tree aggregator and its per-path/per-frame views.
pub use fold::{FrameStat, PathStat, Profile};

/// Errors surfaced by the profile layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// A folded-stack line did not match `path<space>value`.
    MalformedFolded {
        /// 1-based line number of the offending line.
        line: usize,
    },
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::MalformedFolded { line } => {
                write!(
                    f,
                    "malformed folded stack at line {line}: expected `path<space>integer`"
                )
            }
        }
    }
}

impl std::error::Error for ProfileError {}
