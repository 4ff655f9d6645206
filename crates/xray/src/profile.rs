//! Deterministic profiling: drained flight events → per-stack-path
//! cost, rendered as flamegraphs.
//!
//! [`Profile::from_events`] folds the span forest into one aggregate per
//! stack *path* (the `;`-joined chain of span names from the root, the
//! unit flamegraph tooling works in). Each path carries inclusive
//! modeled time (the span's own duration), exclusive self time
//! (duration minus the duration of its direct children, counted by the
//! same span forest the critical-path and queueing analyses use), and
//! an occurrence count. The exporters render it as
//! collapsed/folded stacks ([`Profile::render_folded`], the
//! `flamegraph.pl`/inferno input format, and what `augur-doctor diff`
//! ranks frames from) and speedscope JSON
//! ([`Profile::render_speedscope`]). Per-name totals are
//! [`crate::XrayReport::stages`]: the same self time, summed by frame.
//!
//! Everything aggregates through [`BTreeMap`], so folding is a pure,
//! order-insensitive function of the drained events: two drains of the
//! same recorded stream — or two same-seed runs under
//! [`augur_telemetry::ManualTime`] — produce byte-identical artifacts.
//!
//! [`Profile::from_events`]: crate::profile::Profile::from_events
//! [`Profile::render_folded`]: crate::profile::Profile::render_folded
//! [`Profile::render_speedscope`]: crate::profile::Profile::render_speedscope
//!
//! ```
//! use augur_telemetry::{FlightRecorder, TraceContext};
//! use augur_xray::profile::Profile;
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

use std::collections::BTreeMap;

use augur_telemetry::FlightEvent;

use crate::tree::SpanForest;

mod export;

/// One stack path's aggregated cost (top-down view row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStat {
    /// `;`-joined span names from the root, e.g. `tourism;tourism/layout`.
    pub path: String,
    /// Total duration of spans at this path, microseconds.
    pub inclusive_us: u64,
    /// Duration not covered by direct children, microseconds.
    pub self_us: u64,
    /// How many spans folded into this path.
    pub count: u64,
}

#[derive(Debug, Default, Clone)]
struct PathAgg {
    inclusive_us: u64,
    self_us: u64,
    count: u64,
}

/// A folded profile: per-stack-path modeled-time aggregates. See the
/// module docs for semantics.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    paths: BTreeMap<String, PathAgg>,
}

/// Folded-format hygiene: path separators and value separators inside a
/// span name would corrupt the collapsed-stack output, so they are
/// rewritten at fold time and every view sees the sanitized name.
fn sanitize(name: &str) -> String {
    name.replace(';', ":").replace(' ', "_")
}

impl Profile {
    /// Folds a drained event slice into a profile. Only
    /// [`augur_telemetry::FlightEventKind::Span`] events participate;
    /// instants are skipped. A span whose parent is absent from the
    /// drain (dropped by the ring, or `parent_span_id == 0`) is treated
    /// as a root.
    pub fn from_events(events: &[FlightEvent]) -> Profile {
        let forest = SpanForest::build(events);
        let mut paths: BTreeMap<String, PathAgg> = BTreeMap::new();
        for (idx, node) in forest.nodes().iter().enumerate() {
            let path = forest
                .ancestry(idx)
                .into_iter()
                .filter_map(|i| forest.nodes().get(i))
                .map(|n| sanitize(&n.name))
                .collect::<Vec<String>>()
                .join(";");
            let agg = paths.entry(path).or_default();
            agg.inclusive_us = agg.inclusive_us.saturating_add(node.dur_us);
            agg.self_us = agg.self_us.saturating_add(forest.self_us(idx));
            agg.count += 1;
        }
        Profile { paths }
    }

    /// True when no span folded in.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Sum of exclusive self time over every path — by construction
    /// equal to the summed inclusive time of the root spans whenever
    /// children nest inside their parents (the proptest invariant).
    pub fn total_self_us(&self) -> u64 {
        self.paths.values().map(|a| a.self_us).sum()
    }

    /// Summed inclusive time of root paths (paths with no `;`).
    pub fn root_inclusive_us(&self) -> u64 {
        self.paths
            .iter()
            .filter(|(p, _)| !p.contains(';'))
            .map(|(_, a)| a.inclusive_us)
            .sum()
    }

    /// Top-down view: one row per stack path, in path order.
    pub fn top_down(&self) -> Vec<PathStat> {
        self.paths
            .iter()
            .map(|(path, a)| PathStat {
                path: path.clone(),
                inclusive_us: a.inclusive_us,
                self_us: a.self_us,
                count: a.count,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_telemetry::{FlightRecorder, TraceContext};

    fn tree_events() -> Vec<FlightEvent> {
        let rec = FlightRecorder::new(64);
        let root = TraceContext::root(42, 1);
        let run = rec.intern("run");
        let a = rec.intern("a");
        let b = rec.intern("b");
        let leaf = rec.intern("leaf");
        let ctx_a = root.child_named("a");
        rec.record_span(ctx_a.child_named("leaf"), leaf, 0, 10);
        rec.record_span(ctx_a, a, 0, 40);
        rec.record_span(root.child_named("b"), b, 40, 25);
        rec.record_span(root, run, 0, 100);
        rec.drain()
    }

    #[test]
    fn folds_inclusive_and_exclusive() {
        let profile = Profile::from_events(&tree_events());
        let rows = profile.top_down();
        let by_path: BTreeMap<&str, &PathStat> =
            rows.iter().map(|r| (r.path.as_str(), r)).collect();
        assert_eq!(by_path["run"].inclusive_us, 100);
        assert_eq!(by_path["run"].self_us, 35, "100 - (40 + 25)");
        assert_eq!(by_path["run;a"].self_us, 30, "40 - 10");
        assert_eq!(by_path["run;a;leaf"].self_us, 10);
        assert_eq!(by_path["run;b"].self_us, 25);
        assert_eq!(profile.total_self_us(), profile.root_inclusive_us());
    }

    #[test]
    fn orphan_spans_become_roots() {
        let rec = FlightRecorder::new(8);
        let n = rec.intern("orphan");
        let ctx = TraceContext::root(1, 1).child_named("x");
        rec.record_span(ctx, n, 0, 5);
        let profile = Profile::from_events(&rec.drain());
        assert_eq!(profile.top_down()[0].path, "orphan");
        assert_eq!(profile.root_inclusive_us(), 5);
    }

    #[test]
    fn sanitizes_separator_characters() {
        let rec = FlightRecorder::new(8);
        let n = rec.intern("weird;name with space");
        rec.record_span(TraceContext::root(1, 2), n, 0, 5);
        let profile = Profile::from_events(&rec.drain());
        assert_eq!(profile.top_down()[0].path, "weird:name_with_space");
    }

    #[test]
    fn instants_are_ignored() {
        let rec = FlightRecorder::new(8);
        let n = rec.intern("i");
        rec.record_instant(TraceContext::root(1, 3), n, 0, 9);
        assert!(Profile::from_events(&rec.drain()).is_empty());
    }
}
