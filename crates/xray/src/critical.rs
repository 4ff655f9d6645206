//! Critical-path extraction over a reconstructed span forest.
//!
//! Each trace root is a causally independent unit of work; within one
//! root tree the **critical path** is the longest causally-ordered
//! chain, found by walking backwards from the span's end through its
//! last-finishing child (the standard distributed-tracing reduction).
//! Time not covered by a child on the path is the parent's
//! *critical-path self time* — the quantity shortening which actually
//! shortens the end-to-end latency, as opposed to flat self time,
//! which also counts work hidden under concurrent siblings.

use std::collections::BTreeMap;

use crate::tree::{SpanForest, MAX_DEPTH};

/// Per-span-name accumulation over every extracted critical path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NameAccum {
    /// Critical-path self time attributed to the name, microseconds.
    pub self_us: u64,
    /// Spans of this name visited on a critical path.
    pub count: u64,
}

/// The result of extracting every root's critical path.
#[derive(Debug, Default)]
pub(crate) struct CriticalPaths {
    /// Per-name critical-path self time and visit count.
    pub per_name: BTreeMap<String, NameAccum>,
    /// Sum over roots of each root's critical-path length — the total
    /// causally-serialized work ("work" in the work/span law when every
    /// tree is internally sequential).
    pub work_us: u64,
    /// Longest single root critical path — the "span" in the work/span
    /// law: no schedule can finish faster than this.
    pub span_us: u64,
    /// Number of root trees walked.
    pub roots: u64,
}

/// Extracts the critical path of every root tree in `forest`.
pub(crate) fn extract(forest: &SpanForest) -> CriticalPaths {
    let mut out = CriticalPaths::default();
    for &root in forest.roots() {
        let cp = walk(forest, root, &mut out.per_name, 0);
        out.work_us = out.work_us.saturating_add(cp);
        out.span_us = out.span_us.max(cp);
        out.roots += 1;
    }
    out
}

/// Backwards walk from `idx`'s end: children are visited last-finishing
/// first; a child whose end overruns the cursor is concurrent with a
/// later-finishing sibling already on the path and is skipped. Gaps
/// between covered child intervals are the parent's critical-path self
/// time. Returns the critical-path length of the subtree.
fn walk(
    forest: &SpanForest,
    idx: usize,
    per_name: &mut BTreeMap<String, NameAccum>,
    depth: usize,
) -> u64 {
    let Some(node) = forest.nodes().get(idx) else {
        return 0;
    };
    let mut cp = 0u64;
    let mut cursor = node.end_us();
    if depth < MAX_DEPTH {
        // Deterministic order: last-finishing first, earliest-starting
        // breaks end ties (covers the longer interval), span id last.
        let mut kids: Vec<usize> = node.children.clone();
        kids.sort_by(|a, b| {
            let (na, nb) = match (forest.nodes().get(*a), forest.nodes().get(*b)) {
                (Some(na), Some(nb)) => (na, nb),
                _ => return std::cmp::Ordering::Equal,
            };
            nb.end_us()
                .cmp(&na.end_us())
                .then_with(|| na.start_us.cmp(&nb.start_us))
                .then_with(|| na.span_id.cmp(&nb.span_id))
        });
        for k in kids {
            let Some(kid) = forest.nodes().get(k) else {
                continue;
            };
            if kid.end_us() > cursor {
                continue; // concurrent with a sibling already on the path
            }
            let gap = cursor.saturating_sub(kid.end_us());
            cp = cp.saturating_add(gap);
            charge(per_name, &node.name, gap, 0);
            cp = cp.saturating_add(walk(forest, k, per_name, depth + 1));
            cursor = kid.start_us.max(node.start_us);
        }
    }
    let head_gap = cursor.saturating_sub(node.start_us);
    cp = cp.saturating_add(head_gap);
    charge(per_name, &node.name, head_gap, 1);
    cp
}

/// Adds `self_us` (and `count` visits) to `name`'s accumulator.
fn charge(per_name: &mut BTreeMap<String, NameAccum>, name: &str, self_us: u64, count: u64) {
    let slot = per_name.entry(name.to_string()).or_default();
    slot.self_us = slot.self_us.saturating_add(self_us);
    slot.count += count;
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_telemetry::{FlightRecorder, TraceContext};

    #[test]
    fn sequential_children_cover_the_parent() {
        let rec = FlightRecorder::new(64);
        let root = TraceContext::root(1, 1);
        let run = rec.intern("run");
        let a = rec.intern("a");
        let b = rec.intern("b");
        rec.record_span(root.child_named("a"), a, 0, 40);
        rec.record_span(root.child_named("b"), b, 40, 60);
        rec.record_span(root, run, 0, 100);
        let forest = SpanForest::build(&rec.drain());
        let cp = extract(&forest);
        assert_eq!(cp.span_us, 100);
        assert_eq!(cp.work_us, 100);
        assert_eq!(cp.roots, 1);
        let self_of = |n: &str| cp.per_name.get(n).copied().unwrap_or_default().self_us;
        assert_eq!(self_of("run"), 0, "fully covered by children");
        assert_eq!(self_of("a"), 40);
        assert_eq!(self_of("b"), 60);
    }

    #[test]
    fn concurrent_children_keep_only_the_last_finisher() {
        let rec = FlightRecorder::new(64);
        let root = TraceContext::root(1, 2);
        let run = rec.intern("run");
        let fast = rec.intern("fast");
        let slow = rec.intern("slow");
        // Both children start at 0; `slow` finishes last and owns the
        // critical path; `fast` is hidden concurrency.
        rec.record_span(root.child_named("fast"), fast, 0, 30);
        rec.record_span(root.child_named("slow"), slow, 0, 90);
        rec.record_span(root, run, 0, 100);
        let forest = SpanForest::build(&rec.drain());
        let cp = extract(&forest);
        assert_eq!(cp.span_us, 100);
        let acc = |n: &str| cp.per_name.get(n).copied().unwrap_or_default();
        assert_eq!(acc("slow").self_us, 90);
        assert_eq!(acc("fast").self_us, 0, "off the critical path");
        assert_eq!(acc("run").self_us, 10, "only the 90→100 tail");
    }

    #[test]
    fn independent_roots_sum_into_work_and_max_into_span() {
        let rec = FlightRecorder::new(64);
        let f = rec.intern("frame");
        rec.record_span(TraceContext::root(1, 10), f, 0, 30);
        rec.record_span(TraceContext::root(1, 11), f, 30, 50);
        let forest = SpanForest::build(&rec.drain());
        let cp = extract(&forest);
        assert_eq!(cp.roots, 2);
        assert_eq!(cp.work_us, 80);
        assert_eq!(cp.span_us, 50);
    }
}
