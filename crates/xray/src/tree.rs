//! Span-forest reconstruction: drained flight events → parent-linked
//! trees.
//!
//! [`SpanForest::build`] is the one place the workspace turns a flat
//! [`FlightEvent`] drain back into its causal tree shape, and
//! [`SpanForest::self_us`] the one place it counts a span's exclusive
//! time. The flamegraph fold ([`crate::profile`]) and the critical-path,
//! queueing and lane analyses all consume it, so they agree on every
//! structural convention:
//!
//! - only [`FlightEventKind::Span`] events participate; instants are
//!   skipped,
//! - the **first** drained occurrence of a span id resolves parent
//!   links (duplicate-id spans still fold as extra nodes under that
//!   first occurrence's parent),
//! - a span whose parent is absent from the drain (dropped by the
//!   ring, or `parent_span_id == 0`), or that parents itself, is a
//!   root,
//! - ancestry walks are capped at [`MAX_DEPTH`] hops so a corrupt
//!   drain with cyclic parent links cannot loop an analysis.
//!
//! The forest is a pure, order-insensitive-where-it-matters function of
//! the drained events: node order follows drain order, and two drains
//! of the same recorded stream produce identical forests.

use std::collections::BTreeMap;

use augur_telemetry::{FlightEvent, FlightEventKind, LaneId};

/// Caps ancestry walks so a corrupt drain (cyclic parent links) cannot
/// loop a fold or a critical-path extraction.
pub(crate) const MAX_DEPTH: usize = 64;

/// One span event resolved into the forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SpanNode {
    /// Causal chain identity.
    pub(crate) trace_id: u64,
    /// This span's id.
    pub(crate) span_id: u64,
    /// Resolved span name (unsanitized — views apply their own hygiene).
    pub(crate) name: String,
    /// Start time, microseconds.
    pub(crate) start_us: u64,
    /// Duration, microseconds.
    pub(crate) dur_us: u64,
    /// The worker lane that recorded the span.
    pub(crate) lane: LaneId,
    /// Index of the parent node, or `None` for a root.
    pub(crate) parent: Option<usize>,
    /// Indices of child nodes, in drain order.
    pub(crate) children: Vec<usize>,
}

impl SpanNode {
    /// End time (`start + dur`), saturating.
    pub(crate) fn end_us(&self) -> u64 {
        self.start_us.saturating_add(self.dur_us)
    }
}

/// A reconstructed span forest; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanForest {
    nodes: Vec<SpanNode>,
    roots: Vec<usize>,
}

impl SpanForest {
    /// Builds the forest from a drained event slice.
    pub(crate) fn build(events: &[FlightEvent]) -> SpanForest {
        // First drained occurrence wins on span-id collisions: parents
        // resolve to it, matching the historical fold semantics.
        let mut first_by_id: BTreeMap<u64, usize> = BTreeMap::new();
        let mut nodes: Vec<SpanNode> = Vec::new();
        for ev in events {
            if ev.kind != FlightEventKind::Span {
                continue;
            }
            let idx = nodes.len();
            first_by_id.entry(ev.span_id).or_insert(idx);
            nodes.push(SpanNode {
                trace_id: ev.trace_id,
                span_id: ev.span_id,
                name: ev.name.clone(),
                start_us: ev.ts_us,
                dur_us: ev.dur_us,
                lane: ev.lane,
                parent: None,
                children: Vec::new(),
            });
        }
        let mut roots = Vec::new();
        let parent_of: Vec<Option<usize>> = events
            .iter()
            .filter(|ev| ev.kind == FlightEventKind::Span)
            .map(|ev| {
                if ev.parent_span_id == 0 || ev.parent_span_id == ev.span_id {
                    None
                } else {
                    first_by_id.get(&ev.parent_span_id).copied()
                }
            })
            .collect();
        for (idx, parent) in parent_of.iter().enumerate() {
            match parent {
                Some(p) => {
                    if let Some(node) = nodes.get_mut(idx) {
                        node.parent = Some(*p);
                    }
                }
                None => roots.push(idx),
            }
        }
        for (idx, parent) in parent_of.into_iter().enumerate() {
            if let Some(p) = parent {
                if let Some(node) = nodes.get_mut(p) {
                    node.children.push(idx);
                }
            }
        }
        SpanForest { nodes, roots }
    }

    /// All nodes, in drain order.
    pub(crate) fn nodes(&self) -> &[SpanNode] {
        &self.nodes
    }

    /// Indices of the root nodes, in drain order.
    pub(crate) fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Ancestry of `idx`, root first and `idx` last, capped at
    /// [`MAX_DEPTH`] nodes (the cycle guard). Returns an empty chain for
    /// an out-of-range index.
    pub(crate) fn ancestry(&self, idx: usize) -> Vec<usize> {
        let mut chain = Vec::new();
        let mut cursor = Some(idx);
        while let Some(i) = cursor {
            let Some(node) = self.nodes.get(i) else {
                break;
            };
            chain.push(i);
            if chain.len() >= MAX_DEPTH {
                break;
            }
            cursor = node.parent;
        }
        chain.reverse();
        chain
    }

    /// Exclusive self time of `idx`: its duration minus the summed
    /// duration of its direct children, saturating at zero. Duplicate-id
    /// children hang under the first occurrence, so that occurrence is
    /// the one they are charged to. Returns 0 for an out-of-range index.
    pub(crate) fn self_us(&self, idx: usize) -> u64 {
        let Some(node) = self.nodes.get(idx) else {
            return 0;
        };
        let children = node
            .children
            .iter()
            .filter_map(|c| self.nodes.get(*c))
            .fold(0u64, |acc, c| acc.saturating_add(c.dur_us));
        node.dur_us.saturating_sub(children)
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
        let leaf = rec.intern("leaf");
        let ctx_a = root.child_named("a");
        rec.record_span(ctx_a.child_named("leaf"), leaf, 0, 10);
        rec.record_span(ctx_a, a, 0, 40);
        rec.record_span(root, run, 0, 100);
        rec.drain()
    }

    #[test]
    fn builds_parent_links_and_roots() {
        let forest = SpanForest::build(&tree_events());
        assert_eq!(forest.nodes().len(), 3);
        assert_eq!(forest.roots().len(), 1);
        let root = forest.roots()[0];
        assert_eq!(forest.nodes()[root].name, "run");
        // leaf → a → run ancestry resolves through out-of-order drains.
        let leaf_idx = forest
            .nodes()
            .iter()
            .position(|n| n.name == "leaf")
            .unwrap_or(usize::MAX);
        let chain: Vec<&str> = forest
            .ancestry(leaf_idx)
            .into_iter()
            .map(|i| forest.nodes()[i].name.as_str())
            .collect();
        assert_eq!(chain, vec!["run", "a", "leaf"]);
        assert_eq!(forest.self_us(root), 60);
        assert_eq!(forest.self_us(leaf_idx), 10);
    }

    #[test]
    fn orphans_and_self_parents_are_roots() {
        let rec = FlightRecorder::new(8);
        let n = rec.intern("orphan");
        let ctx = TraceContext::root(1, 1).child_named("x");
        rec.record_span(ctx, n, 0, 5);
        let forest = SpanForest::build(&rec.drain());
        assert_eq!(forest.roots().len(), 1);
        assert!(forest.nodes()[0].parent.is_none());
    }

    #[test]
    fn instants_do_not_participate() {
        let rec = FlightRecorder::new(8);
        let n = rec.intern("i");
        rec.record_instant(TraceContext::root(1, 3), n, 0, 9);
        assert!(SpanForest::build(&rec.drain()).nodes().is_empty());
    }

    #[test]
    fn cyclic_parent_links_are_capped() {
        // Forge a two-node cycle: a ↔ b (possible only in a corrupt
        // drain; the guard keeps ancestry finite).
        let ev = |span_id: u64, parent: u64, name: &str| FlightEvent {
            trace_id: 7,
            span_id,
            parent_span_id: parent,
            name: name.to_string(),
            kind: FlightEventKind::Span,
            ts_us: 0,
            dur_us: 1,
            arg: 0,
            lane: LaneId::CONTROL,
        };
        let forest = SpanForest::build(&[ev(1, 2, "a"), ev(2, 1, "b")]);
        assert!(forest.roots().is_empty());
        assert_eq!(forest.ancestry(0).len(), MAX_DEPTH);
    }
}
