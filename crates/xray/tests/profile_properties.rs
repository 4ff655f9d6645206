//! Property-based tests for the profile fold: conservation of modeled
//! time, byte-determinism of the exported artifacts, and agreement with
//! the xray stage model on self time, over arbitrary span trees —
//! orphaned spans and duplicate span ids included.

use std::collections::BTreeMap;

use augur_telemetry::{FlightEvent, FlightRecorder, TraceContext};
use augur_xray::profile::Profile;
use proptest::prelude::*;

/// One node of a random span tree: (raw parent pick, exclusive modeled
/// work, name selector, fault selector). Node 0 is the root; node
/// `i > 0` attaches to node `raw % i`, so parents always precede
/// children.
type Shape = Vec<(usize, u64, u8, u8)>;

/// Records `shape` as a span tree on a fresh flight ring and drains it.
/// Inclusive durations are built bottom-up so every parent's duration
/// covers exactly its own work plus its children's — the invariant the
/// fold is supposed to recover. With `faults`, a node whose fault
/// selector is 0 mod 8 is recorded as an orphan (its parent id names no
/// recorded span) and one at 1 mod 8 reuses the span id and parent of
/// the node its raw pick names (a duplicate id).
fn record(shape: &Shape, faults: bool) -> Vec<FlightEvent> {
    let n = shape.len();
    let mut parents = vec![0usize; n];
    let mut incl: Vec<u64> = shape.iter().map(|&(_, work, _, _)| work).collect();
    for i in (1..n).rev() {
        parents[i] = shape[i].0 % i;
        incl[parents[i]] += incl[i];
    }
    let root = TraceContext::root(42, 0x505);
    let rec = FlightRecorder::new(4096);
    let mut ctxs: Vec<TraceContext> = Vec::with_capacity(n);
    for (i, &(_, _, name_sel, fault)) in shape.iter().enumerate() {
        let ctx = match (i, faults.then_some(fault % 8)) {
            (0, _) => root,
            (_, Some(0)) => root.child(u64::MAX).child(i as u64),
            (_, Some(1)) => ctxs[parents[i]],
            _ => ctxs[parents[i]].child(i as u64),
        };
        ctxs.push(ctx);
        let id = rec.intern(&format!("stage{}", name_sel % 4));
        rec.record_span(ctx, id, i as u64 * 1_000_000, incl[i]);
    }
    rec.drain()
}

/// Sums `(leaf frame, value)` pairs into a per-frame map.
fn by_leaf<'a>(rows: impl Iterator<Item = (&'a str, u64)>) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (path, value) in rows {
        let leaf = path.rsplit(';').next().unwrap_or(path);
        *out.entry(leaf.to_string()).or_insert(0) += value;
    }
    out
}

/// The folded text's `(path, self_us)` lines.
fn folded_rows(folded: &str) -> Vec<(&str, u64)> {
    folded
        .lines()
        .map(|line| {
            let (path, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| unreachable!("folded line {line:?}"));
            let value = value
                .parse()
                .unwrap_or_else(|e| unreachable!("folded weight {value:?}: {e}"));
            (path, value)
        })
        .collect()
}

proptest! {
    /// Modeled time is conserved by the fold: the sum of every path's
    /// exclusive self-time equals the root's inclusive time, which by
    /// construction is the sum of all nodes' exclusive work.
    #[test]
    fn exclusive_self_times_sum_to_root_inclusive(
        shape in prop::collection::vec((0usize..64, 1u64..1_000, 0u8..=255, 0u8..=255), 1..40),
    ) {
        let profile = Profile::from_events(&record(&shape, false));
        let total_work: u64 = shape.iter().map(|&(_, w, _, _)| w).sum();
        prop_assert_eq!(profile.total_self_us(), total_work);
        prop_assert_eq!(profile.root_inclusive_us(), total_work);
    }

    /// Two independent recordings of the same tree produce byte-identical
    /// folded and speedscope artifacts, and the folded text carries every
    /// microsecond of self time.
    #[test]
    fn artifacts_are_byte_identical_and_round_trip(
        shape in prop::collection::vec((0usize..64, 1u64..1_000, 0u8..=255, 0u8..=255), 1..40),
    ) {
        let a = Profile::from_events(&record(&shape, true));
        let b = Profile::from_events(&record(&shape, true));
        prop_assert_eq!(a.render_folded(), b.render_folded());
        prop_assert_eq!(a.render_speedscope("prop"), b.render_speedscope("prop"));
        let folded = a.render_folded();
        let folded_total: u64 = folded_rows(&folded).iter().map(|&(_, v)| v).sum();
        prop_assert_eq!(folded_total, a.total_self_us());
    }

    /// The flamegraph and the stage model count self time the same way:
    /// for every span name, the folded self time summed by leaf frame is
    /// the stage's busy time, and the folded span count its job count.
    #[test]
    fn folded_self_time_per_frame_matches_xray_stages(
        shape in prop::collection::vec((0usize..64, 1u64..1_000, 0u8..=255, 0u8..=255), 1..40),
    ) {
        let events = record(&shape, true);
        let profile = Profile::from_events(&events);
        let folded = profile.render_folded();
        let self_us = by_leaf(folded_rows(&folded).into_iter());
        let rows = profile.top_down();
        let counts = by_leaf(rows.iter().map(|r| (r.path.as_str(), r.count)));
        let stages = augur_xray::analyze("prop", &events, 0).stages;
        prop_assert_eq!(stages.len(), counts.len());
        for stage in &stages {
            prop_assert_eq!(self_us.get(&stage.name).copied().unwrap_or(0), stage.busy_us);
            prop_assert_eq!(counts.get(&stage.name).copied(), Some(stage.count));
        }
    }
}
