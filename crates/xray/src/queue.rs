//! Per-stage queueing/utilization model over the span forest.
//!
//! Every span *name* is treated as a service station: its spans are the
//! jobs it served. From the drain alone we get the arrival rate λ
//! (spans per second of makespan), the mean service time S (exclusive
//! self time per span), and the utilization ρ (busy time over
//! makespan). An M/M/1 approximation then estimates the queueing wait
//! `Wq = ρ/(1−ρ)·S` — a *model*, not a measurement, but one that turns
//! "this stage is 80% utilized" into "jobs wait 4× their service time",
//! which is the form a sharding decision needs. All arithmetic is
//! straight IEEE float ops over integer inputs, so reports are
//! byte-stable across runs.

use std::collections::BTreeMap;

use crate::tree::SpanForest;
use crate::{StageStat, BLOCKED_PREFIX};

/// Utilization is clamped below 1 before the M/M/1 wait formula so a
/// saturated stage reports a large finite wait instead of ∞.
const RHO_CLAMP: f64 = 0.99;

/// Builds per-name stage stats plus the pipelining speedup bound
/// (total busy time over the busiest single stage). Returns
/// `(stages, makespan_us, stage_bound)`.
pub(crate) fn stage_stats(forest: &SpanForest) -> (Vec<StageStat>, u64, f64) {
    #[derive(Default)]
    struct Accum {
        count: u64,
        busy_us: u64,
        blocked_us: u64,
    }
    let mut per_name: BTreeMap<String, Accum> = BTreeMap::new();
    let mut min_start = u64::MAX;
    let mut max_end = 0u64;
    for (idx, node) in forest.nodes().iter().enumerate() {
        min_start = min_start.min(node.start_us);
        max_end = max_end.max(node.end_us());
        let slot = per_name.entry(node.name.clone()).or_default();
        slot.count += 1;
        slot.busy_us = slot.busy_us.saturating_add(forest.self_us(idx));
    }
    // Measured contention attribution: a `blocked/…` span charges its
    // duration to the *stage it interrupted* — its parent span's name.
    for node in forest.nodes() {
        if !node.name.starts_with(BLOCKED_PREFIX) {
            continue;
        }
        let Some(parent_name) = node
            .parent
            .and_then(|p| forest.nodes().get(p))
            .map(|p| p.name.as_str())
        else {
            continue;
        };
        if let Some(slot) = per_name.get_mut(parent_name) {
            slot.blocked_us = slot.blocked_us.saturating_add(node.dur_us);
        }
    }
    let makespan_us = max_end.saturating_sub(min_start);
    let mut total_busy = 0u64;
    let mut max_busy = 0u64;
    let mut stages = Vec::with_capacity(per_name.len());
    for (name, acc) in per_name {
        total_busy = total_busy.saturating_add(acc.busy_us);
        max_busy = max_busy.max(acc.busy_us);
        stages.push(model(
            name,
            acc.count,
            acc.busy_us,
            acc.blocked_us,
            makespan_us,
        ));
    }
    let stage_bound = if max_busy > 0 {
        total_busy as f64 / max_busy as f64
    } else {
        1.0
    };
    (stages, makespan_us, stage_bound)
}

/// Fills in the M/M/1 readout for one station.
fn model(name: String, count: u64, busy_us: u64, blocked_us: u64, makespan_us: u64) -> StageStat {
    let (arrival_per_s, service_us, utilization) = if makespan_us > 0 && count > 0 {
        (
            count as f64 / (makespan_us as f64 / 1_000_000.0),
            busy_us as f64 / count as f64,
            busy_us as f64 / makespan_us as f64,
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    let rho = utilization.min(RHO_CLAMP);
    let queue_wait_us = if rho > 0.0 && service_us > 0.0 {
        rho / (1.0 - rho) * service_us
    } else {
        0.0
    };
    let queue_wait_share = if queue_wait_us > 0.0 {
        queue_wait_us / (queue_wait_us + service_us)
    } else {
        0.0
    };
    let busy_plus_blocked = busy_us.saturating_add(blocked_us);
    let blocked_share = if busy_plus_blocked > 0 {
        blocked_us as f64 / busy_plus_blocked as f64
    } else {
        0.0
    };
    StageStat {
        name,
        count,
        busy_us,
        arrival_per_s,
        service_us,
        utilization,
        queue_wait_us,
        queue_wait_share,
        blocked_us,
        blocked_share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_telemetry::{FlightRecorder, TraceContext};

    #[test]
    fn utilization_and_wait_follow_busy_share() {
        let rec = FlightRecorder::new(64);
        let root = TraceContext::root(1, 1);
        let run = rec.intern("run");
        let work = rec.intern("work");
        // `work` is busy 50 of the 100 µs makespan → ρ = 0.5,
        // Wq = 0.5/0.5 · 25 = 25 µs, wait share 0.5.
        rec.record_span(root.child_named("w1"), work, 0, 25);
        rec.record_span(root.child_named("w2"), work, 50, 25);
        rec.record_span(root, run, 0, 100);
        let forest = SpanForest::build(&rec.drain());
        let (stages, makespan, bound) = stage_stats(&forest);
        assert_eq!(makespan, 100);
        let w = stages
            .iter()
            .find(|s| s.name == "work")
            .cloned()
            .unwrap_or_else(|| model(String::new(), 0, 0, 0, 0));
        assert_eq!(w.count, 2);
        assert_eq!(w.busy_us, 50);
        assert!((w.utilization - 0.5).abs() < 1e-12);
        assert!((w.service_us - 25.0).abs() < 1e-12);
        assert!((w.queue_wait_us - 25.0).abs() < 1e-9);
        assert!((w.queue_wait_share - 0.5).abs() < 1e-9);
        // run self = 50, work total = 50 → bound = 100/50 = 2.
        assert!((bound - 2.0).abs() < 1e-12);
    }

    #[test]
    fn saturated_stage_reports_finite_wait() {
        let rec = FlightRecorder::new(8);
        let hot = rec.intern("hot");
        rec.record_span(TraceContext::root(1, 2), hot, 0, 100);
        let forest = SpanForest::build(&rec.drain());
        let (stages, _, bound) = stage_stats(&forest);
        let s = &stages[0];
        assert!((s.utilization - 1.0).abs() < 1e-12);
        assert!(s.queue_wait_us.is_finite());
        assert!(s.queue_wait_us > 0.0);
        assert!((bound - 1.0).abs() < 1e-12, "single stage cannot pipeline");
    }

    #[test]
    fn empty_forest_yields_no_stages() {
        let forest = SpanForest::build(&[]);
        let (stages, makespan, bound) = stage_stats(&forest);
        assert!(stages.is_empty());
        assert_eq!(makespan, 0);
        assert!((bound - 1.0).abs() < 1e-12);
    }
}
