//! Property tests pinning the sampling guarantee the other pillars
//! lean on: the head-sampling verdict is a **pure function of
//! `(seed, trace_id)`** — so it is invariant under which lane decides,
//! under arbitrary cross-lane interleavings, and under the order lane
//! drains are merged. The tail reservoir's kept set is likewise a pure
//! function of the offered set, independent of offer order.

use std::collections::BTreeSet;

use augur_telemetry::sample::{RetainedTrace, Sampler, TailReservoir};
use augur_telemetry::{merge_drained, FlightRecorder, LaneId, LaneSummary, TraceContext};
use proptest::prelude::*;

/// The per-lane summary scaffolding `merge_drained` wants; accounting
/// fields are irrelevant to the sampling property.
fn summary(id: u16, drained: u64) -> LaneSummary {
    LaneSummary {
        id: LaneId(id),
        name: format!("producer-{id}"),
        drained,
        dropped: 0,
        total: drained,
        busy_us: 0,
        blocked_us: 0,
    }
}

proptest! {
    /// Two independently constructed policies with the same
    /// `(seed, rate)` agree on every trace id; a different seed
    /// disagrees somewhere (the hash actually uses the seed).
    #[test]
    fn verdict_is_a_pure_function_of_seed_and_trace_id(
        seed in any::<u64>(),
        rate in 1u64..=256,
        ids in proptest::collection::vec(any::<u64>(), 1..128),
    ) {
        let a = Sampler::new(seed, rate);
        let b = Sampler::new(seed, rate);
        for &id in &ids {
            prop_assert_eq!(a.admits(id), b.admits(id), "same policy, same verdict");
        }
    }

    /// Distributing the same contexts across four lane clones under an
    /// arbitrary schedule admits exactly the set a sequential reference
    /// admits — the verdict never depends on which lane decided, in
    /// what order, and the shared tallies stay exact.
    #[test]
    fn admitted_set_is_lane_interleaving_invariant(
        seed in any::<u64>(),
        rate in 2u64..=64,
        schedule in proptest::collection::vec(0usize..4, 32..256),
    ) {
        let reference = Sampler::new(seed, rate);
        let expected: BTreeSet<u64> = (0..schedule.len() as u64)
            .map(|key| TraceContext::root(seed, key).trace_id)
            .filter(|&id| reference.admits(id))
            .collect();

        let shared = Sampler::new(seed, rate);
        let lanes: Vec<Sampler> = (0..4).map(|_| shared.clone()).collect();
        let mut admitted = BTreeSet::new();
        for (key, &lane) in schedule.iter().enumerate() {
            let ctx = lanes
                .get(lane)
                .unwrap_or(&shared)
                .apply(TraceContext::root(seed, key as u64));
            if ctx.sampled {
                admitted.insert(ctx.trace_id);
            }
        }
        prop_assert_eq!(&admitted, &expected);
        prop_assert_eq!(shared.admitted() as usize, expected.len());
        prop_assert_eq!(shared.admitted() + shared.rejected(), schedule.len() as u64);
    }

    /// End to end through the lane-drain merge: recorders on four
    /// simulated lanes record only admitted contexts (the unsampled bit
    /// mutes the rest), and the trace ids surviving in the merged drain
    /// are the admits-filtered set — whatever order the batches are
    /// passed to `merge_drained`.
    #[test]
    fn verdicts_commute_with_drain_merge_order(
        seed in any::<u64>(),
        rate in 2u64..=32,
        keys in proptest::collection::vec(0u64..10_000, 16..128),
        perm in any::<u64>(),
    ) {
        // A generated permutation of the four batches: sort by 16-bit
        // slices of `perm` (stable sort keeps ties deterministic).
        let mut batch_order = vec![0usize, 1, 2, 3];
        batch_order.sort_by_key(|&b| (perm >> (b * 16)) & 0xFFFF);
        let sampler = Sampler::new(seed, rate);
        let recorders: Vec<FlightRecorder> =
            (0..4).map(|_| FlightRecorder::new(1 << 10)).collect();
        for (i, &key) in keys.iter().enumerate() {
            let ctx = sampler.apply(TraceContext::root(seed, key));
            if let Some(rec) = recorders.get(i % 4) {
                rec.record_span(ctx, rec.intern("produce"), key, 1);
            }
        }
        let batches: Vec<(LaneSummary, Vec<_>)> = recorders
            .iter()
            .enumerate()
            .map(|(i, rec)| {
                let events = rec.drain();
                (summary(i as u16 + 1, events.len() as u64), events)
            })
            .collect();
        let expected: BTreeSet<u64> = keys
            .iter()
            .map(|&key| TraceContext::root(seed, key).trace_id)
            .filter(|&id| sampler.admits(id))
            .collect();
        let mut reordered: Vec<(LaneSummary, Vec<_>)> = Vec::new();
        for &b in &batch_order {
            if let Some(batch) = batches.get(b) {
                reordered.push((batch.0.clone(), batch.1.clone()));
            }
        }
        let canonical = merge_drained(batches);
        let shuffled = merge_drained(reordered);
        let ids = |events: &[augur_telemetry::FlightEvent]| -> BTreeSet<u64> {
            events.iter().map(|e| e.trace_id).collect()
        };
        prop_assert_eq!(&ids(&canonical.events), &expected);
        prop_assert_eq!(&ids(&shuffled.events), &expected);
        // The merge itself is canonical: identical event sequences.
        let sig = |events: &[augur_telemetry::FlightEvent]| -> Vec<(u64, u64, u64)> {
            events.iter().map(|e| (e.ts_us, e.trace_id, e.span_id)).collect()
        };
        prop_assert_eq!(sig(&canonical.events), sig(&shuffled.events));
    }

    /// The tail reservoir's kept set is a pure function of the offered
    /// set: any permutation (as produced by draining lanes in any
    /// order) retains byte-identical traces.
    #[test]
    fn reservoir_kept_set_survives_any_offer_order(
        seed in any::<u64>(),
        k in 1usize..=8,
        traces in proptest::collection::vec(
            (any::<u64>(), 0u64..10_000, any::<bool>()),
            1..100,
        ),
        order in proptest::collection::vec(any::<u64>(), 1..100),
    ) {
        let mut forward = TailReservoir::new(seed, k);
        for &(id, dur, err) in &traces {
            forward.offer(id, dur, err, Vec::new());
        }
        // A deterministic permutation driven by the generated order key.
        let mut keyed: Vec<(u64, (u64, u64, bool))> = traces
            .iter()
            .enumerate()
            .map(|(i, &t)| (order.get(i % order.len()).copied().unwrap_or(0) ^ i as u64, t))
            .collect();
        keyed.sort_by_key(|(key, _)| *key);
        let mut shuffled = TailReservoir::new(seed, k);
        for &(_, (id, dur, err)) in &keyed {
            shuffled.offer(id, dur, err, Vec::new());
        }
        let fingerprint = |kept: Vec<RetainedTrace>| -> Vec<(u64, u64, bool)> {
            kept.iter().map(|t| (t.trace_id, t.dur_us, t.error)).collect()
        };
        prop_assert_eq!(fingerprint(forward.drain()), fingerprint(shuffled.drain()));
        prop_assert_eq!(forward.offered(), shuffled.offered());
        prop_assert_eq!(forward.discarded(), shuffled.discarded());
    }
}
