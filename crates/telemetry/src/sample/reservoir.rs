//! Tail-based retention: keep the K slowest traces and every
//! WARN+/error trace per window, whatever head sampling decided.
//!
//! Head sampling keeps a uniform 1-in-N slice — statistically honest,
//! operationally useless for chasing a p99 spike, because the spike is
//! in the tail head sampling almost certainly dropped. The reservoir
//! closes that gap: callers offer **every** finished trace (id, modeled
//! duration, error flag, and the trace's flight events, which are empty
//! for head-rejected traces that recorded nothing but still carry their
//! identity); per window the reservoir retains the K slowest plus all
//! error-bearing traces.
//!
//! **Determinism.** Retention is a top-K selection under the total
//! order `(dur_us, SplitMix64 key, trace_id)` — the key is
//! [`crate::mix64`] over `seed ^ mix64(trace_id)`, and the
//! trace id breaks any residual tie — so the kept set is a pure
//! function of the offered set: independent of offer order, lane
//! interleaving, and merge order. [`TailReservoir::drain`] returns the
//! window sorted slowest-first by the same order, ready for
//! [`crate::render_chrome_trace`] via [`retained_events`].

use crate::flight::FlightEvent;
use crate::trace::mix64;

/// One trace the reservoir kept: identity, why it was kept, and the
/// flight events it recorded (empty when head sampling muted it).
#[derive(Debug, Clone)]
pub struct RetainedTrace {
    /// The chain's trace id.
    pub trace_id: u64,
    /// Modeled end-to-end duration of the trace.
    pub dur_us: u64,
    /// Whether the trace carried a WARN+/error event (always retained).
    pub error: bool,
    /// The trace's recorded flight events, in recording order.
    pub events: Vec<FlightEvent>,
}

/// The deterministic weighted reservoir; see the module docs.
#[derive(Debug)]
pub struct TailReservoir {
    seed: u64,
    capacity: usize,
    /// Current window's slow candidates, at most `capacity` entries.
    slow: Vec<RetainedTrace>,
    /// Current window's error traces (all kept).
    errors: Vec<RetainedTrace>,
    offered: u64,
    discarded: u64,
}

impl TailReservoir {
    /// A reservoir keeping the `capacity` slowest traces per window
    /// under `seed` (plus all error traces).
    pub fn new(seed: u64, capacity: usize) -> TailReservoir {
        TailReservoir {
            seed,
            capacity,
            slow: Vec::new(),
            errors: Vec::new(),
            offered: 0,
            discarded: 0,
        }
    }

    /// The configured per-window slow-trace capacity K.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retention priority of a candidate: greater keeps. Total
    /// order — `trace_id` is unique per chain — so top-K selection is
    /// independent of offer order.
    fn priority(&self, t: &RetainedTrace) -> (u64, u64, u64) {
        (t.dur_us, mix64(self.seed ^ mix64(t.trace_id)), t.trace_id)
    }

    /// Offers one finished trace to the current window. Error traces
    /// are always kept; others compete for the K slow slots.
    pub fn offer(&mut self, trace_id: u64, dur_us: u64, error: bool, events: Vec<FlightEvent>) {
        self.offered += 1;
        let candidate = RetainedTrace {
            trace_id,
            dur_us,
            error,
            events,
        };
        if error {
            self.errors.push(candidate);
            return;
        }
        if self.slow.len() < self.capacity {
            self.slow.push(candidate);
            return;
        }
        let Some(min_at) = (0..self.slow.len()).min_by_key(|&i| {
            self.slow
                .get(i)
                .map(|t| self.priority(t))
                .unwrap_or((0, 0, 0))
        }) else {
            // Capacity 0: nothing competes.
            self.discarded += 1;
            return;
        };
        let evict = self
            .slow
            .get(min_at)
            .map(|t| self.priority(t) < self.priority(&candidate))
            .unwrap_or(false);
        if evict {
            if let Some(slot) = self.slow.get_mut(min_at) {
                *slot = candidate;
            }
        }
        self.discarded += 1;
    }

    /// Traces offered across the reservoir's lifetime.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Traces discarded (offered but not retained) across the lifetime.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Traces currently retained in the open window.
    pub fn retained(&self) -> usize {
        self.slow.len() + self.errors.len()
    }

    /// The observed kept fraction over the reservoir's lifetime
    /// (1.0 before anything was offered).
    pub fn effective_rate(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            (self.offered - self.discarded) as f64 / self.offered as f64
        }
    }

    /// Closes the window: returns every retained trace sorted
    /// slowest-first under the retention order (duration, SplitMix64
    /// key, trace id — descending), errors competing like any other
    /// trace for position. The window resets; lifetime tallies persist.
    pub fn drain(&mut self) -> Vec<RetainedTrace> {
        let mut out: Vec<RetainedTrace> =
            self.slow.drain(..).chain(self.errors.drain(..)).collect();
        out.sort_by_key(|t| std::cmp::Reverse(self.priority(t)));
        out
    }
}

/// Flattens drained traces into one event list in drain order — the
/// input shape [`crate::render_chrome_trace`] expects.
pub fn retained_events(retained: &[RetainedTrace]) -> Vec<FlightEvent> {
    retained
        .iter()
        .flat_map(|t| t.events.iter().cloned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer_all(r: &mut TailReservoir, traces: &[(u64, u64, bool)]) {
        for &(id, dur, err) in traces {
            r.offer(id, dur, err, Vec::new());
        }
    }

    #[test]
    fn keeps_the_k_slowest() {
        let mut r = TailReservoir::new(1, 3);
        let traces: Vec<(u64, u64, bool)> = (0..100u64)
            .map(|i| (i + 1, (i * 37) % 1000, false))
            .collect();
        offer_all(&mut r, &traces);
        let kept = r.drain();
        let mut durs: Vec<u64> = traces.iter().map(|t| t.1).collect();
        durs.sort_unstable_by(|a, b| b.cmp(a));
        let kept_durs: Vec<u64> = kept.iter().map(|t| t.dur_us).collect();
        assert_eq!(kept_durs, durs[..3].to_vec(), "the 3 slowest survive");
        assert_eq!(r.offered(), 100);
        assert_eq!(r.discarded(), 97);
        assert!((r.effective_rate() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn error_traces_always_survive() {
        let mut r = TailReservoir::new(2, 2);
        // The error trace is the fastest of all — kept anyway.
        offer_all(
            &mut r,
            &[
                (1, 1, true),
                (2, 500, false),
                (3, 400, false),
                (4, 300, false),
            ],
        );
        let kept = r.drain();
        assert_eq!(kept.len(), 3);
        assert!(kept.iter().any(|t| t.trace_id == 1 && t.error));
        assert_eq!(
            kept.last().map(|t| t.trace_id),
            Some(1),
            "fastest sorts last"
        );
    }

    #[test]
    fn kept_set_is_offer_order_invariant() {
        let traces: Vec<(u64, u64, bool)> = (0..200u64)
            .map(|i| (mix64(i).max(1), (i * 13) % 50, i % 41 == 0))
            .collect();
        let mut forward = TailReservoir::new(9, 8);
        offer_all(&mut forward, &traces);
        let mut reversed = TailReservoir::new(9, 8);
        let mut rev = traces.clone();
        rev.reverse();
        offer_all(&mut reversed, &rev);
        // Interleaved-ish: odd indexes first, then even.
        let mut shuffled = TailReservoir::new(9, 8);
        let mix: Vec<_> = traces
            .iter()
            .skip(1)
            .step_by(2)
            .chain(traces.iter().step_by(2))
            .copied()
            .collect();
        offer_all(&mut shuffled, &mix);

        let ids =
            |kept: Vec<RetainedTrace>| -> Vec<u64> { kept.iter().map(|t| t.trace_id).collect() };
        let a = ids(forward.drain());
        assert_eq!(a, ids(reversed.drain()));
        assert_eq!(a, ids(shuffled.drain()));
    }

    #[test]
    fn ties_break_on_key_then_trace_id_deterministically() {
        // All durations equal: retention is decided purely by the
        // SplitMix64 key (weighted reservoir behaviour).
        let traces: Vec<(u64, u64, bool)> = (1..=50u64).map(|i| (i, 7, false)).collect();
        let mut a = TailReservoir::new(4, 5);
        offer_all(&mut a, &traces);
        let mut b = TailReservoir::new(4, 5);
        let mut rev = traces.clone();
        rev.reverse();
        offer_all(&mut b, &rev);
        let ka: Vec<u64> = a.drain().iter().map(|t| t.trace_id).collect();
        let kb: Vec<u64> = b.drain().iter().map(|t| t.trace_id).collect();
        assert_eq!(ka, kb);
        assert_eq!(ka.len(), 5);
        // A different seed keeps a different tie-broken subset.
        let mut c = TailReservoir::new(5, 5);
        offer_all(&mut c, &traces);
        let kc: Vec<u64> = c.drain().iter().map(|t| t.trace_id).collect();
        assert_ne!(ka, kc, "seed must steer tie-breaking");
    }

    #[test]
    fn drain_resets_the_window_but_keeps_lifetime_tallies() {
        let mut r = TailReservoir::new(2, 1);
        offer_all(&mut r, &[(1, 10, false), (2, 20, false)]);
        assert_eq!(r.drain().len(), 1);
        assert_eq!(r.retained(), 0);
        offer_all(&mut r, &[(3, 5, false)]);
        let second = r.drain();
        assert_eq!(second.first().map(|t| t.trace_id), Some(3));
        assert_eq!(r.offered(), 3);
        assert_eq!(r.discarded(), 1);
    }

    #[test]
    fn zero_capacity_keeps_only_errors() {
        let mut r = TailReservoir::new(1, 0);
        offer_all(&mut r, &[(1, 100, false), (2, 1, true)]);
        let kept = r.drain();
        assert_eq!(kept.len(), 1);
        assert!(kept.first().map(|t| t.error).unwrap_or(false));
    }
}
